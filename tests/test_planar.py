"""Rotation systems, face traversal, validation, and diagram decoration."""

from __future__ import annotations

import random

import pytest

from moytree.generate import (
    grow_map,
    random_plane_map,
    seed_cycle,
    seed_lens_triangle,
    seed_prism,
    seed_theta,
)
from moytree.graph import DirectedMultigraph, Edge, is_connected
from moytree.graphfile import build_map, map_text, parse_document
from moytree.planar import (
    CombinatorialMap,
    Dart,
    DecoratedDiagram,
    DiagramError,
    MapStructureError,
    decorate,
    validate_map,
)
from oracles import face_layout


def plain_map(records, rotation_tokens):
    vertices = sorted(rotation_tokens)
    g = DirectedMultigraph(vertices, [Edge(*r) for r in records])
    rotation = {
        v: tuple(Dart.parse(tok) for tok in toks)
        for v, toks in rotation_tokens.items()
    }
    return CombinatorialMap(g, rotation)


# -- darts -------------------------------------------------------------------


def test_dart_twin_and_token():
    d = Dart("e", "t")
    assert d.twin() == Dart("e", "h")
    assert d.twin().twin() == d
    assert d.token() == "e:t"
    assert Dart.parse("e:h") == Dart("e", "h")


def test_dart_parse_keeps_colons_in_edge_ids():
    assert Dart.parse("a:b:t") == Dart("a:b", "t")


def test_dart_parse_rejects_bad_tokens():
    for bad in ("e", "e:x", "e:"):
        with pytest.raises(ValueError, match="bad dart token"):
            Dart.parse(bad)
    # an empty edge id parses; resolving it is the map layer's problem
    assert Dart.parse(":t") == Dart("", "t")


# -- structural validation -----------------------------------------------------


def test_map_requires_every_dart_once(lens_map):
    g = lens_map.graph
    rot = dict(lens_map.rotation)
    rot["v1"] = rot["v1"][:-1]
    with pytest.raises(MapStructureError, match="missing from rotation"):
        CombinatorialMap(g, rot)


def test_map_rejects_duplicate_darts(lens_map):
    g = lens_map.graph
    rot = dict(lens_map.rotation)
    rot["v1"] = rot["v1"] + (rot["v1"][0],)
    with pytest.raises(MapStructureError, match="more than once"):
        CombinatorialMap(g, rot)


def test_map_rejects_darts_at_wrong_vertex(lens_map):
    g = lens_map.graph
    rot = dict(lens_map.rotation)
    rot["v1"], rot["v2"] = rot["v2"], rot["v1"]
    with pytest.raises(MapStructureError, match="belongs at"):
        CombinatorialMap(g, rot)


def test_map_rejects_unknown_edges_and_vertices(make_graph):
    g = make_graph(["a", "b"], [("e", "a", "b", 1)])
    with pytest.raises(MapStructureError, match="unknown edge"):
        CombinatorialMap(g, {"a": (Dart("zz", "t"),), "b": (Dart("e", "h"),)})
    with pytest.raises(MapStructureError, match="unknown vertex"):
        CombinatorialMap(
            g, {"a": (Dart("e", "t"),), "b": (Dart("e", "h"),), "x": ()}
        )


def test_map_rejects_non_dart_entries(make_graph):
    g = make_graph(["a", "b"], [("e", "a", "b", 1)])
    with pytest.raises(TypeError, match="must be Dart"):
        CombinatorialMap(g, {"a": ("e:t",), "b": (Dart("e", "h"),)})


def numbered(m):
    """m's rotation with each dart as its number: 2k is the head end and
    2k + 1 the tail end of the k-th edge in id order."""
    number = {
        Dart(e.id, end): 2 * k + (end == "t")
        for k, e in enumerate(m.graph.edges)
        for end in "ht"
    }
    return {v: tuple(number[d] for d in darts) for v, darts in m.rotation.items()}


def test_darts_and_dart_numbers_build_the_same_map():
    rng = random.Random(31)
    maps = [random_plane_map(rng, max_vertices=8, max_weight=5) for _ in range(200)]
    maps += [grow_map(rng, seed_prism(3, 4, 5), 40), grow_map(rng, seed_prism(2, 3, 4), 80)]
    for m in maps:
        g, darts, numbers = m.graph, m.rotation, numbered(m)
        parsed = build_map(parse_document(map_text(m, g.edges[0].id)))
        for built in (CombinatorialMap(g, numbers), CombinatorialMap(g, darts), parsed):
            assert built.succ == m.succ
            assert built.face_of == m.face_of
            assert built.rotation == darts
        # one dart moved to another vertex, listed twice, or left out
        v, w = rng.sample(g.vertices, 2)
        i = rng.randrange(len(darts[v]))
        for rotation in (darts, numbers):
            rest = rotation[v][:i] + rotation[v][i + 1:]
            faults = (
                {**rotation, v: rest, w: rotation[w] + rotation[v][i:i + 1]},
                {**rotation, v: rotation[v] + rotation[v][i:i + 1]},
                {**rotation, v: rest},
            )
            messages = []
            for fault in faults:
                with pytest.raises(MapStructureError) as info:
                    CombinatorialMap(g, fault)
                messages.append(str(info.value))
            if rotation is darts:
                by_dart = messages
        assert messages == by_dart
        assert "belongs at" in messages[0]
        assert "listed more than once" in messages[1]
        assert "missing from rotation" in messages[2]


def test_map_refuses_bad_dart_numbers(lens_map):
    g, numbers = lens_map.graph, numbered(lens_map)
    for bad in (2 * len(g.edges), -1):
        with pytest.raises(MapStructureError) as info:
            CombinatorialMap(g, {**numbers, "v1": numbers["v1"] + (bad,)})
        assert str(info.value) == f"dart number {bad}: out of range"
    with pytest.raises(TypeError, match="must be Dart or dart numbers, got True"):
        CombinatorialMap(g, {**numbers, "v1": (True,) + numbers["v1"][1:]})


# -- traversal ------------------------------------------------------------------


def test_successor_walks_the_rotation(lens_map):
    # darts 2k and 2k + 1 are the head and tail ends of the k-th edge, so
    # the face walk leaves a dart's twin t by succ[t ^ 1], the dart's
    # counterclockwise successor at its own vertex
    number = {
        Dart(e.id, end): 2 * k + (end == "t")
        for k, e in enumerate(lens_map.graph.edges)
        for end in "ht"
    }
    v1 = lens_map.rotation["v1"]
    for i, d in enumerate(v1):
        twin = number[d.twin()]
        assert twin == number[d] ^ 1
        assert lens_map.succ[twin ^ 1] == number[v1[(i + 1) % len(v1)]]
        e = lens_map.graph.edge(d.edge)
        assert (e.tail if d.end == "t" else e.head) == "v1"


def test_lens_faces_exact_orbits(lens_map):
    tokens = tuple(tuple(d.token() for d in f) for f in lens_map.faces())
    assert tokens == (
        ("e12:h", "e21:h"),
        ("e12:t", "e23:t", "e13:h"),
        ("e13:t", "e31:t"),
        ("e21:t", "e31:h", "e23:h"),
    )


def test_faces_partition_darts(lens_map):
    seen = [d for f in lens_map.faces() for d in f]
    darts = [d for at_vertex in lens_map.rotation.values() for d in at_vertex]
    assert len(darts) == 2 * len(lens_map.graph.edges)
    assert sorted(seen) == sorted(darts)
    assert len(seen) == len(set(seen))


def test_seed_face_counts():
    assert seed_cycle(4, 1).face_count() == 2
    assert seed_theta([1, 2], [3]).face_count() == 3
    assert seed_lens_triangle(1, 2, 3).face_count() == 4


def test_edgeless_map_has_one_face():
    m = plain_map([], {"a": ()})
    assert m.face_count() == 1
    assert validate_map(m) == []


# -- validation diagnostics ------------------------------------------------------


def test_clean_seeds_have_no_violations(lens_map):
    assert validate_map(lens_map) == []
    assert validate_map(seed_cycle(3, 2)) == []
    assert validate_map(seed_theta([2, 1], [1, 2])) == []


def test_loop_violation():
    m = plain_map([("e", "a", "a", 1)], {"a": ("e:t", "e:h")})
    checks = [v.check for v in validate_map(m)]
    assert checks == ["loop"]


def test_transverse_violation_on_interleaved_darts():
    m = plain_map(
        [("e1", "a", "b", 1), ("e2", "a", "b", 1), ("f1", "b", "a", 1), ("f2", "b", "a", 1)],
        {
            "a": ("e1:t", "f1:h", "e2:t", "f2:h"),
            "b": ("e1:h", "e2:h", "f1:t", "f2:t"),
        },
    )
    assert "transverse" in {v.check for v in validate_map(m)}


def test_planar_violation_on_twisted_theta():
    t = seed_theta([1, 1], [1, 1])
    rot = dict(t.rotation)
    a = list(rot["a"])
    a[2], a[3] = a[3], a[2]
    rot["a"] = tuple(a)
    twisted = CombinatorialMap(t.graph, rot)
    assert twisted.face_count() == 2
    assert [v.check for v in validate_map(twisted)] == ["planar"]


def test_disconnected_map_fails_planarity_and_connectivity():
    m = plain_map(
        [("e1", "a", "b", 1), ("e2", "b", "a", 1), ("f1", "c", "d", 1), ("f2", "d", "c", 1)],
        {
            "a": ("e1:t", "e2:h"),
            "b": ("e2:t", "e1:h"),
            "c": ("f1:t", "f2:h"),
            "d": ("f2:t", "f1:h"),
        },
    )
    assert [v.check for v in validate_map(m)] == ["planar"]
    assert not is_connected(m.graph)


# -- decoration --------------------------------------------------------------------


def test_decorated_lens_layout(lens_diagram):
    d = lens_diagram
    assert d.basepoint == "e23"
    assert d.root == "v3"
    assert len(d.regions) == 7
    assert d.crossings == ("e12", "e13", "e21", "e23", "e31")
    assert len(d.regions) == len(d.crossings) + 2


def _face_index(d, dart):
    """The region number of the face orbit holding the dart."""
    return next(k for k, orbit in enumerate(d.map.faces()) if dart in orbit)


def test_decorated_lens_marked_regions(lens_diagram):
    d = lens_diagram
    east = _face_index(d, Dart("e23", "t"))
    west = _face_index(d, Dart("e23", "h"))
    assert (d.corner_region["e23", "E"], d.corner_region["e23", "W"]) == (east, west)
    assert d.marked == tuple(sorted((east, west)))
    assert set(d.marked) <= set(d.regions)
    assert len(set(d.regions) - set(d.marked)) == 5


def test_corner_orientation_is_pinned(lens_diagram):
    d = lens_diagram
    face_count = len(d.map.faces())
    vertices = d.map.graph.vertices
    for eid, head in (("e12", "v2"), ("e23", "v3"), ("e31", "v1")):
        assert d.corner_region[eid, "N"] == face_count + vertices.index(head)
        assert d.corner_region[eid, "E"] == _face_index(d, Dart(eid, "t"))
        assert d.corner_region[eid, "W"] == _face_index(d, Dart(eid, "h"))


def test_admissible_corners(lens_diagram):
    assert lens_diagram.admissible_corners("e23") == ("N",)
    assert lens_diagram.admissible_corners("e12") == ("N", "W", "E")


def test_regions_are_numbered_faces_then_circles(lens_diagram):
    rng = random.Random(23)
    diagrams = [lens_diagram]
    for _ in range(20):
        m = random_plane_map(rng, max_vertices=8, max_weight=5)
        diagrams.append(decorate(m, rng.choice(m.graph.edges).id))
    for d in diagrams:
        faces = d.map.faces()
        vertices = d.map.graph.vertices
        assert d.regions == range(len(faces) + len(vertices))
        face_of = {dart: k for k, orbit in enumerate(faces) for dart in orbit}
        assert len(face_of) == 2 * len(d.crossings)
        for e in d.map.graph.edges:
            circle = len(faces) + vertices.index(e.head)
            assert d.corner_region[e.id, "N"] == circle
            assert d.corner_region[e.id, "E"] == face_of[Dart(e.id, "t")]
            assert d.corner_region[e.id, "W"] == face_of[Dart(e.id, "h")]
        flanks = (face_of[Dart(d.basepoint, "t")], face_of[Dart(d.basepoint, "h")])
        assert d.marked == tuple(sorted(flanks))
        assert set(d.corner_region.values()) <= set(d.regions)
        assert len(set(d.regions) - set(d.marked)) == len(d.crossings)


def labelled_cycle(rng, n):
    """A unit directed n-cycle whose vertex and edge ids are a seeded
    permutation, so id order (e10 < e2) is neither walk nor numeric order."""
    vids = [f"v{i}" for i in rng.sample(range(n), n)]
    eids = [f"e{i}" for i in rng.sample(range(n), n)]
    edges = [Edge(eids[i], vids[i], vids[(i + 1) % n], 1) for i in range(n)]
    rotation = {vids[i]: (Dart(eids[i], "t"), Dart(eids[i - 1], "h")) for i in range(n)}
    return CombinatorialMap(DirectedMultigraph(vids, edges), rotation)


def colon_ids(m):
    """The map with each edge id e renamed "e:h": an id that ends like a
    dart token and sorts otherwise ("e10:h" < "e1:h" but "e1" < "e10")."""
    name = {e.id: f"{e.id}:h" for e in m.graph.edges}
    edges = [Edge(name[e.id], e.tail, e.head, e.weight) for e in m.graph.edges]
    rotation = {
        v: tuple(Dart(name[d.edge], d.end) for d in darts) for v, darts in m.rotation.items()
    }
    return CombinatorialMap(DirectedMultigraph(m.graph.vertices, edges), rotation)


def test_faces_and_regions_match_a_walk_of_the_rotation_dict():
    rng = random.Random(29)
    maps = [labelled_cycle(rng, n) for n in (11, 12, 30, 101)]
    maps += [grow_map(rng, seed_prism(3, 4, 5), 40), grow_map(rng, seed_prism(2, 3, 4), 80)]
    maps += [random_plane_map(rng, max_vertices=8, max_weight=5) for _ in range(200)]
    maps += [colon_ids(m) for m in maps[:10]]
    for m in maps:
        basepoint = rng.choice(m.graph.edges).id
        faces, corner_region, marked = face_layout(m.rotation, basepoint)
        # the map as built, and as read back through the document parser
        for built in (m, build_map(parse_document(map_text(m, basepoint)))):
            assert built.faces() == faces
            assert built.face_count() == len(faces)
            d = decorate(built, basepoint)
            assert d.regions == range(len(faces) + len(m.graph.vertices))
            assert d.corner_region == corner_region
            assert d.marked == marked


def test_decorate_rejects_unknown_basepoint(lens_map):
    # the graph's own lookup error, which the command line reports with exit 2
    with pytest.raises(ValueError) as info:
        decorate(lens_map, "zz")
    assert type(info.value) is ValueError
    assert str(info.value) == "unknown edge 'zz'"


def test_decorate_rejects_loops():
    m = plain_map(
        [("e", "a", "a", 1), ("f", "a", "b", 1), ("g", "b", "a", 1)],
        {"a": ("e:t", "e:h", "f:t", "g:h"), "b": ("f:h", "g:t")},
    )
    with pytest.raises(DiagramError, match="loop"):
        decorate(m, "f")


def test_decorate_rejects_nonplanar_rotation():
    t = seed_theta([1, 1], [1, 1])
    rot = dict(t.rotation)
    a = list(rot["a"])
    a[2], a[3] = a[3], a[2]
    rot["a"] = tuple(a)
    with pytest.raises(DiagramError, match="planar"):
        decorate(CombinatorialMap(t.graph, rot), "f0")


def test_decorate_rejects_bridges():
    m = plain_map([("e", "a", "b", 1)], {"a": ("e:t",), "b": ("e:h",)})
    with pytest.raises(DiagramError, match="bridge"):
        decorate(m, "e")
    with pytest.raises(DiagramError, match="bridge"):
        DecoratedDiagram(m, "e")
