"""Graph construction, balance, connectivity, and subdivision."""

from __future__ import annotations

import random
import time

import pytest

from moytree.generate import random_balanced_graph, random_connected_digraph
from moytree.graph import (
    DirectedMultigraph,
    Edge,
    fresh_id,
    is_balanced,
    is_connected,
    is_strongly_connected,
    subdivide_edge,
)


# -- construction ----------------------------------------------------------


def test_vertices_and_edges_are_sorted(make_graph):
    g = make_graph(["b", "a", "c"], [("z", "a", "b", 1), ("y", "b", "c", 2)])
    assert g.vertices == ("a", "b", "c")
    assert [e.id for e in g.edges] == ["y", "z"]


def test_empty_vertex_set_rejected():
    with pytest.raises(ValueError, match="at least one vertex"):
        DirectedMultigraph([], [])


def test_duplicate_vertex_ids_rejected():
    with pytest.raises(ValueError, match="duplicate vertex"):
        DirectedMultigraph(["a", "a"], [])


def test_duplicate_vertex_ids_are_counted_once():
    # one repeat among 60 000 ids: counting each distinct id's copies with
    # list.count took about a minute
    ids = [f"v{i}" for i in range(59_999)] + ["v0"]
    start = time.process_time()
    with pytest.raises(ValueError) as info:
        DirectedMultigraph(ids, [])
    assert time.process_time() - start < 5
    assert str(info.value) == "duplicate vertex ids: ['v0']"
    with pytest.raises(ValueError) as info:
        DirectedMultigraph(["c", "b", "a", "c", "b", "c"], [])
    assert str(info.value) == "duplicate vertex ids: ['b', 'c']"


def test_edges_are_immutable_tuples_with_named_fields():
    e = Edge("e", "a", "b", 3)
    assert (e.id, e.tail, e.head, e.weight) == tuple(e) == ("e", "a", "b", 3)
    assert Edge._fields == ("id", "tail", "head", "weight")
    with pytest.raises(AttributeError):
        e.weight = 4


def test_duplicate_edge_ids_rejected(make_graph):
    with pytest.raises(ValueError, match="duplicate edge id"):
        make_graph(["a", "b"], [("e", "a", "b", 1), ("e", "b", "a", 1)])


def test_unknown_endpoints_rejected(make_graph):
    with pytest.raises(ValueError, match="unknown tail"):
        make_graph(["a", "b"], [("e", "x", "b", 1)])
    with pytest.raises(ValueError, match="unknown head"):
        make_graph(["a", "b"], [("e", "a", "x", 1)])


def test_bad_ids_and_weights_rejected(make_graph):
    with pytest.raises(ValueError, match="vertex id"):
        DirectedMultigraph(["a", ""], [])
    with pytest.raises(ValueError, match="edge id"):
        make_graph(["a", "b"], [("", "a", "b", 1)])
    with pytest.raises(ValueError, match="weight must be int"):
        make_graph(["a", "b"], [("e", "a", "b", 1.5)])
    with pytest.raises(ValueError, match="weight must be int"):
        make_graph(["a", "b"], [("e", "a", "b", True)])
    with pytest.raises(TypeError, match="expected Edge"):
        DirectedMultigraph(["a"], ["not an edge"])


def test_edge_lookup(make_graph):
    g = make_graph(["a", "b"], [("e", "a", "b", 3)])
    assert g.edge("e") == Edge("e", "a", "b", 3)
    assert g.has_edge("e") and not g.has_edge("f")
    assert g.has_vertex("a") and not g.has_vertex("x")
    with pytest.raises(ValueError, match="unknown edge"):
        g.edge("f")


def test_incidence_and_weights(make_graph):
    g = make_graph(
        ["a", "b"],
        [("e1", "a", "b", 2), ("e0", "a", "b", 3), ("f", "b", "a", 5)],
    )
    assert [e.id for e in g.out_edges("a")] == ["e0", "e1"]
    assert [e.id for e in g.in_edges("b")] == ["e0", "e1"]
    for v in "ab":
        assert sum(e.weight for e in g.in_edges(v)) == 5
        assert sum(e.weight for e in g.out_edges(v)) == 5
    with pytest.raises(ValueError, match="unknown vertex"):
        g.in_edges("x")


def test_self_loop_is_in_both_incidence_lists(make_graph):
    g = make_graph(["a"], [("e", "a", "a", 4)])
    assert g.in_edges("a") == g.out_edges("a") == (Edge("e", "a", "a", 4),)


def test_fresh_id_appends_apostrophes():
    assert fresh_id("x", []) == "x"
    assert fresh_id("x", ["x"]) == "x'"
    assert fresh_id("x", ["x", "x'"]) == "x''"


# -- balance ---------------------------------------------------------------


def test_balance_basic_cases(make_graph, lens_graph):
    assert is_balanced(lens_graph)
    assert is_balanced(make_graph(["a"], []))
    assert not is_balanced(make_graph(["a", "b"], [("e", "a", "b", 1)]))


def test_self_loops_never_change_balance():
    rng = random.Random(21)
    for k in range(50):
        g = (
            random_balanced_graph(rng, max_vertices=5)
            if k % 2 == 0
            else random_connected_digraph(rng, max_vertices=5)
        )
        before = is_balanced(g)
        v = rng.choice(g.vertices)
        loop = Edge(fresh_id("loop", (e.id for e in g.edges)), v, v, rng.randint(1, 9))
        g2 = DirectedMultigraph(g.vertices, list(g.edges) + [loop])
        assert is_balanced(g2) == before


def test_zero_weight_edges_count_for_balance(make_graph):
    g = make_graph(["a", "b"], [("e", "a", "b", 0), ("f", "b", "a", 0)])
    assert is_balanced(g)
    g = make_graph(["a", "b"], [("e", "a", "b", 1), ("f", "b", "a", 0)])
    assert not is_balanced(g)


# -- connectivity ----------------------------------------------------------


def test_connectivity(make_graph):
    assert is_connected(make_graph(["a"], []))
    assert not is_connected(make_graph(["a", "b"], []))
    # one edge connects underneath regardless of direction
    assert is_connected(make_graph(["a", "b"], [("e", "a", "b", 1)]))
    two_cycles = make_graph(
        ["a", "b", "c", "d"],
        [
            ("e1", "a", "b", 1),
            ("e2", "b", "a", 1),
            ("f1", "c", "d", 1),
            ("f2", "d", "c", 1),
        ],
    )
    assert not is_connected(two_cycles)


def test_strong_connectivity(make_graph):
    assert is_strongly_connected(make_graph(["a"], []))
    assert not is_strongly_connected(make_graph(["a", "b"], [("e", "a", "b", 1)]))
    cycle = make_graph(
        ["a", "b", "c"],
        [("e", "a", "b", 1), ("f", "b", "c", 1), ("g", "c", "a", 1)],
    )
    assert is_strongly_connected(cycle)


def test_connected_positive_balanced_implies_strongly_connected():
    rng = random.Random(22)
    for _ in range(100):
        g = random_balanced_graph(rng, max_vertices=7)
        assert is_balanced(g) and is_connected(g)
        assert is_strongly_connected(g)


# -- subdivision -----------------------------------------------------------


def test_subdivide_names_and_weights(make_graph):
    g = make_graph(["a", "b"], [("e", "a", "b", 3), ("f", "b", "a", 3)])
    g2 = subdivide_edge(g, "e")
    assert g2.vertices == ("a", "b", "e.v")
    assert g2.edge("e.1") == Edge("e.1", "a", "e.v", 3)
    assert g2.edge("e.2") == Edge("e.2", "e.v", "b", 3)
    assert not g2.has_edge("e")


def test_subdivide_twice_makes_a_two_vertex_path(make_graph):
    g = make_graph(["a", "b"], [("e", "a", "b", 3), ("f", "b", "a", 3)])
    g2 = subdivide_edge(subdivide_edge(g, "e"), "e.1")
    assert set(g2.vertices) == {"a", "b", "e.v", "e.1.v"}
    hops = {(x.tail, x.head) for x in g2.edges if x.id != "f"}
    assert hops == {("a", "e.1.v"), ("e.1.v", "e.v"), ("e.v", "b")}


def test_subdivide_avoids_name_collisions(make_graph):
    g = make_graph(
        ["a", "b", "e.v"],
        [("e", "a", "b", 2), ("e.1", "b", "e.v", 1), ("x", "e.v", "a", 1)],
    )
    g2 = subdivide_edge(g, "e")
    assert "e.v'" in g2.vertices
    assert g2.has_edge("e.1'") and g2.has_edge("e.2")


def test_subdivide_unknown_edge(make_graph):
    with pytest.raises(ValueError, match="unknown edge"):
        subdivide_edge(make_graph(["a"], []), "e")


def test_subdivide_preserves_balance():
    rng = random.Random(23)
    for _ in range(50):
        g = random_balanced_graph(rng, max_vertices=6)
        e = rng.choice(g.edges)
        assert is_balanced(subdivide_edge(g, e.id))
