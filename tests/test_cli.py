"""End-to-end command-line behavior: golden outputs and exit codes."""

from __future__ import annotations

import hashlib
import json
import random
import shlex
import sys
import time
from pathlib import Path

import pytest

from moytree import cli, kauffman, spanning
from moytree.cli import main
from moytree.generate import (
    grow_map,
    random_balanced_graph,
    random_plane_map,
    seed_cycle,
    seed_prism,
    seed_theta,
)
from moytree.graph import DirectedMultigraph, Edge
from moytree.graphfile import document_text, map_text
from moytree.planar import HEAD, TAIL, CombinatorialMap, Dart, decorate
from oracles import kauffman_states

ROOT = Path(__file__).resolve().parent.parent
LENS_DATA = str(ROOT / "data" / "lens_triangle.json")

ALEXANDER_LINE = (
    "t^{9/2} + 2*t^{7/2} + 3*t^{5/2} + 4*t^{3/2} + 4*t^{1/2} "
    "+ 3*t^{-1/2} + 2*t^{-3/2} + t^{-5/2}"
)


@pytest.fixture
def lens_file(tmp_path, lens_map):
    path = tmp_path / "lens.json"
    path.write_text(map_text(lens_map, basepoint="e23"), encoding="utf-8")
    return str(path)


@pytest.fixture
def unbalanced_file(tmp_path):
    g = DirectedMultigraph(["a", "b"], [Edge("e", "a", "b", 1)])
    path = tmp_path / "unbalanced.json"
    path.write_text(document_text(g), encoding="utf-8")
    return str(path)


@pytest.fixture
def host_file(tmp_path):
    g = DirectedMultigraph(
        ["x", "y", "z"],
        [
            Edge("xy", "x", "y", 1),
            Edge("yx", "y", "x", 1),
            Edge("yz", "y", "z", 1),
            Edge("zy", "z", "y", 1),
        ],
    )
    path = tmp_path / "host.json"
    path.write_text(document_text(g), encoding="utf-8")
    return str(path)


def _swapped_rotation(lens_map) -> str:
    doc = json.loads(map_text(lens_map, basepoint="e23"))
    rotation = doc["rotation"]
    rotation["v1"], rotation["v2"] = rotation["v2"], rotation["v1"]
    return json.dumps(doc)


def _bridge_diagram() -> str:
    g = DirectedMultigraph(["a", "b"], [Edge("e", "a", "b", 1)])
    doc = json.loads(document_text(g))
    doc["rotation"] = {"a": ["e:t"], "b": ["e:h"]}
    doc["basepoint"] = "e"
    return json.dumps(doc)


def _cycle13() -> str:
    vs = [f"v{i:02d}" for i in range(13)]
    es = [Edge(f"e{i:02d}", vs[i], vs[(i + 1) % 13], 1) for i in range(13)]
    return document_text(DirectedMultigraph(vs, es))


def _corrupt_minor_and_det(monkeypatch, corrupted: int) -> None:
    # 0 corrupts the minor N(z), 1 the bordered determinant
    real = spanning._Elimination.minor_and_det

    def off_by_one(self, last, n):
        pair = list(real(self, last, n))
        pair[corrupted] += 1
        return tuple(pair)

    monkeypatch.setattr(spanning._Elimination, "minor_and_det", off_by_one)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- counting ---------------------------------------------------------------


def test_count_all_methods(capsys, lens_file):
    code, out, _ = run(capsys, ["count", lens_file])
    assert code == 0
    assert out == "enum=20\ndet=20\nagree=true\n"


def test_count_single_method_and_root(capsys, lens_file):
    code, out, _ = run(capsys, ["count", lens_file, "--method", "det"])
    assert (code, out) == (0, "det=20\n")
    code, out, _ = run(capsys, ["count", lens_file, "--root", "v2", "--method", "enum"])
    assert (code, out) == (0, "enum=20\n")


def test_count_by_enumeration_takes_no_determinant(capsys, lens_file, monkeypatch):
    def refuse(self, last, n):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(spanning._Elimination, "minor_and_det", refuse)
    code, out, _ = run(capsys, ["count", lens_file, "--method", "enum"])
    assert (code, out) == (0, "enum=20\n")


def test_count_certificate_mismatch_is_identity_violation(
    capsys, lens_file, monkeypatch
):
    _corrupt_minor_and_det(monkeypatch, 1)
    code, out, err = run(capsys, ["count", lens_file, "--method", "det"])
    assert (code, out) == (1, "")
    assert err.startswith("identity violated: root-dependent counts")


def test_count_unbalanced_needs_root(capsys, unbalanced_file):
    code, out, err = run(capsys, ["count", unbalanced_file])
    assert (code, out) == (2, "")
    assert err == "error: count requires --root on an unbalanced graph\n"
    code, out, _ = run(capsys, ["count", unbalanced_file, "--root", "a"])
    assert code == 0
    assert out == "enum=1\ndet=1\nagree=true\n"


def test_count_unknown_root_is_usage_error(capsys, lens_file):
    code, _, err = run(capsys, ["count", lens_file, "--root", "zz"])
    assert code == 2
    assert "unknown root" in err


def test_trees_listing(capsys, lens_file):
    code, out, _ = run(capsys, ["trees", lens_file, "--root", "v2", "--list"])
    assert code == 0
    assert out == (
        "tree: e13 e21 weight=2\n"
        "tree: e21 e23 weight=6\n"
        "tree: e23 e31 weight=12\n"
        "count=3\n"
        "weighted=20\n"
    )


def test_laplacian_golden(capsys, lens_file):
    code, out, _ = run(capsys, ["laplacian", lens_file])
    assert code == 0
    assert out == "6 -5 -1\n-2 5 -3\n-4 0 4\n"


# -- diagram commands ----------------------------------------------------------


def test_alexander_golden(capsys, lens_file):
    code, out, _ = run(capsys, ["alexander", lens_file])
    assert code == 0
    assert out == f"{ALEXANDER_LINE}\neval@1 = 20\n"


def test_alexander_basepoint_override(capsys, lens_file):
    code, out, _ = run(capsys, ["alexander", lens_file, "--edge", "e31"])
    assert code == 0
    assert out.endswith("eval@1 = 20\n")


def test_alexander_is_deterministic(capsys, lens_file):
    _, first, _ = run(capsys, ["alexander", lens_file])
    _, second, _ = run(capsys, ["alexander", lens_file])
    assert first == second


def test_states_golden(capsys, lens_file):
    code, out, _ = run(capsys, ["states", lens_file])
    assert code == 0
    assert out == (
        "state 1:\n"
        "e12 -> N\n"
        "e13 -> E\n"
        "e21 -> W\n"
        "e23 -> N\n"
        "e31 -> N\n"
        "\n"
        "count=1\n"
    )


def _oracle_listing(states) -> str:
    """The ``states`` listing written from {edge id: corner} dicts."""
    blocks = (
        f"state {k}:\n" + "".join(f"{e} -> {c}\n" for e, c in sorted(state.items())) + "\n"
        for k, state in enumerate(states, start=1)
    )
    return "".join(blocks) + f"count={len(states)}\n"


def _renamed(m: CombinatorialMap, names: dict[str, str]) -> CombinatorialMap:
    g = m.graph
    graph = DirectedMultigraph(g.vertices, [e._replace(id=names[e.id]) for e in g.edges])
    rotation = {
        v: tuple(Dart(names[d.edge], d.end) for d in darts) for v, darts in m.rotation.items()
    }
    return CombinatorialMap(graph, rotation)


def test_states_listing_matches_a_formatter_over_oracle_dicts(capsys, tmp_path, lens_map):
    rng = random.Random(71)
    maps = []
    for _ in range(50):
        # five vertices keep the oracle's 3^E assignments small
        m = random_plane_map(rng, max_vertices=5, max_weight=4)
        maps.append((m, rng.choice(m.graph.edges).id))
    # as strings e10 and e11 sort before e2 and e3, as numbers after them
    names = {"e12": "e10", "e13": "e2", "e21": "e3", "e23": "e11", "e31": "e1"}
    maps.append((_renamed(lens_map, names), "e10"))
    path = tmp_path / "map.json"
    listed = 0
    for m, basepoint in maps:
        path.write_text(map_text(m, basepoint), encoding="utf-8")
        code, out, err = run(capsys, ["states", str(path)])
        states = kauffman_states(decorate(m, basepoint))
        assert (code, err, out) == (0, "", _oracle_listing(states))
        listed += len(states)
    assert out.startswith("state 1:\ne1 -> N\ne10 -> N\ne11 -> N\ne2 -> E\ne3 -> E\n\n")
    assert out.endswith("\ncount=3\n")
    assert listed > 100


def test_bijection_golden(capsys, lens_file):
    code, out, _ = run(capsys, ["bijection", lens_file])
    assert code == 0
    assert out == (
        "root=v3 trees=1 states=1\n"
        "tree: e12 e31 -> ok weight=20\n"
        "bijection=ok\n"
    )


def _corrupt_decorate(monkeypatch, corrupt) -> None:
    real_decorate = cli.decorate

    def corrupted(m, basepoint):
        d = real_decorate(m, basepoint)
        corrupt(d.corner_region)
        return d

    monkeypatch.setattr(cli, "decorate", corrupted)


@pytest.mark.parametrize("edge", ("e13", "e21"))
@pytest.mark.parametrize("side, other", (("W", "E"), ("E", "W")))
def test_bijection_state_check_failure_is_identity_violation(
    capsys, monkeypatch, edge, side, other
):
    # One corner of a non-tree crossing moved onto the region of its other
    # corner: either two listed states send the same edges north, or no
    # state is left against the one tree the determinant counts.
    def corrupt(corner_region):
        corner_region[edge, side] = corner_region[edge, other]

    _corrupt_decorate(monkeypatch, corrupt)
    code, out, err = run(capsys, ["bijection", LENS_DATA])
    assert code == 1
    if (edge, side) in (("e13", "W"), ("e21", "E")):
        assert (out, err) == ("", "identity violated: states 1 and 2 induce one spanning tree\n")
    else:
        assert (out, err) == ("root=v3 trees=1 states=0\nbijection=fail\n", "")


def test_bijection_names_the_state_whose_north_edges_are_no_tree(capsys, monkeypatch):
    # e12's east corner moved onto the circle of v2: the second listed
    # state sends only the basepoint and e31 north, one edge for three
    # vertices
    def corrupt(corner_region):
        corner_region["e12", "E"] = 5

    _corrupt_decorate(monkeypatch, corrupt)
    code, out, _ = run(capsys, ["states", LENS_DATA])
    assert (code, out.split("state 2:\n")[1].split("\n")[0]) == (0, "e12 -> E")
    code, out, err = run(capsys, ["bijection", LENS_DATA])
    assert (code, out) == (1, "")
    assert err == (
        "identity violated: state 2 does not induce a spanning tree: "
        "invalid tree: 1 edges for 3 vertices\n"
    )


def test_bijection_with_no_state_listed_counts_one_tree_more(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_states", lambda diagram, force: [])
    code, out, err = run(capsys, ["bijection", LENS_DATA])
    assert (code, err) == (1, "")
    assert out == "root=v3 trees=1 states=0\nbijection=fail\n"


def test_refused_bijection_prints_nothing_on_stdout(capsys, tmp_path):
    g = DirectedMultigraph(["a", "b"], [Edge("e", "a", "b", 0), Edge("f", "b", "a", 0)])
    rotation = {
        "a": (Dart("e", "t"), Dart("f", "h")),
        "b": (Dart("f", "t"), Dart("e", "h")),
    }
    path = tmp_path / "zero.json"
    text = map_text(CombinatorialMap(g, rotation), basepoint="e")
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["bijection", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: edge 'e': crossing weight must be positive\n"


def test_alexander_names_the_first_nonpositive_weight_in_sorted_order(capsys, tmp_path):
    # the peel forces f first; the state sum weighs e before f
    g = DirectedMultigraph(["a", "b"], [Edge("f", "a", "b", 0), Edge("e", "b", "a", 0)])
    rotation = {
        "a": (Dart("f", "t"), Dart("e", "h")),
        "b": (Dart("e", "t"), Dart("f", "h")),
    }
    path = tmp_path / "zero.json"
    path.write_text(map_text(CombinatorialMap(g, rotation), basepoint="f"), encoding="utf-8")
    code, out, err = run(capsys, ["alexander", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: edge 'e': crossing weight must be positive\n"


DIAGRAM_COMMANDS = ("alexander", "states", "bijection")


def test_alexander_requires_rotation(capsys, unbalanced_file):
    # every diagram command checks the rotation before the --edge override
    for command in DIAGRAM_COMMANDS:
        for extra in ([], ["--edge", "nope"]):
            code, _, err = run(capsys, [command, unbalanced_file, *extra])
            assert code == 2
            assert "rotation: required" in err


def test_alexander_requires_basepoint(capsys, tmp_path, lens_map):
    path = tmp_path / "nobase.json"
    path.write_text(map_text(lens_map), encoding="utf-8")
    for command in DIAGRAM_COMMANDS:
        code, _, err = run(capsys, [command, str(path)])
        assert code == 2
        assert "basepoint: required" in err
        code, _, _ = run(capsys, [command, str(path), "--edge", "e23"])
        assert code == 0
    _, out, _ = run(capsys, ["alexander", str(path), "--edge", "e23"])
    assert out == f"{ALEXANDER_LINE}\neval@1 = 20\n"


@pytest.mark.parametrize("command", DIAGRAM_COMMANDS)
def test_diagram_commands_reject_unknown_edge(capsys, tmp_path, lens_map, command):
    # an unknown --edge is reported even when the file has no basepoint
    path = tmp_path / "nobase.json"
    path.write_text(map_text(lens_map), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path), "--edge", "nope"])
    assert code == 2
    assert out == ""
    assert err == "error: unknown edge 'nope'\n"


@pytest.mark.parametrize("command", DIAGRAM_COMMANDS)
def test_unknown_edge_outranks_an_undecoratable_map(capsys, tmp_path, command):
    # the basepoint is looked up before the map is checked, so a bad --edge
    # on a nonplanar map is still a usage error (2), not a failed check (1)
    theta = seed_theta([1, 1], [1, 1])
    rotation = dict(theta.rotation)
    a = list(rotation["a"])
    a[2], a[3] = a[3], a[2]
    rotation["a"] = tuple(a)
    path = tmp_path / "twisted.json"
    path.write_text(map_text(CombinatorialMap(theta.graph, rotation)), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path), "--edge", "f0"])
    assert code == 1 and out == "" and "planar" in err
    assert run(capsys, [command, str(path), "--edge", "zz"]) == (
        2,
        "",
        "error: unknown edge 'zz'\n",
    )


def test_alexander_rejects_bridge_diagrams(capsys, tmp_path):
    path = tmp_path / "bridge.json"
    path.write_text(_bridge_diagram(), encoding="utf-8")
    code, _, err = run(capsys, ["alexander", str(path)])
    assert code == 1
    assert "validation failed" in err and "bridge" in err


def test_alexander_rejects_broken_rotation(capsys, tmp_path, lens_map):
    path = tmp_path / "broken.json"
    path.write_text(_swapped_rotation(lens_map), encoding="utf-8")
    code, _, err = run(capsys, ["alexander", str(path)])
    assert code == 1
    assert "validation failed" in err


# -- validate ---------------------------------------------------------------------


def test_validate_clean_diagram(capsys, lens_file):
    code, out, _ = run(capsys, ["validate", lens_file])
    assert code == 0
    assert out == (
        "positive-weights=ok\n"
        "balance=ok\n"
        "connectivity=ok\n"
        "strong-connectivity=ok\n"
        "rotation-structure=ok\n"
        "loop=ok\n"
        "transverse=ok\n"
        "planar=ok\n"
        "basepoint=ok\n"
        "result=ok\n"
    )


def test_validate_unbalanced_graph(capsys, unbalanced_file):
    code, out, _ = run(capsys, ["validate", unbalanced_file])
    assert code == 1
    lines = out.splitlines()
    assert "balance=fail" in lines
    assert "strong-connectivity=fail" in lines
    assert "rotation=absent" in lines
    assert lines[-1] == "result=fail"


@pytest.mark.parametrize(
    "records, balance, strong",
    [
        ([("ab", "a", "b", 0), ("ba", "b", "a", 0)], "ok", "ok"),
        ([("ab", "a", "b", 0)], "ok", "fail"),
        ([("ab", "a", "b", 2), ("ba", "b", "a", 1)], "fail", "ok"),
        ([("ab", "a", "b", 1)], "fail", "fail"),
    ],
)
def test_validate_searches_strong_connectivity_when_the_premise_fails(
    capsys, tmp_path, monkeypatch, records, balance, strong
):
    # a zero weight or a lopsided vertex voids "positive, balanced and
    # connected implies strongly connected", so the searches decide
    g = DirectedMultigraph(["a", "b"], [Edge(*r) for r in records])
    path = tmp_path / "premise.json"
    path.write_text(document_text(g), encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    positive = "ok" if all(r[3] >= 1 for r in records) else "fail"
    assert out.splitlines()[:4] == [
        f"positive-weights={positive}",
        f"balance={balance}",
        "connectivity=ok",
        f"strong-connectivity={strong}",
    ]


def test_validate_takes_strong_connectivity_from_the_premise(capsys, lens_file, monkeypatch):
    def refuse(g):
        raise AssertionError("searched a positive, balanced, connected graph")

    monkeypatch.setattr(cli, "is_strongly_connected", refuse)
    code, out, _ = run(capsys, ["validate", lens_file])
    assert code == 0
    assert "strong-connectivity=ok" in out.splitlines()


def test_validate_unbalanced_map_with_basepoint(capsys, tmp_path, lens_map):
    # the map checks pass, yet an unbalanced graph gets no basepoint line
    doc = json.loads(map_text(lens_map, basepoint="e23"))
    doc["edges"][0]["weight"] += 1
    path = tmp_path / "bumped.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    assert out == (
        "positive-weights=ok\n"
        "balance=fail\n"
        "connectivity=ok\n"
        "strong-connectivity=ok\n"
        "rotation-structure=ok\n"
        "loop=ok\n"
        "transverse=ok\n"
        "planar=ok\n"
        "result=fail\n"
    )


def test_validate_disconnected_map(capsys, tmp_path):
    g = DirectedMultigraph(
        ["a", "b", "c", "d"],
        [
            Edge("e1", "a", "b", 1),
            Edge("e2", "b", "a", 1),
            Edge("f1", "c", "d", 1),
            Edge("f2", "d", "c", 1),
        ],
    )
    doc = json.loads(document_text(g))
    doc["rotation"] = {
        "a": ["e1:t", "e2:h"],
        "b": ["e2:t", "e1:h"],
        "c": ["f1:t", "f2:h"],
        "d": ["f2:t", "f1:h"],
    }
    doc["basepoint"] = "e1"
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    assert out == (
        "positive-weights=ok\n"
        "balance=ok\n"
        "connectivity=fail\n"
        "strong-connectivity=fail\n"
        "rotation-structure=ok\n"
        "loop=ok\n"
        "transverse=ok\n"
        "planar=fail *: V - E + F = 4, expected 2 for a sphere embedding\n"
        "result=fail\n"
    )


def test_validate_map_with_a_bridge(capsys, tmp_path):
    # balanced (bc has weight 0), connected and planar, but bc is a bridge
    g = DirectedMultigraph(
        ["a", "b", "c"],
        [Edge("ab", "a", "b", 1), Edge("ba", "b", "a", 1), Edge("bc", "b", "c", 0)],
    )
    doc = json.loads(document_text(g))
    doc["rotation"] = {"a": ["ab:t", "ba:h"], "b": ["ab:h", "ba:t", "bc:t"], "c": ["bc:h"]}
    doc["basepoint"] = "ab"
    path = tmp_path / "bridge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    assert out == (
        "positive-weights=fail\n"
        "balance=ok\n"
        "connectivity=ok\n"
        "strong-connectivity=fail\n"
        "rotation-structure=ok\n"
        "loop=ok\n"
        "transverse=ok\n"
        "planar=ok\n"
        "basepoint=fail edge 'bc' has the same face on both sides (bridge); "
        "basepoint regions would collide\n"
        "result=fail\n"
    )


def test_validate_rotation_with_darts_at_the_wrong_vertex(capsys, tmp_path):
    g = DirectedMultigraph(["a", "b"], [Edge("e", "a", "b", 1), Edge("f", "b", "a", 1)])
    doc = json.loads(document_text(g))
    doc["rotation"] = {"a": ["e:t", "f:t"], "b": ["e:h", "f:h"]}
    path = tmp_path / "misplaced.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    assert out == (
        "positive-weights=ok\n"
        "balance=ok\n"
        "connectivity=ok\n"
        "strong-connectivity=ok\n"
        "rotation-structure=fail dart f:h listed at 'b' but belongs at 'a'; "
        "dart f:t listed at 'a' but belongs at 'b'\n"
        "result=fail\n"
    )


# -- skein and subdivision ----------------------------------------------------------


def test_skein_golden(capsys, host_file):
    code, out, _ = run(capsys, ["skein", host_file, "--edge-i", "xy", "--edge-j", "zy"])
    assert code == 0
    assert out == "N(G)=1\nN(G1)=1\nN(G2)=4\nresidual=0\n"


def test_skein_unknown_edge(capsys, host_file):
    code, _, err = run(capsys, ["skein", host_file, "--edge-i", "xy", "--edge-j", "zz"])
    assert code == 2
    assert "unknown edge" in err


def test_subdivide_check_golden(capsys, lens_file):
    code, out, _ = run(capsys, ["subdivide-check", lens_file, "--edge", "e23"])
    assert code == 0
    assert out == "n=20\nn_subdivided=60\nedge_weight=3\nok=true\n"


def test_skein_and_subdivide_check_exit_1_on_a_corrupted_shared_state(
    capsys, tmp_path, monkeypatch
):
    g = random_balanced_graph(random.Random(46), min_vertices=6, max_vertices=6)
    path = tmp_path / "six.json"
    path.write_text(document_text(g), encoding="utf-8")
    real = spanning._Elimination.fork

    def off_by_one(self):
        row = next(self.a[i] for i in sorted(self.live) if self.a[i])
        row[next(iter(row))] += 1
        return real(self)

    monkeypatch.setattr(spanning._Elimination, "fork", off_by_one)
    ei, ej = g.edges[0].id, g.edges[1].id
    for argv in (["skein", str(path), "--edge-i", ei, "--edge-j", ej],
                 ["subdivide-check", str(path), "--edge", ei]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("identity violated: root-dependent counts on a balanced graph")


# -- guards, files, and the selftest ---------------------------------------------------


def test_enumeration_guard_maps_to_usage_error(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(_cycle13(), encoding="utf-8")
    code, _, err = run(capsys, ["trees", str(path), "--root", "v00"])
    assert code == 2
    assert "enumeration limit" in err
    code, out, _ = run(capsys, ["trees", str(path), "--root", "v00", "--force"])
    assert code == 0
    assert out == "count=1\nweighted=1\n"


def test_forced_tree_enumeration_is_not_bounded_by_recursion(capsys, tmp_path):
    path = tmp_path / "cycle1500.json"
    path.write_text(document_text(seed_cycle(1500, 1).graph), encoding="utf-8")
    code, out, err = run(capsys, ["trees", str(path), "--root", "v0", "--force"])
    assert (code, out, err) == (0, "count=1\nweighted=1\n", "")


def test_state_enumeration_is_not_bounded_by_recursion(capsys, tmp_path):
    path = tmp_path / "cycle3000.json"
    path.write_text(map_text(seed_cycle(3000, 1), basepoint="e0"), encoding="utf-8")
    code, out, err = run(capsys, ["states", str(path)])
    assert (code, err) == (0, "")
    assert out.endswith("\ncount=1\n")
    code, out, err = run(capsys, ["alexander", str(path)])
    # one state: the basepoint's t^(1/2) times [1] at every other crossing
    assert (code, out, err) == (0, "t^{1/2}\neval@1 = 1\n", "")


def test_states_guard_refuses_above_the_limit(capsys, tmp_path, monkeypatch, lens_map):
    # 1.8e8 states, counted by one small determinant in well under a second
    big = grow_map(random.Random(1), seed_prism(9, 9, 9), 150)
    path = tmp_path / "grown.json"
    path.write_text(map_text(big, big.graph.edges[0].id), encoding="utf-8")
    code, out, err = run(capsys, ["states", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        "error: 183140352 states exceeds the enumeration limit of "
        f"{kauffman.MAX_STATES}; pass --force to override\n"
    )
    # the lens from e12 has 3 states: over a limit of 2 unless forced
    monkeypatch.setattr(kauffman, "MAX_STATES", 2)
    path = tmp_path / "lens.json"
    path.write_text(map_text(lens_map, basepoint="e12"), encoding="utf-8")
    code, out, err = run(capsys, ["states", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: 3 states exceeds the enumeration limit of 2")
    code, out, err = run(capsys, ["states", str(path), "--force"])
    assert (code, err) == (0, "")
    assert out.endswith("\ncount=3\n")


def test_bijection_is_bounded_by_the_state_count_not_the_vertex_count(
    capsys, tmp_path, monkeypatch
):
    # 13 vertices and one state; 16 vertices and 48 states: both past the
    # 12-vertex limit of tree enumeration, neither needs --force
    grown = grow_map(random.Random(1), seed_prism(5, 5, 5), 30)
    for m, count in ((seed_cycle(13, 1), 1), (grown, 48)):
        path = tmp_path / "map.json"
        path.write_text(map_text(m, m.graph.edges[0].id), encoding="utf-8")
        code, out, err = run(capsys, ["bijection", str(path)])
        assert (code, err) == (0, "")
        assert f" trees={count} states={count}\n" in out
        assert out.endswith("\nbijection=ok\n")
    # with 5 of the 48 states listed, their 5 trees are listed against
    # the 48 that the determinant counts
    real = cli.enumerate_states
    monkeypatch.setattr(cli, "enumerate_states", lambda diagram, force: real(diagram, force=force)[:5])
    code, out, err = run(capsys, ["bijection", str(path)])
    assert (code, err) == (1, "")
    assert " trees=48 states=5\n" in out
    assert out.count("\ntree: ") == 5
    assert out.endswith("\nbijection=fail\n")


@pytest.mark.parametrize("command", ["states", "bijection"])
def test_the_state_guard_and_the_listing_share_one_search(
    capsys, tmp_path, monkeypatch, lens_map, command
):
    # the guard counts the states on the core of the peel that the listing
    # then resumes, so the exact-cover tables are built once
    calls = []
    real = kauffman._options
    monkeypatch.setattr(kauffman, "_options", lambda diagram: calls.append(1) or real(diagram))
    grown = grow_map(random.Random(1), seed_prism(5, 5, 5), 30)
    for m, basepoint in ((lens_map, "e12"), (grown, grown.graph.edges[0].id)):
        path = tmp_path / "map.json"
        path.write_text(map_text(m, basepoint), encoding="utf-8")
        calls.clear()
        code, _, err = run(capsys, [command, str(path)])
        assert (code, err, len(calls)) == (0, "", 1)


def _nested_digons(k: int) -> str:
    """Root r with nested digons r <-> a_i and a digon a_i <-> b_i on each
    a_i; basepoint a_0 -> r.  One state and one tree, but a search over
    trees would try b_i -> a_i at every a_i and fail only at b_i: 2^k dead
    ends."""
    a = [f"a{i:02d}" for i in range(k)]
    b = [f"b{i:02d}" for i in range(k)]
    edges, rotation = [], {}
    for i in range(k):
        p, q, x, y = (f"{name}{i:02d}" for name in "pqxy")
        edges += [Edge(p, "r", a[i], 1), Edge(q, a[i], "r", 1)]
        edges += [Edge(x, a[i], b[i], 1), Edge(y, b[i], a[i], 1)]
        rotation[a[i]] = (Dart(p, HEAD), Dart(q, TAIL), Dart(x, TAIL), Dart(y, HEAD))
        rotation[b[i]] = (Dart(x, HEAD), Dart(y, TAIL))
    rotation["r"] = tuple(Dart(f"p{i:02d}", TAIL) for i in range(k)) + tuple(
        Dart(f"q{i:02d}", HEAD) for i in reversed(range(k))
    )
    m = CombinatorialMap(DirectedMultigraph(a + b + ["r"], edges), rotation)
    return map_text(m, "q00")


def test_bijection_on_nested_digons_needs_no_in_degree_guard(capsys, tmp_path):
    # one state and one tree; k = 30 is an in-degree product of 2^30, which
    # a search over trees would have to guard, but one state maps to its
    # tree at once
    path = tmp_path / "digons.json"
    for k in (3, 30):
        path.write_text(_nested_digons(k), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, ["bijection", str(path)])
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert out.startswith("root=r trees=1 states=1\n")
        assert out.endswith("\nbijection=ok\n")


# sha256 of stdout at the commit before the integer bijection and the
# single write; the lens goldens above have one state each
MULTI_STATE_GOLDENS = {
    ("doubled_prism", "states"): (
        "count=224",
        "c3007d97f64dd68033fbd10b747b76c3e8e1e9358f5a0e25d6dc627e2838d573",
    ),
    ("doubled_prism", "bijection"): (
        "bijection=ok",
        "2c98ff0b62686c5089a5688a8f5a84160657df8c2284b278e167054640900b50",
    ),
    ("subdivided_prism", "states"): (
        "count=12",
        "4554fbc0dce51a131fea081f583762a1ab5366126dd1556d3812451902bd9167",
    ),
    ("subdivided_prism", "bijection"): (
        "bijection=ok",
        "7bbe21f3d045ca54a8767f868797a6d7dca4d7e153f92f0cb39493151deb0a78",
    ),
}


@pytest.mark.parametrize("fixture, command", MULTI_STATE_GOLDENS)
def test_multi_state_goldens(capsys, tmp_path, request, fixture, command):
    m, basepoint = request.getfixturevalue(fixture)
    path = tmp_path / "map.json"
    path.write_text(map_text(m, basepoint), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path)])
    last, digest = MULTI_STATE_GOLDENS[fixture, command]
    assert (code, err, out.splitlines()[-1]) == (0, "", last)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bijection_guard_refuses_above_the_state_limit(capsys, tmp_path, monkeypatch, lens_map):
    # the lens from e12 has 3 states: over a limit of 2 unless forced
    monkeypatch.setattr(kauffman, "MAX_STATES", 2)
    path = tmp_path / "lens.json"
    path.write_text(map_text(lens_map, basepoint="e12"), encoding="utf-8")
    code, out, err = run(capsys, ["bijection", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: 3 states exceeds the enumeration limit of 2")
    code, out, err = run(capsys, ["bijection", str(path), "--force"])
    assert (code, err) == (0, "")
    assert out.endswith("\nbijection=ok\n")


def test_alexander_guard_refuses_a_heavy_span(capsys, tmp_path, monkeypatch, lens_file):
    # a 3-cycle of weight 10^7 spans 6e7 exponents: refused before any product
    path = tmp_path / "heavy.json"
    path.write_text(map_text(seed_cycle(3, 10**7), basepoint="e0"), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, ["alexander", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: polynomial span 2*sum(w) = 60000000 exceeds the limit of "
        f"{kauffman.MAX_SPAN}; pass --force to override\n"
    )
    # the lens's weights sum to 15: a span of 30, over a limit of 29 unless forced
    monkeypatch.setattr(kauffman, "MAX_SPAN", 29)
    code, out, err = run(capsys, ["alexander", lens_file])
    assert (code, out) == (2, "")
    assert err.startswith("error: polynomial span 2*sum(w) = 30 exceeds the limit of 29;")
    code, out, err = run(capsys, ["alexander", lens_file, "--force"])
    assert (code, err) == (0, "")
    assert out.endswith("\neval@1 = 20\n")
    monkeypatch.setattr(kauffman, "MAX_SPAN", 30)
    assert run(capsys, ["alexander", lens_file]) == (0, out, "")


def test_alexander_on_a_map_past_enumeration(capsys, tmp_path):
    # 150 edges, 1.8e8 states: the determinant backend, checked at t = 1
    big = grow_map(random.Random(1), seed_prism(9, 9, 9), 150)
    path = tmp_path / "grown.json"
    path.write_text(map_text(big, big.graph.edges[0].id), encoding="utf-8")
    _, det, _ = run(capsys, ["count", str(path), "--method", "det"])
    code, out, err = run(capsys, ["alexander", str(path)])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "eval@1 = " + det.removeprefix("det=").strip()


def test_tree_enumeration_is_linear_on_a_deep_cycle(capsys, tmp_path):
    path = tmp_path / "cycle6000.json"
    path.write_text(document_text(seed_cycle(6000, 1).graph), encoding="utf-8")
    code, out, err = run(capsys, ["count", str(path), "--method", "enum", "--force"])
    assert (code, out, err) == (0, "enum=1\n", "")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, ["count", "/nonexistent/file.json"])
    assert code == 2
    assert "error:" in err


def test_malformed_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, ["count", str(path)])
    assert code == 2
    assert "not valid JSON" in err


# -- the exit-code contract ----------------------------------------------------------


# failure class: (file text from lens_map, command and flags, patch, rc, stderr prefix)
EXIT_CODES = {
    "FormatError": (lambda _: '{"vertices": []}', ["count"], None, 2, "error:"),
    "MapStructureError": (_swapped_rotation, ["alexander"], None, 1, "validation failed:"),
    "DiagramError": (
        lambda _: _bridge_diagram(), ["alexander"], None, 1, "validation failed:"
    ),
    "IdentityViolation": (
        lambda m: map_text(m, basepoint="e23"),
        ["count", "--method", "det"],
        lambda monkeypatch: _corrupt_minor_and_det(monkeypatch, 0),
        1,
        "identity violated:",
    ),
    "EnumerationLimitError": (
        lambda _: _cycle13(), ["trees", "--root", "v00"], None, 2, "error:"
    ),
    "unknown-root": (
        lambda m: map_text(m, basepoint="e23"), ["count", "--root", "zz"], None, 2, "error:"
    ),
    "unknown-root-det": (
        lambda m: map_text(m, basepoint="e23"),
        ["count", "--method", "det", "--root", "zz"],
        None,
        2,
        "error: unknown root 'zz'",
    ),
    "unbalanced-no-root": (
        lambda _: document_text(DirectedMultigraph(["a", "b"], [Edge("e", "a", "b", 1)])),
        ["count"],
        None,
        2,
        "error: count requires --root",
    ),
    "deep-json": (lambda _: "[" * 100000, ["validate"], None, 2, "error: not valid JSON"),
    "long-int": (
        lambda _: '{"vertices": [], "edges": [], "basepoint": ' + "9" * 5000 + "}",
        ["validate"],
        None,
        2,
        "error: not valid JSON",
    ),
}
NO_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
)


@pytest.mark.parametrize(
    "failure",
    [pytest.param(k, marks=NO_DIGIT_LIMIT) if k == "long-int" else k for k in EXIT_CODES],
)
def test_exit_code_contract(capsys, monkeypatch, tmp_path, lens_map, failure):
    text, (command, *flags), patch, rc, prefix = EXIT_CODES[failure]
    path = tmp_path / "input.json"
    path.write_text(text(lens_map), encoding="utf-8")
    if patch is not None:
        patch(monkeypatch)
    code, out, err = run(capsys, [command, str(path), *flags])
    assert (code, out) == (rc, "")
    assert err.startswith(prefix)


def test_an_unexpected_runtime_error_is_a_bug_not_an_identity_violation(
    lens_file, monkeypatch
):
    def boom(diagram, force):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "enumerate_states", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(["states", lens_file])


def test_selftest_smoke(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "selftest=ok"
    assert any(line.startswith("matrix-tree: ") for line in lines)


# -- the README's examples --------------------------------------------------


def readme_examples():
    """(argv, stdout) for each ``$ moytree ...`` line of the README's
    "Command line" example block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("$ moytree ")[1:]:
        command, _, output = chunk.partition("\n")
        argv = shlex.split(command)
        examples.append(pytest.param(argv, output.rstrip("\n") + "\n", id=argv[0]))
    return examples


@pytest.mark.parametrize("argv, expected", readme_examples())
def test_readme_command_line_example(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(ROOT)
    assert run(capsys, argv) == (0, expected, "")
