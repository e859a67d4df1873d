"""End-to-end command-line behavior: golden outputs and exit codes."""

from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

import pytest

from moytree import cli, spanning
from moytree.cli import main
from moytree.generate import seed_cycle
from moytree.graph import DirectedMultigraph, Edge
from moytree.graphfile import document_text, map_text
from moytree.planar import CombinatorialMap, Dart

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


def _corrupt_bareiss(monkeypatch, corrupted: int) -> None:
    # 0 corrupts the leading minor N(0), 1 the bordered determinant
    real = spanning.bareiss

    def off_by_one(rows):
        pair = list(real(rows))
        pair[corrupted] += 1
        return tuple(pair)

    monkeypatch.setattr(spanning, "bareiss", off_by_one)


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
    def refuse(rows):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(spanning, "bareiss", refuse)
    code, out, _ = run(capsys, ["count", lens_file, "--method", "enum"])
    assert (code, out) == (0, "enum=20\n")


def test_count_certificate_mismatch_is_identity_violation(
    capsys, lens_file, monkeypatch
):
    _corrupt_bareiss(monkeypatch, 1)
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


def test_bijection_golden(capsys, lens_file):
    code, out, _ = run(capsys, ["bijection", lens_file])
    assert code == 0
    assert out == (
        "root=v3 trees=1 states=1\n"
        "tree: e12 e31 -> ok weight=20\n"
        "bijection=ok\n"
    )


@pytest.mark.parametrize("edge", ("e13", "e21"))
@pytest.mark.parametrize("side, other", (("W", "E"), ("E", "W")))
def test_bijection_state_check_failure_is_identity_violation(
    capsys, monkeypatch, edge, side, other
):
    real_decorate = cli.decorate

    def corrupted(m, basepoint):
        d = real_decorate(m, basepoint)
        d.corner_region[edge, side] = d.corner_region[edge, other]
        return d

    monkeypatch.setattr(cli, "decorate", corrupted)
    code, out, err = run(capsys, ["bijection", LENS_DATA])
    assert code == 1
    assert out == ""
    assert err.startswith("identity violated: tree does not induce a state")


def test_bijection_reports_a_tree_whose_state_is_not_enumerated(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_states", lambda diagram: [])
    code, out, _ = run(capsys, ["bijection", LENS_DATA])
    assert code == 1
    assert out == (
        "root=v3 trees=1 states=0\n"
        "tree: e12 e31 -> MISMATCH weight=20\n"
        "bijection=fail\n"
    )


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
        lambda monkeypatch: _corrupt_bareiss(monkeypatch, 0),
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
    def boom(diagram):
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
