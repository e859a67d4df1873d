"""End-to-end command-line behavior: golden outputs and exit codes."""

from __future__ import annotations

import json

import pytest

from moytree import spanning
from moytree.cli import main
from moytree.graph import DirectedMultigraph, Edge
from moytree.graphfile import document_text, map_text

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

    monkeypatch.setattr(spanning, "det_bareiss", refuse)
    code, out, _ = run(capsys, ["count", lens_file, "--method", "enum"])
    assert (code, out) == (0, "enum=20\n")


def test_count_certificate_mismatch_is_identity_violation(
    capsys, lens_file, monkeypatch
):
    real = spanning.det_bareiss
    # corrupt the 2x2 reduced determinant, not the 3x3 certificate
    monkeypatch.setattr(spanning, "det_bareiss", lambda rows: real(rows) + (len(rows) == 2))
    code, out, err = run(capsys, ["count", lens_file, "--method", "det"])
    assert (code, out) == (1, "")
    assert err.startswith("identity violated: root-dependent counts")


def test_count_unbalanced_needs_root(capsys, unbalanced_file):
    code, out, err = run(capsys, ["count", unbalanced_file])
    assert code == 1
    assert "requires --root" in err
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


def test_alexander_requires_rotation(capsys, unbalanced_file):
    code, _, err = run(capsys, ["alexander", unbalanced_file])
    assert code == 2
    assert "rotation: required" in err


def test_alexander_requires_basepoint(capsys, tmp_path, lens_map):
    path = tmp_path / "nobase.json"
    path.write_text(map_text(lens_map), encoding="utf-8")
    code, _, err = run(capsys, ["alexander", str(path)])
    assert code == 2
    assert "basepoint: required" in err
    code, out, _ = run(capsys, ["alexander", str(path), "--edge", "e23"])
    assert code == 0
    assert out == f"{ALEXANDER_LINE}\neval@1 = 20\n"


def test_alexander_rejects_bridge_diagrams(capsys, tmp_path):
    g = DirectedMultigraph(["a", "b"], [Edge("e", "a", "b", 1)])
    doc = json.loads(document_text(g))
    doc["rotation"] = {"a": ["e:t"], "b": ["e:h"]}
    doc["basepoint"] = "e"
    path = tmp_path / "bridge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, ["alexander", str(path)])
    assert code == 1
    assert "validation failed" in err and "bridge" in err


def test_alexander_rejects_broken_rotation(capsys, tmp_path, lens_map):
    doc = json.loads(map_text(lens_map, basepoint="e23"))
    doc["rotation"]["v1"], doc["rotation"]["v2"] = (
        doc["rotation"]["v2"],
        doc["rotation"]["v1"],
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
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
    n = 13
    vs = [f"v{i:02d}" for i in range(n)]
    es = [Edge(f"e{i:02d}", vs[i], vs[(i + 1) % n], 1) for i in range(n)]
    path = tmp_path / "big.json"
    path.write_text(document_text(DirectedMultigraph(vs, es)), encoding="utf-8")
    code, _, err = run(capsys, ["trees", str(path), "--root", "v00"])
    assert code == 2
    assert "enumeration limit" in err
    code, out, _ = run(capsys, ["trees", str(path), "--root", "v00", "--force"])
    assert code == 0
    assert out == "count=1\nweighted=1\n"


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


def test_selftest_smoke(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "selftest=ok"
    assert any(line.startswith("matrix-tree: ") for line in lines)
