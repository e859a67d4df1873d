"""Parsing and serialization of the JSON document format."""

from __future__ import annotations

import json
import sys

import pytest

from moytree.graphfile import (
    FormatError,
    build_map,
    document_text,
    load_document,
    map_text,
    parse_document,
)
from moytree.planar import Dart


def lens_text(lens_map) -> str:
    return map_text(lens_map, basepoint="e23")


# -- round-trips ---------------------------------------------------------------


def test_map_text_round_trips(lens_map):
    text = lens_text(lens_map)
    doc = parse_document(text)
    assert doc.graph.vertices == lens_map.graph.vertices
    assert doc.graph.edges == lens_map.graph.edges
    assert doc.rotation == lens_map.rotation
    assert doc.basepoint == "e23"
    assert map_text(build_map(doc), basepoint=doc.basepoint) == text


def test_document_text_without_optionals(lens_graph):
    text = document_text(lens_graph)
    raw = json.loads(text)
    assert sorted(raw) == ["edges", "vertices"]
    doc = parse_document(text)
    assert doc.rotation is None
    assert doc.basepoint is None
    assert doc.graph.edges == lens_graph.edges


def test_document_text_ends_with_newline(lens_graph):
    assert document_text(lens_graph).endswith("}\n")


def test_load_document_reads_files(tmp_path, lens_map):
    path = tmp_path / "lens.json"
    path.write_text(lens_text(lens_map), encoding="utf-8")
    doc = load_document(path)
    assert doc.basepoint == "e23"
    with pytest.raises(OSError):
        load_document(tmp_path / "missing.json")


def test_shipped_demo_document_matches_the_generator(lens_map):
    import pathlib

    shipped = pathlib.Path(__file__).resolve().parent.parent / "data" / "lens_triangle.json"
    assert shipped.read_text(encoding="utf-8") == lens_text(lens_map)


def test_build_map_requires_rotation(lens_graph):
    doc = parse_document(document_text(lens_graph))
    with pytest.raises(ValueError, match="rotation: required"):
        build_map(doc)


# -- malformed documents ----------------------------------------------------------


def reject(text: str, needle: str) -> None:
    with pytest.raises(FormatError, match=needle):
        parse_document(text)


def test_rejects_invalid_json():
    reject("{", "not valid JSON")
    # nesting deeper than the decoder's recursion limit
    reject("[" * 100000, "not valid JSON: maximum recursion depth")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
)
def test_rejects_integers_past_the_digit_limit():
    text = '{"vertices": [], "edges": [], "basepoint": ' + "9" * 5000 + "}"
    reject(text, "not valid JSON: Exceeds the limit")


def test_rejects_non_object_top_level():
    reject("[]", "expected a JSON object")


def test_rejects_unknown_top_fields():
    reject('{"vertices": [], "edges": [], "extra": 1}', r"unknown fields \['extra'\]")


def test_rejects_missing_required_fields():
    reject('{"edges": []}', "missing required field 'vertices'")
    reject('{"vertices": []}', "missing required field 'edges'")


def test_rejects_bad_vertices():
    reject('{"vertices": 3, "edges": []}', "vertices: expected a list")
    reject('{"vertices": [3], "edges": []}', r"vertices\[0\]: expected string")
    reject('{"vertices": [], "edges": []}', "at least one vertex")


def test_rejects_bad_edges():
    head = '{"vertices": ["a", "b"], "edges": '
    reject(head + "3}", "edges: expected a list")
    reject(head + "[3]}", r"edges\[0\]: expected an object")
    reject(
        head + '[{"id": "e", "tail": "a", "head": "b", "weight": 1, "x": 2}]}',
        r"edges\[0\]: unknown fields \['x'\]",
    )
    reject(
        head + '[{"id": "e", "tail": "a"}]}',
        r"edges\[0\]: missing fields \['head', 'weight'\]",
    )
    reject(
        head + '[{"id": "e", "tail": "a", "head": "b", "weight": 1.5}]}',
        r"edges\[0\].weight: expected integer",
    )
    reject(
        head + '[{"id": "e", "tail": "a", "head": "b", "weight": true}]}',
        r"edges\[0\].weight: expected integer",
    )
    reject(
        head + '[{"id": 5, "tail": "a", "head": "b", "weight": 1}]}',
        r"edges\[0\].id: expected string",
    )
    reject(
        head + '[{"id": "e", "tail": "x", "head": "b", "weight": 1}]}',
        "unknown tail",
    )


def test_rejects_duplicate_ids():
    reject(
        '{"vertices": ["a", "a"], "edges": []}',
        "duplicate vertex",
    )
    reject(
        '{"vertices": ["a", "b"], "edges": ['
        '{"id": "e", "tail": "a", "head": "b", "weight": 1},'
        '{"id": "e", "tail": "b", "head": "a", "weight": 1}]}',
        "duplicate edge id",
    )


def base_doc() -> dict:
    return {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "e", "tail": "a", "head": "b", "weight": 1},
            {"id": "f", "tail": "b", "head": "a", "weight": 1},
        ],
    }


def test_rejects_bad_rotation():
    doc = base_doc()
    doc["rotation"] = 3
    reject(json.dumps(doc), "rotation: expected an object")
    doc["rotation"] = {"x": []}
    reject(json.dumps(doc), "rotation: unknown vertex 'x'")
    doc["rotation"] = {"a": 3}
    reject(json.dumps(doc), "rotation.a: expected a list")
    doc["rotation"] = {"a": [5]}
    reject(json.dumps(doc), r"rotation.a\[0\]: expected string")
    doc["rotation"] = {"a": ["e"]}
    reject(json.dumps(doc), r"rotation.a\[0\]: bad dart token")
    doc["rotation"] = {"a": ["zz:t"]}
    reject(json.dumps(doc), r"rotation.a\[0\]: unknown edge 'zz'")


def test_accepts_good_rotation():
    doc = base_doc()
    doc["rotation"] = {"a": ["e:t", "f:h"], "b": ["f:t", "e:h"]}
    parsed = parse_document(json.dumps(doc))
    assert parsed.rotation == {
        "a": (Dart("e", "t"), Dart("f", "h")),
        "b": (Dart("f", "t"), Dart("e", "h")),
    }
    m = build_map(parsed)
    assert m.face_count() == 2


def test_rejects_bad_basepoint():
    doc = base_doc()
    doc["basepoint"] = 3
    reject(json.dumps(doc), "basepoint: expected string")
    doc["basepoint"] = "zz"
    reject(json.dumps(doc), "basepoint: unknown edge 'zz'")


def test_rotation_structure_errors_surface_at_map_build():
    # a dart listed at the wrong vertex is a map problem, not a parse problem
    doc = base_doc()
    doc["rotation"] = {"a": ["e:t", "e:h"], "b": ["f:t", "f:h"]}
    parsed = parse_document(json.dumps(doc))
    from moytree.planar import MapStructureError

    with pytest.raises(MapStructureError, match="belongs at"):
        build_map(parsed)
