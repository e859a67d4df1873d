"""Parsing and serialization of the JSON document format."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from moytree.graphfile import (
    FormatError,
    build_map,
    document_text,
    load_document,
    map_text,
    parse_document,
)
from moytree.planar import Dart, MapStructureError


def lens_text(lens_map) -> str:
    return map_text(lens_map, basepoint="e23")


# -- round-trips ---------------------------------------------------------------


def test_map_text_round_trips(lens_map):
    text = lens_text(lens_map)
    doc = parse_document(text)
    assert doc.graph.vertices == lens_map.graph.vertices
    assert doc.graph.edges == lens_map.graph.edges
    assert build_map(doc).rotation == lens_map.rotation
    assert doc.basepoint == "e23"
    assert map_text(build_map(doc), basepoint=doc.basepoint) == text


def test_document_text_without_optionals(lens_graph):
    text = document_text(lens_graph)
    raw = json.loads(text)
    assert sorted(raw) == ["edges", "vertices"]
    doc = parse_document(text)
    assert doc.dart_numbers is None
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
    m = build_map(parse_document(json.dumps(doc)))
    assert m.rotation == {
        "a": (Dart("e", "t"), Dart("f", "h")),
        "b": (Dart("f", "t"), Dart("e", "h")),
    }
    assert m.face_count() == 2


def test_accepts_edge_ids_that_end_like_a_token():
    # "x:h:t" is the tail of edge "x:h", not a token of edge "x"
    doc = {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "x:h", "tail": "a", "head": "b", "weight": 1},
            {"id": "x", "tail": "b", "head": "a", "weight": 1},
        ],
        "rotation": {"a": ["x:h:t", "x:h"], "b": ["x:t", "x:h:h"]},
    }
    m = build_map(parse_document(json.dumps(doc)))
    assert m.rotation == {
        "a": (Dart("x:h", "t"), Dart("x", "h")),
        "b": (Dart("x", "t"), Dart("x:h", "h")),
    }
    assert m.face_count() == 2


def test_rejects_bad_basepoint():
    doc = base_doc()
    doc["basepoint"] = 3
    reject(json.dumps(doc), "basepoint: expected string")
    doc["basepoint"] = "zz"
    reject(json.dumps(doc), "basepoint: unknown edge 'zz'")


def json_error(text: str) -> str:
    try:
        json.loads(text)
    except ValueError as exc:
        return f"not valid JSON: {exc}"
    raise AssertionError(f"{text!r} is valid JSON")


GOOD_EDGE = {"id": "e", "tail": "a", "head": "b", "weight": 1}


def edges_doc(*records, vertices=("a", "b")) -> str:
    return json.dumps({"vertices": list(vertices), "edges": list(records)})


def edge(**changes) -> dict:
    """GOOD_EDGE with fields changed; a value of ... drops the field."""
    merged = {**GOOD_EDGE, **changes}
    return {k: v for k, v in merged.items() if v is not ...}


def rotation_doc(**fields) -> str:
    doc = base_doc()
    doc.update(fields)
    return json.dumps(doc)


BAD_TOKEN = "bad dart token {!r}: expected '<edgeId>:t' or '<edgeId>:h'"

# (document, the whole FormatError text), one per branch of parse_document,
# with the documents that pin which of two problems is reported
PARSE_MESSAGES = {
    "json": ("{", json_error("{")),
    "top-not-object": ("[]", "top level: expected a JSON object"),
    "top-unknown": (
        '{"vertices": [], "edges": [], "zz": 1, "extra": 2}',
        "top level: unknown fields ['extra', 'zz']",
    ),
    "top-no-vertices": ('{"edges": []}', "top level: missing required field 'vertices'"),
    "top-no-edges": ('{"vertices": []}', "top level: missing required field 'edges'"),
    "vertices-not-list": ('{"vertices": {}, "edges": []}', "vertices: expected a list"),
    "vertex-not-string": (edges_doc(vertices=("a", 3)), "vertices[1]: expected string, got 3"),
    "edges-not-list": ('{"vertices": ["a"], "edges": {}}', "edges: expected a list"),
    "edge-not-object": (edges_doc(GOOD_EDGE, 3), "edges[1]: expected an object"),
    "edge-unknown": (edges_doc(edge(x=2, y=3)), "edges[0]: unknown fields ['x', 'y']"),
    "edge-unknown-first": (
        edges_doc(edge(tail=..., zz=1)),
        "edges[0]: unknown fields ['zz']",
    ),
    "edge-missing": (
        edges_doc(edge(head=..., weight=...)),
        "edges[0]: missing fields ['head', 'weight']",
    ),
    "weight-float": (edges_doc(edge(weight=1.5)), "edges[0].weight: expected integer, got 1.5"),
    "weight-bool": (edges_doc(edge(weight=True)), "edges[0].weight: expected integer, got True"),
    "weight-first": (
        edges_doc(edge(id=5, weight=None)),
        "edges[0].weight: expected integer, got None",
    ),
    "id": (edges_doc(edge(id=5, tail=None)), "edges[0].id: expected string, got 5"),
    "tail": (edges_doc(edge(tail=None)), "edges[0].tail: expected string, got None"),
    "head": (edges_doc(edge(head=["b"])), "edges[0].head: expected string, got ['b']"),
    "records-before-graph": (
        edges_doc(GOOD_EDGE, GOOD_EDGE, 3, vertices=("a", "a")),
        "edges[2]: expected an object",
    ),
    "no-vertex": (edges_doc(vertices=()), "graph needs at least one vertex"),
    "empty-vertex": (edges_doc(vertices=("",)), "vertex id must be a nonempty string, got ''"),
    "duplicate-vertex": (edges_doc(vertices=("a", "a")), "duplicate vertex ids: ['a']"),
    "empty-edge-id": (edges_doc(edge(id="")), "edge id must be a nonempty string, got ''"),
    "duplicate-edge": (edges_doc(GOOD_EDGE, GOOD_EDGE), "duplicate edge id: 'e'"),
    "unknown-tail": (edges_doc(edge(tail="x")), "edge 'e': unknown tail vertex 'x'"),
    "unknown-head": (edges_doc(edge(head="x")), "edge 'e': unknown head vertex 'x'"),
    "rotation-not-object": (rotation_doc(rotation=3), "rotation: expected an object"),
    "rotation-vertex": (rotation_doc(rotation={"x": []}), "rotation: unknown vertex 'x'"),
    "rotation-not-list": (rotation_doc(rotation={"a": 3}), "rotation.a: expected a list"),
    "token-not-string": (
        rotation_doc(rotation={"a": ["e:t", 5]}),
        "rotation.a[1]: expected string, got 5",
    ),
    # tokens that a lookup keyed by token text must not hash or match blindly
    "token-list": (
        rotation_doc(rotation={"a": ["e:t", ["e:t"]]}),
        "rotation.a[1]: expected string, got ['e:t']",
    ),
    "token-dict": (
        rotation_doc(rotation={"a": ["e:t", {"e": "t"}]}),
        "rotation.a[1]: expected string, got {'e': 't'}",
    ),
    "token-true": (
        rotation_doc(rotation={"a": ["e:t", True]}),
        "rotation.a[1]: expected string, got True",
    ),
    "token-bad": (rotation_doc(rotation={"a": ["e"]}), "rotation.a[0]: " + BAD_TOKEN.format("e")),
    "token-bad-end": (
        rotation_doc(rotation={"b": ["f:t", "e:t:x"]}),
        "rotation.b[1]: " + BAD_TOKEN.format("e:t:x"),
    ),
    "token-unknown-edge": (
        rotation_doc(rotation={"a": ["zz:t"]}),
        "rotation.a[0]: unknown edge 'zz'",
    ),
    "token-colon-id": (
        rotation_doc(rotation={"a": ["e:f:t"]}),
        "rotation.a[0]: unknown edge 'e:f'",
    ),
    "basepoint-not-string": (rotation_doc(basepoint=3), "basepoint: expected string, got 3"),
    "basepoint-unknown": (rotation_doc(basepoint="zz"), "basepoint: unknown edge 'zz'"),
}


@pytest.mark.parametrize("branch", PARSE_MESSAGES)
def test_parse_messages_are_exact(branch):
    text, message = PARSE_MESSAGES[branch]
    with pytest.raises(FormatError) as info:
        parse_document(text)
    assert str(info.value) == message


def test_rotation_structure_errors_surface_at_map_build():
    # a dart listed at the wrong vertex is a map problem, not a parse problem
    doc = base_doc()
    doc["rotation"] = {"a": ["e:t", "e:h"], "b": ["f:t", "f:h"]}
    parsed = parse_document(json.dumps(doc))
    with pytest.raises(MapStructureError, match="belongs at"):
        build_map(parsed)


# -- mutation fuzzing -------------------------------------------------------------

DEMO = Path(__file__).resolve().parent.parent / "data" / "lens_triangle.json"
# stand-ins for a JSON value: every type, ids that exist and ids that do not
JSON_VALUES = (
    None, True, False, 0, -1, 7, 2**70, 1.5, "", "v1", "v4", "e12", "e12:t",
    "e12:x", "e13:h", [], ["v1"], ["e12:t", "e12:h"], {},
    {"id": "e9", "tail": "v1", "head": "v1", "weight": 1},
)


def parse_and_build(text: str) -> str:
    """The outcome of reading a document and building its map."""
    try:
        doc = parse_document(text)
        if doc.dart_numbers is not None:
            build_map(doc)
    except FormatError:
        return "FormatError"
    except MapStructureError:
        return "MapStructureError"
    return "value"


def byte_mutant(rng: random.Random, data: bytes) -> str:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out))
        # bytes of the document itself, so ids, digits and quotes get swapped
        byte = rng.choice(data) if rng.random() < 0.7 else rng.randrange(256)
        kind = rng.randrange(3)
        if kind == 0:
            out[i] = byte
        elif kind == 1:
            del out[i]
        else:
            out.insert(i, byte)
    return out.decode("latin-1")


def path_mutant(rng: random.Random, doc) -> str:
    """Replace or delete the value at the end of a random path."""
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.7):
        parent = node
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        node = node[key]
    if parent is None:
        return json.dumps(rng.choice(JSON_VALUES))
    if rng.random() < 0.3:
        del parent[key]
    else:
        parent[key] = rng.choice(JSON_VALUES)
    return json.dumps(doc)


def test_mutated_documents_give_a_value_or_a_classified_error():
    data = DEMO.read_bytes()
    doc = json.loads(data)
    rng = random.Random(41)
    outcomes = {}
    for _ in range(1500):
        for text in (byte_mutant(rng, data), path_mutant(rng, doc)):
            outcome = parse_and_build(text)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # the mutants reach every outcome, not only the JSON decoder's errors
    assert set(outcomes) == {"value", "FormatError", "MapStructureError"}, outcomes
