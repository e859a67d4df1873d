"""The shared graph/diagram document format (JSON).

A document is a single JSON object with fields:

  vertices   required  list of vertex ids (strings)
  edges      required  list of {"id", "tail", "head", "weight"} records
  rotation   optional  {vertex id: ["<edgeId>:t" | "<edgeId>:h", ...]},
                       darts in counterclockwise order around the vertex
  basepoint  optional  an edge id

Field names are exact; unknown fields anywhere are rejected with a
message naming the offending location.  Weights must be JSON integers.
Whether the rotation lists every dart exactly once is a structural
property of the map, not of the document, and is checked when the map is
built.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .graph import DirectedMultigraph, Edge
from .planar import CombinatorialMap, Dart

TOP_FIELDS = ("vertices", "edges", "rotation", "basepoint")
EDGE_FIELDS = ("id", "tail", "head", "weight")


class FormatError(ValueError):
    """A malformed document; the message names the field and location."""


class GraphDocument(NamedTuple):
    graph: DirectedMultigraph
    rotation: dict[str, tuple[Dart, ...]] | None
    basepoint: str | None


def _expect_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{where}: expected string, got {value!r}")
    return value


def parse_document(text: str) -> GraphDocument:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers syntax errors and integers past the digit
        # limit; RecursionError, nesting deeper than the decoder goes
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise FormatError("top level: expected a JSON object")
    unknown = sorted(set(raw) - set(TOP_FIELDS))
    if unknown:
        raise FormatError(f"top level: unknown fields {unknown}")
    for field in ("vertices", "edges"):
        if field not in raw:
            raise FormatError(f"top level: missing required field {field!r}")

    if not isinstance(raw["vertices"], list):
        raise FormatError("vertices: expected a list")
    vertices = [
        _expect_str(v, f"vertices[{i}]") for i, v in enumerate(raw["vertices"])
    ]

    if not isinstance(raw["edges"], list):
        raise FormatError("edges: expected a list")
    edges = []
    for i, rec in enumerate(raw["edges"]):
        where = f"edges[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where}: expected an object")
        unknown = sorted(set(rec) - set(EDGE_FIELDS))
        if unknown:
            raise FormatError(f"{where}: unknown fields {unknown}")
        missing = sorted(set(EDGE_FIELDS) - set(rec))
        if missing:
            raise FormatError(f"{where}: missing fields {missing}")
        weight = rec["weight"]
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise FormatError(f"{where}.weight: expected integer, got {weight!r}")
        edges.append(
            Edge(
                _expect_str(rec["id"], f"{where}.id"),
                _expect_str(rec["tail"], f"{where}.tail"),
                _expect_str(rec["head"], f"{where}.head"),
                weight,
            )
        )

    try:
        graph = DirectedMultigraph(vertices, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None

    rotation = None
    if "rotation" in raw:
        if not isinstance(raw["rotation"], dict):
            raise FormatError("rotation: expected an object")
        rotation = {}
        for v, tokens in raw["rotation"].items():
            if not graph.has_vertex(v):
                raise FormatError(f"rotation: unknown vertex {v!r}")
            if not isinstance(tokens, list):
                raise FormatError(f"rotation.{v}: expected a list")
            darts = []
            for i, tok in enumerate(tokens):
                where = f"rotation.{v}[{i}]"
                try:
                    dart = Dart.parse(_expect_str(tok, where))
                except ValueError as exc:
                    raise FormatError(f"{where}: {exc}") from None
                if not graph.has_edge(dart.edge):
                    raise FormatError(f"{where}: unknown edge {dart.edge!r}")
                darts.append(dart)
            rotation[v] = tuple(darts)

    basepoint = None
    if "basepoint" in raw:
        basepoint = _expect_str(raw["basepoint"], "basepoint")
        if not graph.has_edge(basepoint):
            raise FormatError(f"basepoint: unknown edge {basepoint!r}")

    return GraphDocument(graph, rotation, basepoint)


def load_document(path) -> GraphDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def document_text(
    graph: DirectedMultigraph,
    rotation: dict[str, tuple[Dart, ...]] | None = None,
    basepoint: str | None = None,
) -> str:
    """Serialize to the document format; parse_document round-trips it."""
    doc: dict = {
        "vertices": list(graph.vertices),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "weight": e.weight}
            for e in graph.edges
        ],
    }
    if rotation is not None:
        doc["rotation"] = {
            v: [d.token() for d in darts] for v, darts in sorted(rotation.items())
        }
    if basepoint is not None:
        doc["basepoint"] = basepoint
    return json.dumps(doc, indent=2) + "\n"


def map_text(m: CombinatorialMap, basepoint: str | None = None) -> str:
    return document_text(m.graph, rotation=m.rotation, basepoint=basepoint)


def build_map(doc: GraphDocument) -> CombinatorialMap:
    """The document's combinatorial map; requires the rotation field."""
    if doc.rotation is None:
        raise FormatError("rotation: required for this command but absent")
    return CombinatorialMap(doc.graph, doc.rotation)
