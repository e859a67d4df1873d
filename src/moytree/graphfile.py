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
from .planar import HEAD, TAIL, CombinatorialMap, Dart

TOP_FIELDS = ("vertices", "edges", "rotation", "basepoint")
EDGE_FIELDS = frozenset(("id", "tail", "head", "weight"))


class FormatError(ValueError):
    """A malformed document; the message names the field and location."""


class GraphDocument(NamedTuple):
    """A parsed document.  ``dart_numbers`` holds the rotation with each
    dart as its number in the map over ``graph`` (see ``planar``)."""

    graph: DirectedMultigraph
    dart_numbers: dict[str, tuple[int, ...]] | None
    basepoint: str | None


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

    vertices = raw["vertices"]
    if not isinstance(vertices, list):
        raise FormatError("vertices: expected a list")
    for i, v in enumerate(vertices):
        if not isinstance(v, str):
            raise FormatError(f"vertices[{i}]: expected string, got {v!r}")

    if not isinstance(raw["edges"], list):
        raise FormatError("edges: expected a list")
    # one test per check on a good record; a message only for a bad one
    edges = []
    for i, rec in enumerate(raw["edges"]):
        if not isinstance(rec, dict):
            raise FormatError(f"edges[{i}]: expected an object")
        if rec.keys() != EDGE_FIELDS:
            unknown, missing = sorted(set(rec) - EDGE_FIELDS), sorted(EDGE_FIELDS - set(rec))
            problem = f"unknown fields {unknown}" if unknown else f"missing fields {missing}"
            raise FormatError(f"edges[{i}]: {problem}")
        weight = rec["weight"]
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise FormatError(f"edges[{i}].weight: expected integer, got {weight!r}")
        eid, tail, head = rec["id"], rec["tail"], rec["head"]
        if not (isinstance(eid, str) and isinstance(tail, str) and isinstance(head, str)):
            field = next(f for f in ("id", "tail", "head") if not isinstance(rec[f], str))
            raise FormatError(f"edges[{i}].{field}: expected string, got {rec[field]!r}")
        edges.append(Edge(eid, tail, head, weight))

    try:
        graph = DirectedMultigraph(vertices, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None

    numbers = None
    if "rotation" in raw:
        if not isinstance(raw["rotation"], dict):
            raise FormatError("rotation: expected an object")
        # each token's dart number, as planar numbers darts
        number = {}
        for k, e in enumerate(graph.edges):
            number[e.id + ":" + HEAD] = 2 * k
            number[e.id + ":" + TAIL] = 2 * k + 1
        numbers = {}
        for v, tokens in raw["rotation"].items():
            if not graph.has_vertex(v):
                raise FormatError(f"rotation: unknown vertex {v!r}")
            if not isinstance(tokens, list):
                raise FormatError(f"rotation.{v}: expected a list")
            try:
                numbers[v] = tuple(map(number.__getitem__, tokens))
            except (KeyError, TypeError):  # unknown or unhashable: word the first bad one
                i, tok = next(
                    (i, t) for i, t in enumerate(tokens)
                    if not (isinstance(t, str) and t in number)
                )
                where = f"rotation.{v}[{i}]"
                if not isinstance(tok, str):
                    raise FormatError(f"{where}: expected string, got {tok!r}") from None
                try:
                    Dart.parse(tok)
                except ValueError as exc:
                    raise FormatError(f"{where}: {exc}") from None
                raise FormatError(f"{where}: unknown edge {tok.rpartition(':')[0]!r}") from None

    basepoint = None
    if "basepoint" in raw:
        basepoint = raw["basepoint"]
        if not isinstance(basepoint, str):
            raise FormatError(f"basepoint: expected string, got {basepoint!r}")
        if not graph.has_edge(basepoint):
            raise FormatError(f"basepoint: unknown edge {basepoint!r}")

    return GraphDocument(graph, numbers, basepoint)


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
    if doc.dart_numbers is None:
        raise FormatError("rotation: required for this command but absent")
    return CombinatorialMap(doc.graph, doc.dart_numbers)
