"""Directed weighted multigraphs with balance and connectivity checks.

Vertices and edges carry caller-supplied string ids; every enumeration in
the package is ordered lexicographically by id, so all results are
deterministic.  Weights are arbitrary-precision Python ints.  Parallel
edges and self-loops are legal here; stricter layers reject what they
cannot handle (the plane-diagram layer refuses self-loops, the positive
balanced validation refuses nonpositive weights).
"""

from __future__ import annotations

from collections import Counter, deque
from operator import itemgetter
from typing import Iterable, NamedTuple


class Edge(NamedTuple):
    """A directed edge; weight is an arbitrary-precision integer."""

    id: str
    tail: str
    head: str
    weight: int


def fresh_id(base: str, taken: Iterable[str]) -> str:
    """Return base, with apostrophes appended until it avoids ``taken``."""
    used = set(taken)
    name = base
    while name in used:
        name += "'"
    return name


class DirectedMultigraph:
    """Immutable directed multigraph over string ids."""

    __slots__ = ("vertices", "edges", "_by_id", "_in", "_out")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        vs = list(vertices)
        if not vs:
            raise ValueError("graph needs at least one vertex")
        for v in vs:
            if not isinstance(v, str) or not v:
                raise ValueError(f"vertex id must be a nonempty string, got {v!r}")
        vertex_set = set(vs)
        if len(vertex_set) != len(vs):
            dup = sorted(v for v, n in Counter(vs).items() if n > 1)
            raise ValueError(f"duplicate vertex ids: {dup}")
        self.vertices: tuple[str, ...] = tuple(sorted(vs))

        es = list(edges)
        by_id: dict[str, Edge] = {}
        for e in es:
            if not isinstance(e, Edge):
                raise TypeError(f"expected Edge, got {type(e).__name__}")
            eid, tail, head, weight = e
            if not isinstance(eid, str) or not eid:
                raise ValueError(f"edge id must be a nonempty string, got {eid!r}")
            if eid in by_id:
                raise ValueError(f"duplicate edge id: {eid!r}")
            if tail not in vertex_set:
                raise ValueError(f"edge {eid!r}: unknown tail vertex {tail!r}")
            if head not in vertex_set:
                raise ValueError(f"edge {eid!r}: unknown head vertex {head!r}")
            if not isinstance(weight, int) or isinstance(weight, bool):
                raise ValueError(f"edge {eid!r}: weight must be int, got {weight!r}")
            by_id[eid] = e
        self.edges: tuple[Edge, ...] = tuple(sorted(es, key=itemgetter(0)))
        self._by_id = by_id

        ins: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        outs: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            outs[e.tail].append(e)
            ins[e.head].append(e)
        self._in = {v: tuple(lst) for v, lst in ins.items()}
        self._out = {v: tuple(lst) for v, lst in outs.items()}

    # -- access ----------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise ValueError(f"unknown edge {edge_id!r}") from None

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._by_id

    def has_vertex(self, v: str) -> bool:
        return v in self._in

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges with head v, ascending by id.  Self-loops included."""
        self._require_vertex(v)
        return self._in[v]

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges with tail v, ascending by id.  Self-loops included."""
        self._require_vertex(v)
        return self._out[v]

    def _require_vertex(self, v: str) -> None:
        if v not in self._in:
            raise ValueError(f"unknown vertex {v!r}")

    def __repr__(self) -> str:
        return (
            f"DirectedMultigraph({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges)"
        )


def is_balanced(g: DirectedMultigraph) -> bool:
    """True when in-weight equals out-weight at every vertex.

    A self-loop adds its weight to both sides, so it never changes the
    verdict.
    """
    net = dict.fromkeys(g.vertices, 0)
    for e in g.edges:
        net[e.tail] += e.weight
        net[e.head] -= e.weight
    return not any(net.values())


def _undirected_component(g: DirectedMultigraph, start: str) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for e in g._out[v]:
            if e.head not in seen:
                seen.add(e.head)
                queue.append(e.head)
        for e in g._in[v]:
            if e.tail not in seen:
                seen.add(e.tail)
                queue.append(e.tail)
    return seen


def is_connected(g: DirectedMultigraph) -> bool:
    """Connectivity of the underlying undirected graph."""
    return len(_undirected_component(g, g.vertices[0])) == len(g.vertices)


def _reachable(g: DirectedMultigraph, start: str, forward: bool) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for e in (g._out if forward else g._in)[v]:
            w = e.head if forward else e.tail
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def is_strongly_connected(g: DirectedMultigraph) -> bool:
    """Every vertex reachable from every other along edge directions."""
    n = len(g.vertices)
    root = g.vertices[0]
    return (
        len(_reachable(g, root, forward=True)) == n
        and len(_reachable(g, root, forward=False)) == n
    )


def subdivide_edge(g: DirectedMultigraph, edge_id: str) -> DirectedMultigraph:
    """Replace edge e by tail -> v' -> head; both halves keep e's weight.

    Balance is preserved.  Fresh ids are deterministic: the new vertex is
    ``<edge>.v`` and the new edges ``<edge>.1`` (tail half) and
    ``<edge>.2`` (head half), disambiguated with apostrophes on collision.
    """
    e = g.edge(edge_id)
    mid = fresh_id(f"{edge_id}.v", g.vertices)
    first = fresh_id(f"{edge_id}.1", (x.id for x in g.edges))
    second = fresh_id(f"{edge_id}.2", {x.id for x in g.edges} | {first})
    edges = [x for x in g.edges if x.id != edge_id]
    edges.append(Edge(first, e.tail, mid, e.weight))
    edges.append(Edge(second, mid, e.head, e.weight))
    return DirectedMultigraph(list(g.vertices) + [mid], edges)
