"""Local crossing resolutions and the t = 1 skein identity.

A crossing pattern in a graph names two distinct edges: edge_i of weight
i running c -> b and edge_j of weight j running d -> a.  Two resolutions
replace them with small gadgets on fresh vertices v1, v2:

  G1, i <= j:  c -> v2 (i), v2 -> a (j), d -> v1 (j), v1 -> b (i),
               v1 -> v2 (j - i, omitted when i = j).
  G1, j < i:   mirrored: d -> v2 (j), v2 -> b (i), c -> v1 (i),
               v1 -> a (j), v1 -> v2 (i - j).
  G2, always:  c -> v1 (i), d -> v1 (j), v1 -> v2 (i + j),
               v2 -> a (j), v2 -> b (i).

Both resolutions preserve balance.  At t = 1 the weighted tree counts
satisfy

  N(G) = -1/(i*j) * N(G1) + 1/(i*(i+j)) * N(G2)      for i <= j,
  N(G) = -1/(i*j) * N(G1) + 1/(j*(i+j)) * N(G2)      for j < i,

verified in exact rational arithmetic.  Each count is the certified
``spanning.root_free_count``: one reduced determinant checked against
a second that sums the counts over all roots.  G1 with i = j can
disconnect the graph; its count is then 0 (all cofactors vanish, and so
does the sum), which the identity absorbs, so counts here never require
connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graph import DirectedMultigraph, Edge, fresh_id, is_balanced, is_connected
from .kauffman import state_sum
from .planar import CombinatorialMap, decorate, require_positive_balanced
from .spanning import (
    balanced_count,
    count_by_determinant,
    count_by_enumeration,
    root_free_count,
)


@dataclass(frozen=True)
class CrossingPattern:
    """Two distinct edges treated as the strands of one crossing."""

    edge_i: str
    edge_j: str


def _pattern_edges(g: DirectedMultigraph, pattern: CrossingPattern):
    if pattern.edge_i == pattern.edge_j:
        raise ValueError("pattern needs two distinct edges")
    ei = g.edge(pattern.edge_i)
    ej = g.edge(pattern.edge_j)
    if ei.weight < 1 or ej.weight < 1:
        raise ValueError("pattern edges must carry positive weights")
    return ei, ej


def _gadget_names(g: DirectedMultigraph) -> tuple[str, str, list[str]]:
    v1 = fresh_id("w1", g.vertices)
    v2 = fresh_id("w2", list(g.vertices) + [v1])
    taken = {e.id for e in g.edges}
    edge_ids = []
    for base in ("r1", "r2", "r3", "r4", "r5"):
        eid = fresh_id(base, taken)
        taken.add(eid)
        edge_ids.append(eid)
    return v1, v2, edge_ids


def resolve_G1(g: DirectedMultigraph, pattern: CrossingPattern) -> DirectedMultigraph:
    """The oriented smoothing of the crossing (parallel strands)."""
    ei, ej = _pattern_edges(g, pattern)
    i, j = ei.weight, ej.weight
    c, b, d, a = ei.tail, ei.head, ej.tail, ej.head
    v1, v2, (r1, r2, r3, r4, r5) = _gadget_names(g)
    edges = [e for e in g.edges if e.id not in (ei.id, ej.id)]
    if i <= j:
        edges += [
            Edge(r1, c, v2, i),
            Edge(r2, v2, a, j),
            Edge(r3, d, v1, j),
            Edge(r4, v1, b, i),
        ]
        if j - i > 0:
            edges.append(Edge(r5, v1, v2, j - i))
    else:
        edges += [
            Edge(r1, d, v2, j),
            Edge(r2, v2, b, i),
            Edge(r3, c, v1, i),
            Edge(r4, v1, a, j),
            Edge(r5, v1, v2, i - j),
        ]
    return DirectedMultigraph(list(g.vertices) + [v1, v2], edges)


def resolve_G2(g: DirectedMultigraph, pattern: CrossingPattern) -> DirectedMultigraph:
    """The merged resolution: both strands pass through one edge of
    weight i + j."""
    ei, ej = _pattern_edges(g, pattern)
    i, j = ei.weight, ej.weight
    c, b, d, a = ei.tail, ei.head, ej.tail, ej.head
    v1, v2, (r1, r2, r3, r4, r5) = _gadget_names(g)
    edges = [e for e in g.edges if e.id not in (ei.id, ej.id)]
    edges += [
        Edge(r1, c, v1, i),
        Edge(r2, d, v1, j),
        Edge(r3, v1, v2, i + j),
        Edge(r4, v2, a, j),
        Edge(r5, v2, b, i),
    ]
    return DirectedMultigraph(list(g.vertices) + [v1, v2], edges)


class SkeinCheck(NamedTuple):
    holds: bool
    n: int
    n1: int
    n2: int
    residual: Fraction


def verify_skein_t1(g: DirectedMultigraph, pattern: CrossingPattern) -> SkeinCheck:
    """Check the t = 1 identity for one crossing pattern, exactly.

    Requires g connected, balanced, with positive weights.  Returns the
    three counts and the residual N(G) - rhs as an exact rational; the
    identity holds iff the residual is 0.
    """
    if not is_balanced(g):
        raise ValueError("graph is not balanced")
    if not is_connected(g):
        raise ValueError("graph is not connected")
    bad = [e.id for e in g.edges if e.weight < 1]
    if bad:
        raise ValueError(f"weights must be positive; offending edges: {bad}")
    ei, ej = _pattern_edges(g, pattern)
    i, j = ei.weight, ej.weight
    n = root_free_count(g)
    n1 = root_free_count(resolve_G1(g, pattern))
    n2 = root_free_count(resolve_G2(g, pattern))
    if i <= j:
        rhs = Fraction(-n1, i * j) + Fraction(n2, i * (i + j))
    else:
        rhs = Fraction(-n1, i * j) + Fraction(n2, j * (i + j))
    residual = Fraction(n) - rhs
    return SkeinCheck(residual == 0, n, n1, n2, residual)


def verify_main_theorem(
    subject: DirectedMultigraph | CombinatorialMap,
    basepoint: str | None = None,
) -> bool:
    """Check that the state sum at t = 1 equals the weighted tree count.

    For a plane map: decorates it (basepoint given, or the smallest edge
    id), evaluates the state sum at t = 1 and compares with the
    root-independent count.  For a bare graph there is no state sum;
    agreement of the enumeration and determinant backends is checked at
    every root instead.
    """
    if isinstance(subject, CombinatorialMap):
        require_positive_balanced(subject)
        bp = basepoint if basepoint is not None else subject.graph.edges[0].id
        diagram = decorate(subject, bp)
        return state_sum(diagram).eval_one() == balanced_count(subject.graph)
    g = subject
    if not is_connected(g):
        raise ValueError("graph is not connected")
    return all(
        count_by_determinant(g, r) == count_by_enumeration(g, r)
        for r in g.vertices
    )
