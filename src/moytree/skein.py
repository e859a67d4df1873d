"""Local crossing resolutions and the t = 1 skein identity.

A crossing pattern in a graph names two distinct edges: edge_i of weight
i running c -> b and edge_j of weight j running d -> a.  Two resolutions
replace them with small gadgets on fresh vertices v1, v2:

  G1, i <= j:  c -> v2 (i), v2 -> a (j), d -> v1 (j), v1 -> b (i),
               v1 -> v2 (j - i, omitted when i = j).
  G1, j < i:   the i <= j gadget with the strands' roles swapped:
               d -> v2 (j), v2 -> b (i), c -> v1 (i), v1 -> a (j),
               v1 -> v2 (i - j).
  G2, always:  c -> v1 (i), d -> v1 (j), v1 -> v2 (i + j),
               v2 -> a (j), v2 -> b (i).

Both resolutions preserve balance.  At t = 1 the weighted tree counts
satisfy

  N(G) = -1/(i*j) * N(G1) + 1/(min(i, j)*(i+j)) * N(G2),

verified in exact rational arithmetic.  The three graphs differ only at
a, b, c, d, v1 and v2, so ``spanning.root_free_counts`` eliminates the
rest once, and each graph continues that elimination on its at most 6
kept rows (more only when the shared block is singular).  Each count is certified: its minor
N is checked against a determinant that sums the counts over all roots.
G1 with i = j can disconnect the graph; its count is then 0 (all
cofactors vanish, and so does the sum), which the identity absorbs, so
counts here never require connectivity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graph import DirectedMultigraph, Edge, fresh_id
from .spanning import require_balanced_connected, root_free_counts


def _pattern_edges(g: DirectedMultigraph, edge_i: str, edge_j: str):
    if edge_i == edge_j:
        raise ValueError("pattern needs two distinct edges")
    ei = g.edge(edge_i)
    ej = g.edge(edge_j)
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


def resolve_G1(g: DirectedMultigraph, edge_i: str, edge_j: str) -> DirectedMultigraph:
    """The oriented smoothing of the crossing (parallel strands)."""
    ei, ej = _pattern_edges(g, edge_i, edge_j)
    i, j = ei.weight, ej.weight
    c, b, d, a = ei.tail, ei.head, ej.tail, ej.head
    if j < i:
        c, b, i, d, a, j = d, a, j, c, b, i
    v1, v2, (r1, r2, r3, r4, r5) = _gadget_names(g)
    edges = [e for e in g.edges if e.id not in (ei.id, ej.id)]
    edges += [
        Edge(r1, c, v2, i),
        Edge(r2, v2, a, j),
        Edge(r3, d, v1, j),
        Edge(r4, v1, b, i),
    ]
    if j > i:
        edges.append(Edge(r5, v1, v2, j - i))
    return DirectedMultigraph(list(g.vertices) + [v1, v2], edges)


def resolve_G2(g: DirectedMultigraph, edge_i: str, edge_j: str) -> DirectedMultigraph:
    """The merged resolution: both strands pass through one edge of
    weight i + j."""
    ei, ej = _pattern_edges(g, edge_i, edge_j)
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


def verify_skein_t1(g: DirectedMultigraph, edge_i: str, edge_j: str) -> SkeinCheck:
    """Check the t = 1 identity for the crossing of edge_i and edge_j,
    exactly.

    Requires g connected, balanced, with positive weights.  Returns the
    three counts and the residual N(G) - rhs as an exact rational; the
    identity holds iff the residual is 0.
    """
    require_balanced_connected(g)
    bad = [e.id for e in g.edges if e.weight < 1]
    if bad:
        raise ValueError(f"weights must be positive; offending edges: {bad}")
    ei, ej = _pattern_edges(g, edge_i, edge_j)
    i, j = ei.weight, ej.weight
    n, n1, n2 = root_free_counts(
        [g, resolve_G1(g, edge_i, edge_j), resolve_G2(g, edge_i, edge_j)]
    )
    rhs = Fraction(-n1, i * j) + Fraction(n2, min(i, j) * (i + j))
    residual = Fraction(n) - rhs
    return SkeinCheck(residual == 0, n, n1, n2, residual)
