"""Oriented spanning trees: enumeration and determinant counting.

A spanning tree rooted at r is an edge set where every vertex other than
r has in-degree exactly 1, r has in-degree 0, and no oriented cycle
occurs; edges point away from the root.  N(g, r) is the sum over such
trees of the product of edge weights.

Two independent backends compute N: direct backtracking enumeration and
the reduced-Laplacian determinant (delete row and column of the root).
Every determinant is one sparse fraction-free elimination over Python
ints (``_Elimination``), exact for any integer weights, including zero
and negative ones; it pivots on the diagonal in Markowitz order and
rescales untouched rows lazily, so a sparse Laplacian stays sparse.  For
balanced graphs every row and column of the Laplacian sums to zero,
hence all cofactors agree and N is independent of the root.  The
root-free count therefore takes one elimination, of the transposed
Laplacian bordered with 1 in the column of vertex 0: its determinant is
the sum of all n root counts, n * N, and its minor without vertex 0 is N
itself.  ``root_free_counts`` certifies several graphs that differ at a
few vertices, as the local relations compare them, with one elimination
of the block they share, which each graph continues on its own rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator, Sequence

from .graph import DirectedMultigraph, is_balanced, is_connected

MAX_ENUM_VERTICES = 12
MAX_INDEGREE_PRODUCT = 10**7


class EnumerationLimitError(RuntimeError):
    """Raised when enumeration would be too large and force is not set."""


class IdentityViolation(RuntimeError):
    """Two backends that must agree exactly did not: a checked identity
    failed."""


@dataclass(frozen=True)
class SpanningTree:
    """A rooted oriented spanning tree, stored as its edge-id set."""

    root: str
    edges: frozenset[str]

    def sorted_edges(self) -> tuple[str, ...]:
        return tuple(sorted(self.edges))


def _validate_tree(g: DirectedMultigraph, tree: SpanningTree) -> list:
    """Return the tree's Edge objects; raise ValueError if not a valid
    spanning tree of g rooted at tree.root."""
    if not g.has_vertex(tree.root):
        raise ValueError(f"unknown root {tree.root!r}")
    edges = []
    for eid in tree.edges:
        if not g.has_edge(eid):
            raise ValueError(f"invalid tree: unknown edge {eid!r}")
        edges.append(g.edge(eid))
    if len(edges) != len(g.vertices) - 1:
        raise ValueError(
            f"invalid tree: {len(edges)} edges for {len(g.vertices)} vertices"
        )
    parent: dict[str, str] = {}
    for e in edges:
        if e.head == tree.root:
            raise ValueError(f"invalid tree: edge {e.id!r} enters the root")
        if e.head in parent:
            raise ValueError(f"invalid tree: two edges enter {e.head!r}")
        parent[e.head] = e.tail
    # With in-degree 1 everywhere off the root (the V - 1 edges enter V - 1
    # distinct vertices, none of them the root, so by pigeonhole each of
    # the others once), acyclicity is equivalent to every parent chain
    # ending at the root.  Walk k marks each vertex it passes with k and
    # stops at the first marked one: a mark from an earlier walk means the
    # root is reached, its own mark means a cycle.  Each vertex is marked
    # once, so the check is linear.
    walk_of = {tree.root: -1}
    for k, v in enumerate(g.vertices):
        while v not in walk_of:
            walk_of[v] = k
            v = parent[v]
        if walk_of[v] == k:
            raise ValueError("invalid tree: oriented cycle present")
    return edges


def tree_weight(g: DirectedMultigraph, tree: SpanningTree) -> int:
    """Product of the weights of the tree's edges; 1 for the empty tree."""
    return prod(e.weight for e in _validate_tree(g, tree))


def _check_guard(candidates: dict[str, list], n: int, force: bool) -> None:
    if force:
        return
    if n > MAX_ENUM_VERTICES:
        raise EnumerationLimitError(
            f"{n} vertices exceeds the enumeration limit of "
            f"{MAX_ENUM_VERTICES}; pass force=True (--force) to override"
        )
    product = 1
    for options in candidates.values():
        product *= len(options)
        if product > MAX_INDEGREE_PRODUCT:
            raise EnumerationLimitError(
                f"in-degree product exceeds {MAX_INDEGREE_PRODUCT}; "
                "pass force=True (--force) to override"
            )


def _tree_edges(g: DirectedMultigraph, root: str, force: bool) -> Iterator[list]:
    """Each spanning tree rooted at root as the list of its chosen in-edges,
    one per non-root vertex, in canonical order (``enumerate_trees``).
    The same list is yielded each time, changed in place between trees.

    Backtracks over one in-edge per non-root vertex.  A choice closes an
    oriented cycle exactly when its tail already lies in the chosen
    vertex's component of the chosen edges, so the components are kept
    in a union-find forest, union by size and no path compression, and
    each level undoes its own union on backtrack, so a lookup takes
    O(log n) steps.
    """
    if not g.has_vertex(root):
        raise ValueError(f"unknown root {root!r}")
    if not is_connected(g):
        raise ValueError("graph is not connected")
    order = [v for v in g.vertices if v != root]
    # Self-loops can never appear in a tree: they close a cycle at once.
    candidates = {
        v: [e for e in g.in_edges(v) if e.tail != v] for v in order
    }
    _check_guard(candidates, len(g.vertices), force)

    link = {v: v for v in g.vertices}  # union-find parent; roots link to themselves
    size = dict.fromkeys(g.vertices, 1)

    def find(v: str) -> str:
        while link[v] != v:
            v = link[v]
        return v

    chosen: list = [None] * len(order)
    joined: list = [None] * len(order)  # the root each level linked below another
    # the search stands at order[i]; next_option[j] is the index in
    # candidates[order[j]] to try next on every level j
    next_option = [0] * len(order)
    i = 0
    while i >= 0:
        if i == len(order):
            yield chosen
            i -= 1
            continue
        below = joined[i]
        if below is not None:
            size[link[below]] -= size[below]
            link[below] = below
            joined[i] = None
        options = candidates[order[i]]
        own = find(order[i])
        k = next_option[i]
        while k < len(options) and (other := find(options[k].tail)) == own:
            k += 1
        if k == len(options):
            next_option[i] = 0
            i -= 1
        else:
            below, above = (own, other) if size[own] <= size[other] else (other, own)
            link[below] = above
            size[above] += size[below]
            joined[i] = below
            chosen[i] = options[k]
            next_option[i] = k + 1
            i += 1


def enumerate_trees(
    g: DirectedMultigraph, root: str, force: bool = False
) -> list[SpanningTree]:
    """All spanning trees rooted at root, in canonical order.

    Canonical order is lexicographic in the tuple of chosen edge ids,
    taking non-root vertices in ascending id order.  The backtracking is a
    loop, not a recursion, so deep graphs stay clear of the recursion
    limit, and its cycle test is a union-find lookup (``_tree_edges``).
    Raises on an unknown root or a disconnected graph, and applies a size
    guard unless force is set.
    """
    return [
        SpanningTree(root, frozenset(e.id for e in edges))
        for edges in _tree_edges(g, root, force)
    ]


def count_by_enumeration(
    g: DirectedMultigraph, root: str, force: bool = False
) -> int:
    """N(g, root) as a sum of tree weights over the enumeration; each
    weight multiplies the chosen edges' weights as they are found."""
    return sum(prod(e.weight for e in edges) for edges in _tree_edges(g, root, force))


def _transposed_laplacian(
    g: DirectedMultigraph, pos: dict[str, int], unit: bool = False
) -> list[dict[int, int]]:
    """Rows of the transposed Laplacian as {column: value} dicts, vertex v
    at row and column pos[v], one row for each entry of pos: row h holds
    the total weight into h on the diagonal and minus the weight from
    each tail t in column t; with unit, every weight counts 1.
    Self-loops contribute nothing.  Every Laplacian here is built by it."""
    rows: list[dict[int, int]] = [{} for _ in pos]
    for e in g.edges:
        if e.tail != e.head:
            t, h, w = pos[e.tail], pos[e.head], 1 if unit else e.weight
            rows[h][h] = rows[h].get(h, 0) + w
            rows[h][t] = rows[h].get(t, 0) - w
    return rows


def laplacian(g: DirectedMultigraph) -> tuple[tuple[int, ...], ...]:
    """The weighted Laplacian as a tuple of rows, in ``g.vertices`` order.

    Entry (i, j) for i != j is minus the total weight of edges from
    vertex i to vertex j; the diagonal entry (j, j) is the total weight
    of edges into vertex j.  Self-loops contribute nothing.
    """
    cols = _transposed_laplacian(g, {v: i for i, v in enumerate(g.vertices)})
    return tuple(tuple(col.get(i, 0) for col in cols) for i in range(len(cols)))


class _Elimination:
    """A sparse fraction-free (Bareiss) elimination, run a block at a time.

    Step k pivots on p_k = a_rc and rewrites the other rows as
    a_ij <- (p_k a_ij - a_ic a_rj) / p_(k-1), with p_0 = 1.  Each value
    is a minor of the matrix (Sylvester's identity), so each division is
    exact.  Rows are scaled lazily: a row without an entry in column c is
    only multiplied by p_k / p_(k-1), so a row last rewritten at step m
    holds exactly p_m / p_(k-1) times its step-(k-1) values and is
    rewritten as a_ij <- (p_k a_ij - a_ic a'_rj) / p_m, with a' the pivot
    row brought up to step k - 1.  Entries that cancel are dropped.

    ``a[i]`` holds row i's nonzero entries, ``cols[j]`` the live rows with
    an entry in column j, ``level[i]`` the step row i's values are from,
    ``piv`` the pivots p_0, p_1, ... and ``tau`` each pivot row's column.
    """

    __slots__ = ("a", "cols", "live", "level", "piv", "tau")

    def __init__(self, rows):
        n = len(rows)
        self.a: list[dict[int, int]] = []
        self.cols = [set() for _ in range(n)]
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                if len(row) != n:
                    raise ValueError("matrix must be square")
                row = dict(enumerate(row))
            elif not all(0 <= j < n for j in row):
                raise ValueError("matrix must be square")
            self.a.append({j: x for j, x in row.items() if x})
            for j in self.a[i]:
                self.cols[j].add(i)
        self.live = set(range(n))
        self.level = [0] * n
        self.piv = [1]
        self.tau: dict[int, int] = {}

    def run(self, kept) -> None:
        """Pivot outside the rows and columns in kept until the live block
        there has no nonzero entry.  Pivots are its diagonal entries in
        Markowitz order, least (r - 1)(c - 1) for r entries in the column
        and c in the row, kept in buckets by cost; when that diagonal is
        all 0, any nonzero entry of the block is the pivot."""
        a, cols, live, level, piv, tau = (
            self.a, self.cols, self.live, self.level, self.piv, self.tau
        )
        cost: dict[int, int] = {}  # diagonal candidate -> its Markowitz cost
        buckets: dict[int, set[int]] = {}  # cost -> the candidates at that cost

        def place(i: int) -> None:
            old = cost.pop(i, None)
            if old is not None:
                buckets[old].discard(i)
                if not buckets[old]:
                    del buckets[old]
            if i not in kept and i in live and i in a[i]:
                cost[i] = key = (len(cols[i]) - 1) * (len(a[i]) - 1)
                buckets.setdefault(key, set()).add(i)

        for i in live:
            place(i)
        while True:
            if buckets:
                r = c = next(iter(buckets[min(buckets)]))
            else:
                block = (
                    (i, j) for i in live if i not in kept for j in a[i] if j not in kept
                )
                r, c = next(block, (None, None))
                if r is None:
                    return
            k = len(piv)
            tau[r] = c
            live.discard(r)
            prow = a[r]
            if level[r] != k - 1:
                prow = {j: x * piv[k - 1] // piv[level[r]] for j, x in prow.items()}
            piv.append(p := prow.pop(c))
            for j in prow:
                cols[j].discard(r)
            touched = cols[c] - {r}
            for i in touched:
                row = a[i]
                x = row.pop(c)
                for j in prow.keys() - row.keys():
                    cols[j].add(i)
                d = piv[level[i]]
                new = {j: y * p // d for j, y in row.items() if j not in prow}
                size = len(new) + len(prow)
                new.update(
                    {j: v for j, y in prow.items() if (v := (row.get(j, 0) * p - x * y) // d)}
                )
                a[i], level[i] = new, k
                if len(new) < size:  # entries cancelled
                    for j in prow.keys() - new.keys():
                        cols[j].discard(i)
            for i in (r, *touched, *prow):
                place(i)

    def add(self, i: int, row: dict[int, int]) -> None:
        """Add matrix entries outside the pivoted columns to live row i.  It
        holds p_l times its Schur complement, l its level, and that is
        linear in them, so each goes in times p_l."""
        a, cols, p = self.a[i], self.cols, self.piv[self.level[i]]
        for j, x in row.items():
            if v := a.get(j, 0) + p * x:
                a[j] = v
                cols[j].add(i)
            else:
                a.pop(j, None)
                cols[j].discard(i)

    def fork(self) -> _Elimination:
        """A copy to go on pivoting without changing this one.  A pivoted
        row is never written again, so only the live rows are copied."""
        f = object.__new__(_Elimination)
        f.a = self.a[:]
        for i in self.live:
            f.a[i] = self.a[i].copy()
        f.cols = [c.copy() for c in self.cols]
        f.live, f.level = self.live.copy(), self.level[:]
        f.piv, f.tau = self.piv[:], self.tau.copy()
        return f

    def minor_and_det(self, last: int, n: int) -> tuple[int, int]:
        """The minor without row and column last, and the determinant, of
        the n x n matrix in the nonzero rows: pivot outside last, then on
        it.  Short of n - 1 and of n pivots, each is 0; else each is its
        last pivot up to the sign of tau: r_k -> c_k."""
        self.run({last})
        minor = self.piv[-1] if len(self.piv) >= n else 0
        self.run(set())
        det = self.piv[n] if len(self.piv) > n else 0
        sign = _sign(self.tau) if minor or det else 1
        return sign * minor, sign * det


def _sign(tau: dict[int, int]) -> int:
    """The sign of a permutation given as a dict, a cycle of length L
    giving (-1)^(L-1).  Each entry is visited once, so a dict that is not
    a permutation cannot make it loop."""
    sign, seen = 1, set()
    for i in tau:
        if i not in seen:
            sign = -sign
            while i not in seen:
                seen.add(i)
                i = tau[i]
                sign = -sign
    return sign


def bareiss(rows) -> tuple[int, int]:
    """The leading (n-1) x (n-1) principal minor and the determinant of a
    square integer matrix, rows as sequences or sparse {column: value}
    dicts, from one ``_Elimination``; (1, 1) for the 0x0 case."""
    return _Elimination(rows).minor_and_det(len(rows) - 1, len(rows))


def det_bareiss(rows) -> int:
    """Exact determinant of a square integer matrix; 1 for the 0x0 case.
    The determinant half of ``bareiss``."""
    return bareiss(rows)[1]


def count_by_determinant(g: DirectedMultigraph, root: str, unit: bool = False) -> int:
    """N(g, root) as the leading minor of the Laplacian with the root
    moved last, the reduced-Laplacian determinant; by the matrix-tree
    identity it equals the enumeration count for any integer weights.
    With unit, every edge weighs 1: the number of trees.  Does not
    require connectivity (a disconnected graph counts 0)."""
    if not g.has_vertex(root):
        raise ValueError(f"unknown root {root!r}")
    order = [v for v in g.vertices if v != root] + [root]
    pos = {v: i for i, v in enumerate(order)}
    return bareiss(_transposed_laplacian(g, pos, unit))[0]


def root_free_counts(graphs: Sequence[DirectedMultigraph]) -> list[int]:
    """The root-independent N of each balanced graph, certified, from one
    elimination of the block the graphs share.

    Every column of the Laplacian L sums to zero, so det L = 0 and the
    (i, j) cofactor C_ij does not depend on i: C_ij = C_jj = N(j), the
    count rooted at vertex j.  Let e_z be the unit vector of a vertex z
    and 1 the all-ones vector.  By the matrix determinant lemma,

        det(L + e_z 1^T) = det L + 1^T adj(L) e_z = sum_j C_zj
                         = N(0) + N(1) + ... + N(n - 1).

    Its transpose L^T + 1 e_z^T, which adds 1 to column z, has the same
    determinant, and without row and column z it is the transposed
    reduced Laplacian at z.  So one elimination gives N(z) as that minor
    and the sum as the determinant, and the dense border is a column,
    eliminated last.  Balance adds zero row sums, which make every N(j)
    equal, so the sum is n * N.  Without balance the equation says that
    N(z) is the mean of the n root counts, which is not automatic: for
    a -> b, b -> c, a -> c the sum is 2 against n * N(r) = 6, 0, 0 over
    the roots.  A wrong minor or a wrong determinant breaks the equation
    too.  A mismatch raises IdentityViolation.

    The kept vertices are the endpoints of every edge not in all graphs
    and every vertex not in all graphs.  z is the first vertex that is
    in all graphs and kept, or else the first vertex in all graphs, then
    kept too; with no vertex in all graphs, each graph's own first
    vertex.  The rows and columns of the other, shared vertices are the
    same in every bordered matrix, so they are eliminated once, over the
    shared block only.  Each graph adds its own kept entries to a fork of
    that state (the last to the state itself) and continues the chain to
    its minor and determinant, pivoting any shared rows left when that
    block ran out of nonzero entries too.  Graphs that share nothing, a
    lone one among them, are each eliminated whole.

    Connectivity is not required: a disconnected balanced graph has
    every cofactor 0, so both sides are 0 and it counts 0.
    """
    for g in graphs:
        if not is_balanced(g):
            raise ValueError("graph is not balanced")
    first, *rest = graphs
    z, shared = None, []
    if rest:
        common = set(first.vertices).intersection(*(g.vertices for g in rest))
        alike = set(first.edges).intersection(*(g.edges for g in rest))
        kept = {v for g in graphs for e in g.edges if e not in alike for v in e[1:3]}
        kept.update(v for g in graphs for v in g.vertices if v not in common)
        z = min(common & kept or common, default=None)
        shared = sorted(common - kept - {z})
    s = len(shared)
    everyone = {v for g in graphs for v in g.vertices}
    pos = {v: i for i, v in enumerate(shared + sorted(everyone.difference(shared)))}
    bordered = []
    for g in graphs:
        rows = _transposed_laplacian(g, pos)
        last = g.vertices[0] if z is None else z
        zi = pos[last]
        for i in map(pos.get, g.vertices):
            rows[i][zi] = rows[i].get(zi, 0) + 1
        bordered.append((g, last, rows))
    if shared:
        # the shared rows in full, and the kept rows' shared columns
        e = _Elimination(
            [row if i < s else {j: x for j, x in row.items() if j < s}
             for i, row in enumerate(bordered[0][2])]
        )
        e.run(range(s, len(pos)))
    counts = []
    for k, (g, last, rows) in enumerate(bordered):
        if shared:
            f = e.fork() if k < len(rest) else e
            for i in range(s, len(pos)):
                f.add(i, {j: x for j, x in rows[i].items() if j >= s})
        else:
            f = _Elimination(rows)
        n = len(g.vertices)
        count, total = f.minor_and_det(pos[last], n)
        if total != n * count:
            raise IdentityViolation(
                "root-dependent counts on a balanced graph: "
                f"N({last})={count} but the sum over roots is "
                f"{total} != {n}*N"
            )
        counts.append(count)
    return counts


def root_free_count(g: DirectedMultigraph) -> int:
    """The root-independent N of a balanced graph, from one elimination:
    ``root_free_counts`` of g alone, N(0) certified by the sum of all n
    root counts."""
    return root_free_counts([g])[0]


def require_balanced_connected(g: DirectedMultigraph) -> None:
    """Refuse an unbalanced graph, then a disconnected one."""
    if not is_balanced(g):
        raise ValueError("graph is not balanced")
    if not is_connected(g):
        raise ValueError("graph is not connected")


def balanced_count(g: DirectedMultigraph) -> int:
    """The root-independent N of a connected balanced graph.

    Refuses an unbalanced graph, then a disconnected one, and returns
    the certified ``root_free_count``: N(0) checked against the sum of
    all n root counts, both from one elimination whatever the size.
    """
    require_balanced_connected(g)
    return root_free_count(g)
