"""Oriented spanning trees: enumeration and determinant counting.

A spanning tree rooted at r is an edge set where every vertex other than
r has in-degree exactly 1, r has in-degree 0, and no oriented cycle
occurs; edges point away from the root.  N(g, r) is the sum over such
trees of the product of edge weights.

Two independent backends compute N: direct backtracking enumeration and
the reduced-Laplacian determinant (delete row and column of the root).
The determinant uses fraction-free Bareiss elimination over Python ints,
so results are exact for any integer weights, including zero and
negative ones.  For balanced graphs every row and column of the
Laplacian sums to zero, hence all cofactors agree and N is independent
of the root.  The root-free count therefore takes one elimination, of
the Laplacian with 1 added to its first row and that vertex moved last:
its determinant is the sum of all n root counts, n * N, and its last
pivot is the leading minor, N itself (see ``root_free_count``).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    for v in g.vertices:
        if v != tree.root and v not in parent:
            raise ValueError(f"invalid tree: no edge enters {v!r}")
    # With in-degree 1 everywhere off the root, acyclicity is equivalent
    # to every parent chain ending at the root.  Walk k marks each vertex
    # it passes with k and stops at the first marked one: a mark from an
    # earlier walk means the root is reached, its own mark means a cycle.
    # Each vertex is marked once, so the check is linear.
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
    w = 1
    for e in _validate_tree(g, tree):
        w *= e.weight
    return w


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


def enumerate_trees(
    g: DirectedMultigraph, root: str, force: bool = False
) -> list[SpanningTree]:
    """All spanning trees rooted at root, in canonical order.

    Canonical order is lexicographic in the tuple of chosen edge ids,
    taking non-root vertices in ascending id order.  Backtracks over one
    in-edge per non-root vertex and prunes as soon as a choice closes an
    oriented cycle; the backtracking is a loop, not a recursion, so deep
    graphs stay clear of the recursion limit.  Raises on an unknown root
    or a disconnected graph, and applies a size guard unless force is set.
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

    parent: dict[str, object] = {}
    found: list[SpanningTree] = []

    def closes_cycle(v: str, u: str) -> bool:
        # Would parent[v] = u close a cycle among chosen edges?
        w = u
        while True:
            if w == v:
                return True
            e = parent.get(w)
            if e is None:
                return False
            w = e.tail

    # the search stands at order[i]; next_option[j] is the index in
    # candidates[order[j]] to try next on every level j
    next_option = [0] * len(order)
    i = 0
    while i >= 0:
        if i == len(order):
            found.append(
                SpanningTree(root, frozenset(e.id for e in parent.values()))
            )
            i -= 1
            continue
        v = order[i]
        parent.pop(v, None)
        options = candidates[v]
        k = next_option[i]
        while k < len(options) and closes_cycle(v, options[k].tail):
            k += 1
        if k == len(options):
            next_option[i] = 0
            i -= 1
        else:
            parent[v] = options[k]
            next_option[i] = k + 1
            i += 1
    return found


def count_by_enumeration(
    g: DirectedMultigraph, root: str, force: bool = False
) -> int:
    """N(g, root) as a sum of tree weights over the enumeration."""
    total = 0
    for tree in enumerate_trees(g, root, force=force):
        total += tree_weight(g, tree)
    return total


def laplacian(g: DirectedMultigraph) -> tuple[tuple[int, ...], ...]:
    """The weighted Laplacian as a tuple of rows, in ``g.vertices`` order.

    Entry (i, j) for i != j is minus the total weight of edges from
    vertex i to vertex j; the diagonal entry (j, j) is the total weight
    of edges into vertex j.  Self-loops contribute nothing.
    """
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    rows = [[0] * n for _ in range(n)]
    for e in g.edges:
        if e.tail != e.head:
            t, h = idx[e.tail], idx[e.head]
            rows[t][h] -= e.weight
            rows[h][h] += e.weight
    return tuple(map(tuple, rows))


def bareiss(rows) -> tuple[int, int]:
    """The leading (n-1) x (n-1) principal minor and the determinant of a
    square integer matrix, from one elimination; (1, 1) for the 0x0 case.

    Fraction-free Bareiss elimination: every division is exact, so the
    whole computation stays in arbitrary-precision ints.  Each step
    eliminates the first column of the active block and keeps only the
    trailing entries of the rows below the pivot.  By Sylvester's
    identity the pivot of step k is the leading k x k minor of the
    row-swapped matrix, so the last pivot, taken when two rows remain,
    is the leading minor up to the sign of the swaps.  The search takes
    the last row only when every row above it is 0 in the pivot column,
    which makes the leading block singular: its minor is then 0.
    """
    m = list(rows)
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return 1, 1
    sign = minor_sign = 1
    prev = 1
    while len(m) > 1:
        if m[0][0] == 0:
            for i in range(1, len(m)):
                if m[i][0] != 0:
                    m[0], m[i] = m[i], m[0]
                    sign = -sign
                    minor_sign = -minor_sign if i < len(m) - 1 else 0
                    break
            else:
                return 0, 0
        pivot_row = m[0]
        pivot = pivot_row[0]
        tail = pivot_row[1:]
        rest = []
        for row in m[1:]:
            x = row[0]
            rest.append(
                [(pivot * y - x * p) // prev for y, p in zip(row[1:], tail)]
            )
        m = rest
        prev = pivot
    return minor_sign * prev, sign * m[0][0]


def det_bareiss(rows) -> int:
    """Exact determinant of a square integer matrix; 1 for the 0x0 case.
    The determinant half of ``bareiss``."""
    return bareiss(rows)[1]


def _minor(rows, i: int, j: int) -> list[list[int]]:
    """The matrix with row i and column j deleted."""
    return [
        [x for jj, x in enumerate(row) if jj != j]
        for ii, row in enumerate(rows)
        if ii != i
    ]


def cofactor(rows, i: int, j: int) -> int:
    """Signed (i, j) cofactor of the matrix."""
    sign = -1 if (i + j) % 2 else 1
    return sign * det_bareiss(_minor(rows, i, j))


def count_by_determinant(g: DirectedMultigraph, root: str) -> int:
    """N(g, root) via the reduced-Laplacian determinant.

    Deletes the root's row and column; the matrix-tree identity makes
    this equal to the enumeration count for any integer weights.  Does
    not require connectivity (a disconnected graph simply counts 0).
    """
    if not g.has_vertex(root):
        raise ValueError(f"unknown root {root!r}")
    index = g.vertices.index(root)
    return det_bareiss(_minor(laplacian(g), index, index))


def root_free_count(g: DirectedMultigraph) -> int:
    """The root-independent N of a balanced graph, from one elimination.

    Every column of the Laplacian L sums to zero, so det L = 0 and the
    (i, j) cofactor C_ij does not depend on i: C_ij = C_jj = N(j), the
    count rooted at vertex j.  Let e_0 be the first unit vector and 1
    the all-ones vector.  By the matrix determinant lemma,

        det(L + e_0 1^T) = det L + 1^T adj(L) e_0 = sum_j C_0j
                         = N(0) + N(1) + ... + N(n - 1),

    and L + e_0 1^T is L with 1 added to every entry of row 0.  Moving
    vertex 0's row and column last keeps the determinant and makes the
    leading (n-1) block the reduced Laplacian at vertex 0, so one
    ``bareiss`` gives N(0) as its last pivot and the sum as its
    determinant.  Balance adds zero row sums, which make every N(j)
    equal, so the sum is n * N.  Without balance the equation says that
    N(0) is the mean of the n root counts, which is not automatic: for
    a -> b, b -> c, a -> c the sum is 2 against n * N(r) = 6, 0, 0 over
    the roots.  A wrong minor or a wrong determinant breaks the equation
    too.  A mismatch raises IdentityViolation.

    Connectivity is not required: a disconnected balanced graph has
    every cofactor 0, so both sides are 0 and it counts 0.
    """
    if not is_balanced(g):
        raise ValueError("graph is not balanced")
    first, *rest = laplacian(g)
    n = len(g.vertices)
    rows = [row[1:] + row[:1] for row in rest]
    rows.append([x + 1 for x in first[1:] + first[:1]])
    count, total = bareiss(rows)
    if total != n * count:
        raise IdentityViolation(
            "root-dependent counts on a balanced graph: "
            f"N({g.vertices[0]})={count} but the sum over roots is "
            f"{total} != {n}*N"
        )
    return count


def balanced_count(g: DirectedMultigraph) -> int:
    """The root-independent N of a connected balanced graph.

    Refuses an unbalanced graph, then a disconnected one, and returns
    the certified ``root_free_count``: N(0) checked against the sum of
    all n root counts, both from one elimination whatever the size.
    """
    if not is_balanced(g):
        raise ValueError("graph is not balanced")
    if not is_connected(g):
        raise ValueError("graph is not connected")
    return root_free_count(g)
