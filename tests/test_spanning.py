"""Tree enumeration and determinant counts against brute-force oracles."""

from __future__ import annotations

import random

import pytest

from moytree import spanning
from moytree.generate import random_balanced_graph, random_connected_digraph, seed_cycle
from moytree.graph import DirectedMultigraph, Edge, is_balanced, is_connected, subdivide_edge
from moytree.skein import resolve_G1, resolve_G2
from moytree.spanning import (
    EnumerationLimitError,
    IdentityViolation,
    SpanningTree,
    balanced_count,
    bareiss,
    count_by_determinant,
    count_by_enumeration,
    det_bareiss,
    enumerate_trees,
    laplacian,
    root_free_count,
    root_free_counts,
    tree_weight,
)
from oracles import (
    det_by_permutations,
    minor_and_det_by_fractions,
    spanning_tree_sets,
    weighted_tree_count,
)


# -- the worked three-vertex example ----------------------------------------


def test_lens_tree_counts_per_root(lens_graph):
    assert len(enumerate_trees(lens_graph, "v1")) == 2
    assert len(enumerate_trees(lens_graph, "v2")) == 3
    assert len(enumerate_trees(lens_graph, "v3")) == 1


def test_lens_trees_exact_edge_sets(lens_graph):
    sets = lambda root: [t.sorted_edges() for t in enumerate_trees(lens_graph, root)]
    assert sets("v1") == [("e12", "e13"), ("e12", "e23")]
    assert sets("v2") == [("e13", "e21"), ("e21", "e23"), ("e23", "e31")]
    assert sets("v3") == [("e12", "e31")]


def test_lens_counts_agree_everywhere(lens_graph):
    for root in lens_graph.vertices:
        assert count_by_enumeration(lens_graph, root) == 20
        assert count_by_determinant(lens_graph, root) == 20
    assert balanced_count(lens_graph) == 20


def test_lens_laplacian_matrix(lens_graph):
    assert lens_graph.vertices == ("v1", "v2", "v3")
    assert laplacian(lens_graph) == ((6, -5, -1), (-2, 5, -3), (-4, 0, 4))


def test_lens_all_nine_cofactors_equal(lens_graph, cofactor):
    rows = laplacian(lens_graph)
    for i in range(3):
        for j in range(3):
            assert cofactor(rows, i, j) == 20


# -- tree weight and validation ---------------------------------------------


def test_single_vertex_has_one_empty_tree(make_graph):
    g = make_graph(["a"], [])
    trees = enumerate_trees(g, "a")
    assert trees == [SpanningTree("a", frozenset())]
    assert tree_weight(g, trees[0]) == 1
    assert count_by_determinant(g, "a") == 1


def test_tree_weight_is_product(lens_graph):
    weights = [tree_weight(lens_graph, t) for t in enumerate_trees(lens_graph, "v1")]
    assert weights == [5, 15]


def test_tree_weight_rejects_malformed_trees(make_graph):
    g = make_graph(
        ["a", "b", "c"],
        [("ab", "a", "b", 1), ("ba", "b", "a", 1), ("ca", "c", "a", 1), ("bc", "b", "c", 1)],
    )
    with pytest.raises(ValueError, match="unknown root"):
        tree_weight(g, SpanningTree("x", frozenset()))
    with pytest.raises(ValueError, match="unknown edge"):
        tree_weight(g, SpanningTree("a", frozenset({"zz", "bc"})))
    with pytest.raises(ValueError, match="1 edges for 3 vertices"):
        tree_weight(g, SpanningTree("a", frozenset({"ab"})))
    with pytest.raises(ValueError, match="enters the root"):
        tree_weight(g, SpanningTree("a", frozenset({"ba", "bc"})))
    with pytest.raises(ValueError, match="two edges enter"):
        tree_weight(g, SpanningTree("c", frozenset({"ba", "ca"})))
    with pytest.raises(ValueError, match="oriented cycle"):
        tree_weight(g, SpanningTree("c", frozenset({"ab", "ba"})))
    # a long chain from the root is walked first; the 2-cycle a <-> b and
    # the vertex d hanging off it never reach the root
    path = ["r", *(f"c{i}" for i in range(50))]
    records = [(f"p{i}", path[i], path[i + 1], 1) for i in range(len(path) - 1)]
    records += [("ab", "a", "b", 1), ("ba", "b", "a", 1), ("ad", "a", "d", 1)]
    g = make_graph([*path, "d", "a", "b"], records)
    with pytest.raises(ValueError, match="oriented cycle present"):
        tree_weight(g, SpanningTree("r", frozenset(eid for eid, *_ in records)))


def test_tree_validation_walks_a_deep_path_once():
    # walking every vertex's parent chain afresh would take n^2 / 2 steps
    n = 20000
    vs = [f"v{i}" for i in range(n)]
    es = [Edge(f"e{i}", vs[i - 1], vs[i], 1 + i % 2) for i in range(1, n)]
    g = DirectedMultigraph(vs, es)
    assert tree_weight(g, SpanningTree("v0", frozenset(e.id for e in es))) == 2 ** (n // 2)


def test_self_loops_never_enter_trees(make_graph):
    g = make_graph(
        ["a", "b"],
        [("e", "a", "b", 2), ("f", "b", "a", 2), ("loop", "b", "b", 7)],
    )
    for tree in enumerate_trees(g, "a"):
        assert "loop" not in tree.edges
    assert count_by_enumeration(g, "a") == 2
    assert count_by_determinant(g, "a") == 2


def test_enumeration_rejects_bad_inputs(make_graph):
    g = make_graph(["a", "b"], [("e", "a", "b", 1)])
    with pytest.raises(ValueError, match="unknown root"):
        enumerate_trees(g, "x")
    disconnected = make_graph(["a", "b"], [])
    with pytest.raises(ValueError, match="not connected"):
        enumerate_trees(disconnected, "a")


# -- oracle equivalence ------------------------------------------------------


def test_enumeration_matches_subset_oracle():
    rng = random.Random(31)
    for k in range(60):
        if k % 2 == 0:
            g = random_balanced_graph(rng, max_vertices=5, allow_loops=(k % 4 == 0))
        else:
            g = random_connected_digraph(rng, max_vertices=5, allow_loops=(k % 3 == 0))
        for root in g.vertices:
            got = {t.edges for t in enumerate_trees(g, root)}
            assert got == spanning_tree_sets(g, root)
            assert count_by_enumeration(g, root) == weighted_tree_count(g, root)


def test_determinant_matches_enumeration():
    rng = random.Random(32)
    for k in range(60):
        g = (
            random_balanced_graph(rng, max_vertices=6)
            if k % 2 == 0
            else random_connected_digraph(rng, max_vertices=6)
        )
        for root in g.vertices:
            assert count_by_determinant(g, root) == count_by_enumeration(g, root)


def test_determinant_handles_zero_and_negative_weights(make_graph):
    g = make_graph(
        ["a", "b", "c"],
        [
            ("e1", "a", "b", -2),
            ("e2", "b", "c", 0),
            ("e3", "c", "a", 3),
            ("e4", "b", "a", 5),
            ("e5", "c", "b", -1),
        ],
    )
    for root in g.vertices:
        assert count_by_determinant(g, root) == weighted_tree_count(g, root)


def test_disconnected_graph_counts_zero_by_determinant(make_graph):
    g = make_graph(
        ["a", "b", "c", "d"],
        [("e1", "a", "b", 2), ("e2", "b", "a", 2), ("f1", "c", "d", 3), ("f2", "d", "c", 3)],
    )
    for root in g.vertices:
        assert count_by_determinant(g, root) == 0


# -- Laplacian structure ------------------------------------------------------


def test_laplacian_rows_and_columns_sum_to_zero_iff_balanced(make_graph):
    rng = random.Random(33)
    for _ in range(30):
        g = random_balanced_graph(rng, max_vertices=6)
        rows = laplacian(g)
        assert len(rows) == len(g.vertices)
        assert all(sum(row) == 0 for row in rows)
        assert all(sum(column) == 0 for column in zip(*rows))
    unbalanced = make_graph(["a", "b"], [("e", "a", "b", 1)])
    assert any(sum(row) != 0 for row in laplacian(unbalanced))


def test_laplacian_ignores_self_loops(make_graph):
    g = make_graph(["a", "b"], [("e", "a", "b", 2), ("f", "b", "a", 2)])
    g_loop = make_graph(
        ["a", "b"],
        [("e", "a", "b", 2), ("f", "b", "a", 2), ("l", "a", "a", 9)],
    )
    assert laplacian(g) == laplacian(g_loop)


def test_laplacian_sums_parallel_edges(make_graph):
    g = make_graph(["a", "b"], [("e1", "a", "b", 2), ("e2", "a", "b", 3), ("f", "b", "a", 5)])
    assert laplacian(g) == ((5, -5), (-5, 5))


# -- determinant backend ------------------------------------------------------


def test_det_bareiss_base_cases():
    assert det_bareiss([]) == 1
    assert det_bareiss([[7]]) == 7
    assert det_bareiss([[2, 3], [5, 7]]) == -1


def test_det_bareiss_pivot_swap_and_singular():
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 0], [0, 5]]) == 0
    assert det_bareiss([[1, 2], [2, 4]]) == 0


def test_det_bareiss_matches_permutation_oracle():
    rng = random.Random(34)
    for _ in range(80):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(rows) == det_by_permutations(rows)


def test_det_bareiss_sparse_matches_permutation_oracle():
    # row 2 has factor 0 at step 0; step 1 finds a zero pivot, swaps,
    # and the row swapped down has factor 0
    assert det_bareiss([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == -1
    rng = random.Random(36)
    for _ in range(150):
        n = rng.randint(1, 6)
        rows = [
            [rng.randint(-4, 4) if rng.random() < 0.3 else 0 for _ in range(n)]
            for _ in range(n)
        ]
        assert det_bareiss(rows) == det_by_permutations(rows)


def test_det_bareiss_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        det_bareiss([[1, 2]])
    with pytest.raises(ValueError, match="square"):
        bareiss([[1], [2]])
    with pytest.raises(ValueError, match="square"):
        bareiss([{0: 1, 2: 1}, {1: 1}])
    with pytest.raises(ValueError, match="square"):
        bareiss([{0: 1}, {-1: 1}])


def _minor_and_det(rows) -> tuple[int, int]:
    """The oracle pair: the leading (n-1) principal minor and the
    determinant, each by the permutation expansion."""
    return det_by_permutations([row[:-1] for row in rows[:-1]]), det_by_permutations(rows)


def test_bareiss_base_cases():
    assert bareiss([]) == _minor_and_det([]) == (1, 1)
    assert bareiss([[7]]) == _minor_and_det([[7]]) == (1, 7)
    assert bareiss([[0]]) == (1, 0)


@pytest.mark.parametrize(
    "rows",
    [
        # zero first pivot, swapped with a row of the leading block
        [[0, 1, 2], [3, 4, 5], [6, 7, 9]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        # singular leading block: the last step swaps the border row up
        [[1, 2, 3], [2, 4, 5], [1, 1, 1]],
        # a column whose only nonzero entry is in the border row
        [[1, 0, 2], [3, 0, 4], [5, 6, 7]],
        [[0, 3], [2, 5]],
        # an all-zero column
        [[0, 1], [0, 2]],
        [[1, 0, 2], [3, 0, 4], [5, 0, 7]],
    ],
)
def test_bareiss_pivot_cases_match_permutation_oracle(rows):
    assert bareiss(rows) == _minor_and_det(rows)


def test_bareiss_matches_permutation_oracle():
    rng = random.Random(38)
    for _ in range(200):
        n = rng.randint(0, 5)
        density = rng.choice([0.3, 0.6, 1.0])
        rows = [
            [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        assert bareiss(rows) == _minor_and_det(rows)


def _random_rows(rng, n: int, density: float, bound: int = 4) -> list[list[int]]:
    return [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def _sparse(rows) -> list[dict[int, int]]:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@pytest.mark.parametrize("density", [0.1, 0.3, 1.0])
def test_bareiss_matches_fraction_oracle(density):
    rng = random.Random(int(40 + 10 * density))
    for n in range(26):
        rows = _random_rows(rng, n, density)
        pair = minor_and_det_by_fractions(rows)
        assert bareiss(rows) == pair
        assert bareiss(_sparse(rows)) == pair


def test_bareiss_zero_diagonals_and_singular_leading_blocks():
    rng = random.Random(44)
    # a zero diagonal: the first pivot lies off it, later ones may lie on
    # diagonal entries that fill created
    nonzero = 0
    for _ in range(80):
        rows = _random_rows(rng, rng.randint(2, 12), rng.choice([0.3, 0.6, 1.0]), 5)
        for i in range(len(rows)):
            rows[i][i] = 0
        pair = bareiss(rows)
        assert pair == minor_and_det_by_fractions(rows)
        nonzero += pair[0] != 0 and pair[1] != 0
    assert nonzero >= 20
    # a leading block of rank n - 2: its minor is 0, the determinant need not be
    nonzero = 0
    for _ in range(60):
        n = rng.randint(3, 12)
        rows = _random_rows(rng, n, rng.choice([0.3, 1.0]), 5)
        k = rng.choice([-2, -1, 1, 3])
        rows[n - 2][: n - 1] = [k * x for x in rows[0][: n - 1]]
        pair = bareiss(rows)
        assert pair == minor_and_det_by_fractions(rows)
        assert pair[0] == 0
        nonzero += pair[1] != 0
    assert nonzero >= 10


def test_bareiss_leading_block_with_pivots_only_off_the_diagonal():
    # the leading block is a scaled derangement: no diagonal entry is ever
    # nonzero, and the sign of its cycles decides the minor's sign
    rng = random.Random(45)
    for _ in range(60):
        n = rng.randint(3, 11)
        perm = list(range(n - 1))
        while any(i == j for i, j in enumerate(perm)):
            rng.shuffle(perm)
        rows = [[0] * n for _ in range(n)]
        for i, j in enumerate(perm):
            rows[i][j] = rng.choice([-3, -2, -1, 1, 2, 3])
            rows[i][n - 1] = rng.randint(-3, 3)
        rows[n - 1] = [rng.randint(-3, 3) for _ in range(n)]
        pair = bareiss(rows)
        assert pair == minor_and_det_by_fractions(rows)
        assert pair[0] != 0


def test_long_unit_cycle_counts_one():
    # one tree per root; the elimination stays sparse, so this is fast
    g = seed_cycle(3000, 1).graph
    assert root_free_count(g) == 1
    assert count_by_determinant(g, g.vertices[1234]) == 1


# -- guards and root independence ---------------------------------------------


def big_cycle(n: int) -> DirectedMultigraph:
    vs = [f"v{i:02d}" for i in range(n)]
    es = [Edge(f"e{i:02d}", vs[i], vs[(i + 1) % n], 1) for i in range(n)]
    return DirectedMultigraph(vs, es)


def test_vertex_guard_trips_and_force_overrides():
    g = big_cycle(13)
    with pytest.raises(EnumerationLimitError, match="13 vertices"):
        enumerate_trees(g, "v00")
    assert len(enumerate_trees(g, "v00", force=True)) == 1
    assert count_by_determinant(g, "v00") == 1


def test_indegree_product_guard_trips(make_graph):
    vs = [f"v{i:02d}" for i in range(12)]
    records = []
    for i in range(1, 12):
        for k in range(5):
            records.append((f"e{i:02d}x{k}", vs[i - 1], vs[i], 1))
    g = make_graph(vs, records)
    with pytest.raises(EnumerationLimitError, match="in-degree product"):
        enumerate_trees(g, "v00")
    first = next(spanning._tree_edges(g, "v00", True))  # of 5^11 trees
    assert [e.id for e in first] == [f"e{i:02d}x0" for i in range(1, 12)]


def test_balanced_count_requires_balance_and_connectivity(make_graph):
    with pytest.raises(ValueError, match="not balanced"):
        balanced_count(make_graph(["a", "b"], [("e", "a", "b", 1)]))
    disconnected = make_graph(
        ["a", "b", "c", "d"],
        [("e1", "a", "b", 1), ("e2", "b", "a", 1), ("f1", "c", "d", 1), ("f2", "d", "c", 1)],
    )
    with pytest.raises(ValueError, match="not connected"):
        balanced_count(disconnected)
    # balance is checked first
    with pytest.raises(ValueError, match="not balanced"):
        balanced_count(make_graph(["a", "b", "c"], [("e", "a", "b", 1)]))


def test_balanced_counts_are_root_independent():
    rng = random.Random(35)
    for _ in range(60):
        g = random_balanced_graph(rng, max_vertices=6)
        counts = {count_by_determinant(g, r) for r in g.vertices}
        assert len(counts) == 1
        assert balanced_count(g) == counts.pop()


# -- the sum-over-roots certificate --------------------------------------------


def _root_sum(g) -> int:
    """det(L + e_0 1^T), L with 1 added to row 0, by the permutation oracle."""
    first, *rest = laplacian(g)
    return det_by_permutations([[x + 1 for x in first], *rest])


def _disconnected_smoothing() -> DirectedMultigraph:
    # G1 of a 2-cycle's two edges, i = j: no bridge edge, two components
    host = DirectedMultigraph(["a", "b"], [Edge("ab", "a", "b", 3), Edge("ba", "b", "a", 3)])
    return resolve_G1(host, "ab", "ba")


def _vanishing_leading_minors() -> list[DirectedMultigraph]:
    """Balanced graphs whose reduced Laplacian at a starts with a zero
    pivot, so the bordered elimination has to swap rows."""
    # closed walks a <-> b of weight 1 and c <-> b of weight -1 leave b
    # with in-weight 0; the swap stays inside the leading block
    zero_pivot = DirectedMultigraph(
        ["a", "b", "c"],
        [
            Edge("ab", "a", "b", 1),
            Edge("ba", "b", "a", 1),
            Edge("cb", "c", "b", -1),
            Edge("bc", "b", "c", -1),
        ],
    )
    # the Laplacian is 0, so the border row holds the only nonzero entry
    # of the first column and is swapped up: the count is 0
    cancelled = DirectedMultigraph(
        ["a", "b"],
        [
            Edge("ab", "a", "b", 1),
            Edge("ba", "b", "a", 1),
            Edge("ab-", "a", "b", -1),
            Edge("ba-", "b", "a", -1),
        ],
    )
    return [zero_pivot, cancelled]


def test_certificate_is_n_times_the_count_on_balanced_graphs():
    rng = random.Random(37)
    graphs = [random_balanced_graph(rng, max_vertices=6) for _ in range(40)]
    split = _disconnected_smoothing()
    assert is_balanced(split) and not is_connected(split)
    graphs.append(split)
    for g in _vanishing_leading_minors():
        assert is_balanced(g) and laplacian(g)[1][1] == 0
        graphs.append(g)
    assert [weighted_tree_count(g, "a") for g in graphs[-2:]] == [-1, 0]
    for g in graphs:
        n = len(g.vertices)
        count = weighted_tree_count(g, g.vertices[0])
        assert _root_sum(g) == n * count
        assert root_free_count(g) == count
    assert root_free_count(split) == 0
    with pytest.raises(ValueError, match="not connected"):
        balanced_count(split)


def test_certificate_separates_the_roots_of_an_unbalanced_graph(make_graph):
    g = make_graph(
        ["a", "b", "c"],
        [("ab", "a", "b", 1), ("bc", "b", "c", 1), ("ac", "a", "c", 1)],
    )
    assert _root_sum(g) == 2
    assert [3 * count_by_determinant(g, r) for r in g.vertices] == [6, 0, 0]
    with pytest.raises(ValueError, match="not balanced"):
        root_free_count(g)


@pytest.mark.parametrize("corrupted", [0, 1])
def test_certificate_rejects_a_corrupted_determinant(
    monkeypatch, lens_graph, corrupted
):
    # 0 corrupts the leading minor N(0), 1 the bordered determinant
    real = spanning._Elimination.minor_and_det
    calls = []

    def off_by_one(self, last, n):
        calls.append(n)
        pair = list(real(self, last, n))
        pair[corrupted] += 1
        return tuple(pair)

    monkeypatch.setattr(spanning._Elimination, "minor_and_det", off_by_one)
    with pytest.raises(IdentityViolation, match="root-dependent counts on a balanced graph"):
        balanced_count(lens_graph)
    assert calls == [3]


def test_unbalanced_counts_can_depend_on_the_root(make_graph):
    g = make_graph(
        ["a", "b", "c"],
        [("ab", "a", "b", 1), ("bc", "b", "c", 1), ("ac", "a", "c", 1)],
    )
    counts = {r: count_by_determinant(g, r) for r in g.vertices}
    assert len(set(counts.values())) > 1


# -- several graphs from one shared elimination ---------------------------------


def _shifted(g: DirectedMultigraph, by: int) -> DirectedMultigraph:
    # every vertex of a union of closed walks has as many in- as out-edges,
    # so moving every weight by one constant keeps the balance
    return DirectedMultigraph(g.vertices, [e._replace(weight=e.weight - by) for e in g.edges])


def _alone(graphs) -> list[int]:
    return [root_free_count(g) for g in graphs]


def _shared_pivots(monkeypatch) -> list[tuple[int, bool]]:
    """Records, for each fork of a shared elimination, its pivot count and
    whether any pivot was off the diagonal."""
    seen = []
    real = spanning._Elimination.fork

    def fork(self):
        seen.append((len(self.piv) - 1, any(r != c for r, c in self.tau.items())))
        return real(self)

    monkeypatch.setattr(spanning._Elimination, "fork", fork)
    return seen


def test_shared_counts_equal_separate_counts_with_singular_shared_blocks(monkeypatch):
    seen = _shared_pivots(monkeypatch)
    rng = random.Random(41)
    short = off_diagonal = 0
    for k in range(300):
        g = random_balanced_graph(rng, min_vertices=4, max_vertices=7, max_weight=5)
        if k % 2:
            g = _shifted(g, rng.randint(1, 4))  # zero and negative weights
        pattern = [e.id for e in g.edges if e.weight > 0]
        cases = [(subdivide_edge(g, rng.choice(g.edges).id),)]
        if len(pattern) >= 2:
            ei, ej = rng.sample(pattern, 2)
            cases.append((resolve_G1(g, ei, ej), resolve_G2(g, ei, ej)))
        for others in cases:
            touched = {v for e in g.edges if not all(e in h.edges for h in others)
                       for v in (e.tail, e.head)}
            seen.clear()
            assert root_free_counts([g, *others]) == _alone([g, *others])
            if seen:
                pivots, skew = seen[0]
                short += pivots < len(g.vertices) - len(touched)
                off_diagonal += skew
    # the shared block ran out early, and pivoted off its diagonal, often
    assert short > 20 and off_diagonal > 2


def test_shared_counts_when_equal_weights_disconnect_the_smoothing():
    host = DirectedMultigraph(
        ["a", "b", "c"],
        [
            Edge("ab", "a", "b", 2),
            Edge("ba", "b", "a", 2),
            Edge("bc", "b", "c", 1),
            Edge("cb", "c", "b", 1),
        ],
    )
    g1 = resolve_G1(host, "ab", "ba")
    assert not is_connected(g1)
    graphs = [host, g1, resolve_G2(host, "ab", "ba")]
    assert root_free_counts(graphs) == _alone(graphs) == [2, 0, 16]


def test_shared_counts_on_a_two_vertex_host_keep_every_vertex(monkeypatch):
    seen = _shared_pivots(monkeypatch)
    host = DirectedMultigraph(["a", "b"], [Edge("ab", "a", "b", 3), Edge("ba", "b", "a", 3)])
    graphs = [host, resolve_G1(host, "ab", "ba"), resolve_G2(host, "ab", "ba")]
    assert root_free_counts(graphs) == _alone(graphs) == [3, 0, 54]
    assert seen == []  # nothing is shared, so nothing is eliminated once


def test_shared_counts_with_a_pattern_at_vertex_zero_and_away_from_it():
    rng = random.Random(43)
    g = random_balanced_graph(rng, min_vertices=7, max_vertices=7)
    first = g.vertices[0]
    at_zero = [e.id for e in g.edges if first in (e.tail, e.head)]
    away = [e.id for e in g.edges if first not in (e.tail, e.head)]
    assert at_zero and len(away) >= 2
    for ei, ej in ((at_zero[0], away[0]), (away[0], away[1])):
        graphs = [g, resolve_G1(g, ei, ej), resolve_G2(g, ei, ej)]
        assert root_free_counts(graphs) == _alone(graphs)
    for eid in (at_zero[0], away[0]):
        graphs = [g, subdivide_edge(g, eid)]
        assert root_free_counts(graphs) == _alone(graphs)


def test_shared_counts_of_unrelated_graphs():
    rng = random.Random(44)
    for _ in range(30):
        graphs = [random_balanced_graph(rng, min_vertices=2, max_vertices=6) for _ in range(3)]
        # one graph renamed apart shares no vertex with the others
        graphs.append(
            DirectedMultigraph(
                [f"u{v}" for v in graphs[0].vertices],
                [e._replace(tail=f"u{e.tail}", head=f"u{e.head}") for e in graphs[0].edges],
            )
        )
        assert root_free_counts(graphs) == _alone(graphs)
        assert root_free_counts(graphs[3:] + graphs[:1]) == _alone(graphs[3:] + graphs[:1])
    g = graphs[1]
    assert root_free_counts([g, g]) == _alone([g, g])


def test_shared_counts_refuse_any_unbalanced_graph(make_graph):
    g = random_balanced_graph(random.Random(45), min_vertices=4)
    lopsided = make_graph(["a", "b"], [("e", "a", "b", 1)])
    with pytest.raises(ValueError, match="not balanced"):
        root_free_counts([g, lopsided])


def test_a_fork_continues_the_chain_and_leaves_its_source_as_it_was():
    rng = random.Random(48)
    for density in (0.3, 0.6, 1.0) * 20:
        rows = _random_rows(rng, 8, density)
        # other entries in the kept block, rows and columns 5-7
        changed = [row[:5] + [x + rng.randint(-2, 2) for x in row[5:]] for row in rows]
        changed[:5] = rows[:5]
        e = spanning._Elimination(rows)
        e.run(range(5, 8))
        state = repr((e.a, e.cols, e.live, e.level, e.piv, e.tau))
        f = e.fork()
        for i in range(5, 8):
            f.add(i, {j: changed[i][j] - rows[i][j] for j in range(5, 8)})
        assert f.minor_and_det(7, 8) == minor_and_det_by_fractions(changed)
        assert repr((e.a, e.cols, e.live, e.level, e.piv, e.tau)) == state
        assert e.minor_and_det(7, 8) == minor_and_det_by_fractions(rows)


def test_a_corrupted_shared_state_is_an_identity_violation(monkeypatch):
    g = random_balanced_graph(random.Random(46), min_vertices=6, max_vertices=6)
    ei, ej = g.edges[0].id, g.edges[1].id
    graphs = [g, resolve_G1(g, ei, ej), resolve_G2(g, ei, ej)]
    real = spanning._Elimination.fork

    def off_by_one(self):
        row = next(self.a[i] for i in sorted(self.live) if self.a[i])
        row[next(iter(row))] += 1
        return real(self)

    monkeypatch.setattr(spanning._Elimination, "fork", off_by_one)
    with pytest.raises(IdentityViolation, match="root-dependent counts on a balanced graph"):
        root_free_counts(graphs)
    with pytest.raises(IdentityViolation, match="root-dependent counts on a balanced graph"):
        root_free_counts([g, subdivide_edge(g, ei)])
