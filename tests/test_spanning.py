"""Tree enumeration and determinant counts against brute-force oracles."""

from __future__ import annotations

import random

import pytest

from moytree import spanning
from moytree.generate import random_balanced_graph, random_connected_digraph
from moytree.graph import DirectedMultigraph, Edge, is_balanced, is_connected
from moytree.skein import CrossingPattern, resolve_G1
from moytree.spanning import (
    EnumerationLimitError,
    SpanningTree,
    balanced_count,
    cofactor,
    count_by_determinant,
    count_by_enumeration,
    det_bareiss,
    enumerate_trees,
    laplacian,
    root_free_count,
    tree_weight,
)
from oracles import det_by_permutations, spanning_tree_sets, weighted_tree_count


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
    lap = laplacian(lens_graph)
    assert lap.order == ("v1", "v2", "v3")
    assert lap.rows == ((6, -5, -1), (-2, 5, -3), (-4, 0, 4))


def test_lens_all_nine_cofactors_equal(lens_graph):
    lap = laplacian(lens_graph)
    for i in range(3):
        for j in range(3):
            assert cofactor(lap, i, j) == 20


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
        lap = laplacian(g)
        n = len(lap.order)
        assert all(sum(row) == 0 for row in lap.rows)
        assert all(sum(lap.rows[i][j] for i in range(n)) == 0 for j in range(n))
    unbalanced = make_graph(["a", "b"], [("e", "a", "b", 1)])
    lap = laplacian(unbalanced)
    assert any(sum(row) != 0 for row in lap.rows)


def test_laplacian_ignores_self_loops(make_graph):
    g = make_graph(["a", "b"], [("e", "a", "b", 2), ("f", "b", "a", 2)])
    g_loop = make_graph(
        ["a", "b"],
        [("e", "a", "b", 2), ("f", "b", "a", 2), ("l", "a", "a", 9)],
    )
    assert laplacian(g).rows == laplacian(g_loop).rows


def test_laplacian_sums_parallel_edges(make_graph):
    g = make_graph(["a", "b"], [("e1", "a", "b", 2), ("e2", "a", "b", 3), ("f", "b", "a", 5)])
    assert laplacian(g).rows == ((5, -5), (-5, 5))


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
    first, *rest = laplacian(g).rows
    return det_by_permutations([[x + 1 for x in first], *rest])


def _disconnected_smoothing() -> DirectedMultigraph:
    # G1 of a 2-cycle's two edges, i = j: no bridge edge, two components
    host = DirectedMultigraph(["a", "b"], [Edge("ab", "a", "b", 3), Edge("ba", "b", "a", 3)])
    return resolve_G1(host, CrossingPattern(edge_i="ab", edge_j="ba"))


def test_certificate_is_n_times_the_count_on_balanced_graphs():
    rng = random.Random(37)
    graphs = [random_balanced_graph(rng, max_vertices=6) for _ in range(40)]
    split = _disconnected_smoothing()
    assert is_balanced(split) and not is_connected(split)
    graphs.append(split)
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


@pytest.mark.parametrize("corrupted_call", [0, 1])
def test_certificate_rejects_a_corrupted_determinant(
    monkeypatch, lens_graph, corrupted_call
):
    real = spanning.det_bareiss
    calls = []

    def off_by_one(rows):
        calls.append(len(rows))
        return real(rows) + (len(calls) - 1 == corrupted_call)

    monkeypatch.setattr(spanning, "det_bareiss", off_by_one)
    with pytest.raises(RuntimeError, match="root-dependent counts on a balanced graph"):
        balanced_count(lens_graph)
    assert calls == [2, 3]


def test_unbalanced_counts_can_depend_on_the_root(make_graph):
    g = make_graph(
        ["a", "b", "c"],
        [("ab", "a", "b", 1), ("bc", "b", "c", 1), ("ac", "a", "c", 1)],
    )
    counts = {r: count_by_determinant(g, r) for r in g.vertices}
    assert len(set(counts.values())) > 1
