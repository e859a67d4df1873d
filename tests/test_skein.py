"""Crossing resolutions and the t = 1 skein identity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from moytree.generate import random_balanced_graph
from moytree.graph import DirectedMultigraph, Edge, is_balanced, is_connected
from moytree.skein import resolve_G1, resolve_G2, verify_skein_t1
from moytree import spanning
from moytree.spanning import count_by_determinant, root_free_count


def host(i: int, j: int) -> tuple[DirectedMultigraph, tuple[str, str]]:
    """Two 2-cycles sharing y; the pattern crosses one edge of each."""
    g = DirectedMultigraph(
        ["x", "y", "z"],
        [
            Edge("xy", "x", "y", i),
            Edge("yx", "y", "x", i),
            Edge("yz", "y", "z", j),
            Edge("zy", "z", "y", j),
        ],
    )
    return g, ("xy", "zy")


def edge_map(g: DirectedMultigraph) -> dict[str, tuple[str, str, int]]:
    return {e.id: (e.tail, e.head, e.weight) for e in g.edges}


# -- resolution gadgets -----------------------------------------------------


def test_resolve_G1_structure_for_i_less_than_j():
    g, pattern = host(2, 3)
    g1 = resolve_G1(g, *pattern)
    assert set(g1.vertices) == {"x", "y", "z", "w1", "w2"}
    assert edge_map(g1) == {
        "yx": ("y", "x", 2),
        "yz": ("y", "z", 3),
        "r1": ("x", "w2", 2),
        "r2": ("w2", "y", 3),
        "r3": ("z", "w1", 3),
        "r4": ("w1", "y", 2),
        "r5": ("w1", "w2", 1),
    }


def test_resolve_G1_structure_for_j_less_than_i():
    g, pattern = host(3, 2)
    g1 = resolve_G1(g, *pattern)
    assert edge_map(g1) == {
        "yx": ("y", "x", 3),
        "yz": ("y", "z", 2),
        "r1": ("z", "w2", 2),
        "r2": ("w2", "y", 3),
        "r3": ("x", "w1", 3),
        "r4": ("w1", "y", 2),
        "r5": ("w1", "w2", 1),
    }


def test_resolve_G1_equal_weights_omits_the_bridge_edge():
    g, pattern = host(2, 2)
    g1 = resolve_G1(g, *pattern)
    assert not g1.has_edge("r5")
    assert len(g1.edges) == 6


def test_resolve_G2_structure():
    g, pattern = host(2, 3)
    g2 = resolve_G2(g, *pattern)
    assert edge_map(g2) == {
        "yx": ("y", "x", 2),
        "yz": ("y", "z", 3),
        "r1": ("x", "w1", 2),
        "r2": ("z", "w1", 3),
        "r3": ("w1", "w2", 5),
        "r4": ("w2", "y", 3),
        "r5": ("w2", "y", 2),
    }


def test_resolutions_preserve_balance():
    rng = random.Random(51)
    for _ in range(40):
        g = random_balanced_graph(rng, min_vertices=2, max_vertices=5, max_weight=4)
        if len(g.edges) < 2:
            continue
        pattern = rng.sample([e.id for e in g.edges], 2)
        assert is_balanced(resolve_G1(g, *pattern))
        assert is_balanced(resolve_G2(g, *pattern))
        assert is_connected(resolve_G2(g, *pattern))


def test_resolution_names_avoid_collisions(make_graph):
    g = make_graph(
        ["w1", "y", "z"],
        [
            ("r1", "w1", "y", 1),
            ("e2", "y", "z", 1),
            ("e3", "z", "w1", 1),
        ],
    )
    g2 = resolve_G2(g, "r1", "e2")
    assert g2.has_vertex("w1'") and g2.has_vertex("w2")
    assert g2.has_edge("r1'")


def test_pattern_validation(make_graph):
    g, _ = host(1, 2)
    with pytest.raises(ValueError, match="two distinct edges"):
        resolve_G1(g, "xy", "xy")
    with pytest.raises(ValueError, match="unknown edge"):
        resolve_G1(g, "xy", "zz")
    zero = make_graph(["a", "b"], [("e", "a", "b", 0), ("f", "b", "a", 0)])
    with pytest.raises(ValueError, match="positive weights"):
        resolve_G1(zero, "e", "f")


# -- the identity ------------------------------------------------------------


def test_identity_on_the_weight_grid():
    for i in range(1, 5):
        for j in range(1, 5):
            g, pattern = host(i, j)
            check = verify_skein_t1(g, *pattern)
            assert check.holds, (i, j, check)
            assert check.residual == Fraction(0)


def test_equal_weights_can_disconnect_the_smoothing(make_graph):
    g = make_graph(["a", "b"], [("ab", "a", "b", 1), ("ba", "b", "a", 1)])
    pattern = ("ab", "ba")
    g1 = resolve_G1(g, *pattern)
    assert not is_connected(g1)
    assert is_balanced(g1)
    check = verify_skein_t1(g, *pattern)
    assert check == (True, 1, 0, 2, Fraction(0))


def test_identity_on_random_instances():
    rng = random.Random(52)
    done = 0
    while done < 40:
        g = random_balanced_graph(rng, min_vertices=2, max_vertices=5, max_weight=4)
        if len(g.edges) < 2:
            continue
        pattern = rng.sample([e.id for e in g.edges], 2)
        assert verify_skein_t1(g, *pattern).holds
        done += 1


def test_identity_rejects_bad_hosts(make_graph):
    unbalanced = make_graph(
        ["a", "b"], [("e", "a", "b", 2), ("f", "b", "a", 1)]
    )
    with pytest.raises(ValueError, match="not balanced"):
        verify_skein_t1(unbalanced, "e", "f")
    disconnected = make_graph(
        ["a", "b", "c", "d"],
        [("e1", "a", "b", 1), ("e2", "b", "a", 1), ("f1", "c", "d", 1), ("f2", "d", "c", 1)],
    )
    with pytest.raises(ValueError, match="not connected"):
        verify_skein_t1(disconnected, "e1", "f1")
    zero = make_graph(
        ["a", "b"],
        [("e", "a", "b", 0), ("f", "b", "a", 0), ("g", "a", "b", 1), ("h", "b", "a", 1)],
    )
    with pytest.raises(ValueError, match="must be positive"):
        verify_skein_t1(zero, "g", "h")


def test_resolved_counts_are_root_independent():
    # G1 can disconnect, yet balance still forces equal counts at every root
    g, pattern = host(2, 2)
    g1 = resolve_G1(g, *pattern)
    counts = {count_by_determinant(g1, r) for r in g1.vertices}
    assert len(counts) == 1


# -- one shared elimination ---------------------------------------------------


def dense_balanced(rng: random.Random, n: int) -> DirectedMultigraph:
    """A cycle through all n vertices plus n closed walks of 2-6 vertices,
    each at one weight in 1..5."""
    vertices = [f"v{i}" for i in range(n)]
    edges = []

    def walk(vs, weight):
        for tail, head in zip(vs, vs[1:] + vs[:1]):
            edges.append(Edge(f"e{len(edges)}", tail, head, weight))

    base = vertices[:]
    rng.shuffle(base)
    walk(base, rng.randint(1, 5))
    for k in range(n):
        vs = [rng.choice(vertices)]
        while len(vs) < 2 + k % 5:
            step = rng.choice(vertices)
            if step != vs[-1]:
                vs.append(step)
        if vs[-1] == vs[0]:
            vs.pop()
        if len(vs) >= 2:
            walk(vs, rng.randint(1, 5))
    return DirectedMultigraph(vertices, edges)


def test_skein_eliminates_the_shared_block_once(monkeypatch):
    g = dense_balanced(random.Random(47), 60)
    ei, ej = g.edges[3].id, g.edges[100].id
    resolved = [g, resolve_G1(g, ei, ej), resolve_G2(g, ei, ej)]
    alone = [root_free_count(h) for h in resolved]
    pivots = []
    real = spanning._Elimination.run

    def counted(self, kept):
        before = len(self.piv)
        real(self, kept)
        pivots.append(len(self.piv) - before)

    monkeypatch.setattr(spanning._Elimination, "run", counted)
    check = verify_skein_t1(g, ei, ej)
    assert check.holds and list(check[1:4]) == alone
    # one run over the shared block, then two runs (leading block, last
    # row) of each of three finishes on at most 7 rows; three separate
    # counts take about 3n
    assert len(pivots) == 7
    assert max(pivots[1:]) <= 7
    assert sum(pivots) <= len(g.vertices) + 21
