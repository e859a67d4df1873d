"""Kauffman states, the state sum, and the tree/state correspondence."""

from __future__ import annotations

import random
from functools import reduce
from operator import mul

import pytest

from moytree.generate import random_plane_map, seed_cycle, seed_lens_triangle
from moytree.graph import DirectedMultigraph, Edge
from moytree.kauffman import (
    check_bijection,
    enumerate_states,
    local_weight,
    state_sum,
    state_to_tree,
    state_weight,
    tree_to_state,
)
from moytree.laurent import ONE, equal_up_to_shift, monomial, quantum_integer
from moytree.planar import CombinatorialMap, Dart, decorate
from moytree.spanning import (
    IdentityViolation,
    SpanningTree,
    balanced_count,
    enumerate_trees,
    tree_weight,
)
from oracles import kauffman_states

GOLDEN_STATE = {"e12": "N", "e13": "E", "e21": "W", "e23": "N", "e31": "N"}
GOLDEN_PAIRS = ((-5, 1), (-3, 2), (-1, 3), (1, 4), (3, 4), (5, 3), (7, 2), (9, 1))
GOLDEN_STR = (
    "t^{9/2} + 2*t^{7/2} + 3*t^{5/2} + 4*t^{3/2} + 4*t^{1/2} "
    "+ 3*t^{-1/2} + 2*t^{-3/2} + t^{-5/2}"
)


def two_cycle_map(w_forward: int, w_back: int) -> CombinatorialMap:
    g = DirectedMultigraph(
        ["a", "b"], [Edge("e", "a", "b", w_forward), Edge("f", "b", "a", w_back)]
    )
    return CombinatorialMap(
        g,
        {
            "a": (Dart("e", "t"), Dart("f", "h")),
            "b": (Dart("f", "t"), Dart("e", "h")),
        },
    )


# -- the worked example -------------------------------------------------------


def test_lens_has_exactly_one_state(lens_diagram):
    states = enumerate_states(lens_diagram)
    assert states == [GOLDEN_STATE]


def test_lens_state_sum_golden(lens_diagram):
    p = state_sum(lens_diagram)
    assert p.to_pairs() == GOLDEN_PAIRS
    assert str(p) == GOLDEN_STR
    assert p.eval_one() == 20
    assert p == monomial(1, 2) * quantum_integer(4) * quantum_integer(5)


def test_lens_state_weight_equals_state_sum(lens_diagram):
    assert state_weight(lens_diagram, GOLDEN_STATE) == state_sum(lens_diagram)


def test_lens_product_formula_for_general_weights():
    # with weights built from (a, b, c) and the basepoint on the weight-c
    # edge, the state sum is t^((a-b+c)/2) * [a+c] * [b+c]
    for a, b, c in ((1, 1, 1), (2, 1, 3), (3, 2, 1), (1, 2, 3), (2, 2, 2)):
        diagram = decorate(seed_lens_triangle(a, b, c), "e23")
        expected = (
            monomial(1, a - b + c) * quantum_integer(a + c) * quantum_integer(b + c)
        )
        assert state_sum(diagram) == expected


def test_lens_tree_maps_to_golden_state(lens_diagram, lens_graph):
    (tree,) = enumerate_trees(lens_graph, "v3")
    assert tree.edges == frozenset({"e12", "e31"})
    state = tree_to_state(lens_diagram, tree)
    assert state == GOLDEN_STATE
    assert state_to_tree(lens_diagram, state) == tree
    assert tree_weight(lens_graph, tree) == 20
    assert state_weight(lens_diagram, state).eval_one() == 20


def test_other_basepoints_of_the_lens(lens_map):
    by_basepoint = {"e12": 3, "e13": 1, "e21": 2, "e23": 1, "e31": 2}
    reference = state_sum(decorate(lens_map, "e23"))
    for basepoint, count in by_basepoint.items():
        diagram = decorate(lens_map, basepoint)
        states = enumerate_states(diagram)
        assert len(states) == count
        p = state_sum(diagram)
        assert p.eval_one() == 20
        assert equal_up_to_shift(p, reference)


def test_enumeration_order_is_canonical(lens_map):
    diagram = decorate(lens_map, "e12")
    assert enumerate_states(diagram) == [
        {"e12": "N", "e13": "N", "e21": "N", "e23": "W", "e31": "E"},
        {"e12": "N", "e13": "E", "e21": "N", "e23": "N", "e31": "W"},
        {"e12": "N", "e13": "E", "e21": "E", "e23": "N", "e31": "N"},
    ]


def test_enumeration_matches_the_brute_force_oracle(lens_map):
    diagrams = [decorate(lens_map, e.id) for e in lens_map.graph.edges]
    rng = random.Random(17)
    for _ in range(120):
        # five vertices keep the oracle's 3^E assignments small
        m = random_plane_map(rng, max_vertices=5, max_weight=4)
        diagrams += [decorate(m, e.id) for e in m.graph.edges[:3]]
    for diagram in diagrams:
        assert enumerate_states(diagram) == kauffman_states(diagram)


# -- local weights ---------------------------------------------------------------


def test_local_weights(lens_diagram):
    assert local_weight(lens_diagram, "e23", "N") == monomial(1, 3)
    assert local_weight(lens_diagram, "e12", "N") == quantum_integer(5)
    assert local_weight(lens_diagram, "e21", "W") == monomial(1, -2)
    assert local_weight(lens_diagram, "e13", "E") == monomial(1, 1)


def test_local_weight_rejects_bad_corners(lens_diagram):
    with pytest.raises(ValueError, match="unknown corner"):
        local_weight(lens_diagram, "e12", "X")
    with pytest.raises(ValueError, match="only admits the north corner"):
        local_weight(lens_diagram, "e23", "W")


def test_state_weight_is_the_product_of_local_weights():
    rng = random.Random(43)
    checked = 0
    for _ in range(40):
        m = random_plane_map(rng, max_vertices=8, max_weight=5)
        diagram = decorate(m, rng.choice(m.graph.edges).id)
        for state in enumerate_states(diagram):
            factors = [local_weight(diagram, eid, state[eid]) for eid in sorted(state)]
            assert state_weight(diagram, state) == reduce(mul, factors, ONE)
            checked += 1
    assert checked > 100


def test_state_sum_is_linear_in_the_weight():
    # The 3-cycle has one state, all north: t^(w/2)·[w]·[w], whose
    # coefficients climb 1..w and fall back to 1 on exponents 2 - w, 4 - w,
    # ..., 3w - 2 (doubled).  A general product takes tens of seconds here.
    w = 20000
    p = state_sum(decorate(seed_cycle(3, w), "e0"))
    exponents, coeffs = zip(*p.to_pairs())
    assert exponents == tuple(range(2 - w, 3 * w - 1, 2))
    assert coeffs == (*range(1, w + 1), *range(w - 1, 0, -1))
    assert p.eval_one() == w * w


def test_local_weight_rejects_nonpositive_weights():
    diagram = decorate(two_cycle_map(0, 0), "e")
    with pytest.raises(ValueError, match="must be positive"):
        local_weight(diagram, "e", "N")


# -- state validation --------------------------------------------------------------


def test_state_to_tree_rejects_corrupt_states(lens_diagram):
    incomplete = dict(GOLDEN_STATE)
    del incomplete["e13"]
    with pytest.raises(ValueError, match="every crossing"):
        state_to_tree(lens_diagram, incomplete)

    extra = dict(GOLDEN_STATE, zz="N")
    with pytest.raises(ValueError, match="every crossing"):
        state_to_tree(lens_diagram, extra)

    basepoint_west = dict(GOLDEN_STATE, e23="W")
    with pytest.raises(ValueError, match="not admissible"):
        state_to_tree(lens_diagram, basepoint_west)

    into_marked = dict(GOLDEN_STATE, e13="W")
    with pytest.raises(ValueError, match="marked region"):
        state_to_tree(lens_diagram, into_marked)

    collision = dict(GOLDEN_STATE, e13="N")  # circle(v3) is the basepoint's
    with pytest.raises(ValueError, match="claim the same region"):
        state_to_tree(lens_diagram, collision)


def test_tree_to_state_rejects_wrong_roots(lens_diagram, lens_graph):
    wrong_root = enumerate_trees(lens_graph, "v1")[0]
    with pytest.raises(ValueError, match="differs from head of basepoint"):
        tree_to_state(lens_diagram, wrong_root)


def test_tree_to_state_rejects_basepoint_in_tree(lens_map):
    diagram = decorate(lens_map, "e31")  # root v1
    bad = SpanningTree("v1", frozenset({"e31", "e12"}))
    with pytest.raises(ValueError, match="cannot belong"):
        tree_to_state(diagram, bad)


def test_tree_to_state_rejects_invalid_trees(lens_diagram):
    bad = SpanningTree("v3", frozenset({"e12", "e13"}))  # e13 enters the root
    with pytest.raises(ValueError, match="enters the root"):
        tree_to_state(lens_diagram, bad)


@pytest.mark.parametrize("edge", ("e13", "e21"))
@pytest.mark.parametrize("side, other", (("W", "E"), ("E", "W")))
def test_tree_to_state_result_that_is_no_state_is_identity_violation(
    lens_diagram, lens_graph, edge, side, other
):
    # One corner of a non-tree crossing moved onto the face of its other
    # corner: the dual traversal can no longer yield a state.
    lens_diagram.corner_region[edge, side] = lens_diagram.corner_region[edge, other]
    (tree,) = enumerate_trees(lens_graph, "v3")
    with pytest.raises(IdentityViolation, match="tree does not induce a state"):
        tree_to_state(lens_diagram, tree)


def test_north_edges_that_are_no_tree_are_identity_violation(lens_diagram):
    # Moving the east corner of e12 onto the circle of v2 makes a state
    # with one north edge off the basepoint: a genuine state whose north
    # edges are one edge for three vertices.
    lens_diagram.corner_region["e12", "E"] = 5
    state = {"e12": "E", "e13": "E", "e21": "W", "e23": "N", "e31": "N"}
    with pytest.raises(
        IdentityViolation,
        match="state does not induce a spanning tree: invalid tree: 1 edges for 3",
    ):
        state_to_tree(lens_diagram, state)


# -- bijection on random diagrams ------------------------------------------------------


def test_bijection_round_trips_on_random_diagrams():
    rng = random.Random(41)
    for _ in range(30):
        m = random_plane_map(rng, max_vertices=7, max_weight=4)
        basepoint = rng.choice(m.graph.edges).id
        diagram = decorate(m, basepoint)
        trees = enumerate_trees(m.graph, diagram.root)
        states = enumerate_states(diagram)
        assert len(trees) == len(states)
        assert state_sum(diagram).eval_one() == balanced_count(m.graph)
        for tree in trees:
            state = tree_to_state(diagram, tree)
            assert state in states
            assert state_to_tree(diagram, state) == tree
            assert state_weight(diagram, state).eval_one() == tree_weight(
                m.graph, tree
            )
        for state in states:
            assert tree_to_state(diagram, state_to_tree(diagram, state)) == state


def test_check_bijection_flags_exactly_the_tree_whose_state_is_missing():
    rng = random.Random(43)
    for _ in range(20):
        m = random_plane_map(rng, max_vertices=7, max_weight=4)
        diagram = decorate(m, rng.choice(m.graph.edges).id)
        trees = enumerate_trees(m.graph, diagram.root)
        states = enumerate_states(diagram)
        verdicts = check_bijection(diagram, trees, states)
        assert [(t, w) for t, w, _ in verdicts] == [
            (t, tree_weight(m.graph, t)) for t in trees
        ]
        assert all(ok for _, _, ok in verdicts)
        k = rng.randrange(len(states))
        missing = states[:k] + states[k + 1 :]
        flags = [ok for _, _, ok in check_bijection(diagram, trees, missing)]
        assert flags == [tree_to_state(diagram, t) != states[k] for t in trees]
        assert flags.count(False) == 1


def test_two_cycle_diagram_by_hand():
    diagram = decorate(two_cycle_map(3, 3), "e")
    states = enumerate_states(diagram)
    # root is b; the only tree is {f}, so the only state sends f north
    assert states == [{"e": "N", "f": "N"}]
    assert state_sum(diagram) == monomial(1, 3) * quantum_integer(3)
    assert state_sum(diagram).eval_one() == 3 == balanced_count(diagram.map.graph)
