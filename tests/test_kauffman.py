"""Kauffman states, the state sum, and the tree/state correspondence."""

from __future__ import annotations

import random
from functools import reduce
from operator import add, mul

import pytest

from moytree import kauffman
from moytree.generate import (
    double_edge_map,
    grow_map,
    random_plane_map,
    seed_cycle,
    seed_lens_triangle,
    seed_prism,
    subdivide_map,
)
from moytree.graph import DirectedMultigraph, Edge
from moytree.kauffman import (
    alexander,
    check_bijection,
    enumerate_states,
    local_weight,
    state_sum,
    state_sum_by_determinant,
    state_to_tree,
    state_weight,
    tree_to_state,
)
from moytree.laurent import (
    ONE,
    HalfLaurent,
    equal_up_to_shift,
    is_symmetric,
    monomial,
    quantum_integer,
)
from moytree.planar import CombinatorialMap, Dart, decorate
from moytree.spanning import (
    EnumerationLimitError,
    IdentityViolation,
    SpanningTree,
    balanced_count,
    enumerate_trees,
    tree_weight,
)
from oracles import corner_indices, is_state, kauffman_states, tree_state, tree_verdict

# crossings e12 e13 e21 e23 e31 at corners N E W N N (N = 0, W = 1, E = 2)
GOLDEN_STATE = (0, 2, 1, 0, 0)
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
    # crossings e12 e13 e21 e23 e31: NNNWE, NENNW, NEENN
    assert enumerate_states(diagram) == [(0, 0, 0, 1, 2), (0, 2, 0, 0, 1), (0, 2, 2, 0, 0)]


def test_enumeration_matches_the_brute_force_oracle(lens_map):
    diagrams = [decorate(lens_map, e.id) for e in lens_map.graph.edges]
    rng = random.Random(17)
    for _ in range(120):
        # five vertices keep the oracle's 3^E assignments small
        m = random_plane_map(rng, max_vertices=5, max_weight=4)
        diagrams += [decorate(m, e.id) for e in m.graph.edges[:3]]
    for diagram in diagrams:
        expected = [corner_indices(diagram, s) for s in kauffman_states(diagram)]
        assert enumerate_states(diagram) == expected


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
            corners = zip(diagram.crossings, map("NWE".__getitem__, state))
            factors = [local_weight(diagram, e, c) for e, c in corners]
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


def _with(state, position, corner):
    return state[:position] + (corner,) + state[position + 1 :]


def test_state_to_tree_rejects_corrupt_states(lens_diagram):
    # positions 0-4 are the crossings e12 e13 e21 e23 e31; e23 is the basepoint
    for wrong_length in (GOLDEN_STATE[:-1], GOLDEN_STATE + (0,), ()):
        with pytest.raises(ValueError, match="^state must assign a corner to every crossing$"):
            state_to_tree(lens_diagram, wrong_length)

    for index in (3, -1, "N"):
        with pytest.raises(ValueError, match=f"^edge 'e13': corner index {index!r} out of range$"):
            state_to_tree(lens_diagram, _with(GOLDEN_STATE, 1, index))

    for corner, name in ((1, "W"), (2, "E")):
        with pytest.raises(ValueError, match=f"^edge 'e23': corner '{name}' not admissible$"):
            state_to_tree(lens_diagram, _with(GOLDEN_STATE, 3, corner))

    into_marked = _with(GOLDEN_STATE, 1, 1)  # e13 west
    with pytest.raises(ValueError, match="^edge 'e13': corner lies in a marked region$"):
        state_to_tree(lens_diagram, into_marked)

    collision = _with(GOLDEN_STATE, 1, 0)  # e13 north: circle(v3) is the basepoint's
    with pytest.raises(ValueError, match="^edges 'e13' and 'e23' claim the same region$"):
        state_to_tree(lens_diagram, collision)


def test_state_weight_refuses_what_state_to_tree_refuses(lens_diagram):
    # the first two were once weighed silently, as 5 and 20 at t = 1
    for state, message in (
        ((0, 2, 1, 0), "^state must assign a corner to every crossing$"),
        ((0, 2, -2, 0, 0), "^edge 'e21': corner index -2 out of range$"),
        (_with(GOLDEN_STATE, 3, 1), "^edge 'e23': corner 'W' not admissible$"),
        (_with(GOLDEN_STATE, 1, 1), "^edge 'e13': corner lies in a marked region$"),
        (_with(GOLDEN_STATE, 1, 0), "^edges 'e13' and 'e23' claim the same region$"),
    ):
        for refuse in (state_to_tree, state_weight):
            with pytest.raises(ValueError, match=message):
                refuse(lens_diagram, state)


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
    state = (2, 2, 1, 0, 0)  # e12 E, e13 E, e21 W, e23 N, e31 N
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
    # a dropped state drops exactly its tree from the listing, and the
    # unit-weight count reads one tree more than the states
    rng = random.Random(43)
    for _ in range(20):
        m = random_plane_map(rng, max_vertices=7, max_weight=4)
        diagram = decorate(m, rng.choice(m.graph.edges).id)
        trees = enumerate_trees(m.graph, diagram.root)
        states = enumerate_states(diagram)
        listed, count = check_bijection(diagram, states)
        assert listed == [(t, tree_weight(m.graph, t)) for t in trees]
        assert count == len(trees) == len(states)
        assert check_bijection(diagram, states[::-1]) == (listed, count)
        k = rng.randrange(len(states))
        missing = states[:k] + states[k + 1 :]
        listed, count = check_bijection(diagram, missing)
        assert [t for t, _ in listed] == [
            t for t in trees if tree_to_state(diagram, t) != states[k]
        ]
        assert (len(listed), count) == (len(missing), len(missing) + 1)
        with pytest.raises(
            IdentityViolation,
            match=f"^states {k + 1} and {len(states) + 1} induce one spanning tree$",
        ):
            check_bijection(diagram, states + [states[k]])


def test_the_bijection_matches_the_string_keyed_oracle(doubled_prism, subdivided_prism):
    rng = random.Random(29)
    diagrams = []
    for _ in range(200):
        m = random_plane_map(rng, max_vertices=8, max_weight=5)
        diagrams.append(decorate(m, rng.choice(m.graph.edges).id))
    for m, _ in (doubled_prism, subdivided_prism):
        diagrams += [decorate(m, e.id) for e in m.graph.edges[::3]]
    broken = 0
    for diagram in diagrams:
        trees = enumerate_trees(diagram.map.graph, diagram.root)
        states = enumerate_states(diagram)
        for tree in trees:
            assert tree_to_state(diagram, tree) == corner_indices(
                diagram, tree_state(diagram, tree.edges)
            )
        listed, count = check_bijection(diagram, states)
        expected = [tree_verdict(diagram, t.edges, states) for t in trees]
        assert listed == [(t, w) for t, (w, _) in zip(trees, expected)]
        assert all(ok for _, ok in expected)
        assert count == len(states)
        k = rng.randrange(len(states))
        dropped = states[:k] + states[k + 1 :]
        listed, count = check_bijection(diagram, dropped)
        kept = [t for t in trees if tree_verdict(diagram, t.edges, dropped)[1]]
        assert [t for t, _ in listed] == kept
        assert (len(kept), count) == (len(dropped), len(dropped) + 1)
        # one corner moved to another region: the oracle's walk and the
        # state check decide what is still a state
        edge = rng.choice([e for e in diagram.crossings if e != diagram.basepoint])
        corner = rng.choice("NWE")
        diagram.corner_region[edge, corner] = rng.choice(diagram.regions)
        for tree in trees:
            expected = tree_state(diagram, tree.edges)
            if is_state(diagram, expected):
                assert tree_to_state(diagram, tree) == corner_indices(diagram, expected)
            else:
                with pytest.raises(IdentityViolation, match="does not induce a state"):
                    tree_to_state(diagram, tree)
                broken += 1
    assert broken > 1000


def test_two_cycle_diagram_by_hand():
    diagram = decorate(two_cycle_map(3, 3), "e")
    states = enumerate_states(diagram)
    # root is b; the only tree is {f}, so the only state sends f north
    assert states == [(0, 0)]
    assert state_sum(diagram) == monomial(1, 3) * quantum_integer(3)
    assert state_sum(diagram).eval_one() == 3 == balanced_count(diagram.map.graph)


# -- the determinant backend ------------------------------------------------------------


def _guard_count(diagram):
    """The state count that ``enumerate_states``'s guard reads: |det| of
    the peel's core with W -> -1, or 0 when the peel finds no state."""
    peeled = next(kauffman._peel(diagram))
    return 0 if peeled is None else kauffman._state_count(peeled[1])


def test_determinant_equals_enumeration_on_random_diagrams():
    rng = random.Random(300)
    pairs = 0
    for _ in range(300):
        m = random_plane_map(rng, max_vertices=8, max_weight=5)
        for e in m.graph.edges[:3]:
            diagram = decorate(m, e.id)
            assert state_sum_by_determinant(diagram) == state_sum(diagram)
            assert _guard_count(diagram) == len(enumerate_states(diagram))
            pairs += 1
    assert pairs > 800


def test_three_backends_agree_on_random_diagrams():
    # state_sum's one table, a HalfLaurent sum of state weights, and the
    # determinant; in some diagrams the states' monomial shifts (before
    # the quantum integers) differ in parity
    rng = random.Random(15)
    mixed = 0
    for _ in range(200):
        m = random_plane_map(rng, 8, 9)
        diagram = decorate(m, rng.choice(m.graph.edges).id)
        states = enumerate_states(diagram)
        expected = reduce(add, (state_weight(diagram, s) for s in states), HalfLaurent())
        assert state_sum(diagram) == expected
        assert state_sum_by_determinant(diagram) == expected
        shifts = {kauffman._state_factors(diagram, s)[1] % 2 for s in states}
        mixed += len(shifts) == 2
    assert mixed >= 50


def test_doubling_or_subdividing_the_basepoint_edge():
    # Basepoint e of weight w.  Subdivided into two edges, either one as the
    # basepoint: Δ times [w], no shift.  Split into nested parallels e.a of
    # weight a and e.b of weight w - a: Δ unchanged from e.b, and
    # t^(-(w - a)) Δ from e.a.
    rng = random.Random(61)
    doubled = 0
    for _ in range(60):
        m = random_plane_map(rng, max_vertices=7, max_weight=5)
        e = rng.choice(m.graph.edges)
        delta = state_sum(decorate(m, e.id))
        halves = subdivide_map(m, e.id)
        cases = [(halves, f"{e.id}.{k}", quantum_integer(e.weight)) for k in (1, 2)]
        if e.weight >= 2:
            a = rng.randint(1, e.weight - 1)
            split = double_edge_map(m, e.id, a)
            cases += [
                (split, f"{e.id}.a", monomial(1, -2 * (e.weight - a))),
                (split, f"{e.id}.b", ONE),
            ]
            doubled += 1
        for changed, basepoint, factor in cases:
            diagram = decorate(changed, basepoint)
            assert state_sum(diagram) == state_sum_by_determinant(diagram) == factor * delta
    assert doubled > 20


def test_state_sum_on_a_heavy_prism_matches_the_determinant():
    diagram = decorate(seed_prism(40, 50, 60), "oa")
    assert state_sum(diagram) == state_sum_by_determinant(diagram)


def test_state_sum_builds_one_polynomial(monkeypatch):
    diagram = decorate(seed_prism(4, 5, 6), "oa")
    expected = state_sum_by_determinant(diagram)

    def refuse(self, other):
        raise AssertionError("state_sum added two polynomials")

    monkeypatch.setattr(HalfLaurent, "__add__", refuse)
    assert len(enumerate_states(diagram)) == 12
    assert state_sum(diagram) == expected


def test_the_lens_golden_by_determinant(lens_diagram):
    assert str(state_sum_by_determinant(lens_diagram)) == GOLDEN_STR


def test_a_too_narrow_digit_width_fails_the_certificate(monkeypatch):
    # coefficients up to about 2^6: digits 4 bits wide overlap and carry
    diagram = decorate(seed_prism(1, 2, 3), "oa")
    assert state_sum_by_determinant(diagram) == state_sum(diagram)
    monkeypatch.setattr(kauffman, "_digit_width", lambda value: 4)
    with pytest.raises(IdentityViolation, match="base-2\\^4 digits"):
        state_sum_by_determinant(diagram)


def test_determinant_backend_on_a_grown_map():
    # 120 edges and 1.2 million states: far past enumeration
    m = grow_map(random.Random(1), seed_prism(9, 9, 9), 120)
    diagram = decorate(m, m.graph.edges[0].id)
    assert _guard_count(diagram) == 1202688
    with pytest.raises(EnumerationLimitError, match="^1202688 states exceeds"):
        enumerate_states(diagram)
    p = state_sum_by_determinant(diagram)
    assert p.eval_one() == balanced_count(m.graph)
    assert is_symmetric(p)


def test_a_diagram_without_states_sums_to_zero():
    # two parallel edges a -> b: nothing reaches a from the root b
    g = DirectedMultigraph(["a", "b"], [Edge("e", "a", "b", 1), Edge("f", "a", "b", 2)])
    m = CombinatorialMap(
        g, {"a": (Dart("e", "t"), Dart("f", "t")), "b": (Dart("f", "h"), Dart("e", "h"))}
    )
    diagram = decorate(m, "e")
    assert enumerate_states(diagram) == []
    assert _guard_count(diagram) == 0
    assert not state_sum_by_determinant(diagram)
    assert not alexander(diagram)


def test_the_size_guards_live_in_the_searches_they_bound(monkeypatch, lens_map):
    # the lens from e12 has 3 states, and its weights sum to 15
    diagram = decorate(lens_map, "e12")
    monkeypatch.setattr(kauffman, "MAX_STATES", 2)
    with pytest.raises(EnumerationLimitError, match="^3 states exceeds the enumeration limit of 2;"):
        enumerate_states(diagram)
    assert len(enumerate_states(diagram, force=True)) == 3
    assert state_sum(diagram) == state_sum_by_determinant(diagram)
    monkeypatch.setattr(kauffman, "MAX_SPAN", 29)
    with pytest.raises(EnumerationLimitError, match=r"2\*sum\(w\) = 30 exceeds the limit of 29;"):
        alexander(diagram)
    assert alexander(diagram, force=True) == state_sum(diagram)


@pytest.mark.parametrize(
    "m, basepoint, enumerates",
    [
        (seed_cycle(3, 500), "e0", False),  # empty core
        (seed_prism(1, 2, 3), "oa", False),  # 12 states against weight 3
        (seed_lens_triangle(150, 150, 150), "e21", True),  # 2 against 300
        (seed_prism(100, 100, 100), "oa", True),  # 12 against 100
    ],
)
def test_alexander_chooses_its_backend_from_the_input(monkeypatch, m, basepoint, enumerates):
    diagram = decorate(m, basepoint)
    expected = state_sum(diagram)
    calls = []

    def spy(d):
        calls.append(d)
        return expected

    monkeypatch.setattr(kauffman, "state_sum", spy)
    assert alexander(diagram) == expected
    assert bool(calls) == enumerates
