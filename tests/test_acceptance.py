"""Acceptance gate: one check per headline claim, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every criterion asserts exact equality; randomized criteria run fixed
seeds so the suite is reproducible.
"""

from __future__ import annotations

import random
from itertools import combinations

from moytree.generate import random_plane_map
from moytree.kauffman import (
    enumerate_states,
    state_sum,
    state_weight,
    tree_to_state,
)
from moytree.laurent import equal_up_to_shift, is_symmetric, monomial, quantum_integer
from moytree.planar import decorate
from moytree.selftest import (
    check_main_theorem,
    check_matrix_tree,
    check_root_independence,
    check_skein,
    check_structure,
    check_subdivision,
)
from moytree.spanning import (
    count_by_determinant,
    count_by_enumeration,
    enumerate_trees,
    laplacian,
    tree_weight,
)


def report(number: int, label: str, ok: bool, extra: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"criterion {number} ({label}): {verdict}{suffix}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_worked_example_counts(lens_graph, cofactor):
    g = lens_graph
    ok = [len(enumerate_trees(g, r)) for r in ("v1", "v2", "v3")] == [2, 3, 1]
    for r in g.vertices:
        ok = ok and count_by_enumeration(g, r) == 20
        ok = ok and count_by_determinant(g, r) == 20
    rows = laplacian(g)
    ok = ok and g.vertices == ("v1", "v2", "v3")
    ok = ok and rows == ((6, -5, -1), (-2, 5, -3), (-4, 0, 4))
    ok = ok and all(cofactor(rows, i, j) == 20 for i in range(3) for j in range(3))
    report(1, "worked example: tree counts and determinant", ok)


def test_criterion_2_worked_example_state_sum(lens_graph, lens_diagram):
    states = enumerate_states(lens_diagram)
    poly = state_sum(lens_diagram)
    ok = len(states) == 1
    ok = ok and poly == monomial(1, 2) * quantum_integer(4) * quantum_integer(5)
    ok = ok and poly.eval_one() == 20
    trees = enumerate_trees(lens_graph, lens_diagram.root)
    ok = ok and len(trees) == 1
    ok = ok and tree_to_state(lens_diagram, trees[0]) == states[0]
    ok = ok and tree_weight(lens_graph, trees[0]) == poly.eval_one()
    report(2, "worked example: unique state matches unique tree", ok)


def test_criterion_3_state_sum_counts_trees():
    result = check_main_theorem(seed=103, trials=50)
    report(
        3,
        "state sum at t=1 counts trees, bijection round-trips",
        result.ok(),
        f"{result.passed}/{result.total}",
    )


def test_criterion_4_determinant_matches_enumeration():
    result = check_matrix_tree(seed=104, trials=200)
    report(
        4,
        "determinant equals brute-force enumeration",
        result.ok(),
        f"{result.passed}/{result.total}",
    )


def test_criterion_5_root_independence():
    result = check_root_independence(seed=105, trials=100)
    report(
        5,
        "balanced counts are root independent",
        result.ok(),
        f"{result.passed}/{result.total}",
    )


def test_criterion_6_skein_identity():
    result = check_skein(seed=106, trials=100)
    report(
        6,
        "crossing resolution identity at t=1",
        result.ok(),
        f"{result.passed}/{result.total}, {result.notes[0]}",
    )


def test_criterion_7_subdivision_scaling():
    result = check_subdivision(seed=107, trials=50)
    report(
        7,
        "subdividing an edge scales the count by its weight",
        result.ok(),
        f"{result.passed}/{result.total}",
    )


def test_criterion_8_structural_invariants():
    result = check_structure(seed=108, trials=50)
    report(
        8,
        "region/crossing/Euler counts and strong connectivity",
        result.ok(),
        f"{result.passed}/{result.total}",
    )


def test_criterion_9_basepoint_independence_at_one(lens_map):
    polys = {
        e.id: state_sum(decorate(lens_map, e.id)) for e in lens_map.graph.edges
    }
    ok = all(p.eval_one() == 20 for p in polys.values())
    pairs = list(combinations(sorted(polys), 2))
    shifted = sum(equal_up_to_shift(polys[a], polys[b]) for a, b in pairs)
    ok = ok and shifted == len(pairs)
    report(
        9,
        "all basepoints give the same polynomial up to a shift",
        ok,
        f"shift-equivalent pairs: {shifted}/{len(pairs)}",
    )


def test_criterion_9_basepoint_independence_on_random_maps():
    rng = random.Random(109)
    maps = pairs = shifted = 0
    for _ in range(50):
        m = random_plane_map(rng, max_vertices=8, max_weight=5)
        first, *others = (state_sum(decorate(m, e.id)) for e in m.graph.edges)
        maps += 1
        pairs += len(others)
        shifted += sum(equal_up_to_shift(first, p) for p in others)
    report(
        9,
        "basepoint independence up to a shift on random maps",
        shifted == pairs,
        f"{maps} maps, shift-equivalent pairs: {shifted}/{pairs}",
    )


def test_criterion_10_state_sum_is_symmetric():
    rng = random.Random(7)
    symmetric = total = 0
    for _ in range(100):
        m = random_plane_map(rng, max_vertices=8, max_weight=5)
        for e in m.graph.edges[:3]:
            total += 1
            symmetric += is_symmetric(state_sum(decorate(m, e.id)))
    report(
        10,
        "the state sum is symmetric: Δ(1/t) = ±t^(d/2)·Δ(t)",
        symmetric == total,
        f"symmetric state sums: {symmetric}/{total}",
    )
