"""Randomized property suite shared by the CLI selftest and the tests.

Each check runs a fixed number of seeded trials and returns how many
held.  All arithmetic is exact, so "held" means exact equality.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import product
from operator import mul
from typing import Callable, NamedTuple

from .generate import (
    random_balanced_graph,
    random_connected_digraph,
    random_plane_map,
)
from .graph import (
    DirectedMultigraph,
    Edge,
    is_balanced,
    is_connected,
    is_strongly_connected,
    subdivide_edge,
)
from .kauffman import (
    check_bijection,
    enumerate_states,
    local_weight,
    state_sum,
    state_to_tree,
    state_weight,
    tree_to_state,
)
from .laurent import ONE, is_symmetric
from .planar import decorate
from .skein import verify_skein_t1
from .spanning import (
    balanced_count,
    count_by_determinant,
    count_by_enumeration,
    enumerate_trees,
    root_free_count,
)


class CheckResult(NamedTuple):
    name: str
    passed: int
    total: int
    notes: tuple[str, ...] = ()

    def ok(self) -> bool:
        return self.passed == self.total


def check_matrix_tree(seed: int, trials: int = 200) -> CheckResult:
    """Determinant equals enumeration at every root, balanced or not."""
    rng = random.Random(seed)
    passed = 0
    for k in range(trials):
        if k % 2 == 0:
            g = random_balanced_graph(rng, max_vertices=6, max_weight=5)
        else:
            g = random_connected_digraph(
                rng, max_vertices=6, max_weight=5, allow_loops=(k % 6 == 1)
            )
        if all(
            count_by_determinant(g, r) == count_by_enumeration(g, r)
            for r in g.vertices
        ):
            passed += 1
    return CheckResult("matrix-tree", passed, trials)


def check_root_independence(seed: int, trials: int = 100) -> CheckResult:
    """Balanced graphs count the same from every root, and that count is
    the certified root-free one; a deliberately unbalanced instance must
    depend on the root.  This all-roots sweep is the oracle for
    root_free_count, which reads N and n * N off one elimination."""
    rng = random.Random(seed)
    passed = 0
    for _ in range(trials):
        g = random_balanced_graph(rng, max_vertices=6, max_weight=5)
        counts = {count_by_determinant(g, r) for r in g.vertices}
        if counts == {root_free_count(g)}:
            passed += 1
    lopsided = DirectedMultigraph(
        ["a", "b", "c"],
        [Edge("ab", "a", "b", 1), Edge("bc", "b", "c", 1), Edge("ac", "a", "c", 1)],
    )
    dependent = {count_by_determinant(lopsided, r) for r in lopsided.vertices}
    if len(dependent) > 1:
        passed += 1
    return CheckResult("root-independence", passed, trials + 1)


def check_main_theorem(seed: int, trials: int = 50) -> CheckResult:
    """On plane diagrams: state sum at t = 1 equals the tree count, the
    state sum is symmetric (Δ(1/t) = ±t^(d/2)·Δ(t)), the tree/state
    bijection round-trips both ways, each tree's weight equals its
    state's weight at t = 1, and each state weight equals the general
    product of its local weights."""
    rng = random.Random(seed)
    passed = 0
    for _ in range(trials):
        m = random_plane_map(rng, max_vertices=8, max_weight=5)
        basepoint = rng.choice(m.graph.edges).id
        diagram = decorate(m, basepoint)
        trees = enumerate_trees(m.graph, diagram.root)
        states = enumerate_states(diagram)
        poly = state_sum(diagram)
        good = poly.eval_one() == balanced_count(m.graph) and is_symmetric(poly)
        good = good and len(trees) == len(states)
        good = good and all(ok for _, _, ok in check_bijection(diagram, trees, states))
        for state in states:
            good = good and tree_to_state(diagram, state_to_tree(diagram, state)) == state
            factors = (local_weight(diagram, eid, state[eid]) for eid in sorted(state))
            good = good and state_weight(diagram, state) == reduce(mul, factors, ONE)
        if good:
            passed += 1
    return CheckResult("main-theorem", passed, trials)


def _host_with_weights(i: int, j: int) -> tuple[DirectedMultigraph, tuple[str, str]]:
    # Two 2-cycles sharing vertex y; the pattern picks one edge of each.
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


def check_skein(seed: int, trials: int = 100) -> CheckResult:
    """The t = 1 relation holds with residual exactly 0, covering i < j,
    i = j and i > j."""
    rng = random.Random(seed)
    cases = []
    for i, j in product(range(1, 5), repeat=2):
        cases.append(_host_with_weights(i, j))
    while len(cases) < trials:
        g = random_balanced_graph(rng, min_vertices=2, max_vertices=5, max_weight=4)
        if len(g.edges) < 2:
            continue
        cases.append((g, tuple(rng.sample([e.id for e in g.edges], 2))))
    passed = 0
    seen = {"lt": 0, "eq": 0, "gt": 0}
    for g, (edge_i, edge_j) in cases[:trials]:
        i = g.edge(edge_i).weight
        j = g.edge(edge_j).weight
        seen["lt" if i < j else "eq" if i == j else "gt"] += 1
        if verify_skein_t1(g, edge_i, edge_j).holds:
            passed += 1
    notes = (f"orderings i<j:{seen['lt']} i=j:{seen['eq']} i>j:{seen['gt']}",)
    if 0 in seen.values():
        return CheckResult("skein", 0, trials, notes + ("missing an ordering",))
    return CheckResult("skein", passed, trials, notes)


def check_subdivision(seed: int, trials: int = 50) -> CheckResult:
    """Subdividing an edge scales the balanced count by that edge's weight."""
    rng = random.Random(seed)
    passed = 0
    for _ in range(trials):
        g = random_balanced_graph(rng, max_vertices=6, max_weight=5)
        if not g.edges:
            continue
        e = rng.choice(g.edges)
        if balanced_count(subdivide_edge(g, e.id)) == e.weight * balanced_count(g):
            passed += 1
    return CheckResult("subdivision", passed, trials)


def check_structure(seed: int, trials: int = 50) -> CheckResult:
    """Structural invariants of generated instances: region count exceeds
    crossing count by 2, V - E + F = 2, balanced positive connected
    graphs are strongly connected and admit at least one tree per root."""
    rng = random.Random(seed)
    passed = 0
    for k in range(trials):
        good = True
        m = random_plane_map(rng, max_vertices=8, max_weight=5)
        basepoint = rng.choice(m.graph.edges).id
        diagram = decorate(m, basepoint)
        g = m.graph
        good = good and len(diagram.regions) == len(diagram.crossings) + 2
        good = good and len(g.vertices) - len(g.edges) + m.face_count() == 2
        good = good and is_balanced(g) and is_connected(g)
        good = good and is_strongly_connected(g)
        good = good and balanced_count(g) >= 1
        abstract = random_balanced_graph(rng, max_vertices=7, max_weight=5)
        good = good and is_strongly_connected(abstract)
        good = good and balanced_count(abstract) >= 1
        if good:
            passed += 1
    return CheckResult("structure", passed, trials)


ALL_CHECKS: tuple[tuple[str, Callable[..., CheckResult]], ...] = (
    ("matrix-tree", check_matrix_tree),
    ("root-independence", check_root_independence),
    ("main-theorem", check_main_theorem),
    ("skein", check_skein),
    ("subdivision", check_subdivision),
    ("structure", check_structure),
)


def run_all(seed: int = 0) -> list[CheckResult]:
    results = []
    for offset, (_, check) in enumerate(ALL_CHECKS):
        results.append(check(seed + offset))
    return results
