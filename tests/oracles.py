"""Independent brute-force oracles the tests compare against.

Nothing here shares algorithms with the package: trees are found by
filtering every subset of n - 1 edges against the definition, Kauffman
states by filtering every corner assignment, the state of a tree by a
breadth-first walk over string keys, faces by walking the rotation dict
with tuple darts, determinants expand over permutations or
eliminate over rationals, and polynomial products convolve raw
coefficient pairs.
Slow on purpose; keep instances small.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product


def spanning_tree_sets(g, root) -> set[frozenset[str]]:
    """Edge-id sets of all oriented spanning trees rooted at root.

    A subset qualifies when every non-root vertex has in-degree exactly
    1, the root has in-degree 0, and the root reaches every vertex along
    the subset's edges (which rules out oriented cycles)."""
    n = len(g.vertices)
    usable = [e for e in g.edges if e.tail != e.head]
    found = set()
    for subset in combinations(usable, n - 1):
        indeg = {v: 0 for v in g.vertices}
        for e in subset:
            indeg[e.head] += 1
        if indeg[root] != 0:
            continue
        if any(indeg[v] != 1 for v in g.vertices if v != root):
            continue
        reached = {root}
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for e in subset:
                if e.tail == v and e.head not in reached:
                    reached.add(e.head)
                    frontier.append(e.head)
        if len(reached) == n:
            found.add(frozenset(e.id for e in subset))
    return found


def weighted_tree_count(g, root) -> int:
    total = 0
    for tree in spanning_tree_sets(g, root):
        w = 1
        for eid in tree:
            w *= g.edge(eid).weight
        total += w
    return total


def kauffman_states(diagram) -> list[dict[str, str]]:
    """Every Kauffman state of a decorated diagram, in canonical order.

    The product of each crossing's admissible corners, taken in
    ``crossings`` order, lists every assignment in canonical order; an
    assignment is a state when it sends the crossings one-to-one into
    the unmarked regions (there are as many of those as crossings)."""
    crossings = diagram.crossings
    marked = set(diagram.marked)
    found = []
    for corners in product(*map(diagram.admissible_corners, crossings)):
        regions = {diagram.corner_region[e, c] for e, c in zip(crossings, corners)}
        if len(regions) == len(crossings) and not regions & marked:
            found.append(dict(zip(crossings, corners)))
    return found


def tree_state(diagram, tree_edges) -> dict[str, str]:
    """The corner assignment a spanning tree induces, grown over string
    keys.  The basepoint and the tree's edges go north.  Then, breadth
    first from the two marked regions, every other crossing on the
    boundary of a reached region takes the corner on its far side: west
    when reached from its east region, east from its west region, taken
    in sorted (edge id, corner) order within a region.  Reads only
    ``crossings``, ``corner_region``, ``marked`` and ``basepoint``."""
    state = dict.fromkeys([diagram.basepoint, *tree_edges], "N")
    incident = {}
    for edge in diagram.crossings:
        if edge not in state:
            incident.setdefault(diagram.corner_region[edge, "E"], []).append((edge, "W"))
            incident.setdefault(diagram.corner_region[edge, "W"], []).append((edge, "E"))
    queue = deque(diagram.marked)
    while queue:
        for edge, corner in sorted(incident.get(queue.popleft(), ())):
            if edge not in state:
                state[edge] = corner
                queue.append(diagram.corner_region[edge, corner])
    return state


def is_state(diagram, assignment) -> bool:
    """Whether {edge id: corner} sends every crossing into its own
    unmarked region."""
    regions = {diagram.corner_region[e, c] for e, c in assignment.items()}
    return (
        len(assignment) == len(diagram.crossings) == len(regions)
        and not regions & set(diagram.marked)
    )


def corner_indices(diagram, assignment) -> tuple[int, ...]:
    """A complete {edge id: corner} assignment in the package's state
    form: each crossing's corner as its position in "NWE", taken in
    ``crossings`` order."""
    return tuple("NWE".index(assignment[e]) for e in diagram.crossings)


def tree_verdict(diagram, tree_edges, states) -> tuple[int, bool]:
    """(weight, ok) for one tree: the product of the weights of the north
    edges of ``tree_state`` other than the basepoint, and whether that
    assignment is a state listed in states (the package's form)."""
    state = tree_state(diagram, tree_edges)
    weight = 1
    for edge, corner in state.items():
        if corner == "N" and edge != diagram.basepoint:
            weight *= diagram.map.graph.edge(edge).weight
    return weight, is_state(diagram, state) and corner_indices(diagram, state) in states


def face_layout(rotation, basepoint):
    """(faces, corner_region, marked) of a plane map, from its rotation
    dict alone: {vertex: counterclockwise sequence of (edge id, end)}.

    A dart's next dart along its face is the counterclockwise successor
    of its twin at the twin's vertex; darts are plain (edge id, end)
    tuples in dicts.  Each face starts at its smallest dart and faces are
    sorted by it.  Regions are the faces, then one circle per vertex in
    sorted order; edge e's north corner is the circle of the vertex
    holding (e, "h"), east the face of (e, "t"), west the face of (e, "h").
    """
    succ, head = {}, {}
    for v, darts in rotation.items():
        for i, (edge, end) in enumerate(darts):
            succ[edge, end] = tuple(darts[(i + 1) % len(darts)])
            if end == "h":
                head[edge] = v
    faces, face_of = [], {}
    for start in sorted(succ):
        orbit, (edge, end) = [], start
        while (edge, end) not in face_of:
            face_of[edge, end] = len(faces)
            orbit.append((edge, end))
            edge, end = succ[edge, "t" if end == "h" else "h"]
        if orbit:
            faces.append(tuple(orbit))
    circle = {v: len(faces) + i for i, v in enumerate(sorted(rotation))}
    corner_region = {}
    for edge, v in head.items():
        corner_region[edge, "N"] = circle[v]
        corner_region[edge, "E"] = face_of[edge, "t"]
        corner_region[edge, "W"] = face_of[edge, "h"]
    marked = tuple(sorted((face_of[basepoint, "t"], face_of[basepoint, "h"])))
    return tuple(faces), corner_region, marked


def det_by_permutations(rows) -> int:
    """Leibniz expansion; exact, usable up to about 6x6."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += -prod if inversions % 2 else prod
    return total


def det_by_fractions(rows) -> int:
    """Gaussian elimination over Fractions, swapping in the first row with
    a nonzero entry in the pivot column; exact, usable well past 25x25."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        swap = next((i for i in range(k, len(m)) if m[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            factor = m[i][k] / m[k][k]
            if factor:
                for j in range(k, len(m)):
                    m[i][j] -= factor * m[k][j]
    assert det.denominator == 1
    return int(det)


def minor_and_det_by_fractions(rows) -> tuple[int, int]:
    """The leading (n-1) principal minor and the determinant."""
    return det_by_fractions([row[:-1] for row in rows[:-1]]), det_by_fractions(rows)


def convolve_pairs(p_pairs, q_pairs) -> tuple[tuple[int, int], ...]:
    """Product of two (doubled exponent, coefficient) pair lists."""
    acc: dict[int, int] = {}
    for d1, c1 in p_pairs:
        for d2, c2 in q_pairs:
            acc[d1 + d2] = acc.get(d1 + d2, 0) + c1 * c2
    return tuple(sorted((d, c) for d, c in acc.items() if c != 0))
