"""Kauffman states on decorated plane diagrams and the tree bijection.

A state assigns to each crossing one of its corners so that the induced
map from crossings to regions is a bijection onto the unmarked regions.
The basepoint crossing is forced north (its west and east corners sit in
the two marked regions).

So a state is a perfect matching of crossings to unmarked regions, an
exact cover, and ``enumerate_states`` finds them all with Knuth's
Algorithm X: it keeps a count of the open options of every crossing and
region, makes forced moves (an item with one option left) without
branching, cuts a branch when an item has none left, and otherwise
branches on the item with the fewest options.  The search runs on an
explicit stack, so a diagram with thousands of crossings does not reach
the recursion limit, and the states are sorted into canonical order
afterwards.

The state sum multiplies local weights per crossing and adds over
states:

    generic edge of weight i:  west -> t^(-i/2), east -> t^(i/2),
                               north -> [i] (the quantum integer);
    basepoint edge of weight i1: north -> t^(i1/2).

A state weight is therefore t^(s/2) times a product of quantum
integers; ``state_weight`` adds up the shifts and multiplies the
quantum integers by sliding-window sums (``laurent.quantum_product``),
so its cost is linear in the weight, not quadratic.

States correspond bijectively to spanning trees rooted at the head of
the basepoint edge: tree edges (and the basepoint) go north, and every
other crossing takes the corner met when its dual edge is crossed while
growing the dual spanning tree outward from the two marked faces.
``check_bijection`` checks it tree by tree.  The way back compares the
north edges with a tree already validated, so it validates nothing again;
the weight at t = 1 multiplies the state's north quantum weights as ints,
read off its corners, so it stays independent of ``tree_weight``.
"""

from __future__ import annotations

from collections import deque
from math import prod

from .laurent import HalfLaurent, monomial, quantum_integer, quantum_product
from .planar import CORNERS, EAST, NORTH, WEST, DecoratedDiagram
from .spanning import IdentityViolation, SpanningTree, _validate_tree, tree_weight

State = dict[str, str]


def enumerate_states(diagram: DecoratedDiagram) -> list[State]:
    """All Kauffman states, in canonical order, each as {edge id: corner}.

    An exact-cover search (Algorithm X): the items are the crossings and
    the unmarked regions, and each option (crossing, corner) covers its
    crossing and the corner's region.  ``live[x]`` counts the options
    still open to item x, and every move adjusts the counts of the items
    next to the two it covers.  An item whose count drops to one or zero
    goes on a worklist: with one option it is taken without a branch,
    with none it cuts the branch.  Only when the worklist is empty does
    the search branch, on the free item with the fewest options.
    Branches live on an explicit stack, so the depth of the search is
    not bounded by Python's recursion limit.

    The states are then sorted by the index in ``CORNERS`` of each
    crossing's corner, taken in ``crossings`` order: the order in which
    a search over crossings in edge order, corners north, west, east,
    would find them.
    """
    crossings = diagram.crossings
    n = len(crossings)
    marked = diagram.marked
    corner_region = diagram.corner_region
    # items 0 .. n-1 are crossings, n + r is region r; options[x] lists
    # (other item, corner index) for every option covering x
    options: list[list[tuple[int, int]]] = [
        [] for _ in range(n + len(diagram.regions))
    ]
    for i, eid in enumerate(crossings):
        for corner in diagram.admissible_corners(eid):
            region = corner_region[eid, corner]
            if region not in marked:
                c = CORNERS.index(corner)
                options[i].append((n + region, c))
                options[n + region].append((i, c))
    live = [len(o) for o in options]
    free = [True] * len(options)
    for region in marked:
        free[n + region] = False

    choice = [0] * n
    trail: list[tuple[int, int]] = []  # moves made, undone in reverse
    forced = [x for x, count in enumerate(live) if count <= 1 and free[x]]
    found: list[tuple[int, ...]] = []

    def cover(x: int, y: int, c: int) -> None:
        """Match items x and y by corner c."""
        free[x] = free[y] = False
        choice[x if x < n else y] = c
        trail.append((x, y))
        for item in (x, y):
            for z, _ in options[item]:
                if free[z]:
                    live[z] -= 1
                    if live[z] <= 1:
                        forced.append(z)

    def settle() -> bool:
        """Make every forced move; False on a dead item."""
        while forced:
            x = forced.pop()
            if not free[x]:
                continue
            if live[x] == 0:
                forced.clear()
                return False
            for y, c in options[x]:
                if free[y]:
                    break
            cover(x, y, c)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            x, y = trail.pop()
            for item in (x, y):
                for z, _ in options[item]:
                    if free[z]:
                        live[z] += 1
            free[x] = free[y] = True

    # a branch frame: [item, its open options, next option, trail mark]
    stack: list[list] = []

    def descend() -> None:
        if len(trail) == n:
            found.append(tuple(choice))
            return
        x = min((z for z in range(len(options)) if free[z]), key=live.__getitem__)
        stack.append([x, [o for o in options[x] if free[o[0]]], 0, len(trail)])

    if settle():
        descend()
    while stack:
        frame = stack[-1]
        x, open_options, k, mark = frame
        undo(mark)
        if k == len(open_options):
            stack.pop()
            continue
        frame[2] = k + 1
        y, c = open_options[k]
        cover(x, y, c)
        if settle():
            descend()

    found.sort()
    return [dict(zip(crossings, map(CORNERS.__getitem__, f))) for f in found]


def _local_factor(
    diagram: DecoratedDiagram, edge_id: str, corner: str
) -> tuple[int, int | None]:
    """One crossing's local weight as (doubled shift, quantum weight or
    None): the weight is t^(shift / 2), times [quantum weight] if any."""
    e = diagram.map.graph.edge(edge_id)
    if corner not in CORNERS:
        raise ValueError(f"unknown corner {corner!r}")
    if e.weight < 1:
        raise ValueError(f"edge {edge_id!r}: crossing weight must be positive")
    if edge_id == diagram.basepoint:
        if corner != NORTH:
            raise ValueError("the basepoint crossing only admits the north corner")
        return e.weight, None
    if corner == NORTH:
        return 0, e.weight
    if corner == WEST:
        return -e.weight, None
    return e.weight, None


def local_weight(diagram: DecoratedDiagram, edge_id: str, corner: str) -> HalfLaurent:
    """Weight contributed by one crossing when its chosen corner is given."""
    shift, quantum = _local_factor(diagram, edge_id, corner)
    if quantum is None:
        return monomial(1, shift)
    return quantum_integer(quantum)


def state_weight(diagram: DecoratedDiagram, state: State) -> HalfLaurent:
    """Product of local weights over all crossings of one state.

    The monomials add up to one shift and the quantum integers multiply
    by sliding windows (``quantum_product``), linear in the span."""
    shift = 0
    quanta: list[int] = []
    for eid in sorted(state):
        s, quantum = _local_factor(diagram, eid, state[eid])
        shift += s
        if quantum is not None:
            quanta.append(quantum)
    return quantum_product(quanta, shift)


def state_sum(diagram: DecoratedDiagram) -> HalfLaurent:
    """The diagram's state-sum polynomial (sum of state weights)."""
    total = HalfLaurent()
    for state in enumerate_states(diagram):
        total = total + state_weight(diagram, state)
    return total


def tree_to_state(diagram: DecoratedDiagram, tree: SpanningTree) -> State:
    """The state matching a spanning tree rooted at head(basepoint).

    Tree edges and the basepoint go north.  The remaining duals form the
    dual spanning forest; growing it breadth-first from the two marked
    faces over ``corner_region``, each dual edge crossed out of a grown
    face gives its crossing the corner on the far side.  A result that
    is not a state violates the correspondence: IdentityViolation.
    """
    g = diagram.map.graph
    if tree.root != diagram.root:
        raise ValueError(
            f"tree root {tree.root!r} differs from head of basepoint "
            f"({diagram.root!r})"
        )
    if diagram.basepoint in tree.edges:
        raise ValueError("the basepoint edge cannot belong to the tree")
    _validate_tree(g, tree)

    state: State = {diagram.basepoint: NORTH}
    for eid in tree.edges:
        state[eid] = NORTH

    corner_region = diagram.corner_region
    incident: dict[int, list[tuple[str, str]]] = {}
    for eid in diagram.crossings:
        if eid not in state:
            incident.setdefault(corner_region[eid, EAST], []).append((eid, WEST))
            incident.setdefault(corner_region[eid, WEST], []).append((eid, EAST))

    queue = deque(diagram.marked)
    while queue:
        for eid, corner in sorted(incident.get(queue.popleft(), ())):
            if eid not in state:
                state[eid] = corner
                queue.append(corner_region[eid, corner])

    try:
        _check_state(diagram, state)
    except ValueError as exc:
        raise IdentityViolation(f"tree does not induce a state: {exc}") from exc
    return state


def _check_state(diagram: DecoratedDiagram, state: State) -> None:
    if set(state) != set(diagram.crossings):
        raise ValueError("state must assign a corner to every crossing")
    claimed: dict[int, str] = {}
    marked = set(diagram.marked)
    for eid, corner in state.items():
        if corner not in diagram.admissible_corners(eid):
            raise ValueError(f"edge {eid!r}: corner {corner!r} not admissible")
        region = diagram.corner_region[eid, corner]
        if region in marked:
            raise ValueError(f"edge {eid!r}: corner lies in a marked region")
        if region in claimed:
            raise ValueError(
                f"edges {claimed[region]!r} and {eid!r} claim the same region"
            )
        claimed[region] = eid
    # |crossings| = |unmarked regions|, so injective means bijective.


def _north_edges(diagram: DecoratedDiagram, state: State) -> frozenset[str]:
    """The crossings a state sends north, the basepoint left out."""
    basepoint = diagram.basepoint
    return frozenset(e for e, c in state.items() if c == NORTH and e != basepoint)


def state_to_tree(diagram: DecoratedDiagram, state: State) -> SpanningTree:
    """The spanning tree matching a state: north edges minus the basepoint.

    Validates that the input is a genuine state, then re-validates the
    resulting edge set as a spanning tree rooted at head(basepoint); a
    failure of the latter would contradict the correspondence theorem and
    raises IdentityViolation.
    """
    _check_state(diagram, state)
    tree = SpanningTree(diagram.root, _north_edges(diagram, state))
    try:
        _validate_tree(diagram.map.graph, tree)
    except ValueError as exc:
        raise IdentityViolation(f"state does not induce a spanning tree: {exc}") from exc
    return tree


def check_bijection(
    diagram: DecoratedDiagram, trees: list[SpanningTree], states: list[State]
) -> list[tuple[SpanningTree, int, bool]]:
    """Every tree's verdict as (tree, tree weight, ok), all found before a
    caller prints one.  ok: ``tree_to_state`` (which validates the tree and
    certifies the state) gives a state among ``states``; its north edges
    off the basepoint equal the validated tree, so need no validation; and
    its corners' quantum weights (``state_weight``'s rules) multiply as ints
    to ``tree_weight``, which reads the tree's edges, not the corners.
    """
    known = {tuple(map(s.get, diagram.crossings)) for s in states}
    verdicts = []
    for tree in trees:
        state = tree_to_state(diagram, tree)
        w_state = prod(_local_factor(diagram, e, state[e])[1] or 1 for e in sorted(state))
        w_tree = tree_weight(diagram.map.graph, tree)
        ok = _north_edges(diagram, state) == tree.edges and w_state == w_tree
        ok = ok and tuple(map(state.get, diagram.crossings)) in known
        verdicts.append((tree, w_tree, ok))
    return verdicts
