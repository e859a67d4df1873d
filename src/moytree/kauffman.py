"""Kauffman states on decorated plane diagrams and the tree bijection.

A state assigns to each crossing one of its corners so that the induced
map from crossings to regions is a bijection onto the unmarked regions.
The basepoint crossing is forced north (its west and east corners sit in
the two marked regions).  The state sum multiplies local weights per
crossing and adds over states:

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
"""

from __future__ import annotations

from collections import deque

from .laurent import HalfLaurent, monomial, quantum_integer, quantum_product
from .planar import CORNERS, EAST, NORTH, WEST, DecoratedDiagram
from .spanning import SpanningTree, _validate_tree

State = dict[str, str]


def enumerate_states(diagram: DecoratedDiagram) -> list[State]:
    """All Kauffman states, in canonical order.

    Crossings are processed in edge-id order and corners tried north,
    west, east; regions are claimed exclusively, marked regions are never
    available.  The result lists each state as {edge id: corner}.
    """
    edge_ids = diagram.crossings
    marked = set(diagram.marked)
    claimed: dict[int, str] = {}
    choice: dict[str, str] = {}
    states: list[State] = []

    def assign(i: int) -> None:
        if i == len(edge_ids):
            states.append(dict(choice))
            return
        eid = edge_ids[i]
        for corner in diagram.admissible_corners(eid):
            region = diagram.corner_region[eid, corner]
            if region in marked or region in claimed:
                continue
            claimed[region] = eid
            choice[eid] = corner
            assign(i + 1)
            del claimed[region]
            del choice[eid]

    assign(0)
    return states


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
    is not a state violates the correspondence: RuntimeError.
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
        raise RuntimeError(f"tree does not induce a state: {exc}") from exc
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


def state_to_tree(diagram: DecoratedDiagram, state: State) -> SpanningTree:
    """The spanning tree matching a state: north edges minus the basepoint.

    Validates that the input is a genuine state, then re-validates the
    resulting edge set as a spanning tree rooted at head(basepoint); a
    failure of the latter would contradict the correspondence theorem and
    raises RuntimeError.
    """
    _check_state(diagram, state)
    edges = frozenset(
        eid
        for eid, corner in state.items()
        if corner == NORTH and eid != diagram.basepoint
    )
    tree = SpanningTree(diagram.root, edges)
    try:
        _validate_tree(diagram.map.graph, tree)
    except ValueError as exc:
        raise RuntimeError(f"state does not induce a spanning tree: {exc}") from exc
    return tree
