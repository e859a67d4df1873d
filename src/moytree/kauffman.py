"""Kauffman states on decorated plane diagrams and the tree bijection.

A state assigns to each crossing one of its corners so that the induced
map from crossings to regions is a bijection onto the unmarked regions.
The basepoint crossing is forced north (its west and east corners sit in
the two marked regions).  A ``State`` is a tuple of ``CORNERS`` indices
(0 north, 1 west, 2 east) in ``diagram.crossings`` order, which is edge
id order; every function here that takes or returns a state uses that
one form.

So a state is a perfect matching of crossings to unmarked regions, an
exact cover.  ``_peel`` runs Knuth's Algorithm X: it yields what the
forced moves leave (the peel, below) and, resumed, every state, which
``enumerate_states`` sorts into canonical order.

The state sum multiplies local weights per crossing and adds over
states:

    generic edge of weight i:  west -> t^(-i/2), east -> t^(i/2),
                               north -> [i] (the quantum integer);
    basepoint edge of weight i1: north -> t^(i1/2).

A state weight is therefore t^(s/2) times a product of quantum
integers, which multiply by sliding-window sums
(``laurent.quantum_coefficients``), linear in the weight.

The state sum is also one determinant (Kauffman, *Formal Knot Theory*,
1983).  Let M have a row per crossing and a column per unmarked region,
with s = t^(1/2) and row e of weight w scaled by s^w: west -> -1, east
-> s^(2w), north -> s + s^3 + ... + s^(2w-1) = s^w [w], and the
basepoint's north -> s^(2w).  A nonzero term of det M is a state, worth
s^(sum of weights) times the state weight, times sgn(sigma) (-1)^#west.
Two states that differ at two crossings differ by a clock move: one
crossing turns west -> north and the other north -> east, so the move
flips sgn(sigma) and changes #west by one.  By Kauffman's clock theorem
clock moves join all states, so every state carries one sign and
det M = +-s^(sum of weights) times the state sum.

Peeling: a row or column with one live entry is forced in every state
(the search's forced move); its entry is a factor of the determinant,
its row and column are deleted, and that repeats.  An
empty row or column means no state and a state sum of 0.  The basepoint
row and every directed cycle peel completely.  The core that is left
goes through ``spanning.bareiss`` three times:

* with west -> -1 and every other entry 1, |det| is the number of
  states (``enumerate_states``'s guard);
* at s = 1 (north -> w, east -> 1, west -> -1), det is the core's
  value v, +- its state sum at t = 1, so v = 0 means no state;
* at s = 2^K with K = bit_length(|v|) + 2 (Kronecker substitution,
  Harvey, arXiv:0712.4046), det is read back as signed base-2^K digits.

Because all states carry one sign, the core's coefficients share a sign
and sum to v, so each is below 2^(K-2) in size and the digits are
exactly the coefficients.  That is the certificate: digits that do not
share one sign and one exponent parity and sum to v raise
IdentityViolation.  Signed by v they are positive, and the peeled
shifts and quantum weights multiply in by ``quantum_product``'s sliding
windows, starting from them, so every coefficient of the result is
positive.  ``state_sum_by_determinant`` always takes this road.

``alexander`` takes enumeration (``state_sum``, also the determinant's
oracle) for heavy cores with few states: the digits of a weight-w entry
span 2wK bits, and big-int division is quadratic in CPython.  Unless
forced, ``alexander`` refuses a span 2*sum(w) above ``MAX_SPAN`` doubled
exponents, and ``enumerate_states`` more than ``MAX_STATES`` states,
counted on the core of the peel that its search then resumes.

States correspond bijectively to spanning trees rooted at the head of
the basepoint edge: tree edges (and the basepoint) go north, and every
other crossing takes the corner met when its dual edge is crossed while
growing the dual spanning tree outward from the two marked faces
(``tree_to_state``).  ``check_bijection`` checks it from the state side:
each state's north edges minus the basepoint must form a spanning tree,
no two states may give one tree, and the matrix-tree theorem on the
unit-weight graph counts the trees, so the map is a bijection when
that count is the number of states.  The command line writes the
``states`` and ``bijection`` listings as one string each.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .laurent import HalfLaurent, monomial, quantum_coefficients, quantum_integer, quantum_product
from .planar import CORNERS, EAST, NORTH, WEST, DecoratedDiagram
from .spanning import (
    EnumerationLimitError,
    IdentityViolation,
    SpanningTree,
    _validate_tree,
    bareiss,
    count_by_determinant,
)

State = tuple[int, ...]

# without force, ``enumerate_states`` refuses more than MAX_STATES states
# and ``alexander`` a span 2*sum(w) above MAX_SPAN
MAX_STATES = 10**5
MAX_SPAN = 10**6

_INDEX = {corner: k for k, corner in enumerate(CORNERS)}
_N, _W, _E = map(_INDEX.get, (NORTH, WEST, EAST))

# the peel's core: the rows left as (crossing, [(column, corner index), ...])
_Core = list[tuple[int, list[tuple[int, int]]]]


def _options(
    diagram: DecoratedDiagram,
) -> tuple[list[list[tuple[int, int]]], list[bool]]:
    """The exact-cover tables: items 0 .. n-1 are the crossings and n + r
    is region r; ``options[x]`` lists (other item, corner index) for every
    option covering x, and ``free[x]`` is False only for the marked
    regions.  An option is an admissible corner in an unmarked region."""
    n = len(diagram.crossings)
    marked = diagram.marked
    corner_region = diagram.corner_region
    options: list[list[tuple[int, int]]] = [
        [] for _ in range(n + len(diagram.regions))
    ]
    for i, eid in enumerate(diagram.crossings):
        for corner in diagram.admissible_corners(eid):
            region = corner_region[eid, corner]
            if region not in marked:
                c = _INDEX[corner]
                options[i].append((n + region, c))
                options[n + region].append((i, c))
    free = [True] * len(options)
    for region in marked:
        free[n + region] = False
    return options, free


def _peel(diagram: DecoratedDiagram) -> Iterator:
    """Algorithm X over ``_options``, as a generator.  Once the forced
    moves are made it yields the peel: the forced entries of the crossing
    x unmarked-region matrix, as (crossing, corner index), and its core
    (``_Core``), or None when a row or column runs empty and there is no
    state.  Resumed, it yields every state as corner indices in
    ``crossings`` order.

    ``live[x]`` counts the options still open to item x, and each move
    adjusts the counts next to the two items it covers.  An item whose
    count drops to one or zero goes on a worklist: with one option it is
    taken without a branch, with none it cuts the branch.  Only when the
    worklist is empty does the search branch, on the free item with the
    fewest options (``_branch_item``), on an explicit stack, not by
    recursion.
    """
    n = len(diagram.crossings)
    options, free = _options(diagram)
    live = [len(o) for o in options]

    choice = [0] * n
    trail: list[tuple[int, int]] = []  # moves made, undone in reverse
    forced = [x for x, count in enumerate(live) if count <= 1 and free[x]]

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

    if not settle():
        yield None
        return
    column = {r: k for k, r in enumerate(r for r in range(n, len(options)) if free[r])}
    yield [(i, choice[i]) for i in map(min, trail)], [
        (i, [(column[y], c) for y, c in options[i] if free[y]])
        for i in range(n)
        if free[i]
    ]

    # a branch frame: [item, its open options, next option, trail mark]
    stack: list[list] = []
    while True:
        if len(trail) == n:
            yield tuple(choice)
        else:
            x = _branch_item(free, live)
            stack.append([x, [o for o in options[x] if free[o[0]]], 0, len(trail)])
        while stack:  # on to the next branch that settles
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
                break
        else:
            return


def _branch_item(free: list[bool], live: list[int]) -> int:
    """The first free item with the fewest live options.  Every free item
    has at least two once the forced moves are made, so the scan stops at
    the first free item with exactly two."""
    best = -1
    for z, count in enumerate(live):
        if free[z] and (best < 0 or count < live[best]):
            best = z
            if count == 2:
                break
    return best


def enumerate_states(diagram: DecoratedDiagram, force: bool = False) -> list[State]:
    """All Kauffman states from ``_peel``, sorted: in the order a search
    over crossings, corners north, west, east finds them.  Unless force
    is set, more than ``MAX_STATES`` states, counted on the peel's core,
    raise EnumerationLimitError before the search resumes."""
    search = _peel(diagram)
    peeled = next(search)
    if peeled is None:
        return []
    if not force and (count := _state_count(peeled[1])) > MAX_STATES:
        raise EnumerationLimitError(
            f"{count} states exceeds the enumeration limit of {MAX_STATES}; "
            "pass --force to override"
        )
    return sorted(search)


def _crossing_weight(diagram: DecoratedDiagram, edge_id: str) -> int:
    w = diagram.map.graph.edge(edge_id).weight
    if w < 1:
        raise ValueError(f"edge {edge_id!r}: crossing weight must be positive")
    return w


def _local_factor(
    diagram: DecoratedDiagram, edge_id: str, corner: str
) -> tuple[int, int | None]:
    """One crossing's local weight as (doubled shift, quantum weight or
    None): the weight is t^(shift / 2), times [quantum weight] if any."""
    if corner not in CORNERS:
        raise ValueError(f"unknown corner {corner!r}")
    w = _crossing_weight(diagram, edge_id)
    if edge_id == diagram.basepoint:
        if corner != NORTH:
            raise ValueError("the basepoint crossing only admits the north corner")
        return w, None
    if corner == NORTH:
        return 0, w
    if corner == WEST:
        return -w, None
    return w, None


def local_weight(diagram: DecoratedDiagram, edge_id: str, corner: str) -> HalfLaurent:
    """Weight contributed by one crossing when its chosen corner is given."""
    shift, quantum = _local_factor(diagram, edge_id, corner)
    if quantum is None:
        return monomial(1, shift)
    return quantum_integer(quantum)


def _factors(
    diagram: DecoratedDiagram, corners: Iterable[tuple[str, str]]
) -> tuple[list[int], int]:
    """The local weights of (edge id, corner) pairs, taken in the order
    given, as ``quantum_product``'s arguments: the quantum weights and
    the sum of the doubled shifts."""
    shift, quanta = 0, []
    for eid, corner in corners:
        s, quantum = _local_factor(diagram, eid, corner)
        shift += s
        if quantum is not None:
            quanta.append(quantum)
    return quanta, shift


def _state_factors(diagram: DecoratedDiagram, state: State) -> tuple[list[int], int]:
    """``_factors`` of a state's (edge id, corner) pairs in ``crossings``
    order."""
    return _factors(diagram, zip(diagram.crossings, map(CORNERS.__getitem__, state)))


def state_weight(diagram: DecoratedDiagram, state: State) -> HalfLaurent:
    """Product of local weights over all crossings of one state.

    The monomials add up to one shift and the quantum integers multiply
    by sliding windows (``quantum_product``), linear in the span.  Refuses
    what ``state_to_tree`` refuses of a state (``_require_state``)."""
    _require_state(diagram, state)
    return quantum_product(*_state_factors(diagram, state))


def state_sum(diagram: DecoratedDiagram) -> HalfLaurent:
    """The diagram's state-sum polynomial (sum of state weights).

    Every state's coefficients (``quantum_coefficients``) add into one
    table keyed by doubled exponent, and one polynomial is built at the
    end.  The states' monomial shifts differ in parity (their quantum
    integers make up the difference), so the key is the exponent itself,
    not a position on a grid anchored at one state.
    """
    table: dict[int, int] = {}
    for state in enumerate_states(diagram, force=True):
        low, coeffs = quantum_coefficients(*_state_factors(diagram, state))
        for d, c in zip(range(low, low + 2 * len(coeffs), 2), coeffs):
            table[d] = table.get(d, 0) + c
    return HalfLaurent(table)


# -- the determinant backend ---------------------------------------------------

def _core_det(core: _Core, entry: Callable[[int, int], int]) -> int:
    """The core's determinant with entry(crossing, corner index) in each
    live position."""
    return bareiss([{j: entry(i, c) for j, c in row} for i, row in core])[1]


def _state_count(core: _Core) -> int:
    return abs(_core_det(core, lambda i, c: -1 if c == _W else 1))


def _signed_digits(value: int, width: int) -> list[int]:
    """The digits of value in base 2^width, least significant first,
    each in (-2^(width-1), 2^(width-1)]."""
    bits = format(abs(value), "b")
    sign = -1 if value < 0 else 1
    half, full = 1 << (width - 1), 1 << width
    digits, carry = [], 0
    for end in range(len(bits), 0, -width):
        d = int(bits[max(end - width, 0) : end], 2) + carry
        carry = d > half
        digits.append(sign * (d - full if carry else d))
    if carry:
        digits.append(sign)
    return digits


def _digit_width(value: int) -> int:
    """K: the core's coefficients share a sign and sum to its value at
    t = 1, so each is below 2^(K-2) in size."""
    return abs(value).bit_length() + 2


def _determinant_sum(
    diagram: DecoratedDiagram, forced: list[tuple[int, int]], core: _Core
) -> HalfLaurent:
    """The state sum from ``_peel``'s result, as the module docstring sets
    out."""
    crossings = diagram.crossings
    quanta, shift = _factors(diagram, ((crossings[i], CORNERS[c]) for i, c in forced))
    if not core:
        return quantum_product(quanta, shift)
    w = {i: _crossing_weight(diagram, crossings[i]) for i, _ in core}
    value = _core_det(core, lambda i, c: w[i] if c == _N else -1 if c == _W else 1)
    if not value:
        return HalfLaurent()
    width = _digit_width(value)
    step = (1 << 2 * width) - 1
    entries: dict[tuple[int, int], int] = {}

    def entry(i: int, c: int) -> int:
        key = (w[i], c)
        if key not in entries:
            x2w = 1 << 2 * w[i] * width  # s^(2w) at s = 2^width
            north = (x2w - 1) // step << width  # s + s^3 + ... + s^(2w-1)
            entries[key] = -1 if c == _W else x2w if c == _E else north
        return entries[key]

    digits = _signed_digits(_core_det(core, entry), width)
    nonzero = [k for k, d in enumerate(digits) if d]
    if (
        sum(digits) != value
        or any((d > 0) != (value > 0) for d in map(digits.__getitem__, nonzero))
        or any((k - nonzero[0]) % 2 for k in nonzero)
    ):
        raise IdentityViolation(
            f"the core determinant's base-2^{width} digits do not share one "
            f"sign and one parity and sum to its nonzero value {value} at t = 1"
        )
    low = nonzero[0]
    coeffs = [abs(d) for d in digits[low : nonzero[-1] + 1 : 2]]
    return quantum_product(quanta, shift + low - sum(w.values()), coeffs)


def state_sum_by_determinant(diagram: DecoratedDiagram) -> HalfLaurent:
    """The state sum as one determinant of the peeled core (module
    docstring), whatever the input; digits that fail the certificate
    raise IdentityViolation."""
    peeled = next(_peel(diagram))
    return HalfLaurent() if peeled is None else _determinant_sum(diagram, *peeled)


def alexander(diagram: DecoratedDiagram, force: bool = False) -> HalfLaurent:
    """The state sum by the backend the input favours: the determinant
    when the core is empty or has at least as many states as its largest
    weight, enumeration (``state_sum``) otherwise.  Unless force is set, a
    span 2*sum(w) above ``MAX_SPAN`` raises EnumerationLimitError first."""
    # the state sum's doubled exponents lie in [-sum(w), sum(w)]
    if not force and (span := 2 * sum(e.weight for e in diagram.map.graph.edges)) > MAX_SPAN:
        raise EnumerationLimitError(
            f"polynomial span 2*sum(w) = {span} exceeds the limit of {MAX_SPAN}; "
            "pass --force to override"
        )
    peeled = next(_peel(diagram))
    if peeled is None:
        return HalfLaurent()
    forced, core = peeled
    count = _state_count(core)
    if not count:
        return HalfLaurent()
    # every state weighs every crossing, in ``state_weight``'s order
    w = {eid: _crossing_weight(diagram, eid) for eid in diagram.crossings}
    if core and count < max(w[diagram.crossings[i]] for i, _ in core):
        return state_sum(diagram)
    return _determinant_sum(diagram, forced, core)


def _dual(diagram: DecoratedDiagram) -> tuple:
    """Integer tables from ``corner_region``, the one corner geometry:
    crossing numbers, each crossing's regions in ``CORNERS`` order, and
    each region's west and east neighbours in ``crossings`` order."""
    crossings = diagram.crossings
    regions = [tuple(diagram.corner_region[e, c] for c in CORNERS) for e in crossings]
    border: list[list[int]] = [[] for _ in diagram.regions]
    for i, (_, west, east) in enumerate(regions):
        border[west].append(i)
        border[east].append(i)
    return {e: i for i, e in enumerate(crossings)}, regions, border


def tree_to_state(diagram: DecoratedDiagram, tree: SpanningTree) -> State:
    """The state matching a spanning tree rooted at head(basepoint).

    Tree edges and the basepoint go north.  Growing the dual forest
    breadth-first from the two marked faces, each dual edge crossed out
    of a grown face gives its crossing the corner on the far side.  A
    result that is not a state violates the correspondence:
    IdentityViolation.
    """
    if tree.root != diagram.root:
        raise ValueError(
            f"tree root {tree.root!r} differs from head of basepoint "
            f"({diagram.root!r})"
        )
    if diagram.basepoint in tree.edges:
        raise ValueError("the basepoint edge cannot belong to the tree")
    _validate_tree(diagram.map.graph, tree)

    index, regions, border = _dual(diagram)
    corners = [-1] * len(regions)
    corners[index[diagram.basepoint]] = _N
    for eid in tree.edges:
        corners[index[eid]] = _N
    queue = list(diagram.marked)
    for r in queue:  # grows as it is read: breadth first
        for i in border[r]:
            if corners[i] < 0:
                _, west, east = regions[i]
                corners[i], far = (_E, east) if west == r else (_W, west)
                queue.append(far)
    try:
        _check_state(diagram, regions, corners)
    except ValueError as exc:
        raise IdentityViolation(f"tree does not induce a state: {exc}") from exc
    return tuple(corners)


def _check_state(diagram: DecoratedDiagram, regions: list, corners: Sequence[int]) -> None:
    """Raise ValueError unless corners (indices, -1 for none, basepoint
    north) make a state on ``_dual``'s regions."""
    if -1 in corners:
        raise ValueError("state must assign a corner to every crossing")
    crossings = diagram.crossings
    claimed = bytearray(len(diagram.regions))  # 1 when claimed, 2 when marked
    for r in diagram.marked:
        claimed[r] = 2
    for i, (row, c) in enumerate(zip(regions, corners)):
        r = row[c]
        if claimed[r] == 2:
            raise ValueError(f"edge {crossings[i]!r}: corner lies in a marked region")
        if claimed[r]:
            first = next(j for j in range(i) if regions[j][corners[j]] == r)
            raise ValueError(
                f"edges {crossings[first]!r} and {crossings[i]!r} claim the same region"
            )
        claimed[r] = 1
    # |crossings| = |unmarked regions|, so injective means bijective.


def _require_state(diagram: DecoratedDiagram, state: State) -> None:
    """Raise ValueError unless state is a state: an admissible corner
    index per crossing, claiming every unmarked region once."""
    crossings = diagram.crossings
    if len(state) != len(crossings):
        raise ValueError("state must assign a corner to every crossing")
    for eid, c in zip(crossings, state):
        if c not in range(len(CORNERS)):
            raise ValueError(f"edge {eid!r}: corner index {c!r} out of range")
        if CORNERS[c] not in diagram.admissible_corners(eid):
            raise ValueError(f"edge {eid!r}: corner {CORNERS[c]!r} not admissible")
    _check_state(diagram, _dual(diagram)[1], state)


def _north_tree(diagram: DecoratedDiagram, state: State, name="state") -> tuple:
    """The state's north edges minus the basepoint as a SpanningTree and
    its Edges (``_validate_tree``); IdentityViolation naming the state
    as name if they are no spanning tree rooted at head(basepoint)."""
    basepoint = diagram.basepoint
    north = frozenset(e for e, c in zip(diagram.crossings, state) if c == _N and e != basepoint)
    tree = SpanningTree(diagram.root, north)
    try:
        return tree, _validate_tree(diagram.map.graph, tree)
    except ValueError as exc:
        raise IdentityViolation(f"{name} does not induce a spanning tree: {exc}") from exc


def state_to_tree(diagram: DecoratedDiagram, state: State) -> SpanningTree:
    """The spanning tree matching a state (``_north_tree``), after
    refusing an input that is no state with ValueError."""
    _require_state(diagram, state)
    return _north_tree(diagram, state)[0]


def check_bijection(
    diagram: DecoratedDiagram, states: list[State]
) -> tuple[list[tuple[SpanningTree, int]], int]:
    """Each state's tree (``_north_tree``) and its weight, the int product
    of its edge weights, in ``enumerate_trees`` order; and the number of
    trees rooted at head(basepoint), from the unit-weight determinant.

    Two states with one tree raise IdentityViolation, naming both by
    their 1-based position, so the map is injective: a bijection when
    that number is len(states).  A nonpositive crossing weight is refused
    as ``_factors`` would."""
    for eid in diagram.crossings:
        _crossing_weight(diagram, eid)
    found: dict[tuple[str, ...], tuple] = {}
    for k, state in enumerate(states, start=1):
        tree, edges = _north_tree(diagram, state, f"state {k}")
        # enumerate_trees order: the in-edge ids of the non-root vertices,
        # taken in vertex id order
        key = tuple(e.id for e in sorted(edges, key=lambda e: e.head))
        if key in found:
            raise IdentityViolation(f"states {found[key][0]} and {k} induce one spanning tree")
        found[key] = k, tree, prod(e.weight for e in edges)
    trees = count_by_determinant(diagram.map.graph, diagram.root, unit=True)
    return [found[key][1:] for key in sorted(found)], trees
