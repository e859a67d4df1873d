"""Plane diagrams of directed multigraphs via rotation systems.

A combinatorial map equips each vertex with the counterclockwise cyclic
order of its incident darts (edge ends).  A dart is one end of one edge:
``(e, "t")`` sits at tail(e), ``(e, "h")`` at head(e).  Faces are the
orbits of ``next(d) = successor-at-origin-of(twin(d))``; with the
counterclockwise rotation this walks each face boundary with the face on
the right of every dart read as pointing away from its origin vertex.

Consequently, for an edge e read tail-to-head, the face on its right
contains the tail-end dart and the face on its left contains the
head-end dart.  The decoration below places, at the crossing where e
enters head(e): the east corner in the face of the tail-end dart, the
west corner in the face of the head-end dart, and the north corner in
the circle region around head(e).  This orientation is pinned by the
worked three-vertex example: the mirrored choice produces the polynomial
with t replaced by 1/t and fails its golden test.

A diagram also reserves one circle region per vertex (a small disk
around it), a basepoint edge whose two flanking faces become the marked
regions, and one crossing per edge.  Regions are numbered ints: the
faces first, in ``faces()`` order, then the circles, in vertex order.
Region count always satisfies |regions| = |crossings| + 2 on a
sphere-planar map.

A map numbers its darts.  With the edges numbered k = 0, 1, ... in id
order (the order of ``graph.edges``), dart 2k is the head end of edge k
and dart 2k + 1 its tail end, so twin(d) = d ^ 1.  Because "h" < "t",
the numbers sort exactly as the ``Dart`` tuples do, so faces, and with
them every region number, come out in the same order as a walk over
``Dart``s would give them.  Callers may name each dart as a ``Dart``
tuple or as its number: the document parser hands over numbers, the
generators ``Dart``s, and ``dart_of`` turns a number back into its
``Dart``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .graph import DirectedMultigraph, Edge

TAIL = "t"
HEAD = "h"

NORTH = "N"
WEST = "W"
EAST = "E"
CORNERS = (NORTH, WEST, EAST)


class Dart(NamedTuple):
    """One end of one edge; end is "t" (at the tail) or "h" (at the head)."""

    edge: str
    end: str

    def twin(self) -> "Dart":
        return Dart(self.edge, HEAD if self.end == TAIL else TAIL)

    def token(self) -> str:
        return f"{self.edge}:{self.end}"

    @classmethod
    def parse(cls, token: str) -> "Dart":
        edge, sep, end = token.rpartition(":")
        if not sep or end not in (TAIL, HEAD):
            raise ValueError(
                f"bad dart token {token!r}: expected '<edgeId>:t' or '<edgeId>:h'"
            )
        return cls(edge, end)


class MapStructureError(ValueError):
    """The rotation does not list each dart exactly once at its vertex."""


class DiagramError(ValueError):
    """The map cannot be decorated into a valid diagram."""


def dart_of(edges: Sequence[Edge], d: int) -> Dart:
    """Dart number d of a map over the given sorted edges."""
    return Dart(edges[d >> 1].id, TAIL if d & 1 else HEAD)


def _numbers(edges: Sequence[Edge]) -> dict[Dart, int]:
    """Each dart's number, keyed by its ``Dart`` (an (edge, end) tuple)."""
    number = {(e.id, HEAD): 2 * k for k, e in enumerate(edges)}
    number.update({(e.id, TAIL): 2 * k + 1 for k, e in enumerate(edges)})
    return number


@dataclass(frozen=True)
class MapViolation:
    check: str
    subject: str
    message: str


class CombinatorialMap:
    """An immutable rotation system over a directed multigraph.

    ``rotation`` maps each vertex to the counterclockwise cyclic sequence
    of its darts.  Construction enforces only structural coherence: every
    dart of every edge appears exactly once, at the vertex it is incident
    to.  Softer properties (no loops, transverse orientation, planarity)
    are reported by validate_map and enforced by decorate.

    Darts are numbered as the module docstring says, in ``Dart`` order.
    ``succ[d]`` is the dart after d counterclockwise at its vertex, and
    ``face_of[d]`` the number of d's face in ``faces()`` order.
    """

    def __init__(
        self,
        graph: DirectedMultigraph,
        rotation: Mapping[str, Sequence[Dart | int]],
    ):
        unknown = [v for v in rotation if not graph.has_vertex(v)]
        problems = [f"rotation lists unknown vertex {v!r}" for v in unknown]
        edges = graph.edges
        number = None  # (edge id, end) -> dart number, built for the first Dart
        belongs = [v for e in edges for v in (e.head, e.tail)]  # each dart's vertex
        n = len(belongs)
        seen = bytearray(n)
        succ = [0] * n
        rot: dict[str, tuple[Dart | int, ...]] = {}
        given_numbers = False
        for v in graph.vertices:
            darts = rot[v] = tuple(rotation.get(v, ()))
            ids = []
            for dart in darts:
                if type(dart) is int:
                    given_numbers = True
                    d = dart
                    if not 0 <= d < n:
                        problems.append(f"dart number {d}: out of range")
                        continue
                elif isinstance(dart, Dart):
                    if number is None:
                        number = _numbers(edges)
                    d = number.get(dart)
                    if d is None:
                        problems.append(f"dart {dart.token()}: unknown edge")
                        continue
                else:
                    raise TypeError(
                        f"rotation entries must be Dart or dart numbers, got {dart!r}"
                    )
                if belongs[d] != v:
                    problems.append(
                        f"dart {dart_of(edges, d).token()} listed at {v!r}"
                        f" but belongs at {belongs[d]!r}"
                    )
                if seen[d]:
                    problems.append(f"dart {dart_of(edges, d).token()} listed more than once")
                seen[d] = 1
                ids.append(d)
            if ids:
                prev = ids[-1]
                for d in ids:
                    succ[prev] = d
                    prev = d
        problems += [
            f"dart {dart_of(edges, d).token()} missing from rotation"
            for d, hit in enumerate(seen) if not hit
        ]
        if problems:
            raise MapStructureError("; ".join(sorted(problems)))
        self.graph = graph
        self.succ = succ
        if given_numbers:
            self._given = rot
        else:
            self.rotation = rot  # Darts as given: the cached property is never built

    @cached_property
    def rotation(self) -> dict[str, tuple[Dart, ...]]:
        """Each vertex's darts, counterclockwise, as ``Dart``s."""
        edges = self.graph.edges
        return {
            v: tuple(d if isinstance(d, Dart) else dart_of(edges, d) for d in darts)
            for v, darts in self._given.items()
        }

    @cached_property
    def face_of(self) -> list[int]:
        succ = self.succ
        face_of = [-1] * len(succ)
        face = 0
        for start in range(len(succ)):
            if face_of[start] < 0:
                d = start
                while face_of[d] < 0:
                    face_of[d] = face
                    d = succ[d ^ 1]
                face += 1
        return face_of

    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Face orbits, each a dart cycle starting at its smallest dart,
        sorted by that dart."""
        orbits = []
        for start, face in enumerate(self.face_of):
            if face == len(orbits):
                orbit = [start]
                while (d := self.succ[orbit[-1] ^ 1]) != start:
                    orbit.append(d)
                orbits.append(tuple(dart_of(self.graph.edges, d) for d in orbit))
        return tuple(orbits)

    def face_count(self) -> int:
        # An edgeless map still has the one outer face.
        return max(self.face_of, default=0) + 1


def validate_map(m: CombinatorialMap) -> list[MapViolation]:
    """All violated map invariants, empty when the map is clean.

    Checks, in order: self-loops, transverse orientation at each vertex,
    and sphere planarity (V - E + F = 2).  Balance and connectivity are
    graph facts: see graph.is_balanced and graph.is_connected.
    """
    g = m.graph
    out = [
        MapViolation("loop", e.id, f"edge {e.id!r} is a self-loop")
        for e in g.edges if e.tail == e.head
    ]
    # The in-darts at a vertex form one contiguous cyclic arc exactly when
    # at most one in-dart is followed counterclockwise by an out-dart.
    arcs = Counter(e.head for e, d in zip(g.edges, m.succ[::2]) if d & 1)
    out += [
        MapViolation("transverse", v, f"in-darts at {v!r} do not form one contiguous arc")
        for v in g.vertices if arcs[v] > 1
    ]
    euler = len(g.vertices) - len(g.edges) + m.face_count()
    if euler != 2:
        out.append(
            MapViolation(
                "planar",
                "*",
                f"V - E + F = {euler}, expected 2 for a sphere embedding",
            )
        )
    return out


class DecoratedDiagram:
    """A plane diagram with basepoint, crossings, regions and corners.

    Built by decorate().  Regions are ints: faces are 0 .. F-1 in
    ``m.faces()`` order, and the circle around the i-th vertex of
    ``g.vertices`` is F + i, so ``regions`` is range(F + V).  The
    crossing of edge e sits where e enters head(e); ``crossings`` lists
    the edge ids in edge order.  ``corner_region[e, corner]`` is the only
    corner geometry: north = circle(head(e)), east = face holding the
    tail-end dart, west = face holding the head-end dart.  ``marked`` is
    the sorted pair of the basepoint's east and west regions, so only
    the basepoint's north corner is admissible in a state.  A bridge (an
    edge whose east and west faces are one) raises DiagramError.
    """

    def __init__(self, m: CombinatorialMap, basepoint: str):
        g = m.graph
        self.map = m
        self.basepoint = basepoint
        self.root = g.edge(basepoint).head

        face_count = m.face_count()
        circle_of = {v: face_count + i for i, v in enumerate(g.vertices)}
        self.regions = range(face_count + len(g.vertices))
        self.crossings: tuple[str, ...] = tuple(e.id for e in g.edges)

        self.corner_region: dict[tuple[str, str], int] = {}
        for e, west, east in zip(g.edges, m.face_of[::2], m.face_of[1::2]):
            if east == west:
                raise DiagramError(
                    f"edge {e.id!r} has the same face on both sides (bridge); "
                    "basepoint regions would collide"
                )
            self.corner_region[e.id, NORTH] = circle_of[e.head]
            self.corner_region[e.id, EAST] = east
            self.corner_region[e.id, WEST] = west

        self.marked: tuple[int, int] = tuple(
            sorted(self.corner_region[basepoint, c] for c in (EAST, WEST))
        )

    def admissible_corners(self, edge_id: str) -> tuple[str, ...]:
        if edge_id == self.basepoint:
            return (NORTH,)
        return CORNERS


def decorate(m: CombinatorialMap, basepoint: str) -> DecoratedDiagram:
    """Decorate a plane map with a basepoint; raises DiagramError when the
    map has loops, broken transverse orientation, a nonplanar rotation or
    a bridge (an edge with equal flanking faces).  An unknown basepoint
    raises graph's ValueError("unknown edge ..."), before any map check.

    Balance and connectivity are not required here; they are separate
    diagnostics (a disconnected map already fails the Euler check).
    """
    m.graph.edge(basepoint)
    violations = validate_map(m)
    if violations:
        details = "; ".join(
            f"{v.check}[{v.subject}]: {v.message}" for v in violations
        )
        raise DiagramError(f"map cannot be decorated: {details}")
    diagram = DecoratedDiagram(m, basepoint)
    # Euler gives |regions| = F + V = (E + 2 - V) + V = |crossings| + 2.
    assert len(diagram.regions) == len(diagram.crossings) + 2
    return diagram
