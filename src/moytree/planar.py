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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .graph import DirectedMultigraph

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
    """

    def __init__(
        self,
        graph: DirectedMultigraph,
        rotation: Mapping[str, Sequence[Dart]],
    ):
        problems: list[str] = []
        for v in rotation:
            if not graph.has_vertex(v):
                problems.append(f"rotation lists unknown vertex {v!r}")
        rot: dict[str, tuple[Dart, ...]] = {}
        seen: dict[Dart, str] = {}
        for v in graph.vertices:
            darts = tuple(rotation.get(v, ()))
            for d in darts:
                if not isinstance(d, Dart):
                    raise TypeError(f"rotation entries must be Dart, got {d!r}")
                if not graph.has_edge(d.edge):
                    problems.append(f"dart {d.token()}: unknown edge")
                    continue
                e = graph.edge(d.edge)
                at = e.tail if d.end == TAIL else e.head
                if at != v:
                    problems.append(
                        f"dart {d.token()} listed at {v!r} but belongs at {at!r}"
                    )
                if d in seen:
                    problems.append(f"dart {d.token()} listed more than once")
                seen[d] = v
            rot[v] = darts
        for e in graph.edges:
            for end in (TAIL, HEAD):
                d = Dart(e.id, end)
                if d not in seen:
                    problems.append(f"dart {d.token()} missing from rotation")
        if problems:
            raise MapStructureError("; ".join(sorted(problems)))
        self.graph = graph
        self.rotation = rot
        succ: dict[Dart, Dart] = {}
        for v, darts in rot.items():
            for i, d in enumerate(darts):
                succ[d] = darts[(i + 1) % len(darts)]
        self._succ = succ

    def next_in_face(self, dart: Dart) -> Dart:
        return self._succ[dart.twin()]

    @cached_property
    def _faces(self) -> tuple[tuple[Dart, ...], ...]:
        remaining = set(self._succ)
        orbits: list[tuple[Dart, ...]] = []
        for start in sorted(self._succ):
            if start not in remaining:
                continue
            cycle = []
            d = start
            while True:
                cycle.append(d)
                remaining.discard(d)
                d = self.next_in_face(d)
                if d == start:
                    break
            orbits.append(tuple(cycle))
        return tuple(orbits)

    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Face orbits, each a dart cycle starting at its smallest dart,
        sorted by that dart."""
        return self._faces

    def face_count(self) -> int:
        # An edgeless map still has the one outer face.
        return len(self._faces) if self.graph.edges else 1


def _transverse_ok(darts: Sequence[Dart]) -> bool:
    # In-darts must form one contiguous cyclic arc: the cyclic sequence of
    # end letters changes value either 0 times (source/sink) or twice.
    if len(darts) < 2:
        return True
    changes = sum(
        1
        for i, d in enumerate(darts)
        if d.end != darts[(i + 1) % len(darts)].end
    )
    return changes in (0, 2)


def validate_map(m: CombinatorialMap) -> list[MapViolation]:
    """All violated map invariants, empty when the map is clean.

    Checks, in order: self-loops, transverse orientation at each vertex,
    and sphere planarity (V - E + F = 2).  Balance and connectivity are
    graph facts: see graph.is_balanced and graph.is_connected.
    """
    out: list[MapViolation] = []
    g = m.graph
    for e in g.edges:
        if e.tail == e.head:
            out.append(
                MapViolation("loop", e.id, f"edge {e.id!r} is a self-loop")
            )
    for v in g.vertices:
        if not _transverse_ok(m.rotation[v]):
            out.append(
                MapViolation(
                    "transverse",
                    v,
                    f"in-darts at {v!r} do not form one contiguous arc",
                )
            )
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

        faces = m.faces()
        face_of = {d: k for k, orbit in enumerate(faces) for d in orbit}
        circle_of = {v: len(faces) + i for i, v in enumerate(g.vertices)}
        self.regions = range(len(faces) + len(g.vertices))
        self.crossings: tuple[str, ...] = tuple(e.id for e in g.edges)

        self.corner_region: dict[tuple[str, str], int] = {}
        for e in g.edges:
            east, west = face_of[Dart(e.id, TAIL)], face_of[Dart(e.id, HEAD)]
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
    map has loops, broken transverse orientation, a nonplanar rotation, a
    bridge (an edge with equal flanking faces), or an unknown basepoint.

    Balance and connectivity are not required here; they are separate
    diagnostics (a disconnected map already fails the Euler check).
    """
    if not m.graph.has_edge(basepoint):
        raise DiagramError(f"unknown basepoint edge {basepoint!r}")
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
