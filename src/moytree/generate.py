"""Seeded random instances: balanced graphs and plane diagrams.

Plane diagrams are grown from a small library of hand-embedded seeds
(directed cycles, theta graphs, a two-lens triangle, a doubled-spoke
prism) by two rewrites that preserve balance, the rotation structure,
and sphere planarity:

  * subdividing an edge (both halves keep the weight);
  * splitting an edge into two parallels whose weights add up, nested so
    the new lens face keeps the embedding planar.

Everything is driven by a caller-supplied random.Random, so any seed
reproduces the same instance byte for byte.
"""

from __future__ import annotations

import random
from typing import Sequence

from .graph import DirectedMultigraph, Edge, fresh_id, subdivide_edge
from .planar import HEAD, TAIL, CombinatorialMap, Dart


def seed_cycle(n: int, weight: int) -> CombinatorialMap:
    """A directed n-cycle (n >= 2), every edge of the given weight."""
    if n < 2:
        raise ValueError("cycle needs at least 2 vertices")
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    rotation: dict[str, tuple[Dart, ...]] = {}
    for i in range(n):
        edges.append(Edge(f"e{i}", vertices[i], vertices[(i + 1) % n], weight))
    for i in range(n):
        outgoing = Dart(f"e{i}", TAIL)
        incoming = Dart(f"e{(i - 1) % n}", HEAD)
        rotation[vertices[i]] = (outgoing, incoming)
    return CombinatorialMap(DirectedMultigraph(vertices, edges), rotation)


def seed_theta(
    forward_weights: Sequence[int], backward_weights: Sequence[int]
) -> CombinatorialMap:
    """Parallel arcs between two vertices: len(forward) edges a -> b and
    len(backward) edges b -> a.  Balanced iff the weight sums agree.

    Arcs are nested top to bottom as forward block then backward block;
    the two rotations read the bundle in opposite directions.
    """
    if not forward_weights or not backward_weights:
        raise ValueError("need at least one arc in each direction")
    if sum(forward_weights) != sum(backward_weights):
        raise ValueError("weight sums must agree for balance")
    edges = []
    fwd = []
    for i, w in enumerate(forward_weights):
        eid = f"f{i}"
        edges.append(Edge(eid, "a", "b", w))
        fwd.append(eid)
    bwd = []
    for i, w in enumerate(backward_weights):
        eid = f"b{i}"
        edges.append(Edge(eid, "b", "a", w))
        bwd.append(eid)
    # At a, counterclockwise from the bottom arc: backward heads upward,
    # then forward tails; at b the same arcs in reversed nesting.
    rot_a = tuple(
        [Dart(e, HEAD) for e in reversed(bwd)] + [Dart(e, TAIL) for e in reversed(fwd)]
    )
    rot_b = tuple([Dart(e, HEAD) for e in fwd] + [Dart(e, TAIL) for e in bwd])
    return CombinatorialMap(
        DirectedMultigraph(["a", "b"], edges), {"a": rot_a, "b": rot_b}
    )


def seed_lens_triangle(a: int, b: int, c: int) -> CombinatorialMap:
    """Three vertices, five edges, two lens faces; the worked example.

    Edges (named by endpoints): e21 v2->v1 weight b, e31 v3->v1 weight
    a+c, e12 v1->v2 weight b+c, e13 v1->v3 weight a, e23 v2->v3 weight c.
    Balanced for any positive a, b, c; four faces."""
    for w in (a, b, c):
        if w < 1:
            raise ValueError("weights must be positive")
    edges = [
        Edge("e21", "v2", "v1", b),
        Edge("e31", "v3", "v1", a + c),
        Edge("e12", "v1", "v2", b + c),
        Edge("e13", "v1", "v3", a),
        Edge("e23", "v2", "v3", c),
    ]
    rotation = {
        "v1": (
            Dart("e13", TAIL),
            Dart("e12", TAIL),
            Dart("e21", HEAD),
            Dart("e31", HEAD),
        ),
        "v2": (Dart("e23", TAIL), Dart("e21", TAIL), Dart("e12", HEAD)),
        "v3": (Dart("e13", HEAD), Dart("e31", TAIL), Dart("e23", HEAD)),
    }
    return CombinatorialMap(
        DirectedMultigraph(["v1", "v2", "v3"], edges), rotation
    )


def seed_prism(outer: int, inner: int, spoke: int) -> CombinatorialMap:
    """Two concentric directed triangles joined by antiparallel spoke
    pairs; balanced for any positive weights.  Eight faces."""
    for w in (outer, inner, spoke):
        if w < 1:
            raise ValueError("weights must be positive")
    edges = [
        Edge("oa", "o1", "o2", outer),
        Edge("ob", "o2", "o3", outer),
        Edge("oc", "o3", "o1", outer),
        Edge("ia", "i1", "i3", inner),
        Edge("ib", "i3", "i2", inner),
        Edge("ic", "i2", "i1", inner),
        Edge("s1", "o1", "i1", spoke),
        Edge("t1", "i1", "o1", spoke),
        Edge("s2", "o2", "i2", spoke),
        Edge("t2", "i2", "o2", spoke),
        Edge("s3", "o3", "i3", spoke),
        Edge("t3", "i3", "o3", spoke),
    ]
    rotation = {
        "o1": (Dart("oa", TAIL), Dart("s1", TAIL), Dart("t1", HEAD), Dart("oc", HEAD)),
        "o2": (Dart("ob", TAIL), Dart("s2", TAIL), Dart("t2", HEAD), Dart("oa", HEAD)),
        "o3": (Dart("oc", TAIL), Dart("s3", TAIL), Dart("t3", HEAD), Dart("ob", HEAD)),
        "i1": (Dart("s1", HEAD), Dart("ic", HEAD), Dart("ia", TAIL), Dart("t1", TAIL)),
        "i2": (Dart("t2", TAIL), Dart("s2", HEAD), Dart("ib", HEAD), Dart("ic", TAIL)),
        "i3": (Dart("ia", HEAD), Dart("ib", TAIL), Dart("t3", TAIL), Dart("s3", HEAD)),
    }
    return CombinatorialMap(
        DirectedMultigraph(["o1", "o2", "o3", "i1", "i2", "i3"], edges), rotation
    )


def subdivide_map(m: CombinatorialMap, edge_id: str) -> CombinatorialMap:
    """Subdivide an edge of a plane map; the fresh vertex sits on the old
    arc, so faces and planarity are untouched."""
    g = m.graph
    g2 = subdivide_edge(g, edge_id)
    (mid,) = set(g2.vertices) - set(g.vertices)
    first = g2.in_edges(mid)[0].id
    second = g2.out_edges(mid)[0].id
    rotation = {}
    for v, darts in m.rotation.items():
        replaced = []
        for d in darts:
            if d.edge == edge_id:
                replaced.append(Dart(first, TAIL) if d.end == TAIL else Dart(second, HEAD))
            else:
                replaced.append(d)
        rotation[v] = tuple(replaced)
    rotation[mid] = (Dart(first, HEAD), Dart(second, TAIL))
    return CombinatorialMap(g2, rotation)


def double_edge_map(
    m: CombinatorialMap, edge_id: str, first_weight: int
) -> CombinatorialMap:
    """Split an edge into two nested parallels with weights first_weight
    and weight - first_weight; adds one lens face, preserving planarity.

    The two insertion orders are mirror images; only the reversed nesting
    (tail sees low then high, head sees high then low) stays planar."""
    e = m.graph.edge(edge_id)
    if not 1 <= first_weight <= e.weight - 1:
        raise ValueError("first_weight must split the weight into positive parts")
    low = fresh_id(f"{edge_id}.a", (x.id for x in m.graph.edges))
    high = fresh_id(f"{edge_id}.b", {x.id for x in m.graph.edges} | {low})
    edges = [x for x in m.graph.edges if x.id != edge_id]
    edges.append(Edge(low, e.tail, e.head, first_weight))
    edges.append(Edge(high, e.tail, e.head, e.weight - first_weight))
    rotation = {}
    for v, darts in m.rotation.items():
        replaced: list[Dart] = []
        for d in darts:
            if d.edge == edge_id and d.end == TAIL:
                replaced.extend((Dart(low, TAIL), Dart(high, TAIL)))
            elif d.edge == edge_id and d.end == HEAD:
                replaced.extend((Dart(high, HEAD), Dart(low, HEAD)))
            else:
                replaced.append(d)
        rotation[v] = tuple(replaced)
    return CombinatorialMap(
        DirectedMultigraph(m.graph.vertices, edges), rotation
    )


def _composition(rng: random.Random, total: int, parts: int, max_part: int) -> list[int]:
    # positive parts, each <= max_part, summing to total
    if not parts <= total <= parts * max_part:
        raise ValueError(f"cannot split {total} into {parts} parts of at most {max_part}")
    out = []
    remaining = total
    for slot in range(parts, 0, -1):
        low = max(1, remaining - max_part * (slot - 1))
        high = min(max_part, remaining - (slot - 1))
        w = rng.randint(low, high)
        out.append(w)
        remaining -= w
    return out


def random_plane_map(
    rng: random.Random, max_vertices: int = 8, max_weight: int = 5
) -> CombinatorialMap:
    """A connected balanced positive plane diagram, grown from a seed."""
    kinds = ["cycle", "theta", "lens"]
    if max_vertices >= 6:
        kinds.append("prism")
    kind = rng.choice(kinds)
    if kind == "cycle":
        m = seed_cycle(rng.randint(2, min(5, max_vertices)), rng.randint(1, max_weight))
    elif kind == "theta":
        total = rng.randint(2, min(6, 2 * max_weight))
        least = -(-total // max_weight)  # enough parts to fit under max_weight
        most = max(least, min(3, total))
        fwd = _composition(rng, total, rng.randint(least, most), max_weight)
        bwd = _composition(rng, total, rng.randint(least, most), max_weight)
        m = seed_theta(fwd, bwd)
    elif kind == "lens":
        a = rng.randint(1, max(1, min(2, max_weight - 1)))
        b = rng.randint(1, max(1, min(2, max_weight - 1)))
        top = max_weight - max(a, b)
        m = seed_lens_triangle(a, b, rng.randint(1, max(1, top)))
    else:
        m = seed_prism(
            rng.randint(1, min(3, max_weight)),
            rng.randint(1, min(3, max_weight)),
            rng.randint(1, min(3, max_weight)),
        )
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(("subdivide", "double", "skip"))
        if op == "subdivide" and len(m.graph.vertices) < max_vertices:
            edge = rng.choice(m.graph.edges)
            m = subdivide_map(m, edge.id)
        elif op == "double":
            heavy = [e for e in m.graph.edges if e.weight >= 2]
            if heavy:
                edge = rng.choice(heavy)
                m = double_edge_map(m, edge.id, rng.randint(1, edge.weight - 1))
    return m


def grow_map(rng: random.Random, m: CombinatorialMap, edges: int) -> CombinatorialMap:
    """Grow a plane map to ``edges`` edges: each step picks an edge and,
    half the time when its weight is at least 2, splits it into two
    parallels, and otherwise subdivides it."""
    while len(m.graph.edges) < edges:
        e = rng.choice(m.graph.edges)
        if e.weight >= 2 and rng.random() < 0.5:
            m = double_edge_map(m, e.id, rng.randint(1, e.weight - 1))
        else:
            m = subdivide_map(m, e.id)
    return m


def random_balanced_graph(
    rng: random.Random,
    min_vertices: int = 2,
    max_vertices: int = 6,
    max_weight: int = 5,
    allow_loops: bool = False,
) -> DirectedMultigraph:
    """A connected balanced graph: a base cycle plus random closed walks,
    each walk carrying one constant weight (so balance is automatic)."""
    n = rng.randint(min_vertices, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges: list[Edge] = []

    def add_closed_walk(walk: list[str], weight: int) -> None:
        for tail, head in zip(walk, walk[1:] + walk[:1]):
            edges.append(Edge(f"e{len(edges)}", tail, head, weight))

    if n == 1:
        if allow_loops and rng.random() < 0.5:
            add_closed_walk(["v0"], rng.randint(1, max_weight))
        return DirectedMultigraph(vertices, edges)

    base = vertices[:]
    rng.shuffle(base)
    add_closed_walk(base, rng.randint(1, max_weight))

    for _ in range(rng.randint(0, 3)):
        length = rng.randint(2, n + 2)
        walk = [rng.choice(vertices)]
        while len(walk) < length:
            step = rng.choice(vertices)
            if not allow_loops and step == walk[-1]:
                continue
            walk.append(step)
        if not allow_loops and walk[-1] == walk[0]:
            walk.pop()
        add_closed_walk(walk, rng.randint(1, max_weight))
    return DirectedMultigraph(vertices, edges)


def random_connected_digraph(
    rng: random.Random,
    min_vertices: int = 2,
    max_vertices: int = 6,
    max_weight: int = 5,
    allow_loops: bool = False,
) -> DirectedMultigraph:
    """A random digraph, connected underneath but usually unbalanced."""
    n = rng.randint(min_vertices, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges: list[Edge] = []
    for i in range(1, n):
        other = vertices[rng.randrange(i)]
        tail, head = (vertices[i], other) if rng.random() < 0.5 else (other, vertices[i])
        edges.append(Edge(f"e{len(edges)}", tail, head, rng.randint(1, max_weight)))
    for _ in range(rng.randint(0, n + 2)):
        tail = rng.choice(vertices)
        head = rng.choice(vertices)
        if head == tail and not allow_loops:
            continue
        edges.append(Edge(f"e{len(edges)}", tail, head, rng.randint(1, max_weight)))
    return DirectedMultigraph(vertices, edges)
