"""Seeded instance families and command mixes for the four workloads.

Every builder takes a ``random.Random`` seeded from ``--seed`` and the
freshly imported ``moytree`` modules, and returns ``Instance`` records: the
document text the program will read plus the facts the reference checker
needs.  The program itself only ever sees the written JSON files.

Why each workload exists, and what it is predicted to stress, is in
``NOTES.md``; the one-line reasons are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Command:
    """One CLI invocation; ``{file}`` in argv is replaced by the path."""

    kind: str
    argv: tuple[str, ...]
    # extra facts for the checker, e.g. the subdivided edge's weight
    facts: dict = field(default_factory=dict)


@dataclass
class Instance:
    name: str
    text: str
    commands: list[Command]
    # (n, w) when the instance is a directed n-cycle of constant weight w,
    # so the closed forms apply
    cycle: tuple[int, int] | None = None
    # commands run once, outside the timed loop, by the over-depth probe
    probe: list[Command] = field(default_factory=list)
    path: str = ""


# Command kinds, in the order the per-command metrics are reported.
KINDS = (
    "validate",
    "count",
    "count_root",
    "skein",
    "subdivide-check",
    "alexander",
    "states",
    "bijection",
)

# Counts each command answers, for the determinants-per-count ratio.
COUNTS_ANSWERED = {"count": 1, "count_root": 1, "skein": 3, "subdivide-check": 2}


# -- det-count -------------------------------------------------------------

DET_SIZES = (24, 30, 36, 42, 48, 54, 60)
DET_SIZES_TINY = (5, 7)


def dense_balanced(rng: random.Random, graph_mod, n: int, walks: int | None = None):
    """A base cycle through all n vertices plus closed walks (n unless
    given) of 2-6 vertices in turn, each walk at one weight in 1..5, so
    balance holds by construction.  No self-loops.  Walk lengths follow a
    fixed schedule so the edge count, and with it the cost, varies little
    between seeds."""
    Edge = graph_mod.Edge
    vertices = [f"v{i}" for i in range(n)]
    edges = []

    def walk(vs, weight):
        for tail, head in zip(vs, vs[1:] + vs[:1]):
            edges.append(Edge(f"e{len(edges)}", tail, head, weight))

    base = vertices[:]
    rng.shuffle(base)
    walk(base, rng.randint(1, 5))
    for k in range(n if walks is None else walks):
        length = 2 + k % 5
        vs = [rng.choice(vertices)]
        while len(vs) < length:
            step = rng.choice(vertices)
            if step != vs[-1]:
                vs.append(step)
        if vs[-1] == vs[0]:
            vs.pop()
        if len(vs) >= 2:
            walk(vs, rng.randint(1, 5))
    return graph_mod.DirectedMultigraph(vertices, edges)


def build_det_count(rng, mods, tiny=False):
    out = []
    for n in DET_SIZES_TINY if tiny else DET_SIZES:
        g = dense_balanced(rng, mods.graph, n)
        root = rng.choice(g.vertices)
        ei, ej = rng.sample([e.id for e in g.edges], 2)
        sub = rng.choice(g.edges)
        out.append(
            Instance(
                f"det-{n}",
                mods.graphfile.document_text(g),
                [
                    Command("count", ("count", "{file}", "--method", "det")),
                    Command(
                        "count_root",
                        ("count", "{file}", "--method", "det", "--root", root),
                        {"root": root},
                    ),
                    Command(
                        "skein",
                        ("skein", "{file}", "--edge-i", ei, "--edge-j", ej),
                    ),
                    Command(
                        "subdivide-check",
                        ("subdivide-check", "{file}", "--edge", sub.id),
                        {"edge_weight": sub.weight},
                    ),
                ],
            )
        )
    return out


# -- state-sum -------------------------------------------------------------

# The backtracking cost of one map is chaotic in its structure: over
# random maps of one size the search-node count spreads by a factor of
# 10-100.  A run cannot average that out, so the structure of each map
# (which edges are split or subdivided, ids, basepoint) comes from a
# fixed structure seed per size, and --seed draws the weights: how each
# bundle splits its weight of 5, and which prism class of a sparse map
# gets which of the weights 3, 4, 5.  States and search nodes are the
# same for every seed, and the Laurent products stay comparable in size.
DENSE_SIZES = (23, 25, 26, 27, 29, 30)
SPARSE_SIZES = (22, 26, 30, 32)
STATE_SIZES_TINY = ((14,), (14,))
MAX_BUNDLE = 4


def _composition(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def dense_map(rng, gen, edges_wanted):
    """seed_prism with prism edges split into nested parallel bundles by
    double_edge_map; final weights <= 5."""
    shape = random.Random(1000 + edges_wanted)
    prism_ids = ("oa", "ob", "oc", "ia", "ib", "ic", "s1", "t1", "s2", "t2", "s3", "t3")
    parts = dict.fromkeys(prism_ids, 1)
    for _ in range(edges_wanted - len(prism_ids)):
        eid = shape.choice([e for e in prism_ids if parts[e] < MAX_BUNDLE])
        parts[eid] += 1
    m = gen.seed_prism(5, 5, 5)
    for eid in prism_ids:
        if parts[eid] == 1:
            continue
        current = eid
        pieces = _composition(rng, m.graph.edge(eid).weight, parts[eid])
        for piece in pieces[:-1]:
            before = {e.id for e in m.graph.edges}
            m = gen.double_edge_map(m, current, piece)
            current = next(
                e for e in {e.id for e in m.graph.edges} - before
                if e.startswith(f"{current}.b")
            )
    return m, shape.choice(m.graph.edges).id


def _sparse_map(rng, gen, edges_wanted):
    """seed_prism subdivided edges_wanted - 12 times; 12 states."""
    shape = random.Random(2000 + edges_wanted)
    m = gen.seed_prism(*rng.sample((3, 4, 5), 3))
    while len(m.graph.edges) < edges_wanted:
        m = gen.subdivide_map(m, shape.choice(m.graph.edges).id)
    return m, shape.choice(m.graph.edges).id


def _diagram_commands(kinds):
    argv = {
        "validate": ("validate", "{file}"),
        "alexander": ("alexander", "{file}"),
        "states": ("states", "{file}"),
        "bijection": ("bijection", "{file}", "--force"),
    }
    return [Command(k, argv[k]) for k in kinds]


def build_state_sum(rng, mods, tiny=False):
    dense_sizes, sparse_sizes = STATE_SIZES_TINY if tiny else (DENSE_SIZES, SPARSE_SIZES)
    out = []
    for label, maker, sizes in (
        ("dense", dense_map, dense_sizes),
        ("sparse", _sparse_map, sparse_sizes),
    ):
        for e in sizes:
            m, bp = maker(rng, mods.generate, e)
            out.append(
                Instance(
                    f"{label}-{e}",
                    mods.graphfile.map_text(m, bp),
                    _diagram_commands(("alexander", "states", "bijection")),
                )
            )
    return out


# -- heavy-weight ----------------------------------------------------------

# (shape, size, weight level); the seed jitters every weight by up to 2%,
# so the quadratic product cost stays comparable across seeds.
HEAVY = (
    ("cycle", 3, 900),
    ("cycle", 3, 1500),
    ("cycle", 4, 600),
    ("cycle", 4, 1000),
    ("cycle", 5, 400),
    ("cycle", 5, 600),
    ("cycle", 6, 300),
    ("lens", 3, 300),
    ("lens", 3, 500),
    ("lens", 3, 700),
    ("lens", 3, 900),
    ("lens", 3, 1200),
    ("lens", 3, 1500),
    ("prism", 6, 100),
    ("prism", 6, 150),
    ("prism", 6, 200),
    ("prism", 6, 250),
)
HEAVY_TINY = (("cycle", 3, 40), ("lens", 3, 20), ("prism", 6, 5))


def _jitter(rng, level):
    return max(1, level + rng.randint(-level // 50, level // 50))


def build_heavy_weight(rng, mods, tiny=False):
    gen = mods.generate
    out = []
    for shape, size, level in HEAVY_TINY if tiny else HEAVY:
        cycle = None
        if shape == "cycle":
            w = _jitter(rng, level)
            m = gen.seed_cycle(size, w)
            cycle = (size, w)
        elif shape == "lens":
            # edge weights b, a+c, b+c, a, c: the heaviest is about level
            a, b, c = (_jitter(rng, level // 2) for _ in range(3))
            m = gen.seed_lens_triangle(a, b, c)
        else:
            m = gen.seed_prism(*(_jitter(rng, level) for _ in range(3)))
        out.append(
            Instance(
                f"{shape}{size}-{level}",
                mods.graphfile.map_text(m, m.graph.edges[0].id),
                _diagram_commands(("alexander", "bijection")),
                cycle=cycle,
            )
        )
    return out


# -- deep-map --------------------------------------------------------------

# Size strata in crossings.  `states` and `alexander` recurse once per
# crossing and die past Python's recursion limit (about 1000), so they run
# on the lower strata in the timed loop; the upper strata go to the
# over-depth probe of the traced run, which reports them as failures.
DEEP_SHALLOW = (300, 450, 600, 750, 900)
DEEP_OVER = (1200, 2000, 3000)
DEEP_SHALLOW_TINY = (20, 30)
DEEP_OVER_TINY = (1500,)


def _labelled_cycle(rng, graph_mod, planar_mod, n):
    """A unit-weight directed n-cycle whose vertex and edge ids are a
    seeded permutation, so the id order (which every enumeration follows)
    differs from the walk order."""
    Edge, Dart = graph_mod.Edge, planar_mod.Dart
    vids = [f"v{i}" for i in rng.sample(range(n), n)]
    eids = [f"e{i}" for i in rng.sample(range(n), n)]
    edges = [Edge(eids[i], vids[i], vids[(i + 1) % n], 1) for i in range(n)]
    rotation = {
        vids[i]: (Dart(eids[i], planar_mod.TAIL), Dart(eids[i - 1], planar_mod.HEAD))
        for i in range(n)
    }
    g = graph_mod.DirectedMultigraph(vids, edges)
    return planar_mod.CombinatorialMap(g, rotation), rng.choice(eids)


def _deep_instance(rng, mods, n, over):
    m, bp = _labelled_cycle(rng, mods.graph, mods.planar, n)
    enumerating = _diagram_commands(("states", "alexander"))
    return Instance(
        f"cycle-{n}",
        mods.graphfile.map_text(m, bp),
        _diagram_commands(("validate",)) + ([] if over else enumerating),
        cycle=(n, 1),
        probe=enumerating if over else [],
    )


def build_deep_map(rng, mods, tiny=False):
    shallow, over = (DEEP_SHALLOW_TINY, DEEP_OVER_TINY) if tiny else (DEEP_SHALLOW, DEEP_OVER)
    return [_deep_instance(rng, mods, n, False) for n in shallow] + [
        _deep_instance(rng, mods, n, True) for n in over
    ]


BUILDERS = {
    "det-count": build_det_count,
    "state-sum": build_state_sum,
    "heavy-weight": build_heavy_weight,
    "deep-map": build_deep_map,
}
