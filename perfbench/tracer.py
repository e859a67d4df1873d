"""Spans and counters recorded from outside the program.

``Tracer.install`` rebinds public functions of ``moytree`` to timing
wrappers: in the defining module, in every ``moytree`` module that
imported them by name, and on the classes for methods.  ``uninstall``
puts the originals back, so an untraced run executes no wrapper at all.

Each span records its name, its parent span, the request (CLI command) it
belongs to, and its start and end.  Self time is the span's duration minus
the time covered by its direct children.  Two hot calls are counted
without a span record: ``HalfLaurent.__mul__`` (timed, with work counters)
and ``DecoratedDiagram.admissible_corners`` (counted as a search node when
``enumerate_states`` is the innermost span).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name); "Class.method" patches the class.
SPANS = (
    ("cli", "main", "cli.main"),
    ("graphfile", "load_document", "graphfile.load_document"),
    ("graphfile", "parse_document", "graphfile.parse_document"),
    ("graph", "DirectedMultigraph.__init__", "graph.build"),
    ("graph", "is_balanced", "graph.checks"),
    ("graph", "is_connected", "graph.checks"),
    ("graph", "is_strongly_connected", "graph.checks"),
    ("graph", "subdivide_edge", "graph.subdivide_edge"),
    ("planar", "CombinatorialMap.__init__", "planar.map_build"),
    ("planar", "CombinatorialMap.faces", "planar.faces"),
    ("planar", "CombinatorialMap.face_count", "planar.faces"),
    ("planar", "validate_map", "planar.validate_map"),
    ("planar", "decorate", "planar.decorate"),
    ("spanning", "laplacian", "spanning.laplacian"),
    ("spanning", "det_bareiss", "spanning.det_bareiss"),
    ("spanning", "count_by_determinant", "spanning.count"),
    ("spanning", "balanced_count", "spanning.count"),
    ("spanning", "count_by_enumeration", "spanning.count"),
    ("spanning", "enumerate_trees", "spanning.enumerate_trees"),
    ("spanning", "tree_weight", "spanning.tree_weight"),
    ("laurent", "HalfLaurent.__add__", "laurent.add"),
    ("kauffman", "enumerate_states", "kauffman.enumerate_states"),
    ("kauffman", "state_sum", "kauffman.state_sum"),
    ("kauffman", "state_weight", "kauffman.state_weight"),
    ("kauffman", "tree_to_state", "kauffman.tree_to_state"),
    ("kauffman", "state_to_tree", "kauffman.state_to_tree"),
    ("skein", "resolve_G1", "skein.resolve"),
    ("skein", "resolve_G2", "skein.resolve"),
    ("skein", "verify_skein_t1", "skein.verify_skein_t1"),
)

GENERATE_SPANS = tuple(
    ("generate", fn, "generate")
    for fn in (
        "seed_cycle",
        "seed_theta",
        "seed_lens_triangle",
        "seed_prism",
        "subdivide_map",
        "double_edge_map",
        "random_plane_map",
        "random_balanced_graph",
        "random_connected_digraph",
    )
)


def _bits(x: int) -> int:
    return abs(x).bit_length()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        # counters by (name, command kind)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.request = -1
        self.kind = ""
        self.faced: list = []  # maps whose faces this command counted
        self._stack: list[list] = []  # [span id, name, start, child ns]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, request: int, kind: str) -> None:
        """Attribute what follows to one command."""
        self.request, self.kind, self.faced = request, kind, []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name, self.kind] += amount

    def _enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((sid, parent, self.request, name, 0, 0))
        frame = [sid, name, 0, 0]
        self._stack.append(frame)
        frame[2] = perf_counter_ns()

    def _exit(self):
        end = perf_counter_ns()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        self.spans[sid] = (sid, self.spans[sid][1], self.request, name, start, end)
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def _span(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _mul(self, fn):
        tracer = self

        def mul(a, b):
            start = perf_counter_ns()
            result = fn(a, b)
            end = perf_counter_ns()
            tracer.self_ns["laurent.mul"] += end - start
            tracer.calls["laurent.mul"] += 1
            if result is not NotImplemented:
                terms = result._terms
                tracer.count("laurent.mul.term_pairs", len(a._terms) * len(b._terms))
                tracer.count("laurent.mul.result_terms", len(terms))
                if terms:
                    tracer.count("laurent.span", (max(terms) - min(terms)) // 2)
                    tracer.count("laurent.coeff_bits", max(map(_bits, terms.values())))
            # the counting above is tracer overhead: charge it to no layer
            if tracer._stack:
                tracer._stack[-1][3] += perf_counter_ns() - start
            return result

        return mul

    def _corners(self, fn):
        tracer = self

        def admissible_corners(diagram, edge_id):
            if tracer._stack and tracer._stack[-1][1] == "kauffman.enumerate_states":
                tracer.count("kauffman.search_nodes")
            return fn(diagram, edge_id)

        return admissible_corners

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original, new):
        """Replace original wherever a moytree module holds it by name."""
        for modname, module in list(sys.modules.items()):
            if modname != "moytree" and not modname.startswith("moytree."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, new)

    def install(self, mods, spans=SPANS, hot=True) -> None:
        after = {
            "graphfile.parse_document": lambda t, a, r: t.count("graphfile.bytes", len(a[0])),
            "planar.map_build": lambda t, a, r: t.count("planar.darts", 2 * len(a[1].edges)),
            "spanning.det_bareiss": _after_det,
            "spanning.enumerate_trees": lambda t, a, r: t.count("spanning.trees", len(r)),
            "kauffman.enumerate_states": lambda t, a, r: t.count("kauffman.states", len(r)),
            "planar.faces": _after_faces,
        }
        for modname, attr, name in spans:
            module = getattr(mods, modname)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = getattr(owner, method)
                self._patch(owner, method, self._span(name, original, after.get(name)))
            else:
                original = getattr(module, attr)
                self._rebind(original, self._span(name, original, after.get(name)))
        if hot:
            cls = mods.laurent.HalfLaurent
            self._patch(cls, "__mul__", self._mul(cls.__mul__))
            cls = mods.planar.DecoratedDiagram
            self._patch(cls, "admissible_corners", self._corners(cls.admissible_corners))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def total(self, name: str, kind: str | None = None) -> int:
        return sum(v for (n, k), v in self.counts.items() if n == name and kind in (None, k))


def _after_det(tracer, args, result):
    tracer.count("spanning.det_bareiss.calls")
    tracer.count("spanning.det_bareiss.n", len(args[0]))
    tracer.count("spanning.result_bits", _bits(result))


def _after_faces(tracer, args, result):
    # faces() and face_count() share one cached orbit computation, so
    # count each map's faces once per command
    m = args[0]
    if all(seen is not m for seen in tracer.faced):
        tracer.faced.append(m)
        tracer.count("planar.faces", result if isinstance(result, int) else len(result))
