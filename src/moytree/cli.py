"""Command-line interface.

Exit codes: 0 on success (and when a checked identity holds), 1 when
validation fails or an identity is violated (``IdentityViolation``), 2
on usage or IO errors, malformed JSON and refused enumeration sizes.
Any other exception is a bug and propagates with its traceback.  All
output is deterministic for a given input file and arguments.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .graph import is_balanced, is_connected, is_strongly_connected, subdivide_edge
from .graphfile import FormatError, build_map, load_document
from .kauffman import check_bijection, enumerate_states, state_sum
from .planar import (
    CombinatorialMap,
    DecoratedDiagram,
    DiagramError,
    MapStructureError,
    decorate,
    validate_map,
)
from .selftest import run_all
from .skein import verify_skein_t1
from .spanning import (
    EnumerationLimitError,
    IdentityViolation,
    balanced_count,
    count_by_determinant,
    count_by_enumeration,
    enumerate_trees,
    laplacian,
    tree_weight,
)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _diagram(args) -> DecoratedDiagram:
    """The file's decorated diagram; the basepoint is --edge or the file's."""
    doc = load_document(args.file)
    m = build_map(doc)
    basepoint = doc.basepoint if args.edge is None else args.edge
    if basepoint is None:
        raise FormatError(
            "basepoint: required for this command; set it in the file or pass --edge"
        )
    if not doc.graph.has_edge(basepoint):
        raise ValueError(f"unknown edge {basepoint!r}")
    return decorate(m, basepoint)


def _cmd_validate(args) -> int:
    doc = load_document(args.file)
    g = doc.graph
    failures = 0

    def report(check: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        suffix = f" {detail}" if detail else ""
        print(f"{check}={'ok' if ok else 'fail'}{suffix}")

    positive = all(e.weight >= 1 for e in g.edges)
    report("positive-weights", positive)
    balanced, connected = is_balanced(g), is_connected(g)
    report("balance", balanced)
    report("connectivity", connected)
    report("strong-connectivity", is_strongly_connected(g))
    if doc.rotation is None:
        print("rotation=absent")
    else:
        try:
            m = CombinatorialMap(g, doc.rotation)
        except MapStructureError as exc:
            report("rotation-structure", False, str(exc))
            m = None
        if m is not None:
            report("rotation-structure", True)
            violations = validate_map(m)
            for check in ("loop", "transverse", "planar"):
                relevant = [v for v in violations if v.check == check]
                detail = "; ".join(f"{v.subject}: {v.message}" for v in relevant)
                report(check, not relevant, detail)
            clean = not violations and balanced and connected
            if clean and doc.basepoint is not None:
                try:
                    decorate(m, doc.basepoint)
                    report("basepoint", True)
                except DiagramError as exc:
                    report("basepoint", False, str(exc))
    print(f"result={'ok' if failures == 0 else 'fail'}")
    return 0 if failures == 0 else 1


def _cmd_trees(args) -> int:
    doc = load_document(args.file)
    trees = enumerate_trees(doc.graph, args.root, force=args.force)
    total = 0
    for tree in trees:
        w = tree_weight(doc.graph, tree)
        total += w
        if args.list:
            print(f"tree: {' '.join(tree.sorted_edges())} weight={w}")
    print(f"count={len(trees)}")
    print(f"weighted={total}")
    return 0


def _cmd_count(args) -> int:
    doc = load_document(args.file)
    g = doc.graph
    if args.root is None:
        if not is_balanced(g):
            return _fail_usage("count requires --root on an unbalanced graph")
        root = g.vertices[0]
    else:
        root = args.root
    if args.method in ("enum", "all"):
        enum = count_by_enumeration(g, root, force=args.force)
        print(f"enum={enum}")
    if args.method in ("det", "all"):
        det = balanced_count(g) if args.root is None else count_by_determinant(g, root)
        print(f"det={det}")
    if args.method == "all":
        agree = enum == det
        print(f"agree={'true' if agree else 'false'}")
        return 0 if agree else 1
    return 0


def _cmd_laplacian(args) -> int:
    doc = load_document(args.file)
    for row in laplacian(doc.graph):
        print(" ".join(str(x) for x in row))
    return 0


def _cmd_alexander(args) -> int:
    diagram = _diagram(args)
    poly = state_sum(diagram)
    print(str(poly))
    print(f"eval@1 = {poly.eval_one()}")
    return 0


def _cmd_states(args) -> int:
    diagram = _diagram(args)
    states = enumerate_states(diagram)
    for k, state in enumerate(states, start=1):
        print(f"state {k}:")
        for eid in sorted(state):
            print(f"{eid} -> {state[eid]}")
        print()
    print(f"count={len(states)}")
    return 0


def _cmd_bijection(args) -> int:
    diagram = _diagram(args)
    trees = enumerate_trees(diagram.map.graph, diagram.root, force=args.force)
    states = enumerate_states(diagram)
    verdicts = check_bijection(diagram, trees, states)
    print(f"root={diagram.root} trees={len(trees)} states={len(states)}")
    for tree, weight, ok in verdicts:
        print(
            f"tree: {' '.join(tree.sorted_edges())} -> "
            f"{'ok' if ok else 'MISMATCH'} weight={weight}"
        )
    ok = len(trees) == len(states) and all(ok for _, _, ok in verdicts)
    print(f"bijection={'ok' if ok else 'fail'}")
    return 0 if ok else 1


def _cmd_skein(args) -> int:
    doc = load_document(args.file)
    result = verify_skein_t1(doc.graph, args.edge_i, args.edge_j)
    print(f"N(G)={result.n}")
    print(f"N(G1)={result.n1}")
    print(f"N(G2)={result.n2}")
    print(f"residual={result.residual}")
    return 0 if result.holds else 1


def _cmd_subdivide_check(args) -> int:
    doc = load_document(args.file)
    g = doc.graph
    e = g.edge(args.edge)
    before = balanced_count(g)
    after = balanced_count(subdivide_edge(g, args.edge))
    ok = after == e.weight * before
    print(f"n={before}")
    print(f"n_subdivided={after}")
    print(f"edge_weight={e.weight}")
    print(f"ok={'true' if ok else 'false'}")
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    results = run_all(args.seed)
    all_ok = True
    for r in results:
        print(f"{r.name}: {r.passed}/{r.total}")
        for note in r.notes:
            print(f"  {note}")
        all_ok = all_ok and r.ok()
    print(f"selftest={'ok' if all_ok else 'fail'}")
    return 0 if all_ok else 1


@functools.cache  # built on the first call; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moytree",
        description=(
            "Exact spanning-tree counts and Kauffman state sums for "
            "balanced-weight directed multigraphs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run all validation checks on a file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("trees", help="enumerate spanning trees for a root")
    p.add_argument("file")
    p.add_argument("--root", required=True)
    p.add_argument("--list", action="store_true", help="print each tree")
    p.add_argument("--force", action="store_true", help="ignore the size guard")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("count", help="weighted tree count")
    p.add_argument("file")
    p.add_argument("--root")
    p.add_argument("--method", choices=("enum", "det", "all"), default="all")
    p.add_argument("--force", action="store_true", help="ignore the size guard")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("laplacian", help="print the weighted Laplacian")
    p.add_argument("file")
    p.set_defaults(func=_cmd_laplacian)

    p = sub.add_parser("alexander", help="state-sum polynomial of a diagram")
    p.add_argument("file")
    p.add_argument("--edge", help="basepoint override")
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("states", help="list the Kauffman states")
    p.add_argument("file")
    p.add_argument("--edge", help="basepoint override")
    p.set_defaults(func=_cmd_states)

    p = sub.add_parser("bijection", help="check the tree/state bijection")
    p.add_argument("file")
    p.add_argument("--edge", help="basepoint override")
    p.add_argument("--force", action="store_true", help="ignore the size guard")
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("skein", help="verify the t=1 skein identity")
    p.add_argument("file")
    p.add_argument("--edge-i", required=True)
    p.add_argument("--edge-j", required=True)
    p.set_defaults(func=_cmd_skein)

    p = sub.add_parser(
        "subdivide-check", help="verify counts scale under edge subdivision"
    )
    p.add_argument("file")
    p.add_argument("--edge", required=True)
    p.set_defaults(func=_cmd_subdivide_check)

    p = sub.add_parser("selftest", help="run the randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError, EnumerationLimitError) as exc:
        return _fail_usage(str(exc))
    except ValueError as exc:
        # covers unknown ids, bad flags, and structural misuse
        if isinstance(exc, (MapStructureError, DiagramError)):
            print(f"validation failed: {exc}", file=sys.stderr)
            return 1
        return _fail_usage(str(exc))
    except IdentityViolation as exc:
        print(f"identity violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
