"""moytree benchmark: seeded workloads through the public CLI, in process.

    python3 perfbench/run.py --workload det-count --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Each workload is one process, one thread and a closed loop with a single
client: the next command starts when the previous one has returned.  The
loop runs whole passes over the workload's command list, as many as fit
in ``--seconds`` but at least three, and checks every output against a
reference computed before the loop.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes untraced and then traced, and prints the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See NOTES.md for what each metric is predicted to move.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import BUILDERS, COUNTS_ANSWERED, KINDS  # noqa: E402

MODULES = ("cli", "generate", "graph", "graphfile", "kauffman", "laurent", "planar", "skein", "spanning")
SETUPS = 9  # set-up repeats per run; setup_s is their median
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
MIN_PASSES = 3  # medians over passes need three to shed one bad pass
# spans whose self time is reported as "<span>.s"
LAYER_SPANS = (
    "graphfile.parse_document",
    "graph.build",
    "graph.checks",
    "planar.map_build",
    "planar.faces",
    "planar.validate_map",
    "planar.decorate",
    "spanning.laplacian",
    "spanning.det_bareiss",
    "spanning.count",
    "spanning.enumerate_trees",
    "laurent.mul",
    "laurent.add",
    "kauffman.enumerate_states",
    "kauffman.state_sum",
    "kauffman.state_weight",
    "kauffman.tree_to_state",
    "kauffman.state_to_tree",
    "skein.resolve",
    "skein.verify_skein_t1",
)


def import_moytree() -> SimpleNamespace:
    """A fresh import of every moytree module, so each set-up pays it."""
    for name in [m for m in sys.modules if m == "moytree" or m.startswith("moytree.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"moytree.{m}") for m in MODULES})


@dataclass
class Setup:
    mods: SimpleNamespace
    instances: list
    seconds: list[float]  # each repeat's set-up time


def set_up(workload, seed, workdir, tiny=False, tracer=None) -> Setup:
    """Import, build and write the instances SETUPS times, each repeat into
    a fresh directory; every repeat must write byte-identical files."""
    seconds, texts = [], None
    for k in range(SETUPS):
        gc.collect()  # the previous repeat's garbage is not this one's cost
        start = PROCESS_START if k == 0 else perf_counter()
        into = workdir / str(k)
        into.mkdir()
        mods = import_moytree()
        if tracer is not None:
            tracer.install(mods, tracing.GENERATE_SPANS, hot=False)
        try:
            instances = BUILDERS[workload](random.Random(seed), mods, tiny)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for inst in instances:
            inst.path = str(into / f"{inst.name}.json")
            Path(inst.path).write_text(inst.text, encoding="utf-8")
        seconds.append(perf_counter() - start)
        if texts is not None and texts != [i.text for i in instances]:
            raise RuntimeError("set-up is not deterministic for one seed")
        texts = [i.text for i in instances]
    return Setup(mods, instances, seconds)


@dataclass
class Outcome:
    kind: str
    latency: float  # seconds
    reason: str | None  # why it failed; None when verified


def run_command(mods, inst, cmd) -> tuple[float, int | None, str, str]:
    argv = [a.replace("{file}", inst.path) for a in cmd.argv]
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mods.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a bug surfacing through main: record, keep going
        rc = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    return perf_counter() - start, rc, out.getvalue(), err.getvalue()


def failure_reason(cmd, expected, rc, out, err) -> str | None:
    """None for a verified command, else why it failed: the check's reason
    plus, after a nonzero exit, the first line of stderr."""
    reason = reference.check(cmd, expected, rc, out)
    first = err.strip().splitlines()[:1]
    if reason is not None and rc != 0 and first:
        reason = f"{reason}: {first[0]}"
    return reason


class Loop:
    """The closed loop over one workload's (instance, command) plan."""

    def __init__(self, mods, instances):
        self.mods = mods
        self.plan = [(inst, cmd) for inst in instances for cmd in inst.commands]
        self.expected = {id(inst): reference.expected_for(inst) for inst in instances}
        self.first_output: dict[int, int] = {}
        self.failures: list[tuple[str, str, str]] = []

    def check(self, k, inst, cmd, rc, out, err) -> str | None:
        reason = failure_reason(cmd, self.expected[id(inst)], rc, out, err)
        if reason is None and self.first_output.setdefault(k, hash(out)) != hash(out):
            reason = "output changed between passes"
        return reason

    def one_pass(self, tracer=None, request0=0) -> tuple[float, list[Outcome]]:
        """Run the plan once; the wall time excludes the collections."""
        outcomes = []
        start = perf_counter()
        collecting = 0.0
        for k, (inst, cmd) in enumerate(self.plan):
            # each command starts from a clean heap, as a fresh process
            # would, so garbage left by the previous command is not its cost
            before = perf_counter()
            gc.collect()
            collecting += perf_counter() - before
            if tracer is not None:
                tracer.begin(request0 + k, cmd.kind)
            latency, rc, out, err = run_command(self.mods, inst, cmd)
            reason = self.check(k, inst, cmd, rc, out, err)
            if reason is not None:
                self.failures.append((inst.name, " ".join(cmd.argv[:1]), reason))
            outcomes.append(Outcome(cmd.kind, latency, reason))
        return perf_counter() - start - collecting, outcomes

    def warm_up(self) -> None:
        """One command of each kind, smallest instance first, untimed."""
        seen = set()
        for inst, cmd in sorted(self.plan, key=lambda p: len(p[0].text)):
            if cmd.kind not in seen:
                seen.add(cmd.kind)
                run_command(self.mods, inst, cmd)

    def passes(self, seconds, tracer=None, count=None, minimum=1) -> tuple[list[float], list[Outcome]]:
        """Whole passes, count of them or as many as fill seconds (at least
        minimum); returns each pass's wall time and every outcome."""
        start = perf_counter()
        wall, outcomes = self.one_pass(tracer)
        walls = [wall]
        # size the run by elapsed time, collections and checks included
        elapsed = perf_counter() - start
        total = count if count is not None else max(minimum, round(seconds / elapsed))
        for p in range(1, total):
            took, more = self.one_pass(tracer, p * len(self.plan))
            walls.append(took)
            outcomes += more
        return walls, outcomes


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least TAIL_BEYOND of n
    samples above it; p50 when the run is too short."""
    return next((p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= TAIL_BEYOND), 50.0)


def end_to_end(setup, loop, seconds):
    walls, outcomes = loop.passes(seconds, minimum=MIN_PASSES)
    size = len(loop.plan)
    runs = [outcomes[k * size : (k + 1) * size] for k in range(len(walls))]
    # a failed command counts as slower than every completed one; the
    # run's wall time stands in for its latency so the JSON stays finite
    latencies = [
        sorted(o.latency if o.reason is None else sum(walls) for o in run_) for run_ in runs
    ]
    # fixed per workload: the percentile a run of MIN_PASSES passes allows
    pct = tail_percentile(MIN_PASSES * size)
    # every pass runs the same commands, so each pass is one replicate and
    # a metric is the median over passes: a pass slowed by something
    # outside the process does not move it
    metrics = {
        "setup_s": (statistics.median(setup.seconds), "s"),
        "goodput_ops_s": (
            statistics.median(sum(o.reason is None for o in r) / w for r, w in zip(runs, walls)),
            "1/s",
        ),
        "latency_p50_ms": (statistics.median(percentile(x, 50) for x in latencies) * 1e3, "ms"),
        "latency_tail_ms": (statistics.median(percentile(x, pct) for x in latencies) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    ok = [o for o in outcomes if o.reason is None]
    notes = [
        f"latency_tail_ms is p{pct:g}: {len(outcomes)} samples, median over {len(walls)} passes",
        f"failed {len(outcomes) - len(ok)} of {len(outcomes)} commands",
    ]
    return outcomes, metrics, notes


def per_layer(setup, loop, seconds, tracer):
    plain_walls, plain = loop.passes(seconds / 2)
    tracer.install(setup.mods)
    try:
        traced_walls, traced = loop.passes(0, tracer, count=len(plain_walls))
    finally:
        tracer.uninstall()

    per_pass = 1 / len(plain_walls)
    metrics = {}
    for kind in KINDS:
        times = sorted(o.latency for o in plain if o.kind == kind)
        metrics[f"cli.{kind}.p50_ms"] = (percentile(times, 50) * 1e3 if times else 0.0, "ms")

    def seconds_of(span):
        return tracer.self_ns[span] / 1e9 * per_pass

    metrics["cli.self_s"] = (seconds_of("cli.main"), "s")
    for span in LAYER_SPANS:
        metrics[f"{span}.s"] = (seconds_of(span), "s")
    metrics["generate.s"] = (tracer.self_ns["generate"] / 1e9 / SETUPS, "s")

    def calls(name):
        return tracer.calls[name] * per_pass

    def count(name, kind=None):
        return tracer.total(name, kind) * per_pass

    def ratio(a, b):
        return a / b if b else 0.0

    commands = {kind: sum(1 for _, c in loop.plan if c.kind == kind) for kind in KINDS}
    dets = count("spanning.det_bareiss.calls")
    answered = sum(COUNTS_ANSWERED.get(k, 0) * n for k, n in commands.items())
    states, nodes = count("kauffman.states"), count("kauffman.search_nodes")
    pairs, terms = count("laurent.mul.term_pairs"), count("laurent.mul.result_terms")
    muls = calls("laurent.mul")
    for name, value, unit in (
        ("graphfile.bytes", count("graphfile.bytes"), "B"),
        ("planar.darts", count("planar.darts"), "count"),
        ("planar.faces", count("planar.faces"), "count"),
        ("spanning.laplacian.calls", calls("spanning.laplacian"), "count"),
        ("spanning.det_bareiss.calls", dets, "count"),
        ("spanning.det_bareiss.n", ratio(count("spanning.det_bareiss.n"), dets), "rows"),
        ("spanning.result_bits", ratio(count("spanning.result_bits"), dets), "bits"),
        ("spanning.trees", count("spanning.trees"), "count"),
        ("spanning.det_per_count", ratio(dets, answered), "ratio"),
        ("spanning.det_per_count.noroot", ratio(count("spanning.det_bareiss.calls", "count"), commands["count"]), "ratio"),
        ("spanning.det_per_count.root", ratio(count("spanning.det_bareiss.calls", "count_root"), commands["count_root"]), "ratio"),
        ("laurent.mul.calls", muls, "count"),
        ("laurent.mul.term_pairs", pairs, "count"),
        ("laurent.span", ratio(count("laurent.span"), muls), "exponent"),
        ("laurent.coeff_bits", ratio(count("laurent.coeff_bits"), muls), "bits"),
        ("laurent.pairs_per_term", ratio(pairs, terms), "ratio"),
        ("kauffman.states", states, "count"),
        ("kauffman.search_nodes", nodes, "count"),
        ("kauffman.states_per_node", ratio(states, nodes), "ratio"),
        ("trace_overhead_frac", sum(traced_walls) / sum(plain_walls) - 1, "ratio"),
    ):
        metrics[name] = (value, unit)
    return metrics, plain + traced


def over_depth_probe(setup, loop):
    """Run each probe command once, untraced and untimed; report failures
    with their reasons on stderr."""
    attempted = failed = 0
    for inst in setup.instances:
        for cmd in inst.probe:
            attempted += 1
            _, rc, out, err = run_command(setup.mods, inst, cmd)
            reason = failure_reason(cmd, loop.expected[id(inst)], rc, out, err)
            if reason is not None:
                failed += 1
                print(f"over-depth probe: {inst.name} {cmd.argv[0]}: {reason}", file=sys.stderr)
    notes = [f"over-depth probe: {failed} of {attempted} commands failed"] if attempted else []
    return {"probe.over_depth.failed": (failed, "count")}, notes


def run(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns the result object, human-readable notes
    and the tracer (None when untraced)."""
    workroot = HERE / ".work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=workroot))
    try:
        tracer = tracing.Tracer() if trace else None
        setup = set_up(workload, seed, workdir, tiny, tracer)
        loop = Loop(setup.mods, setup.instances)
        loop.warm_up()
        if trace:
            metrics, outcomes = per_layer(setup, loop, seconds, tracer)
            probe_metrics, probe_notes = over_depth_probe(setup, loop)
            metrics.update(probe_metrics)
            notes = [f"{len(tracer.spans)} spans recorded"] + probe_notes
        else:
            outcomes, metrics, notes = end_to_end(setup, loop, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for o in outcomes if o.reason is not None)
    for name, cmd, reason in sorted(set(loop.failures)):
        print(f"failed: {name} {cmd}: {reason}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes, tracer


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "moytree" / "cli.py").is_file():
        print(f"error: no moytree sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result, notes, _ = run(args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
