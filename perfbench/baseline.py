"""One-off report: the ROADMAP baseline rows, measured through the harness.

    python3 perfbench/baseline.py --seed 1

Each row runs a CLI command in process, as the benchmark does, checks its
output against the reference and prints the median of three runs as a
Markdown table.  The instances are built by the benchmark's own builders,
so they match the ROADMAP rows in size, not edge for edge.
"""

from __future__ import annotations

import argparse
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import run
from workloads import Command, Instance, dense_balanced, dense_map

REPEATS = 3


def measure(mods, inst, cmd) -> float:
    exp = run.reference.expected_for(inst)
    times = []
    for _ in range(REPEATS):
        seconds, rc, out, err = run.run_command(mods, inst, cmd)
        reason = run.reference.check(cmd, exp, rc, out)
        if reason is not None:
            raise SystemExit(f"{inst.name} {cmd.kind}: {reason} {err.strip()[:200]}")
        times.append(seconds)
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    seed = p.parse_args(argv).seed
    sys.path.insert(0, str(run.ROOT / "src"))
    mods = run.import_moytree()
    rng = random.Random(seed)
    (run.HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="baseline-", dir=run.HERE / ".work"))
    rows = []

    def add(what, size, inst, cmd):
        inst.path = str(workdir / f"{inst.name}.json")
        Path(inst.path).write_text(inst.text, encoding="utf-8")
        rows.append((what, size, measure(mods, inst, cmd)))

    try:
        # n=80 with 40 walks lands near the ROADMAP's E=238
        g = dense_balanced(rng, mods.graph, 80, walks=40)
        inst = Instance("det-80", mods.graphfile.document_text(g), [])
        size = f"n=80, E={len(g.edges)}"
        root = Command("count_root", ("count", "{file}", "--method", "det", "--root", "v0"), {"root": "v0"})
        inst.commands = [root]
        add("`count --method det --root` (one determinant)", size, inst, root)
        add("`count --method det` (`balanced_count`, n determinants)", size, inst,
            Command("count", ("count", "{file}", "--method", "det")))

        m, bp = dense_map(rng, mods.generate, 32)
        inst = Instance("dense-32", mods.graphfile.map_text(m, bp), [])
        exp = run.reference.expected_for(inst)
        add("`alexander` (state sum by enumeration)", f"prism plus nested doublings, E=32, {exp.unit} states",
            inst, Command("alexander", ("alexander", "{file}")))

        for w in (1000, 2000, 4000):
            m = mods.generate.seed_cycle(3, w)
            inst = Instance(f"cycle3-{w}", mods.graphfile.map_text(m, "e0"), [], cycle=(3, w))
            add("`alexander`", f"3-cycle, every weight {w}", inst, Command("alexander", ("alexander", "{file}")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("| what | size | median of 3 |")
    print("| --- | --- | --- |")
    for what, size, seconds in rows:
        print(f"| {what} | {size} | {seconds:.4f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
