"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py --seed 7

For every workload it asserts that one seed writes byte-identical
instance files, that every command passes its reference check in both
the untraced and the traced run, that the checks reject a corrupted
output, that spans nest inside their parents, and that the metric names
emitted are exactly those declared in BENCHMARK.json.  Exits 0 on
success; an assertion error names what broke.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import BUILDERS


def corrupt(out: str) -> str:
    """Change the last integer of an output, or its last verdict."""
    numbers = list(re.finditer(r"\d+", out))
    if numbers:
        m = numbers[-1]
        return out[: m.start()] + str(int(m.group()) + 1) + out[m.end() :]
    head, sep, rest = out.rpartition("=ok")
    assert sep, "nothing to corrupt"
    return head + "=fail" + rest


def check_spans(tracer) -> None:
    spans = tracer.spans
    for sid, parent, request, name, start, end in spans:
        assert start <= end, name
        if parent >= 0:
            _, _, p_request, p_name, p_start, p_end = spans[parent]
            assert p_request == request, f"{name} and parent {p_name} differ in request"
            assert p_start <= start and end <= p_end, f"{name} outside {p_name}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    seed = p.parse_args(argv).seed
    sys.path.insert(0, str(run.ROOT / "src"))
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"] for m in declared["end_to_end"]},
        1: {m["name"] for m in declared["per_layer"]},
    }
    assert {w["name"] for w in declared["workloads"]} == set(BUILDERS)

    (run.HERE / ".work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.HERE / ".work"))
    try:
        for workload in sorted(BUILDERS):
            dirs = [scratch / f"{workload}-{k}" for k in range(2)]
            texts = []
            for d in dirs:
                d.mkdir()
                setup = run.set_up(workload, seed, d, tiny=True)
                texts.append([i.text for i in setup.instances])
            assert texts[0] == texts[1], f"{workload}: same seed, different files"

            loop = run.Loop(setup.mods, setup.instances)
            for inst, cmd in loop.plan:
                _, rc, out, _ = run.run_command(setup.mods, inst, cmd)
                exp = loop.expected[id(inst)]
                assert run.reference.check(cmd, exp, rc, out) is None, (workload, inst.name, cmd.kind)
                assert run.reference.check(cmd, exp, rc, corrupt(out)) is not None, (
                    f"{workload} {inst.name} {cmd.kind}: corrupted output passed"
                )

            for trace in (0, 1):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    result, _, tracer = run.run(workload, seed, 0, trace, tiny=True)
                assert result["correct"] and result["failed"] == 0, (workload, trace, result)
                assert set(result["metrics"]) == names[trace], (
                    workload,
                    trace,
                    set(result["metrics"]) ^ names[trace],
                )
                if trace:
                    check_spans(tracer)
            print(f"{workload}: ok ({len(loop.plan)} commands)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke=ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
