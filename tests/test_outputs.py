"""Every benchmark and demo command's exit code and output, pinned.

``outputs.json`` holds one entry per command: every timed and probe
command of the four benchmark workloads at seeds 1-3, with the other
``--force`` form of each ``states`` and ``bijection``, and the ten
diagram and count commands on the demo file.  An entry is the exit code
and 16-hex sha256 digests of stdout, stderr and the instance text.  The
instances come from the builders in ``perfbench/workloads.py``, and the
commands run in process through ``cli.main``.

After a change that alters an output on purpose, rewrite the file with

    PYTHONPATH=src python tests/test_outputs.py --rewrite

and name each changed key, and why, in the change's notes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from moytree import cli, generate, graph, graphfile, planar

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("outputs.json")
SEEDS = (1, 2, 3)
DEMO = "data/lens_triangle.json"
DEMO_COMMANDS = (
    ("count", DEMO),
    ("count", DEMO, "--method", "det"),
    ("skein", DEMO, "--edge-i", "e12", "--edge-j", "e23"),
    ("subdivide-check", DEMO, "--edge", "e12"),
    ("trees", DEMO, "--root", "v1", "--list"),
    ("laplacian", DEMO),
    ("validate", DEMO),
    ("alexander", DEMO),
    ("states", DEMO),
    ("bijection", DEMO),
)
# commands whose --force changes the path: it skips the state-count guard
FORCE_TOGGLED = ("states", "bijection")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("workloads", module)
    spec.loader.exec_module(module)
    return module


def _run(argv: list[str], path: str, text: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {
        "rc": rc,
        "stdout": _digest(out.getvalue().replace(path, "{file}")),
        "stderr": _digest(err.getvalue().replace(path, "{file}")),
        "instance": _digest(text),
    }


def _commands(inst) -> list[tuple[str, ...]]:
    argvs = [cmd.argv for cmd in inst.commands + inst.probe]
    for argv in list(argvs):
        if argv[0] in FORCE_TOGGLED:
            other = argv[:-1] if argv[-1] == "--force" else argv + ("--force",)
            if other not in argvs:
                argvs.append(other)
    return argvs


def outputs(workdir: Path) -> dict[str, dict]:
    """Every pinned command's entry, keyed by workload, seed, instance
    and argv with ``{file}`` standing for the instance path."""
    workloads = _workloads()
    mods = SimpleNamespace(graph=graph, graphfile=graphfile, generate=generate, planar=planar)
    entries = {}
    for workload, build in workloads.BUILDERS.items():
        for seed in SEEDS:
            for inst in build(random.Random(seed), mods):
                path = str(workdir / f"{inst.name}.json")
                Path(path).write_text(inst.text, encoding="utf-8")
                for argv in _commands(inst):
                    key = f"{workload} seed={seed} {inst.name}: {' '.join(argv)}"
                    entries[key] = _run([a.replace("{file}", path) for a in argv], path, inst.text)
    demo = str(ROOT / DEMO)
    text = Path(demo).read_text(encoding="utf-8")
    for argv in DEMO_COMMANDS:
        entries[f"demo: {' '.join(argv)}"] = _run(
            [demo if a == DEMO else a for a in argv], demo, text
        )
    return entries


def _manifest_text(entries: dict[str, dict]) -> str:
    lines = (f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_every_pinned_output_is_unchanged(tmp_path):
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    entries = outputs(tmp_path)
    differ = [k for k in {**pinned, **entries} if pinned.get(k) != entries.get(k)]
    assert not differ, f"{len(differ)} outputs differ from {MANIFEST.name}:\n" + "\n".join(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rewrite", action="store_true", help=f"rewrite {MANIFEST.name}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        entries = outputs(Path(workdir))
    if args.rewrite:
        MANIFEST.write_text(_manifest_text(entries), encoding="utf-8")
        print(f"wrote {len(entries)} entries to {MANIFEST}")
    else:
        print(f"{len(entries)} entries; pass --rewrite to write them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
