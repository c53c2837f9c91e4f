"""Print one line per output of the demos and the README's CLI runs.

Runs ``demos/01`` to ``demos/05`` and the command lines of the README's
command-line section (plus ``simulate`` as JSON and ``optimize``) against
the package under ``src/`` of a checkout. Every run's stdout is one output,
and so is every file it writes through ``--out`` or ``--hist-out``. All
runs work in a temporary directory, so nothing is written into a tree.

Usage, from the repository root:

    python tools/outputs.py                   # name sha256, one line each
    python tools/outputs.py --against TREE    # compare with another checkout

``--against`` runs every output in this checkout and in TREE and prints,
per output, ``identical`` or the largest relative difference over its
numbers, |a - b| / max(|a|, |b|). The text between the numbers must match,
and so must their count. It exits 1 when an output's text differs or a
number moved by more than 1e-9 relative.

Either mode exits 1, after printing every line, when a run exits nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REL_TOL = 1e-9

SQ3 = "1.7320508075688772"
LAW = f"normal:10,{SQ3}"
LAW2 = "normal:20,2.23606797749979"

MEASURES = {
    "msd.json": {"kind": "mean_semideviation", "kappa": 0.5, "p": 2.0},
    "ho.json": {"kind": "higher_order", "c": 20.0, "p": 2.0},
    "sys.json": {"kind": "systemic", "weights": [0.5, 0.5],
                 "outer": {"kind": "mean_semideviation", "kappa": 0.5, "p": 2.0},
                 "components": [{"kind": "higher_order", "c": 20.0, "p": 2.0},
                                {"kind": "higher_order", "c": 20.0, "p": 2.0}]},
}

# name -> (CLI arguments, files the run writes)
CLI_RUNS = {
    "estimate": (["estimate", "--measure", "msd.json", "--law", LAW,
                  "--n", "200", "--seed", "7"], []),
    "simulate-csv": (["simulate", "--measure", "msd.json", "--law", LAW,
                      "--n", "200", "--replications", "1000", "--seed", "3",
                      "--format", "csv", "--out", "estimates.csv",
                      "--hist-out", "hist.csv", "--bins", "24"],
                     ["estimates.csv", "hist.csv"]),
    "simulate-json": (["simulate", "--measure", "msd.json", "--law", LAW,
                       "--n", "200", "--replications", "1000", "--seed", "3"], []),
    "optimize": (["optimize", "--measure", "ho.json", "--law", LAW,
                  "--n", "200", "--replications", "1000", "--seed", "3"], []),
    "compare": (["compare", "--measure", "ho.json", "--law", LAW, "--law2", LAW2,
                 "--n", "200", "--replications", "1000", "--seed", "5",
                 "--kernel", "uniform"], []),
    "systemic": (["systemic", "--measure", "sys.json", "--law", f"{LAW}*{LAW2}",
                  "--n", "200", "--replications", "1000", "--seed", "5",
                  "--kernel", "uniform", "--bandwidth", "power:20.6,0.51"], []),
    "check-identity": (["check-identity", "--kernel", "uniform",
                        "--bandwidth", "power:1,0.6", "--order", "2"], []),
}

# a decimal number, split out of the text around it
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def collect(root: Path) -> tuple[dict[str, bytes | None], int]:
    """Every output of the checkout at ``root``, by name (None for a file a
    run did not write), and the number of runs that exited nonzero."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    runs = [(demo.stem, [str(demo)], [])
            for demo in sorted((root / "demos").glob("0[1-5]_*.py"))]
    runs += [(f"cli-{name}", ["-m", "nestedrisk.cli", *args], files)
             for name, (args, files) in CLI_RUNS.items()]
    outputs, failed = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in MEASURES.items():
            Path(tmp, name).write_text(json.dumps(doc), encoding="utf-8")
        for name, args, files in runs:
            proc = subprocess.run([sys.executable, *args], cwd=tmp, env=env,
                                  capture_output=True)
            if proc.returncode != 0:
                failed += 1
                print(f"{root} {name}: exit {proc.returncode}\n{proc.stderr.decode()}",
                      file=sys.stderr)
            outputs[f"{name}.stdout"] = proc.stdout
            for f in files:
                path = Path(tmp, f)
                outputs[f"{name}:{f}"] = path.read_bytes() if path.exists() else None
    return outputs, failed


def max_rel_diff(a: str, b: str) -> float | None:
    """Largest |x - y| / max(|x|, |y|) over the paired numbers of two texts,
    or None when the text around the numbers, or their count, differs."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return None
    worst = 0.0
    for x, y in zip(pa[1::2], pb[1::2]):
        fx, fy = float(x), float(y)
        if fx != fy:
            worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, metavar="TREE",
                    help="another checkout to compare every output with")
    args = ap.parse_args(argv)

    if args.against is None:
        outputs, failed = collect(ROOT)
        for name, data in outputs.items():
            digest = "missing" if data is None else hashlib.sha256(data).hexdigest()
            print(f"{name} {digest}")
        return 1 if failed else 0

    ours, failed = collect(ROOT)
    theirs, failed_there = collect(args.against.resolve())
    moved = 0
    for name in list(ours) + [name for name in theirs if name not in ours]:
        a, b = ours.get(name), theirs.get(name)
        if a == b:
            verdict = "identical"
        elif a is None or b is None:
            verdict, moved = "missing on one side", moved + 1
        else:
            diff = max_rel_diff(a.decode(), b.decode())
            if diff is None or diff > REL_TOL:
                moved += 1
            verdict = "text differs" if diff is None else f"max_rel_diff {diff:.3g}"
        print(f"{name} {verdict}")
    return 1 if failed or failed_there or moved else 0


if __name__ == "__main__":
    sys.exit(main())
