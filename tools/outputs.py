"""Print one ``name sha256`` line per output of the demos and the README's CLI runs.

Runs ``demos/01`` to ``demos/05`` and the command lines of the README's
command-line section (plus ``simulate`` as JSON and ``optimize``) against
the package under ``src/`` of this checkout. Every run's stdout is one
output, and so is every file it writes through ``--out`` or ``--hist-out``.
All runs work in a temporary directory, so nothing is written into the
repository.

Usage, from the repository root of each tree to compare:

    python tools/outputs.py > a.txt      # on one tree
    python tools/outputs.py > b.txt      # on the other
    diff a.txt b.txt

Exits 1, after printing every line, when a run exits nonzero.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    runs = [(demo.stem, [str(demo)], [])
            for demo in sorted((ROOT / "demos").glob("0[1-5]_*.py"))]
    runs += [(f"cli-{name}", ["-m", "nestedrisk.cli", *args], files)
             for name, (args, files) in CLI_RUNS.items()]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in MEASURES.items():
            Path(tmp, name).write_text(json.dumps(doc), encoding="utf-8")
        for name, args, files in runs:
            proc = subprocess.run([sys.executable, *args], cwd=tmp, env=env,
                                  capture_output=True)
            if proc.returncode != 0:
                failed += 1
                print(f"{name}: exit {proc.returncode}\n{proc.stderr.decode()}",
                      file=sys.stderr)
            print(f"{name}.stdout {_sha(proc.stdout)}", flush=True)
            for f in files:
                path = Path(tmp, f)
                digest = _sha(path.read_bytes()) if path.exists() else "missing"
                print(f"{name}:{f} {digest}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
