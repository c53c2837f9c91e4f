"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at self-test size (``--tiny``), with
and without spans, and checks the result line: exactly the contract's keys,
correct outputs, no failed replication, and every metric BENCHMARK.json
names for that mode emitted with its unit and a finite value. Then checks
that the benchmark exits non-zero without a result in a directory holding
only BENCHMARK.json and the benchmark's own files. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT

KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_problems(out, want: dict) -> list[str]:
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr.strip()[-500:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metrics {got} != {want}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} value {m.get('value')!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[kind]}
            found = result_problems(run(ROOT, wl["name"], trace), want)
            problems += [f"{wl['name']} trace={trace}: {p}" for p in found]
            print(f"{wl['name']:16s} trace={trace} {'ok' if not found else 'FAIL'}")

    with tempfile.TemporaryDirectory(prefix=".bench_selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run(tmp, spec["workloads"][0]["name"], 0)
        bare_ok = out.returncode != 0 and not out.stdout.strip()
        print(f"{'bare directory':16s} {'ok' if bare_ok else 'FAIL'} (exit {out.returncode})")
        if not bare_ok:
            problems.append("the benchmark ran without the library sources")

    for p in problems:
        print("problem:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
