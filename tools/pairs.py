"""Paired benchmark runs of a parent and a change, from fresh exports.

    python tools/pairs.py --parent REV [--change REV] --pairs N --seconds S
                          [--first-seed K] [--claim WORKLOAD:METRIC]
                          [--trace] [--workdir DIR] [--out FILE]

Exports each side into a work directory, with ``git archive`` for a
revision or, without ``--change``, as a copy of the working tree's tracked
and unignored files, and byte-compiles ``src`` and ``bench`` there, so both
sides run from fresh ``.pyc``. For every workload of ``BENCHMARK.json`` it
runs ``bench/run.py --seconds S`` on both sides at seeds K..K+N-1, one pair
per seed; the parent goes first on even pairs and the change on odd ones.

It prints, per workload and end-to-end metric, each side's q1/median/q3
over the pairs, the pairs the change won, the parent's IQR/median and a
verdict against the metric's bound in ``BENCHMARK.json``: ``worse beyond
bound`` when the change's median is worse than the parent's by more than the
bound; otherwise ``unresolved`` when either side's IQR/median exceeds it,
unless every run of the change beats every run of the parent. It also
compares the share of failed replications. ``--claim`` checks a claimed
gain: the change wins at least 9 of 10 pairs and its median beats the
parent's by more than the parent's IQR. ``--trace`` adds one ``--trace 1``
run per side and workload at seed K. ``--out`` writes everything as JSON.

The exports are the only files it writes besides ``--out``; it reads
``bench/`` and ``BENCHMARK.json`` and edits neither. Exits 1 when a run
fails, is not correct, a metric is worse beyond its bound or a claim is not
met.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9           # a claimed gain wins at least 9 of 10 pairs


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def export(rev: str | None, dest: Path) -> str:
    """Write the tree of ``rev`` (the working tree when None) to ``dest``,
    byte-compile it, and return the commit it came from."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev is None:
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, files.split("\0")):
            if (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        label = git("rev-parse", "HEAD").strip() + " + working tree"
    else:
        archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
        label = git("rev-parse", rev).strip()
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=dest, check=True, stdout=subprocess.DEVNULL)
    return label


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``bench/run.py`` run; its result line, with the ``detail``
    record's environment, or the exit code and error on failure."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         timeout=10 * seconds + 600)
    if out.returncode != 0:
        return {"exit": out.returncode, "error": out.stderr.strip()[-800:]}
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2])["detail"]["env"]
    return result


def quartiles(values: list[float]) -> list[float]:
    return [float(v) for v in np.percentile(values, [25, 50, 75])]


def summarize(pairs: list[dict], metric: dict) -> dict:
    """Quartiles of both sides, the change's wins and the verdict for one
    end-to-end metric over a workload's pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    sides = {s: [p[s]["metrics"][name]["value"] for p in pairs]
             for s in ("parent", "change")}
    q = {s: quartiles(v) for s, v in sides.items()}
    spread = {s: (q[s][2] - q[s][0]) / q[s][1] for s in q}
    rel = (q["change"][1] - q["parent"][1]) / q["parent"][1]
    worse = rel if lower else -rel
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(sides["parent"], sides["change"]))
    all_better = (max(sides["change"]) < min(sides["parent"]) if lower
                  else min(sides["change"]) > max(sides["parent"]))
    if worse > metric["bound"]:
        verdict = "worse beyond bound"
    elif max(spread.values()) > metric["bound"] and not all_better:
        verdict = "unresolved: spread above bound"
    else:
        verdict = "within bound"
    return {"parent_q1_median_q3": q["parent"], "change_q1_median_q3": q["change"],
            "parent_iqr_over_median": spread["parent"],
            "change_iqr_over_median": spread["change"],
            "median_rel_change": rel, "change_wins": f"{wins}/{len(pairs)}",
            "bound": metric["bound"], "verdict": verdict}


def claim_check(workload: str, metric: dict, pairs: list[dict]) -> dict:
    """A claimed gain holds when the change wins at least 9 of 10 pairs and
    the medians differ, in its favour, by more than the parent's IQR."""
    s = summarize(pairs, metric)
    wins, count = map(int, s["change_wins"].split("/"))
    pq, cq = s["parent_q1_median_q3"], s["change_q1_median_q3"]
    gain = pq[1] - cq[1] if metric["better"] == "lower" else cq[1] - pq[1]
    return {"workload": workload, "metric": metric["name"],
            "parent_median": pq[1], "change_median": cq[1],
            "median_rel_change": s["median_rel_change"],
            "parent_iqr": pq[2] - pq[0], "median_gain": gain,
            "change_wins": s["change_wins"],
            "met": wins >= WIN_SHARE * count and gain > pq[2] - pq[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", help="revision of the change side "
                                     "(default: the working tree)")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain")
    ap.add_argument("--trace", action="store_true",
                    help="one --trace 1 run per side and workload")
    ap.add_argument("--workdir", type=Path,
                    help="where the exports go (default: a temporary directory)")
    ap.add_argument("--out", type=Path, help="write the results as JSON here")
    args = ap.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in contract["workloads"]]
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    claim = None
    if args.claim:
        claim = tuple(args.claim.split(":", 1))
        if len(claim) != 2 or claim[0] not in workloads or claim[1] not in metrics:
            ap.error("--claim takes WORKLOAD:METRIC from BENCHMARK.json")

    work = args.workdir or Path(tempfile.mkdtemp(prefix="pairs-"))
    trees = {"parent": work / "parent", "change": work / "change"}
    revs = {"parent": export(args.parent, trees["parent"]),
            "change": export(args.change, trees["change"])}
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    ok = True
    report = {"sides": revs,
              "command": f"python3 bench/run.py --workload W --seed S "
                         f"--seconds {args.seconds:g} --trace 0",
              "protocol": "both sides exported fresh and byte-compiled once "
                          "(python -m compileall src bench); pair i runs both "
                          f"sides at seed {args.first_seed} + i, the parent "
                          "first on even i; workloads run one after another",
              "workloads": {}}
    for w in workloads:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], w, seed, args.seconds, 0)
                r = pair[side]
                print(f"{w} seed {seed} {side}: " + (
                    f"exit {r['exit']}" if "exit" in r else
                    " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                    + f" correct={r['correct']} failed={r['failed']}/{r['attempted']}"),
                    file=sys.stderr, flush=True)
            pairs.append(pair)
        done = [p for p in pairs if "exit" not in p["parent"] and "exit" not in p["change"]]
        if len(done) < len(pairs) or not all(p[s]["correct"] for p in done
                                             for s in ("parent", "change")):
            ok = False
        entry = {"pairs": pairs}
        if done:
            entry["summary"] = {m: summarize(done, metrics[m]) for m in metrics}
            entry["failed_share"] = {
                s: sum(p[s]["failed"] for p in done) / sum(p[s]["attempted"] for p in done)
                for s in ("parent", "change")}
            if entry["failed_share"]["change"] > entry["failed_share"]["parent"]:
                ok = False
            print(f"\n{w}: {len(done)} pairs, failed share parent "
                  f"{entry['failed_share']['parent']:.3g}, change "
                  f"{entry['failed_share']['change']:.3g}")
            for m, s in entry["summary"].items():
                ok &= not s["verdict"].startswith("worse")
                print(f"  {m:12s} parent {fmt(s['parent_q1_median_q3'])}  change "
                      f"{fmt(s['change_q1_median_q3'])}  {s['median_rel_change']:+.1%}  "
                      f"wins {s['change_wins']}  parent IQR/median "
                      f"{s['parent_iqr_over_median']:.3f}  {s['verdict']}")
            if claim and claim[0] == w:
                report["claim"] = claim_check(w, metrics[claim[1]], done)
                ok &= report["claim"]["met"]
                print(f"  claim {claim[1]}: {report['claim']}")
        report["workloads"][w] = entry
    if args.trace:
        report["traced"] = {w: {side: run_bench(trees[side], w, args.first_seed,
                                                args.seconds, 1)
                                for side in ("parent", "change")}
                            for w in workloads}
        for w, sides in report["traced"].items():
            print(f"\n{w} traced (per layer, parent -> change):")
            if any("exit" in r for r in sides.values()):
                ok = False
                print("  a traced run failed")
                continue
            for k, v in sides["parent"]["metrics"].items():
                print(f"  {k:32s} {v['value']:.4g} -> "
                      f"{sides['change']['metrics'][k]['value']:.4g} {v['unit']}")
    report["machine"] = {"python": platform.python_version(), "numpy": np.__version__,
                         "nproc": os.cpu_count()}
    report["passed"] = ok
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.workdir is None:
        shutil.rmtree(work)
    return 0 if ok else 1


def fmt(q: list[float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


if __name__ == "__main__":
    sys.exit(main())
