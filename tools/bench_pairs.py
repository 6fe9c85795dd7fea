"""Alternating parent/change pairs of perfbench runs, as BENCH_<pr>.json.

Each side is a `git archive` of its commit, unpacked under --work, with
its bytecode compiled before the first run, so `setup_s` times the import
of cached bytecode on both sides.  Pair i runs seed i on both sides: the
parent first on odd seeds, the change first on even seeds.  Every run is

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

from the side's checkout, for each workload W of BENCHMARK.json and its
run_seconds S, so both sides use their own benchmark code; compare only
commits whose perfbench/ is the same.  For each workload and end-to-end
metric of BENCHMARK.json the file records every run in
seed order, the median and quartiles of each side, the change's pairs
won (ties count for neither side) and the median's change in percent.
With --traced, TRACED_RUNS traced seed-0 runs per side, alternating
which side runs first, add the per-layer figures: their result lines',
and every other layer they measured (such as analysis.export_s or
reference.integrate_s), read from the all_metrics of the side's
.perfbench_out/W/result-seed0-trace1.json after each run.  Each layer
records its runs and their median as its value.  The file is rewritten
after every pair and every traced run, so an interrupted set keeps the
pairs and traced runs it finished.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 11 \\
        --pairs 10 --work /tmp/bench
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACED_RUNS = 3  # one traced run's layer times spread by tens of percent


def checkout(rev, dest):
    """Unpack the commit rev into dest and compile its bytecode."""
    if not dest.exists():
        tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
        dest.mkdir(parents=True)
        with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
            fh.extractall(dest, filter="data")
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        "perfbench"], cwd=dest, check=True)
    return dest


def run(tree, workload, seed, seconds, trace):
    """The JSON result line of one perfbench run in tree."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def traced(tree, workload, seconds):
    """The per-layer metrics of one traced seed-0 run in tree: those of
    its result line, with their units, then the other layers of its
    result file's all_metrics."""
    metrics = run(tree, workload, 0, seconds, 1)["metrics"]
    path = tree / ".perfbench_out" / workload / "result-seed0-trace1.json"
    layers = json.loads(path.read_text())["all_metrics"]
    return {**metrics, **{name: {"value": value} for name, value
                          in layers.items() if name not in metrics}}


def layer_medians(runs):
    """Each layer of the traced runs, its value the median of theirs."""
    return {name: {**entry, "value": statistics.median(
                       r[name]["value"] for r in runs),
                   "runs": [r[name]["value"] for r in runs]}
            for name, entry in runs[0].items()}


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": runs}


def workload_record(results, metrics):
    """The pairs of one workload: results[side] lists each run's result."""
    rec = {"pairs": len(results["parent"]),
           "operations_attempted": {s: [r["attempted"] for r in results[s]]
                                    for s in SIDES},
           "operations_failed": {s: [r["failed"] for r in results[s]]
                                 for s in SIDES},
           "metrics": {}}
    for name, better in metrics.items():
        runs = {s: [r["metrics"][name]["value"] for r in results[s]]
                for s in SIDES}
        sign = -1.0 if better == "lower" else 1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(*runs.values()))
        entry = {"better": better}
        if len(runs["parent"]) >= 2:
            entry.update({s: summary(runs[s]) for s in SIDES})
            p, c = (entry[s]["median"] for s in SIDES)
            entry["median_change_pct"] = 100.0 * (c / p - 1.0)
        else:
            entry.update({s: {"runs": runs[s]} for s in SIDES})
        entry["change_better_pairs"] = won
        rec["metrics"][name] = entry
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", required=True, help="changed commit")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--traced", action="store_true",
                    help=f"add {TRACED_RUNS} traced seed-0 runs per side"
                         " and workload")
    ap.add_argument("--work", type=Path, required=True,
                    help="directory for the two checkouts")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    revs = {"parent": args.parent, "change": args.change}
    commits = {s: subprocess.run(["git", "rev-parse", "--short", rev],
                                 cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout.strip()
               for s, rev in revs.items()}
    trees = {s: checkout(commits[s], args.work / commits[s]) for s in SIDES}
    out = ROOT / f"BENCH_{args.pr}.json"
    doc = {"pr": args.pr, **commits,
           "machine": {"python": platform.python_version(),
                       "numpy": np.__version__, "machine": platform.machine(),
                       "kernel": platform.release()},
           "command": (f"python3 perfbench/run.py --workload W --seed N"
                       f" --seconds {seconds:g} --trace 0"),
           "pairs": ("seed i on both sides for pair i; parent first on odd"
                     " seeds, change first on even seeds; each side a git"
                     " archive of its commit with its bytecode compiled"
                     " beforehand; every runs list is in seed order"),
           "workloads": {}}
    results = {w["name"]: {s: [] for s in SIDES} for w in bench["workloads"]}
    for seed in range(1, args.pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload, res in results.items():
            for side in order:
                res[side].append(run(trees[side], workload, seed, seconds, 0))
                print(f"{workload} seed {seed} {side}:"
                      f" {res[side][-1]['metrics']}", flush=True)
            doc["workloads"][workload] = workload_record(res, metrics)
            out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.traced:
        runs = {w: {s: [] for s in SIDES} for w in results}
        for i in range(TRACED_RUNS):
            for workload, res in runs.items():
                for side in SIDES[::-1] if i % 2 else SIDES:
                    res[side].append(traced(trees[side], workload, seconds))
                    doc["traced_seed_0"] = {
                        w: {s: layer_medians(r[s]) for s in SIDES if r[s]}
                        for w, r in runs.items() if any(r.values())}
                    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
