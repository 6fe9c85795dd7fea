"""Closed-loop benchmark of qpsjsim on the paper's transient scenarios.

    python3 perfbench/run.py --workload neuron --seed 0 --seconds 20 --trace 0

One client in one process runs one operation after another, each starting
when the previous one ends, while the last one's time still fits in
--seconds (at least one operation).  Every operation's outputs are
checked; a raised error or a failed check counts as a failed operation.
The operations run in a child process, which the benchmark pauses every
20 ms to sample the host's speed; their times are rescaled to a
reference host speed (speed.py).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced operations, reports the per-layer metrics of the fastest
traced one and the tracing overhead against the fastest untraced one, and
writes the spans out at the end.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report.
Full results, the environment stamp and spans go to .perfbench_out/ in
the checkout.  The program is imported from the checkout's src/; without
it the benchmark prints no result and exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 10  # fresh processes before the loop, and as many after
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# The JSON result carries the metrics BENCHMARK.json declares.  The traced
# report also prints the layers only some workloads reach, with these units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update({"templates.render_s": "s", "analysis.detect_s": "s",
              "analysis.events": "count", "analysis.export_s": "s",
              "analysis.csv_bytes": "bytes", "reference.integrate_s": "s",
              "cli.main_s": "s", "cli.points": "count", "cli.serial_s": "s",
              "cli.pool_speedup": "ratio"})


def cap_blas_threads():
    """Never let BLAS start more threads than the cores this process has."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            n = min(int(os.environ[var]), nproc)
        except (KeyError, ValueError):
            n = nproc
        os.environ[var] = str(max(n, 1))
    return nproc


def import_program():
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import qpsjsim
    except ImportError as exc:
        print(f"error: cannot import qpsjsim from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(qpsjsim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: qpsjsim imported from {qpsjsim.__file__},"
              f" not from {SRC}", file=sys.stderr)
        sys.exit(2)


def git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(nproc):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc,
        "cpu": cpu_model(),
        "loadavg_before": os.getloadavg(),
    }


def setup_seconds(workload, seed):
    """Set-up seconds of SETUP_PROBES fresh processes, at reference speed."""
    from speed import run_paused

    times = []
    for _ in range(SETUP_PROBES):
        out, speed = run_paused([sys.executable, str(HERE / "setup_probe.py"),
                                 workload, str(seed)], ROOT, timeout=60)
        times.append(speed.rescale(*map(float, out.split()[-2:])))
    return times


def tail(walls):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(walls)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(walls)[n - 11]


def run_loop(work, scenario, seconds, trace, out_dir):
    """Closed loop: the next operation starts only if the last one's time
    still fits in the window, so a run ends close to --seconds.

    Returns the operation records, the tracer and the growth of the peak
    resident memory over the loop, in MB.  Runs in the child process that
    speed.call_paused pauses, so its times still include the pauses.
    """
    from tracing import NullTracer, Tracer

    tracer, null = Tracer(), NullTracer()
    ops = []
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t_start = time.perf_counter()
    while not ops or (trace and len(ops) < 2) or (
            time.perf_counter() - t_start + ops[-1]["t1"] - ops[-1]["t0"]
            <= seconds):
        k = len(ops)
        traced = trace and k % 2 == 1
        tr = tracer if traced else null
        rec = {"op": k, "traced": traced, "errors": [], "outcome": None}
        with tracer.operation(k) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                with tr.span("op"):
                    rec["outcome"] = work.operation(scenario, tr, out_dir)
                rec["errors"] += rec["outcome"].errors
            except Exception:  # any raise is a failed operation, reported
                rec["errors"].append(traceback.format_exc(limit=3))
            t1 = time.perf_counter()
            if traced and work.serial is not None:
                try:
                    rec["errors"] += work.serial(scenario, tr, out_dir)
                except Exception:
                    rec["errors"].append(traceback.format_exc(limit=3))
        rec["t0"], rec["t1"] = t0, t1
        ops.append(rec)
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return ops, tracer, (rss1 - rss0) / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("neuron", "network", "oracle", "sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # On SIGTERM, unwind so that speed.py kills the paused child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    nproc = cap_blas_threads()
    import_program()
    from speed import call_paused
    from tracing import op_metrics
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload]
    scenario = work.scenario(args.seed)
    env = environment(nproc)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    # Set-up is probed before and after the loop: the host's speed shifts
    # over seconds, and probes at two moments shift the median less.
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    (ops, tracer, rss_mb), speed = call_paused(lambda: run_loop(
        work, scenario, args.seconds, bool(args.trace), str(out_dir)))
    for rec in ops:
        t0, t1 = rec.pop("t0"), rec.pop("t1")
        rec["wall_s"] = t1 - t0 - speed.busy(t0, t1)
        rec["ref_s"] = speed.rescale(t0, t1)
        if rec["traced"] and not rec["errors"]:
            rec["layers"] = op_metrics(tracer, rec["op"], speed)
    if not args.trace:
        setup += setup_seconds(args.workload, args.seed)
    env["loadavg_after"] = os.getloadavg()

    failed = sum(1 for r in ops if r["errors"])
    done = [r for r in ops if r["outcome"] is not None]
    report = [f"workload {args.workload} seed {args.seed}: {scenario}",
              f"env {json.dumps(env)}"]
    for r in ops:
        status = "ok" if not r["errors"] else "FAILED: " + "; ".join(
            e.strip().splitlines()[-1] for e in r["errors"])
        report.append(f"op {r['op']}{' traced' if r['traced'] else ''}"
                      f" wall {r['wall_s']:.4f} s, at reference speed"
                      f" {r['ref_s']:.4f} s: {status}")
    report.append(f"fail_frac {failed / len(ops):.4f} ({failed}/{len(ops)})")
    for name in done[0]["outcome"].accuracy if done else ():
        worst = max(r["outcome"].accuracy[name] for r in done)
        report.append(f"{name} {worst:.4f} % (worst of {len(done)} ops)")

    shown = {}  # stays empty when no operation completed
    if done and not args.trace:
        walls = [r["wall_s"] for r in done]
        shown = {
            "wall_ref_s": statistics.median(r["ref_s"] for r in done),
            "sim_ps_per_ref_s": statistics.median(
                r["outcome"].sim_ps / r["ref_s"] for r in done),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb,
        }
        t = tail(walls)
        report.append(
            f"host wall median {statistics.median(walls):.4f} s over"
            f" {len(walls)} ops; " + (f"p{t[0]:.0f} {t[1]:.4f} s" if t else
                                      "no percentile has 10 samples beyond it"))
        report.append("setup_s probes " + " ".join(f"{x:.4f}" for x in setup))
    elif done:
        # Layer figures come from the fastest traced operation, so they add
        # up within one operation; the overhead compares fastest with fastest.
        traced = [r for r in ops if "layers" in r]
        plain = [r["ref_s"] for r in done if not r["traced"]]
        if traced and plain:
            best = min(traced, key=lambda r: r["ref_s"])
            shown = {k: v for k, v in best["layers"].items()
                     if k in PER_LAYER or (v and k.split(".")[0] in work.layers)}
            shown["trace_overhead_pct"] = 100.0 * (
                best["ref_s"] / min(plain) - 1.0)
    keys = PER_LAYER if args.trace else tuple(shown)
    metrics = {k: shown[k] for k in keys if k in shown}
    for name, value in shown.items():
        report.append(f"{name} {value:.6g} {UNITS[name]}"
                      if isinstance(value, float) else
                      f"{name} {value} {UNITS[name]}")

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()}}
    stem = f"seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"result-{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "report": report,
                   "all_metrics": shown,
                   "ops": [{k: v for k, v in r.items() if k != "outcome"}
                           for r in ops],
                   "result": result}, fh, indent=1)
    if args.trace:
        with open(out_dir / f"trace-{stem}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
