"""Compare the CLI and reference outputs of two commits, file by file.

Each side is a `git archive` of its commit, unpacked under --work by
bench_pairs.checkout.  On each side, with that side's src/ on
PYTHONPATH, this runs

    python -m qpsjsim.cli figure ID --out DIR   (each of the nine figures)
    python -m qpsjsim.cli sweep synapse ic 200e-6,300e-6 --out DIR

then engine.tran_batch on fig6a-d as one batch of four, each variant
written to DIR/fig6X_waveforms.csv and their stats to DIR/stats.json,
and reference.reference_integrate on the two AC9 circuits, the LC tank
and two pulsed circuits whose steps land on the pulse corners, each
written to DIR/waveforms.csv.  Every waveform file comes from
analysis.export_csv, whose repr of every float reads back exactly, so
equal files mean samples with equal bytes.  It compares each run's exit
code and stdout, every file it wrote (waveforms, spikes.csv, ID.cir,
sweep.csv, stats.json) and its manifest.json without wall_time_s.  Where
a manifest's stats or solver settings, or a stats.json, differ, it
prints each differing field as parent -> change (per point for a sweep's
or a batch's stats); where a waveform file differs, each differing
channel's largest |change| over the channel's peak on the parent side.
Exits 1 on any difference, 0 when there is none.

    python3 tools/diff_outputs.py --parent HEAD~1 [--change HEAD] \\
        --work /tmp/diff
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, SIDES, checkout

FIGURES = ("fig2", "fig4a", "fig4b", "fig6a", "fig6b", "fig6c", "fig6d",
           "fig8", "fig9")
# reference_integrate on the netlist text argv[1], its samples written
# to the directory after --out
REFERENCE = """
import sys
from pathlib import Path
from qpsjsim.analysis import export_csv
from qpsjsim.netlist import elaborate, parse_netlist
from qpsjsim.reference import reference_integrate
out = Path(sys.argv[3])
waves = reference_integrate(elaborate(parse_netlist(sys.argv[1])))
out.mkdir(parents=True)
export_csv(waves, out / "waveforms.csv")
"""
# fig6a-d as one tran_batch, written to the directory after --out
BATCH = """
import json
import sys
from pathlib import Path
from qpsjsim.analysis import export_csv
from qpsjsim.engine import tran_batch
from qpsjsim.netlist import elaborate, parse_netlist
from qpsjsim.templates import SynapseMultiParams, multistate_synapse_netlist
out = Path(sys.argv[2])
batch = tran_batch([elaborate(parse_netlist(multistate_synapse_netlist(
    SynapseMultiParams(state=s)))) for s in range(4)])
out.mkdir(parents=True)
for fig, waves in zip(("fig6a", "fig6b", "fig6c", "fig6d"), batch):
    export_csv(waves, out / f"{fig}_waveforms.csv")
(out / "stats.json").write_text(json.dumps([w.stats for w in batch]))
"""
REFERENCE_CIRCUITS = {
    "ac9_qpsj": "t\nVb n1 0 dc 1.5m\nqpsj Q1 n1 0 vc=0.7m rn=10k ls=0\n"
                ".tran 0.0025p 20p\n.end\n",
    "ac9_jj": "t\nIb 0 n1 dc 300u\njj J1 n1 0 ic=200u rn=5 cj=0\n"
              ".tran 0.005p 20p\n.end\n",
    "lc_tank": "t\nIin 0 n1 pulse(0 1u 1p 0.1p 0.1p 1000p 2000p)\nL1 n1 0 1n\n"
               "C1 n1 0 1f\nR1 n1 0 100meg\n.tran 0.01p 30p\n.end\n",
    "qpsj_pulse_ls": "t\nVb n1 0 pulse(0 1.5m 1p 1p 1p 5p 20p)\nR1 n1 n2 1k\n"
                     "qpsj Q1 n2 0 vc=0.7m rn=10k ls=0.05n\n"
                     ".tran 0.01p 20p\n.end\n",
    "jj_pulse_cj": "t\nIb 0 n1 pulse(0 300u 1p 1p 1p 5p 20p)\nR1 n1 0 10\n"
                   "jj J1 n1 0 ic=200u rn=5 cj=0.5f\n.tran 0.005p 20p\n.end\n",
}
# each run's arguments to python, before --out DIR
RUNS = {**{fig: ["-m", "qpsjsim.cli", "figure", fig] for fig in FIGURES},
        "sweep": ["-m", "qpsjsim.cli", "sweep", "synapse", "ic",
                  "200e-6,300e-6"],
        "batch_fig6": ["-c", BATCH],
        **{f"reference_{name}": ["-c", REFERENCE, text]
           for name, text in REFERENCE_CIRCUITS.items()}}


def run_all(tree, out):
    """Run every command of RUNS in tree, each into out/<name>; returns
    each run's exit code and stdout as one text."""
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    texts = {}
    for name, argv in RUNS.items():
        res = subprocess.run([sys.executable, *argv, "--out", str(out / name)],
                             cwd=tree, env=env, capture_output=True, text=True)
        texts[name] = f"exit {res.returncode}\n{res.stdout}"
    return texts


def _load_waveforms(path):
    header = path.read_text().split("\n", 1)[0].split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def waveform_changes(a, b):
    """How waveforms.csv b differs from a: per differing channel, its
    largest |b - a| over the largest |a|."""
    (head_a, data_a), (head_b, data_b) = _load_waveforms(a), _load_waveforms(b)
    if head_a != head_b or data_a.shape != data_b.shape:
        return [f"  columns {head_a} x {len(data_a)} rows became"
                f" {head_b} x {len(data_b)} rows"]
    lines = []
    for name, x, y in zip(head_a, data_a.T, data_b.T):
        delta = float(np.abs(y - x).max(initial=0.0))
        if delta:
            peak = float(np.abs(x).max())
            lines.append(f"  {name}: max |change| {delta:.3g},"
                         f" {delta / peak:.3g} of its peak {peak:.6g}")
    return lines


def stats_changes(a, b):
    """Each field in which the manifest stats b differ from a, as
    "field a -> b"; a sweep's stats, one dict per point, as
    "point i field a -> b"."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [f"point {i} {line}" for i, (x, y) in enumerate(zip(a, b))
                for line in stats_changes(x, y)]
    if isinstance(a, dict) and isinstance(b, dict):
        return [f"{key} {a.get(key)} -> {b.get(key)}"
                for key in [*a, *(k for k in b if k not in a)]
                if a.get(key) != b.get(key)]
    return [f"{a} -> {b}"]


def compare(name, a, b):
    """The lines saying how the file b of run name differs from its
    parent a (none if they are the same)."""
    where = f"{name}/{a.name}"
    if not (a.exists() and b.exists()):
        return [f"{where}: only on the {'parent' if a.exists() else 'change'}"
                " side"]
    if a.read_bytes() == b.read_bytes():
        return []
    if a.name == "stats.json":
        return [f"{where}: {change}" for change in stats_changes(
            *(json.loads(p.read_text()) for p in (a, b)))]
    if a.name == "manifest.json":
        ma, mb = (json.loads(p.read_text()) for p in (a, b))
        lines = []
        for key in sorted(ma.keys() | mb.keys()):
            if key == "wall_time_s" or ma.get(key) == mb.get(key):
                continue
            if key in ("stats", "solver"):
                lines += [f"{where}: {key} {change}" for change
                          in stats_changes(ma.get(key), mb.get(key))]
            else:
                lines.append(f"{where}: {key} differs")
        return lines
    if a.name.endswith("waveforms.csv"):
        return [f"{where} differs", *waveform_changes(a, b)]
    return [f"{where} differs"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", default="HEAD", help="changed commit")
    ap.add_argument("--work", type=Path, required=True,
                    help="directory for the two checkouts and their outputs")
    args = ap.parse_args(argv)

    outs, texts = {}, {}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        commit = subprocess.run(["git", "rev-parse", "--short", rev],
                                cwd=ROOT, check=True, capture_output=True,
                                text=True).stdout.strip()
        print(f"{side}: {commit}", flush=True)
        tree = checkout(commit, args.work / commit)
        outs[side] = args.work / f"out-{side}"
        texts[side] = run_all(tree, outs[side])

    diffs = []
    for name in RUNS:
        if texts["parent"][name] != texts["change"][name]:
            diffs.append(f"{name}: exit code or stdout differs")
        a, b = (outs[side] / name for side in SIDES)
        files = sorted({p.name for d in (a, b) if d.is_dir()
                        for p in d.iterdir()})
        for file in files:
            diffs += compare(name, a / file, b / file)
    print("\n".join(diffs) if diffs else
          f"no difference: {len(RUNS)} runs, their exit codes, stdout and"
          " files (manifests without wall_time_s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
