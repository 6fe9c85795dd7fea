"""Write tests/stats_record.json: what the solver did on each figure and
sweep point.

For each of the nine figures of ``qpsjsim figure ID``, each variant of
fig6a-d integrated as one batch of four (``engine.tran_batch``, where
the variants converge at different Newton iterations) and each point of
``qpsjsim sweep synapse ic 200e-6,300e-6`` (one batch of two variants),
the record holds the ``stats`` its manifest.json records: accepted
steps, LTE rejections, Newton halvings and iterations, Jacobian
factorizations and refinements, variants and unknowns.  After them, under
"channels <command>", it holds each saved channel's peak |value| and, for
each current channel, the events its spikes.csv lists: their count,
each one's t_peak (ps) and its charge in 2e.  Floats are rounded to
DIGITS significant digits.  Everything comes from the CLI's own figure
builders, sweep batching and pulse detection, without writing the
outputs.  tests/test_stats_record.py computes the record again and
compares it exactly, so a change that moves a step decision, or a pulse
or a peak at the written digits, fails until this file is written again;
its message, from :func:`changes`, and the file's diff show what moved.

    PYTHONPATH=src python3 tools/stats_record.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from qpsjsim import cli
from qpsjsim.engine import tran_batch
from qpsjsim.netlist import elaborate, parse_netlist
from qpsjsim.units import TWO_E

PATH = Path(__file__).resolve().parent.parent / "tests" / "stats_record.json"
BATCH = ("fig6a", "fig6b", "fig6c", "fig6d")  # figures run as one batch
SWEEP = ("synapse", "ic", "200e-6,300e-6")
DIGITS = 6  # significant digits of the recorded floats


def _round(value):
    return float(f"{value:.{DIGITS}g}")


def channels(waves):
    """Each channel's peak |value|, and each current channel's events as
    spikes.csv lists them: count, t_peak (ps) and charge (2e)."""
    rec = {name: {"peak": _round(np.abs(values).max())}
           for name, values in waves.channels.items()}
    for train in cli._detect_all(waves):
        rec[train.source].update(
            events=len(train.events),
            t_peak_ps=[_round(e.t_peak) for e in train.events],
            charge_2e=[_round(e.charge / TWO_E) for e in train.events])
    return rec


def record(waves=None, batch=None):
    """The stats of each figure, batch variant and sweep point, keyed by
    its command, then their channels.  waves(ID) gives the waves of
    figure ID, and batch(IDs) the results of those figures as one
    tran_batch; by default both are run here."""
    if waves is None:
        built = {fig: cli._FIGURES[fig](fig) for fig in cli._FIGURES}
        waves = lambda fig: built[fig][1]
        batch = lambda figs: tran_batch([elaborate(parse_netlist(
            built[fig][0])) for fig in figs])
    runs = {f"figure {fig}": waves(fig) for fig in cli._FIGURES}
    template, param, values = SWEEP
    circuits = [cli._SWEEPS[template, param](v)[0] for v in values.split(",")]
    batches = {"batch " + " ".join(BATCH): batch(BATCH),
               "sweep " + " ".join(SWEEP): cli._sweep_waves(circuits)}
    rec = {command: w.stats for command, w in runs.items()}
    rec.update((command, [w.stats for w in ws])
               for command, ws in batches.items())
    rec.update((f"channels {command}", channels(w))
               for command, w in runs.items())
    rec.update((f"channels {command}", [channels(w) for w in ws])
               for command, ws in batches.items())
    return rec


def changes(committed, computed, path=()):
    """Each leaf in which the record computed differs from the committed
    one, as its path, then committed -> computed: for example
    "figure fig6b: accepted_steps 3599 -> 3600"; a list item's index is
    [i], and a key on one side only reads None on the other."""
    if isinstance(committed, dict) and isinstance(computed, dict):
        keys = [*committed, *(k for k in computed if k not in committed)]
        return [line for k in keys for line in changes(
            committed.get(k), computed.get(k), (*path, k))]
    if (isinstance(committed, list) and isinstance(computed, list)
            and len(committed) == len(computed)):
        return [line for i, (a, b) in enumerate(zip(committed, computed))
                for line in changes(a, b, (*path, f"[{i}]"))]
    if committed == computed:
        return []
    where = [f"{path[0]}:", *path[1:]] if path else []
    return [" ".join([*where, f"{committed} -> {computed}"])]


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {PATH}")
