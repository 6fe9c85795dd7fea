"""Write tests/stats_record.json: what the solver did on each figure and
sweep point.

For each of the nine figures of ``qpsjsim figure ID`` and each point of
``qpsjsim sweep synapse ic 200e-6,300e-6`` (one batch of two variants),
the record holds the ``stats`` its manifest.json records: accepted
steps, LTE rejections, Newton halvings and iterations, Jacobian
factorizations and refinements, variants and unknowns.  They come from
the CLI's own figure builders and sweep batching, without writing the
outputs.  tests/test_stats_record.py computes the record again and
compares it exactly, so a change that moves a step decision fails until
this file is written again, and the file's diff shows what moved.

    PYTHONPATH=src python3 tools/stats_record.py
"""

from __future__ import annotations

import json
from pathlib import Path

from qpsjsim import cli

PATH = Path(__file__).resolve().parent.parent / "tests" / "stats_record.json"
SWEEP = ("synapse", "ic", "200e-6,300e-6")


def record(waves=lambda fig: cli._FIGURES[fig](fig)[1]):
    """The stats of each figure and sweep point, keyed by its command;
    waves(ID) gives the waves of figure ID, by default run here."""
    rec = {f"figure {fig}": waves(fig).stats for fig in cli._FIGURES}
    template, param, values = SWEEP
    circuits = [cli._SWEEPS[template, param](v)[0] for v in values.split(",")]
    rec["sweep " + " ".join(SWEEP)] = [waves.stats for waves
                                       in cli._sweep_waves(circuits)]
    return rec


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {PATH}")
