"""The committed record of what the solver does on each figure and sweep
point, and of the pulses and peaks it gives (tools/stats_record.py writes
it)."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stats_record.py"


def test_figures_and_sweep_points_match_their_committed_stats(figure_runs):
    # a changed step decision, factorization or refinement anywhere in the
    # nine figures or the batched sweep changes a count here, and a moved
    # pulse or peak one of the floats the record rounds to 6 digits; after
    # such a change, run the tool again and review the record's diff
    spec = importlib.util.spec_from_file_location("stats_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rec = tool.record(lambda fig: figure_runs[fig].waves)
    assert rec == json.loads(tool.PATH.read_text())
