"""The committed record of what the solver does on each figure and sweep
point, and of the pulses and peaks it gives (tools/stats_record.py writes
it)."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stats_record.py"


def test_figures_and_sweep_points_match_their_committed_stats(figure_runs):
    # a changed step decision, factorization or refinement anywhere in the
    # nine figures, the fig6a-d batch or the batched sweep changes a count
    # here, and a moved pulse or peak one of the floats the record rounds
    # to 6 digits; after such a change, run the tool again and review the
    # record's diff
    tool = _tool()
    rec = tool.record(lambda fig: figure_runs[fig].waves, figure_runs.batch)
    committed = json.loads(tool.PATH.read_text())
    assert rec == committed, "\n".join(tool.changes(committed, rec))


def test_changes_name_each_moved_leaf():
    committed = {"figure fig6b": {"accepted_steps": 3599, "variants": 1},
                 "sweep x": [{"unknowns": 16}, {"unknowns": 16}],
                 "channels figure fig2": {"i(q1)": {"t_peak_ps": [1.5, 2.5],
                                                    "peak": 3.0}}}
    computed = {"figure fig6b": {"accepted_steps": 3600, "variants": 1},
                "sweep x": [{"unknowns": 16}, {"unknowns": 17}],
                "channels figure fig2": {"i(q1)": {"t_peak_ps": [1.5],
                                                   "peak": 3.0, "events": 1}}}
    assert _tool().changes(committed, computed) == [
        "figure fig6b: accepted_steps 3599 -> 3600",
        "sweep x: [1] unknowns 16 -> 17",
        "channels figure fig2: i(q1) t_peak_ps [1.5, 2.5] -> [1.5]",
        "channels figure fig2: i(q1) events None -> 1"]
    assert _tool().changes(committed, committed) == []


def _tool():
    spec = importlib.util.spec_from_file_location("stats_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool
