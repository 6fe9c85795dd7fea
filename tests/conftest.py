"""Shared fixtures: each figure of ``qpsjsim figure`` is simulated once
per session, by the CLI's own builder, and reused by the behavioral,
acceptance, batch and stats-record tests; so is each batch of figures."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from qpsjsim import cli
from qpsjsim.engine import tran_batch
from qpsjsim.netlist import elaborate, parse_netlist
from qpsjsim.templates import (NeuronParams, SynapseBinaryParams,
                               binary_synapse_netlist, neuron_netlist)


class FigureRuns(dict):
    """The run of each figure ID, made by ``cli._FIGURES[ID]`` when first
    asked for: its netlist, its waves and the builder's wall time
    (parse, elaborate, integrate and summarize)."""

    def __missing__(self, fig):
        t0 = time.perf_counter()
        netlist, waves, _ = cli._FIGURES[fig](fig)
        self[fig] = run = SimpleNamespace(
            netlist=netlist, waves=waves, elapsed=time.perf_counter() - t0)
        return run

    def batch(self, figs):
        """The results of the figures figs (a tuple of IDs) integrated as
        one :func:`~qpsjsim.engine.tran_batch`, run when first asked for
        and kept under the key figs."""
        if figs not in self:
            self[figs] = tran_batch([elaborate(parse_netlist(
                self[fig].netlist)) for fig in figs])
        return self[figs]


@pytest.fixture(scope="session")
def figure_runs():
    return FigureRuns()


def _figure_run(runs, fig, params, netlist):
    """The run of figure fig, with the template params whose netlist it
    simulated."""
    run = runs[fig]
    assert run.netlist == netlist(params)
    return SimpleNamespace(**vars(run), params=params)


@pytest.fixture(scope="session")
def neuron_run(figure_runs):
    """fig2: threshold-10 neuron driven by 22 input pulses (two firing
    cycles)."""
    return _figure_run(figure_runs, "fig2", NeuronParams(n_pulses=22),
                       neuron_netlist)


@pytest.fixture(scope="session")
def binary_on_run(figure_runs):
    """fig4a: binary synapse in the low-Ic (weight 1) state, 10 inputs."""
    return _figure_run(figure_runs, "fig4a", SynapseBinaryParams(state=0),
                       binary_synapse_netlist)


@pytest.fixture(scope="session")
def binary_off_run(figure_runs):
    """fig4b: binary synapse in the high-Ic (weight 0) state, 10 inputs."""
    return _figure_run(figure_runs, "fig4b", SynapseBinaryParams(state=1),
                       binary_synapse_netlist)


def crossing_rate(time_axis, values):
    """Oscillation frequency and cycle-averaged mean of a periodic signal.

    Counts upward crossings of the midline and averages the signal over
    the integer number of cycles between the first and last crossing, so
    both numbers are free of partial-period edge effects.
    """
    values = np.asarray(values, dtype=float)
    mid = 0.5 * (np.min(values) + np.max(values))
    s = values - mid
    up = np.nonzero((s[:-1] < 0) & (s[1:] >= 0))[0]
    if len(up) < 3:
        raise ValueError("need at least 3 upward crossings")
    # linear interpolation of the crossing instants
    t_cross = [time_axis[k] - s[k] * (time_axis[k + 1] - time_axis[k])
               / (s[k + 1] - s[k]) for k in up]
    t0, t1 = t_cross[0], t_cross[-1]
    freq = (len(t_cross) - 1) / (t1 - t0)
    m = (time_axis >= t0) & (time_axis <= t1)
    mean = float(np.trapezoid(values[m], time_axis[m])) / (t1 - t0)
    return freq, mean
