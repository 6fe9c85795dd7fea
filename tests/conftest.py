"""Shared fixtures: the expensive template simulations are run once per
session and reused by the behavioral and acceptance tests."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from qpsjsim.engine import tran
from qpsjsim.netlist import elaborate, parse_netlist
from qpsjsim.templates import (NeuronParams, SynapseBinaryParams,
                               binary_synapse_netlist, neuron_netlist)


def run_scenario(ast):
    """Elaborate and integrate, returning waveforms plus wall time."""
    circuit = elaborate(ast)
    t0 = time.perf_counter()
    waves = tran(circuit)
    return SimpleNamespace(waves=waves, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def neuron_run():
    """Threshold-10 neuron driven by 22 input pulses (two firing cycles)."""
    p = NeuronParams(n_pulses=22)
    out = run_scenario(parse_netlist(neuron_netlist(p)))
    out.params = p
    return out


@pytest.fixture(scope="session")
def binary_on_run():
    """Binary synapse in the low-Ic (weight 1) state, 10 inputs."""
    p = SynapseBinaryParams(state=0)
    out = run_scenario(parse_netlist(binary_synapse_netlist(p)))
    out.params = p
    return out


@pytest.fixture(scope="session")
def binary_off_run():
    """Binary synapse in the high-Ic (weight 0) state, 10 inputs."""
    p = SynapseBinaryParams(state=1)
    out = run_scenario(parse_netlist(binary_synapse_netlist(p)))
    out.params = p
    return out


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
