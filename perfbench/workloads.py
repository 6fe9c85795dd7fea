"""Seeded scenarios, the operation each workload times, and its checks.

Seed 0 gives the paper's scenarios: the fig2 neuron, the fig8 network,
the two AC9 oracle circuits and the fig4 synapse sweep.  Any other seed
draws one variant from a small fixed family per workload.  The members
of a family cost about the same host time (same sample count, similar
device count and switching activity), so the spread of a metric over
seeds reflects the machine and the program rather than the draw.

qpsjsim receives only the generated parameters or netlist text.  The
correctness rules below restate the acceptance criteria (AC2, AC3, AC4,
AC6, AC9) in this file; nothing is imported from the test suite.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
from dataclasses import dataclass

import numpy as np

# cli and reference are imported where used, so that the set-up probe of a
# workload pays only for the modules that workload reaches.
from qpsjsim import analysis, engine, netlist, templates

TWO_E_AC = 2 * 1.602176634e-19 * 1e18  # Cooper-pair charge in aC
FIRING_QUANTA = 4.0  # events carrying more than this many 2e are firings
CHARGE_TOL = 0.01  # AC2/AC3: each pulse within 1% of its n x 2e
ORACLE_RMS_TOL = 0.01  # AC9: engine vs RK4 RMS mismatch under 1%
SYNAPSE_PULSES = 10  # fig4: low-Ic state passes one pulse per input


@dataclass
class Outcome:
    """What one operation integrated and whether its outputs are right."""

    sim_ps: float
    errors: list
    accuracy: dict


def _check(errors, ok, message):
    if not ok:
        errors.append(message)


def _elaborate(text, tr):
    with tr.span("netlist.parse"):
        ast = netlist.parse_netlist(text)
    with tr.span("netlist.elaborate"):
        circuit = netlist.elaborate(ast)
    tr.count("netlist.devices", len(circuit.devices))
    return circuit


def _simulate(circuit, tr):
    with tr.span("engine.dc"):
        engine.dc_operating_point(circuit)
    with tr.span("engine.tran"):
        waves = engine.tran(circuit)
    tr.count("engine.samples", len(waves.time))
    return waves


def _detect(waves, channel, tr):
    with tr.span("analysis.detect"):
        train = analysis.detect_pulses(waves.time, waves.channel(channel))
    tr.count("analysis.events", len(train))
    return train


def _export(waves, path, tr):
    with tr.span("analysis.export"):
        analysis.export_csv(waves, path)
    tr.count("analysis.csv_bytes", os.path.getsize(path))


def _firings(train):
    return [e for e in train.events if e.charge / TWO_E_AC > FIRING_QUANTA]


def _quanta(train):
    """AC4: total 2e quanta over events that carry at least one."""
    return sum(round(e.charge / TWO_E_AC) for e in train.events
               if round(e.charge / TWO_E_AC) >= 1)


# --- neuron: fig2 integrate-and-fire neuron ---------------------------------

# (n_threshold, input period in ps, input count, input amplitude in V).
# Every drive spans about the same 2640 ps of inputs as fig2, so every
# variant integrates about as many samples.  Each variant passes the checks
# below; see the README for the nearby ones that do not.
_NEURON_VARIANTS = (
    (10, 110, 24, 0.75e-3), (10, 110, 24, 0.8e-3), (10, 115, 23, 0.75e-3),
    (10, 115, 23, 0.8e-3), (10, 120, 22, 0.75e-3), (10, 120, 22, 0.8e-3),
    (11, 110, 24, 0.8e-3), (11, 115, 23, 0.8e-3),
)


def neuron_scenario(seed):
    if seed == 0:
        return templates.NeuronParams(n_pulses=22)
    n, period, n_pulses, vin = random.Random(seed).choice(_NEURON_VARIANTS)
    return templates.NeuronParams(n_threshold=n, pulse_period=period * 1e-12,
                                  n_pulses=n_pulses, vin_amplitude=vin)


def neuron_netlists(p):
    return [templates.neuron_netlist(p)]


def neuron_operation(p, tr, out_dir):
    with tr.span("templates.render"):
        text = templates.neuron_netlist(p)
    waves = _simulate(_elaborate(text, tr), tr)
    fire = _detect(waves, "i(rload)", tr)
    bank = _detect(waves, "i(q1)", tr)
    _export(waves, os.path.join(out_dir, "neuron.csv"), tr)

    # AC3: one firing per n_threshold inputs, n_threshold periods apart,
    # each carrying n_threshold x 2e; AC2: each bank slip carries 2e.
    errors = []
    firings = _firings(fire)
    expected = p.n_pulses // p.n_threshold
    _check(errors, len(firings) == expected,
           f"{len(firings)} firings, expected {expected}")
    gaps = np.diff([e.t_peak for e in firings]) / (p.pulse_period * 1e12)
    _check(errors, bool(np.all(np.abs(gaps - p.n_threshold) < 0.5)),
           f"firing spacing {gaps.tolist()} periods, expected {p.n_threshold}")
    _check(errors, len(bank) > 0, "no bank-junction pulses")
    err = [abs(e.charge / (p.n_threshold * TWO_E_AC) - 1.0) for e in firings]
    err += [abs(e.charge / TWO_E_AC - 1.0) for e in bank.events]
    worst = max(err, default=math.inf)
    _check(errors, worst < CHARGE_TOL, f"charge off n x 2e by {worst:.2%}")
    return Outcome(p.tstop * 1e12, errors, {"charge_err_pct": 100 * worst})


# --- network: fig8 3x2 network ----------------------------------------------

_FIG8_WEIGHTS = ((1, 1, 1), (0, 1, 1))
_FIG8_PERIODS = (60e-12, 90e-12, 120e-12)


def network_scenario(seed):
    if seed == 0:
        return templates.NetworkSpec(weights=_FIG8_WEIGHTS,
                                     input_periods=_FIG8_PERIODS)
    # fig8 has five weight-1 synapses; keeping five keeps the switching
    # work, and so the host time, close to fig8's.
    rng = random.Random(seed)
    off = rng.randrange(6)
    weights = tuple(tuple(0 if 3 * y + x == off else 1 for x in range(3))
                    for y in range(2))
    periods = list(_FIG8_PERIODS)
    rng.shuffle(periods)
    return templates.NetworkSpec(weights=weights, input_periods=tuple(periods))


def network_netlists(spec):
    return [templates.network_netlist(spec)]


def _expected_firings(spec, row):
    """AC6 floor rule: weight-1 input pulses over the window, per threshold."""
    pulses = 0
    for x, period in enumerate(spec.input_periods):
        if row[x]:
            delay = spec.pulse_delay + x * spec.delay_stagger
            pulses += math.floor((spec.duration - delay) / period) + 1
    return pulses // spec.neuron.n_threshold


def network_operation(spec, tr, out_dir):
    with tr.span("templates.render"):
        text = templates.network_netlist(spec)
    waves = _simulate(_elaborate(text, tr), tr)
    trains = [_detect(waves, f"i(rloadn{y})", tr)
              for y in range(spec.n_outputs)]
    _export(waves, os.path.join(out_dir, "network.csv"), tr)

    # AC6: each output neuron fires within one of the floor rule.
    errors = []
    err = []
    quantum = spec.neuron.n_threshold * TWO_E_AC
    for y, (row, train) in enumerate(zip(spec.weights, trains)):
        firings = _firings(train)
        expected = _expected_firings(spec, row)
        _check(errors, abs(len(firings) - expected) <= 1,
               f"neuron {y}: {len(firings)} firings, floor rule {expected}")
        err += [abs(e.charge / quantum - 1.0) for e in firings]
    worst = max(err, default=math.nan)
    return Outcome(spec.duration * 1e12, errors,
                   {"charge_err_pct": 100 * worst})


# --- oracle: the AC9 circuits, engine against the RK4 reference -------------

def oracle_scenario(seed):
    """Bias of the Bloch-oscillating QPSJ (V) and of the JJ (A)."""
    if seed == 0:
        return (1.5e-3, 300e-6)
    rng = random.Random(seed)
    return (rng.choice((1.4e-3, 1.5e-3, 1.6e-3)),
            rng.choice((280e-6, 300e-6, 320e-6)))


def oracle_netlists(bias):
    vb, ib = bias
    qpsj = (f"qpsj oracle\nVb n1 0 dc {vb!r}\n"
            "qpsj Q1 n1 0 vc=0.7m rn=10k ls=0\n.tran 0.0025p 20p\n.end\n")
    jj = (f"jj oracle\nIb 0 n1 dc {ib!r}\n"
          "jj J1 n1 0 ic=200u rn=5 cj=0\n.tran 0.005p 20p\n.end\n")
    return [qpsj, jj]


def oracle_operation(bias, tr, out_dir):
    from qpsjsim import reference

    errors = []
    rms = []
    sim_ps = 0.0
    for text, channel in zip(oracle_netlists(bias), ("i(q1)", "v(n1)")):
        circuit = _elaborate(text, tr)
        with tr.span("reference.integrate"):
            ref = reference.reference_integrate(circuit)
        eng = _simulate(circuit, tr)
        sim_ps += circuit.tstop
        r, e = ref.channel(channel), eng.channel(channel)
        rms.append(float(np.sqrt(np.mean((e - r) ** 2))
                         / np.sqrt(np.mean(r ** 2))))
    # AC9: both junctions track the RK4 oracle within 1% RMS.
    worst = max(rms)
    _check(errors, worst < ORACLE_RMS_TOL, f"oracle RMS mismatch {worst:.2%}")
    return Outcome(sim_ps, errors, {"oracle_rms_pct": 100 * worst})


# --- sweep: the CLI's threaded synapse sweep over both Ic states ------------

def sweep_scenario(seed):
    """Ic values, each tagged with the state the CLI snaps it to.

    Other seeds change only the value strings and their order: the CLI
    snaps each value to the nearer Ic state, so every seed simulates the
    same two circuits.
    """
    if seed == 0:
        return (("200e-6", 0), ("300e-6", 1))
    rng = random.Random(seed)
    points = [(rng.choice(("190e-6", "200e-6", "210e-6")), 0),
              (rng.choice(("290e-6", "300e-6", "310e-6")), 1)]
    rng.shuffle(points)
    return tuple(points)


def _synapse_params(state):
    return templates.SynapseBinaryParams(state=state)


def sweep_netlists(points):
    return [templates.binary_synapse_netlist(_synapse_params(s))
            for _, s in points]


def _expected_pulses(state):
    return SYNAPSE_PULSES if state == 0 else 0


def sweep_operation(points, tr, out_dir):
    from qpsjsim import cli

    out = os.path.join(out_dir, "sweep")
    argv = ["sweep", "synapse", "ic", ",".join(v for v, _ in points),
            "--out", out]
    with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    tr.count("cli.points", len(points))

    # AC4 through the front door: exit 0, every point ok, 10 and 0 pulses.
    errors = []
    _check(errors, code == 0, f"cli exit code {code}")
    with open(os.path.join(out, "sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    _check(errors, [r["value"] for r in rows] == [v for v, _ in points],
           f"sweep.csv rows {[r['value'] for r in rows]}")
    for row, (value, state) in zip(rows, points):
        _check(errors, row["status"] == "ok",
               f"Ic={value}: status {row['status']}")
        _check(errors, row.get("output_pulses") == str(_expected_pulses(state)),
               f"Ic={value}: {row.get('output_pulses')} pulses,"
               f" expected {_expected_pulses(state)}")
    sim_ps = sum(_synapse_params(s).tstop * 1e12 for _, s in points)
    return Outcome(sim_ps, errors, {})


def sweep_serial(points, tr, out_dir):
    """The same points back to back through public calls, no thread pool."""
    errors = []
    with tr.span("cli.serial"):
        for value, state in points:
            with tr.span("templates.render"):
                text = templates.binary_synapse_netlist(_synapse_params(state))
            waves = _simulate(_elaborate(text, tr), tr)
            got = _quanta(_detect(waves, "i(q1)", tr))
            _check(errors, got == _expected_pulses(state),
                   f"serial Ic={value}: {got} pulses")
    return errors


@dataclass(frozen=True)
class Workload:
    scenario: object  # seed -> scenario
    netlists: object  # scenario -> netlist texts, built as set-up
    operation: object  # (scenario, tracer, out_dir) -> Outcome
    layers: tuple  # the modules the traced run reaches
    serial: object = None  # traced-only replay without the CLI pool


WORKLOADS = {
    "neuron": Workload(neuron_scenario, neuron_netlists, neuron_operation,
                       ("templates", "netlist", "engine", "analysis")),
    "network": Workload(network_scenario, network_netlists, network_operation,
                        ("templates", "netlist", "engine", "analysis")),
    "oracle": Workload(oracle_scenario, oracle_netlists, oracle_operation,
                       ("netlist", "engine", "reference")),
    "sweep": Workload(sweep_scenario, sweep_netlists, sweep_operation,
                      ("cli", "templates", "netlist", "engine", "analysis"),
                      sweep_serial),
}
