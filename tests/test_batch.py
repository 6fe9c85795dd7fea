"""Batched integration: circuits that differ only in junction amplitudes
step as one batch and give each variant its own results."""

import math

import numpy as np
import pytest

from qpsjsim import engine
from qpsjsim.analysis import detect_pulses
from qpsjsim.engine import ConvergenceError, EngineError, tran, tran_batch
from qpsjsim.netlist import elaborate, parse_netlist
from qpsjsim.templates import (NetworkSpec, SynapseBinaryParams,
                               binary_synapse_netlist, network_netlist)
from qpsjsim.units import TWO_E


def _circ(text):
    return elaborate(parse_netlist(text))


def _same_events(mine, theirs, charge_tol):
    assert len(mine) == len(theirs)
    assert np.array_equal(mine.times(), theirs.times())
    assert np.all(np.abs(mine.charges() - theirs.charges()) <= charge_tol)


def test_binary_synapse_batch_matches_each_own_run(figure_runs):
    # fig4a/b: both Ic states as one K = 2 batch, as the synapse sweep runs
    # them; their quiet stretches are linear, so the shared steps change
    # each waveform only at the level of rounding
    runs = [figure_runs[fig] for fig in ("fig4a", "fig4b")]
    owns = [run.waves for run in runs]
    batch = tran_batch([_circ(run.netlist) for run in runs])
    for own, waves in zip(owns, batch):
        assert list(waves.channels) == list(own.channels)
        for name, values in own.channels.items():
            peak = np.max(np.abs(values))
            assert np.max(np.abs(waves.channel(name) - values)) <= 1e-6 * peak
        _same_events(detect_pulses(waves.time, waves.channel("i(q1)")),
                     detect_pulses(own.time, own.channel("i(q1)")),
                     1e-6 * TWO_E)
    # the variants share one step sequence and its counts; its steps are
    # as fine as the more demanding variant needs, and cover both
    # variants in fewer steps than their two own runs
    assert batch[0].stats == batch[1].stats
    steps = max(own.stats["accepted_steps"] for own in owns)
    assert steps <= batch[0].stats["accepted_steps"] < 1.1 * steps


def test_multistate_synapse_batch_matches_each_own_run(figure_runs):
    # fig6a-d: four MJJ states of one circuit, one K = 4 batch.  The steps
    # follow the variant with the largest LTE estimate, so a variant's
    # steps are not those of its own run: each waveform must stay closer
    # to its own run than halving tstep moves that run, and the output
    # must carry the same pulses, at the same peaks, with charges within
    # AC2's 1% of 2e
    figs = ("fig6a", "fig6b", "fig6c", "fig6d")
    runs = [figure_runs[fig] for fig in figs]
    circuits = [_circ(run.netlist) for run in runs]
    batch = figure_runs.batch(figs)  # as the stats record has it
    counts, steps = [], []
    for run, circuit, waves in zip(runs, circuits, batch):
        own = run.waves
        steps.append(own.stats["accepted_steps"])
        finer = tran(circuit, tstep=circuit.tstep / 2)
        assert list(waves.channels) == list(own.channels)
        assert np.array_equal(waves.time, own.time)
        for name, values in own.channels.items():
            moved = np.max(np.abs(finer.channel(name)[::2] - values))
            assert np.max(np.abs(waves.channel(name) - values)) < moved
            if name.startswith("i("):
                assert len(detect_pulses(waves.time, waves.channel(name))) \
                    == len(detect_pulses(own.time, values))
        out = detect_pulses(waves.time, waves.channel("i(q1)"))
        _same_events(out, detect_pulses(own.time, own.channel("i(q1)")),
                     0.01 * TWO_E)
        counts.append(sum(round(q / TWO_E) for q in out.charges()))
    assert all(w.stats == batch[0].stats for w in batch)
    # the shared steps are as fine as the most demanding variant needs
    assert batch[0].stats["accepted_steps"] >= max(steps)
    assert counts[0] > counts[1] > 0 and counts[2:] == [0, 0]


def test_network_weight_sets_batch_gives_each_its_firings():
    # fig8 and fig9: the weights are MJJ states, so one K = 2 batch; each
    # output neuron fires within one of the floor rule (AC6)
    specs = [NetworkSpec(weights=w, input_periods=(60e-12, 90e-12, 120e-12))
             for w in (((1, 1, 1), (0, 1, 1)), ((1, 0, 1), (0, 0, 1)))]
    batch = tran_batch([_circ(network_netlist(s)) for s in specs])
    for spec, waves in zip(specs, batch):
        for y, row in enumerate(spec.weights):
            pulses = sum(
                math.floor((spec.duration - spec.pulse_delay
                            - x * spec.delay_stagger) / period) + 1
                for x, period in enumerate(spec.input_periods) if row[x])
            train = detect_pulses(waves.time, waves.channel(f"i(rloadn{y})"))
            firings = [e for e in train.events if e.charge / TWO_E > 4.0]
            assert abs(len(firings) - pulses // spec.neuron.n_threshold) <= 1


@pytest.mark.parametrize("change", [
    ("Rload nout 0 1.0", "Rload nout 0 2.0"),  # a linear value
    ("Rload nout 0 1.0", "Rload nout 0 1.0\nR2 nout 0 1k"),  # one device more
    ("ls=1e-10", "ls=2e-10"),  # a junction parameter that is no amplitude
    ("dc 0.00014", "dc 0.00015"),  # a source
])
def test_batch_rejects_circuits_of_another_topology(change):
    text = binary_synapse_netlist(SynapseBinaryParams(state=0))
    assert change[0] in text
    with pytest.raises(EngineError, match="differ only in junction"):
        tran_batch([_circ(text), _circ(text.replace(*change))])


def test_a_failing_variant_fails_alone():
    # the second variant's Vc is NaN, so its Newton iteration fails at
    # every step size; the first one runs again alone, as its own run
    text = """t
Vb n1 0 pulse(0 1.5m 2p 0.2p 0.2p 3p 10p)
R1 n1 n2 1k
qpsj Q1 n2 0 vc=0.7m rn=10k ls=0.1n
.tran 0.05p 20p
.end
"""
    circuits = [_circ(text), _circ(text)]
    circuits[1].devices[2].params["vc"] = math.nan
    good, bad = tran_batch(circuits)
    # it gives up on the first step, halved MAX_HALVINGS times
    assert isinstance(bad, ConvergenceError)
    assert bad.t == bad.h == 0.05 / 2 ** engine.MAX_HALVINGS
    own = tran(circuits[0])
    assert good.stats == own.stats
    for name, values in own.channels.items():
        assert np.array_equal(good.channel(name), values)


_LATE_TEXT = """t
Vin n1 0 pulse(0 1.5m 5p 0.2p 0.2p 3p 20p)
qpsj Q1 n1 0 vc={vc} rn=10k ls=0.1n
.tran 0.05p 100p
.end
"""


def _fail_late(monkeypatch, fail_at):
    """Run fail_at's Vc values and a Vc = 0.8m survivor as one batch, each
    of the former made to fail every Newton iteration from its time on;
    failures are keyed by a variant's amplitude, so they follow it into a
    rerun.  Gives the circuits, the results and, for each forced failure,
    the number of steps accepted before it."""
    vcs = [*fail_at, "0.8m"]
    circuits = [_circ(_LATE_TEXT.format(vc=vc)) for vc in vcs]
    when = {engine._System([c]).A[0, 0]: fail_at.get(vc, math.inf)
            for c, vc in zip(circuits, vcs)}
    times, accepted, forced = [], [], []
    sources, newton, add = (engine._System.sources, engine._System._newton,
                            engine._Record.add)

    def spy_sources(self, t):
        times.append(t)
        return sources(self, t)

    def fail_late(self, *args):
        *out, failed = newton(self, *args)
        late = np.array([times[-1] > when[a] for a in self.A[:, 0]])
        if late.any():
            forced.append(len(accepted))
        return *out, failed | late

    def spy_add(self, t, *state):
        accepted.append(t)
        add(self, t, *state)

    monkeypatch.setattr(engine._System, "sources", spy_sources)
    monkeypatch.setattr(engine._System, "_newton", fail_late)
    monkeypatch.setattr(engine._Record, "add", spy_add)
    return circuits, tran_batch(circuits), forced


def _is_own_run(waves, circuit):
    own = tran(circuit)
    assert waves.stats == own.stats and own.stats["variants"] == 1
    for name, values in own.channels.items():
        assert np.array_equal(waves.channel(name), values)


def test_a_variant_dropping_after_a_recorded_block_keeps_its_partner_samples(
        monkeypatch):
    # variant 0 fails from t = 61.3 ps on, after more than one block of
    # accepted steps was recorded; its partner runs again alone, and every
    # sample it keeps, those before the failure too, is its own run's
    circuits, (failed, partner), forced = _fail_late(monkeypatch,
                                                     {"0.7m": 61.3})
    # the first forced failure falls inside a block, after the first one
    # was recorded
    assert forced[0] > engine._BLOCK and forced[0] % engine._BLOCK
    assert isinstance(failed, ConvergenceError)
    assert 61.3 < failed.t < 62.3
    _is_own_run(partner, circuits[1])


def test_failing_variants_leave_the_survivor_its_own_run(monkeypatch):
    # K = 3: Vc = 0.9m fails from 30 ps on and 0.7m from 61.3 ps on; each
    # failure stops the run, and the rest run again without the failed
    # variant
    fail_at = {"0.7m": 61.3, "0.9m": 30.0}
    circuits, (*errors, survivor), _ = _fail_late(monkeypatch, fail_at)
    # each failed variant has its own error, at its own time
    for error, t_fail in zip(errors, fail_at.values()):
        assert isinstance(error, ConvergenceError)
        assert t_fail < error.t < t_fail + 1.0
    _is_own_run(survivor, circuits[-1])


def test_a_dropped_variant_leaves_its_partner_its_own_cached_amplitudes(
        monkeypatch):
    # variant 0 is made to fail every Newton iteration after 300 calls;
    # the partner's rerun must build its step parts from its own (h/k)*A,
    # not reuse those cached with both variants' amplitudes
    circuits = [_circ(_LATE_TEXT.format(vc=vc)) for vc in ("0.7m", "0.8m")]
    newton = engine._System._newton
    calls = []  # (variants, h, trap, A, the (h/k)*A used is the variants')

    def fail_variant_0(self, xg, x, xd, theta, u, h, trap):
        *out, failed = newton(self, xg, x, xd, theta, u, h, trap)
        hkA = (h / 2.0 if trap else h) * self.A
        calls.append((len(failed), h, trap, self.A.copy(),
                      np.array_equal(self._step_parts[-1], hkA)))
        if len(failed) == 2 and len(calls) > 300:
            failed = np.array([True, failed[1]])
        return *out, failed

    monkeypatch.setattr(engine._System, "_newton", fail_variant_0)
    failed, partner = tran_batch(circuits)
    assert isinstance(failed, ConvergenceError)
    assert isinstance(partner, engine.WaveformSet)
    # the partner alone starts again at t = 0, with the first step of a
    # run, and with its own row of the batch's amplitudes
    first = next(i for i, c in enumerate(calls) if c[0] == 1)
    assert first > 300 and calls[first][1:3] == calls[0][1:3]
    assert all(np.array_equal(c[3], calls[0][3][1:]) for c in calls[first:])
    assert all(c[4] for c in calls)
    assert partner.time[-1] == pytest.approx(100.0)
    monkeypatch.undo()
    _is_own_run(partner, circuits[1])


def test_a_singular_variant_fails_alone(monkeypatch):
    # variant 0's Jacobian is zeroed before every inversion of the K = 2
    # stack: it gets a NaN inverse and fails alone, at the halving floor of
    # the first step, and its partner runs again as its own run
    circuits = [_circ(_LATE_TEXT.format(vc=vc)) for vc in ("0.7m", "0.8m")]
    invert = engine._System._invert

    def singular_variant_0(self, J):
        if len(J) == 2:
            J[0] = 0.0
        return invert(self, J)

    monkeypatch.setattr(engine._System, "_invert", singular_variant_0)
    failed, partner = tran_batch(circuits)
    assert isinstance(failed, ConvergenceError)
    assert failed.t == failed.h == 0.05 / 2 ** engine.MAX_HALVINGS
    monkeypatch.undo()
    _is_own_run(partner, circuits[1])


def test_batch_of_one_is_tran(figure_runs):
    # fig4b, whose figure run is its tran
    own = figure_runs["fig4b"].waves
    (waves,) = tran_batch([_circ(figure_runs["fig4b"].netlist)])
    assert waves.stats == own.stats
    for name, values in own.channels.items():
        assert np.array_equal(waves.channel(name), values)
