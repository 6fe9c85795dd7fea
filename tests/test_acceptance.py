"""End-to-end acceptance tests for the simulator and circuit templates.

One test per criterion; each prints a single PASS/FAIL summary line.
Tolerances are pinned inline and must not be loosened.
"""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpus
import test_netlist
from conftest import crossing_rate
from qpsjsim.analysis import (detect_pulses, neuron_firing_energy,
                              switching_energy, window_charges)
from qpsjsim.devices import damping_parameter
from qpsjsim.engine import tran
from qpsjsim.netlist import NetlistError, elaborate, parse_netlist
from qpsjsim.reference import reference_integrate
from qpsjsim.templates import (NetworkSpec, SynapseMultiParams,
                               multistate_synapse_netlist, network_netlist)
from qpsjsim.units import PHI0, TWO_E, TWO_E_SI


def _report(label, ok, detail):
    print(f"\n{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _circ(text):
    return elaborate(parse_netlist(text))


def _firings(waves, channel, min_quanta=4.0):
    train = detect_pulses(waves.time, waves.channel(channel))
    return [e for e in train.events if e.charge / TWO_E > min_quanta]


def _quantized_count(waves, channel):
    train = detect_pulses(waves.time, waves.channel(channel))
    return sum(round(e.charge / TWO_E) for e in train.events
               if round(e.charge / TWO_E) >= 1)


# --- 1: Coulomb blockade ----------------------------------------------------

def test_ac1_coulomb_blockade():
    t0 = time.perf_counter()
    waves = tran(_circ("""blockade
Vb n1 0 dc 0.49m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n
.tran 1p 1000p
.end
"""))
    elapsed = time.perf_counter() - t0
    mean_i = abs(float(np.mean(waves.channel("i(q1)"))))  # uA
    ok = mean_i < 1e-6 and elapsed < 1.0
    _report("AC1 Coulomb blockade",
            ok, f"mean |i| = {mean_i:.2e} uA at 0.7*Vc bias over 1 ns, "
                f"{elapsed:.2f} s")


# --- 2: charge quantization (property-tested) -------------------------------

_AC2_CACHE = {}


@settings(max_examples=25, deadline=None)
@given(hw=st.floats(min_value=10.0, max_value=50.0),
       phase=st.floats(min_value=900.0, max_value=1300.0))
def _charge_quantization_property(hw, phase):
    neuron = _AC2_CACHE["neuron"]
    binary = _AC2_CACHE["binary"]
    # synapse output junction: isolated switching pulses; full-window
    # integration of any window wide enough to span the event gives 2e
    t, i = binary.time, binary.channel("i(q1)")
    events = detect_pulses(t, i)
    q = window_charges(t, i, events.times(), hw)
    assert np.all(np.abs(q / TWO_E - 1.0) < 0.01)
    # neuron bank junction: one 2e slip per firing
    bank = detect_pulses(neuron.time, neuron.channel("i(q1)"))
    assert len(bank) > 0
    assert np.all(np.abs(bank.charges() / TWO_E - 1.0) < 0.01)
    # neuron input junction: its current includes the continuous staircase
    # charging of the integration node, so quantization appears as exactly
    # ten 2e per firing cycle (1200 ps) regardless of window phase
    m = (neuron.time >= phase) & (neuron.time <= phase + 1200.0)
    q_cycle = float(np.trapezoid(neuron.channel("i(q0)")[m], neuron.time[m]))
    assert abs(q_cycle / (10.0 * TWO_E) - 1.0) < 0.01


def test_ac2_charge_quantization(neuron_run, binary_on_run):
    _AC2_CACHE["neuron"] = neuron_run.waves
    _AC2_CACHE["binary"] = binary_on_run.waves
    try:
        _charge_quantization_property()
        ok, detail = True, ""
    except AssertionError as exc:
        ok, detail = False, str(exc).splitlines()[0]
    n_events = len(detect_pulses(binary_on_run.waves.time,
                                 binary_on_run.waves.channel("i(q1)")))
    _report("AC2 charge quantization", ok,
            detail or f"{n_events} synapse pulses + neuron channels all "
                      f"within 1% of n x 2e under property testing")


# --- 3: neuron threshold ----------------------------------------------------

def test_ac3_neuron_threshold(neuron_run):
    p = neuron_run.params
    waves = neuron_run.waves
    period = p.pulse_period * 1e12  # ps
    firings = _firings(waves, "i(rload)")
    n_expected = p.n_pulses // p.n_threshold
    count_ok = len(firings) == n_expected
    gaps = np.diff([e.t_peak for e in firings])
    spacing_ok = bool(np.all(np.abs(gaps / period - p.n_threshold) < 0.5))
    charges = np.array([e.charge for e in firings])
    target = p.n_threshold * TWO_E  # 10 Cooper pairs = 20 electrons
    charge_ok = bool(np.all(np.abs(charges / target - 1.0) < 0.01))
    time_ok = neuron_run.elapsed < 10.0
    ok = count_ok and spacing_ok and charge_ok and time_ok
    _report("AC3 neuron threshold", ok,
            f"{len(firings)} firings over {p.n_pulses} inputs "
            f"(expected {n_expected}), spacing "
            f"{'/'.join(f'{g / period:.2f}' for g in gaps)} periods, charge "
            f"{'/'.join(f'{c / TWO_E:.3f}' for c in charges)} x 2e vs 10, "
            f"{neuron_run.elapsed:.1f} s")


# --- 4: binary synapse ------------------------------------------------------

def test_ac4_binary_synapse(binary_on_run, binary_off_run):
    p_on = binary_on_run.params
    n_on = _quantized_count(binary_on_run.waves, "i(q1)")
    n_off = _quantized_count(binary_off_run.waves, "i(q1)")
    # the low-Ic state must also emit exactly one pulse inside every
    # input period, not just the right total
    events = detect_pulses(binary_on_run.waves.time,
                           binary_on_run.waves.channel("i(q1)"))
    starts = (p_on.pulse_delay + np.arange(p_on.n_pulses) * p_on.pulse_period) \
        * 1e12
    per_input = [sum(1 for e in events.events
                     if s <= e.t_peak < s + p_on.pulse_period * 1e12)
                 for s in starts]
    ok = (n_on == p_on.n_pulses and per_input == [1] * p_on.n_pulses
          and n_off == 0
          and binary_on_run.elapsed < 10.0 and binary_off_run.elapsed < 10.0)
    _report("AC4 binary synapse", ok,
            f"Ic=200 uA: {n_on} pulses over {p_on.n_pulses} inputs "
            f"(one per input: {all(c == 1 for c in per_input)}); "
            f"Ic=300 uA: {n_off} pulses; "
            f"{binary_on_run.elapsed:.1f}/{binary_off_run.elapsed:.1f} s")


# --- 5: multi-state synapse -------------------------------------------------

def test_ac5_multistate_synapse():
    t0 = time.perf_counter()
    counts = []
    currents = []
    for state in range(4):
        p = SynapseMultiParams(state=state, n_pulses=5)
        waves = tran(elaborate(parse_netlist(multistate_synapse_netlist(p))))
        counts.append(_quantized_count(waves, "i(q1)"))
        currents.append(p.ic_j2_states[state] * 1e6)
    elapsed = time.perf_counter() - t0
    first_zero = counts.index(0) if 0 in counts else len(counts)
    decreasing = all(a > b for a, b in zip(counts[:first_zero],
                                           counts[1:first_zero + 1]))
    tail_zero = all(c == 0 for c in counts[first_zero:])
    ok = decreasing and tail_zero and counts[-1] == 0 and elapsed < 30.0
    _report("AC5 multi-state synapse", ok,
            "counts over Ic {10,50,350,400} uA = "
            f"{counts} (strictly decreasing to 0), {elapsed:.1f} s")


# --- 6: network -------------------------------------------------------------

def _expected_weight1_pulses(spec, row):
    total = 0
    for x, per in enumerate(spec.input_periods):
        if row[x]:
            delay = spec.pulse_delay + x * spec.delay_stagger
            total += int(math.floor((spec.duration - delay) / per)) + 1
    return total


def test_ac6_network(figure_runs):
    results = []
    ok = True
    elapsed = 0.0
    for fig, weights in (("fig8", ((1, 1, 1), (0, 1, 1))),
                         ("fig9", ((1, 0, 1), (0, 0, 1)))):
        spec = NetworkSpec(weights=weights,
                           input_periods=(60e-12, 90e-12, 120e-12))
        run = figure_runs[fig]
        assert run.netlist == network_netlist(spec)
        waves, elapsed = run.waves, elapsed + run.elapsed
        for y, row in enumerate(spec.weights):
            expected = _expected_weight1_pulses(spec, row) \
                // spec.neuron.n_threshold
            got = len(_firings(waves, f"i(rloadn{y})"))
            ok = ok and abs(got - expected) <= 1
            results.append(f"{list(row)}:{got} (floor {expected})")
    ok = ok and elapsed < 60.0
    _report("AC6 network", ok,
            f"firing counts per neuron {'; '.join(results)}, +-1 allowed, "
            f"{elapsed:.1f} s")


# --- 7: energy --------------------------------------------------------------

def test_ac7_energy():
    e_switch = switching_energy(10e-3)  # J
    e_fire = neuron_firing_energy(10e-3, 10)  # J
    ok = (abs(e_switch / 3.2e-21 - 1.0) < 0.005
          and abs(e_fire / 35.2e-21 - 1.0) < 0.005)
    _report("AC7 energy", ok,
            f"switching {e_switch * 1e21:.4f} zJ vs 3.2, "
            f"firing {e_fire * 1e21:.4f} zJ vs 35.2, both +-0.5%")


# --- 8: damping parameter ---------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(l=st.floats(min_value=1e-13, max_value=1e-8),
       k=st.floats(min_value=0.25, max_value=64.0))
def _damping_linear_property(l, k):
    assert damping_parameter(0.7e-3, k * l, 10e3) == pytest.approx(
        k * damping_parameter(0.7e-3, l, 10e3), rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(r=st.floats(min_value=1.0, max_value=1e6),
       k=st.floats(min_value=0.25, max_value=64.0))
def _damping_inverse_square_property(r, k):
    assert damping_parameter(0.7e-3, 1e-12, k * r) == pytest.approx(
        damping_parameter(0.7e-3, 1e-12, r) / (k * k), rel=1e-9)


def test_ac8_damping_parameter():
    triples = [
        ((0.7e-3, 10e-12, 10e3), 1.3725796486921728e-03),
        ((10e-3, 1e-9, 1e3), 1.9608280695602474e+02),
        ((1e-3, 100e-12, 500.0), 7.843312278240988e+00),
    ]
    hand_ok = all(abs(damping_parameter(*args) / expected - 1.0) < 1e-9
                  for args, expected in triples)
    try:
        _damping_linear_property()
        _damping_inverse_square_property()
        prop_ok = True
    except AssertionError:
        prop_ok = False
    _report("AC8 damping parameter", hand_ok and prop_ok,
            f"3 hand-computed triples within 1e-9 rel ({hand_ok}), "
            f"linear-in-L and 1/R^2 properties ({prop_ok})")


# --- 9: oracle equivalence --------------------------------------------------

def test_ac9_oracle_equivalence():
    qpsj = _circ("""qpsj oracle
Vb n1 0 dc 1.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0
.tran 0.0025p 20p
.end
""")
    jj = _circ("""jj oracle
Ib 0 n1 dc 300u
jj J1 n1 0 ic=200u rn=5 cj=0
.tran 0.005p 20p
.end
""")

    def rms_mismatch(circ, channel):
        ref = reference_integrate(circ)
        eng = tran(circ)
        diff = eng.channel(channel) - ref.channel(channel)
        return float(np.sqrt(np.mean(diff ** 2))
                     / np.sqrt(np.mean(ref.channel(channel) ** 2)))

    rms_q = rms_mismatch(qpsj, "i(q1)")
    rms_j = rms_mismatch(jj, "v(n1)")
    rms_ji = rms_mismatch(jj, "i(j1)")  # the whole junction current

    # dual frequency relations on longer engine runs
    wj = tran(jj, tstop=50.0)
    fj, vbar = crossing_rate(wj.time, wj.channel("v(n1)"))
    wq = tran(qpsj, tstop=50.0)
    fq, ibar = crossing_rate(wq.time, wq.channel("i(q1)"))
    josephson = abs(fj / (vbar / PHI0) - 1.0)
    bloch = abs(fq / (ibar / TWO_E) - 1.0)

    ok = (rms_q < 0.01 and rms_j < 0.01 and rms_ji < 0.01
          and josephson < 0.01 and bloch < 0.01)
    _report("AC9 oracle equivalence", ok,
            f"RMS vs reference: QPSJ {rms_q * 100:.2f}%, "
            f"JJ {rms_j * 100:.2f}%, JJ current {rms_ji * 100:.2f}%; "
            f"f = Vbar/Phi0 within {josephson * 100:.2f}%, "
            f"rate = Ibar/2e within {bloch * 100:.2f}%")


# --- 10: parser robustness --------------------------------------------------

def test_ac10_parser_corpus_and_fuzz():
    n_valid = 0
    for text in corpus.VALID:
        circuit = elaborate(parse_netlist(text))
        assert len(circuit.devices) > 0
        n_valid += 1
    n_invalid = 0
    for text, needle in corpus.INVALID:
        with pytest.raises(NetlistError) as err:
            parse_netlist(text)
        assert needle in str(err.value)
        n_invalid += 1
    for text, needle in corpus.INVALID_ELABORATE:
        with pytest.raises(NetlistError) as err:
            elaborate(parse_netlist(text))
        assert needle in str(err.value)
        n_invalid += 1

    rng = random.Random(987654321)
    total, chunk = 100_000, 50
    for _ in range(total // chunk):
        lines = [test_netlist._random_line(rng) for _ in range(chunk)]
        try:
            elaborate(parse_netlist("fuzz\n" + "\n".join(lines) + "\n.end\n"))
        except NetlistError:
            pass
    ok = n_valid + n_invalid >= 20
    _report("AC10 parser robustness", ok,
            f"corpus {n_valid} valid + {n_invalid} invalid netlists, "
            f"{total} fuzz lines without crashes")
