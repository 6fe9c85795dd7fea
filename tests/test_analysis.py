"""Pulse detection, charge accounting, energy figures and CSV round trips."""

import csv
import io
import math

import numpy as np
import pytest

from qpsjsim import analysis
from qpsjsim.analysis import (detect_pulses, export_csv, neuron_firing_energy,
                              switching_energy, window_charges)
from qpsjsim.cli import EXIT_OK, main
from qpsjsim.engine import WaveformSet
from qpsjsim.units import TWO_E, TWO_E_SI


def _gaussian_train(centers, areas, sigma=0.5, tmax=100.0, dt=0.01):
    t = np.arange(0.0, tmax, dt)
    v = np.zeros_like(t)
    for c, a in zip(centers, areas):
        v += a / (sigma * math.sqrt(2.0 * math.pi)) * np.exp(
            -0.5 * ((t - c) / sigma) ** 2)
    v[v < 1e-9] = 0.0  # let the pulses return exactly to baseline
    return t, v


# --- pulse detection --------------------------------------------------------

def test_detect_pulses_counts_times_and_charges():
    t, v = _gaussian_train([20.0, 50.0, 80.0], [1.0, 1.2, 0.9])
    train = detect_pulses(t, v)
    assert len(train) == 3
    assert np.allclose(train.times(), [20.0, 50.0, 80.0], atol=0.02)
    # the above-baseline window catches essentially the full gaussian area
    assert np.allclose(train.charges(), [1.0, 1.2, 0.9], rtol=2e-2)
    assert all(e.width > 0 for e in train.events)


def test_detect_pulses_ignores_subthreshold_blips():
    # a pulse below half the channel maximum is not an event
    t, v = _gaussian_train([20.0, 60.0], [1.0, 0.2])
    train = detect_pulses(t, v)
    assert len(train) == 1
    assert train.events[0].t_peak == pytest.approx(20.0, abs=0.02)


def test_detect_pulses_merges_close_events():
    # two narrow pulses that return to zero between them: closer than
    # the 1.0 ps merge distance they are one event carrying both charges
    t, v = _gaussian_train([50.0, 50.6], [1.0, 1.0], sigma=0.04)
    assert v[np.searchsorted(t, 50.3)] == 0.0
    merged = detect_pulses(t, v)
    assert len(merged) == 1
    assert merged.events[0].charge == pytest.approx(2.0, rel=2e-2)
    apart = detect_pulses(*_gaussian_train([50.0, 51.5], [1.0, 1.0],
                                           sigma=0.04))
    assert len(apart) == 2


@pytest.mark.parametrize("offset", [0.0, 3.0, -2.0, 140.0])
def test_detect_pulses_nonzero_baseline(offset):
    # the first sample is the baseline: a constant bias changes nothing
    t, v = _gaussian_train([20.0, 50.0, 80.0], [1.0, 1.2, 0.9])
    ref = detect_pulses(t, v)
    train = detect_pulses(t, v + offset)
    assert len(ref) == len(train) == 3
    for e, r in zip(train.events, ref.events):
        assert e.t_peak == r.t_peak
        assert e.width == r.width
        assert e.charge == pytest.approx(r.charge, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("noise", [1e-16, -1e-16])
def test_detect_pulses_charge_ignores_the_sign_of_baseline_noise(noise):
    # a pulse on a zero baseline whose pre-rise sample is rounding noise:
    # above the baseline it opens the window one sample early, below it
    # it does not; the charge must not depend on which
    t = np.arange(0.0, 10.0, 0.05)
    v = np.where((t > 4.0) & (t < 6.0), np.sin(np.pi * (t - 4.0) / 2.0), 0.0)
    clean = detect_pulses(t, v).charges()
    v[np.searchsorted(t, 4.0)] = noise
    noisy = detect_pulses(t, v).charges()
    assert len(clean) == len(noisy) == 1
    assert noisy[0] == pytest.approx(clean[0], rel=1e-9)


def test_detect_pulses_identical_synapse_pulses_carry_equal_charge(
        binary_on_run):
    # the ten fig4a output pulses are the same event ten times over
    waves = binary_on_run.waves
    charges = detect_pulses(waves.time, waves.channel("i(q1)")).charges()
    assert len(charges) == 10
    assert np.ptp(charges) < 1e-6 * TWO_E


def test_detect_pulses_empty_and_flat():
    t = np.arange(0.0, 10.0, 0.1)
    assert len(detect_pulses(t, np.zeros_like(t))) == 0
    assert len(detect_pulses(t, np.full_like(t, -1.0))) == 0


def test_detect_pulses_no_events_where_the_threshold_rounds_onto_base():
    # three one-ulp bumps on a 140 uA bias: base + (peak - base)/2 rounds
    # to base, so every sample would count as high
    t = np.arange(1000) * 0.05
    values = np.full(1000, 140.0)
    values[[200, 500, 800]] = np.nextafter(140.0, np.inf)
    assert 140.0 + analysis.THRESHOLD_FRACTION * (values.max() - 140.0) == 140.0
    assert len(detect_pulses(t, values)) == 0
    # four ulps lift the threshold, and the re-arm level, off the baseline
    values[[200, 500, 800]] = 140.0 + 4 * np.spacing(140.0)
    assert detect_pulses(t, values).times().tolist() == [10.0, 25.0, 40.0]


def test_detect_pulses_input_validation():
    with pytest.raises(ValueError):
        detect_pulses([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        detect_pulses([], [])
    with pytest.raises(ValueError):
        detect_pulses([0.0, 1.0], [0.0, float("nan")])


# --- window integration -----------------------------------------------------

def test_window_charges_recovers_full_areas():
    t, v = _gaussian_train([30.0, 70.0], [1.5, 0.75])
    q = window_charges(t, v, [30.0, 70.0], half_width=10.0)
    assert np.allclose(q, [1.5, 0.75], rtol=1e-6)


def test_window_charges_validation():
    t, v = _gaussian_train([30.0], [1.0])
    with pytest.raises(ValueError):
        window_charges(t, v, [30.0], half_width=0.0)
    with pytest.raises(ValueError):
        window_charges(t, v, [500.0], half_width=1.0)


# --- energy figures ---------------------------------------------------------

def test_switching_energy_values():
    assert switching_energy(10e-3) == pytest.approx(TWO_E_SI * 10e-3)
    # scaled call: vc in mV with 2e in aC gives zJ
    assert switching_energy(10.0, two_e=TWO_E) == pytest.approx(3.204353)
    with pytest.raises(ValueError):
        switching_energy(-1.0)


def test_neuron_firing_energy_counts_all_switches():
    assert neuron_firing_energy(10e-3, 10) == pytest.approx(
        11.0 * TWO_E_SI * 10e-3)


# --- CSV round trips --------------------------------------------------------

def test_waveform_csv_roundtrip_exact(tmp_path):
    waves = WaveformSet(np.array([0.0, 0.1, 0.2]),
                        {"v(n1)": np.array([0.5, -1.25e-7, 3.0]),
                         "i(q1)": np.array([1.0, 2.0, -0.125])})
    path = tmp_path / "waveforms.csv"
    export_csv(waves, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["time_ps", "v(n1)", "i(q1)"]
    back = np.array(rows, dtype=float)
    assert np.array_equal(back[:, 0], waves.time)
    for k, name in enumerate(header[1:], start=1):
        assert np.array_equal(back[:, k], waves.channel(name))


SPIKE_NETLIST = """biased junction pair
Vin n1 0 pulse(0 1.5m 5p 0.5p 0.5p 20p 40p)
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0
Ib 0 n2 dc 50u
Iin 0 n2 pulse(0 100u 5p 0.5p 0.5p 2p 10p)
jj J1 n2 0 ic=100u rn=10 cj=1f
.tran 0.01p 40p
.end
"""


def test_spike_csv_roundtrip_exact(tmp_path):
    # the rows of `qpsjsim sim`'s spikes.csv read back to exactly the
    # events detect_pulses finds on its waveforms.csv
    net = tmp_path / "pair.cir"
    net.write_text(SPIKE_NETLIST)
    out = tmp_path / "out"
    assert main(["sim", str(net), "--out", str(out)]) == EXIT_OK
    with open(out / "waveforms.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    data = np.array(rows, dtype=float)
    expected = []
    for k, name in enumerate(header[1:], start=1):
        if name.startswith("i("):
            train = detect_pulses(data[:, 0], data[:, k])
            expected += [(name, e.t_peak, e.charge, e.width)
                         for e in train.events]
    with open(out / "spikes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = [(r["channel"], float(r["t_peak_ps"]), float(r["charge_ac"]),
            float(r["width_ps"])) for r in rows]
    assert {name for name, *_ in got} == {"i(j1)", "i(q1)"}
    assert got == expected


def test_csv_blocks_write_the_bytes_of_row_by_row_repr(tmp_path):
    # more rows than two blocks, not a multiple of one, with values whose
    # repr is unusual: negative zero, the smallest subnormal, a huge value
    n = 2 * analysis._CSV_BLOCK + 7
    special = np.resize([-0.0, 5e-324, 1e300, 0.1], n)
    waves = WaveformSet(np.arange(n) * 0.05,
                        {"v(n1)": special, "i(q1)": -special[::-1]})
    path = tmp_path / "waveforms.csv"
    export_csv(waves, path)
    # the row-by-row form the blocks replace
    columns = [waves.time] + list(waves.channels.values())
    rows = io.StringIO()
    writer = csv.writer(rows, lineterminator="\n")
    writer.writerow(["time_ps"] + list(waves.channels))
    writer.writerows(tuple(repr(float(c[k])) for c in columns)
                     for k in range(n))
    assert path.read_bytes() == rows.getvalue().encode()


def test_csv_export_is_deterministic(tmp_path):
    waves = WaveformSet(np.array([0.0, 1.0]), {"v(a)": np.array([0.1, 0.2])})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(waves, p1)
    export_csv(waves, p2)
    assert p1.read_bytes() == p2.read_bytes()
