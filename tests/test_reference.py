"""Reference Dormand-Prince integrator: analytic and exact (Adler
equation) solutions, the shared output grid, argument checks and topology
gating."""

import math

import numpy as np
import pytest

from qpsjsim import reference
from qpsjsim.engine import EngineError, TimeGridError, WaveformSet, tran
from qpsjsim.netlist import elaborate, parse_netlist
from qpsjsim.reference import (UnsupportedTopologyError, _march,
                               reference_integrate)
from qpsjsim.units import PHI0, TWO_E


def _circ(text):
    return elaborate(parse_netlist(text))


# an overdriven ls=0 QPSJ (Bloch oscillating), with its .tran arguments open
_BLOCH = ("t\nVb n1 0 dc 1.5m\nqpsj Q1 n1 0 vc=0.7m rn=10k ls=0\n"
          ".tran {}\n.end\n")


def test_lc_tank_matches_analytic():
    # current step I into L || C: iL(t) = I*(1 - cos(w*t)), w = 1/sqrt(LC)
    circ = _circ("""t
Iin 0 n1 pulse(0 1u 0 0.001p 0.001p 1000p 2000p)
L1 n1 0 1n
C1 n1 0 1f
.tran 0.01p 30p
.end
""")
    waves = reference_integrate(circ)
    t = waves.time
    il = waves.channel("i(l1)")
    model = 1.0 * (1.0 - np.cos(t))  # w = 1 rad/ps
    assert np.max(np.abs(il - model)) < 2e-3  # uA


def test_engine_matches_reference_on_lc():
    circ = _circ("""t
Iin 0 n1 pulse(0 1u 1p 0.1p 0.1p 1000p 2000p)
L1 n1 0 1n
C1 n1 0 1f
R1 n1 0 100meg
.tran 0.01p 30p
.save v(n1) i(l1)
.end
""")
    ref = reference_integrate(circ)
    eng = tran(circ)
    err = np.sqrt(np.mean((eng.channel("i(l1)") - ref.channel("i(l1)")) ** 2))
    scale = np.sqrt(np.mean(ref.channel("i(l1)") ** 2))
    assert err / scale < 0.01


def test_engine_matches_reference_jj_current():
    # a pulse switches a damped JJ with a parallel resistor: the junction
    # current, Ic*sin(phi) + v/Rn + Cj*dv/dt, is the source less v/R
    circ = _circ("""t
Ib 0 n1 pulse(0 300u 1p 1p 1p 5p 20p)
R1 n1 0 10
jj J1 n1 0 ic=200u rn=5 cj=0.5f
.tran 0.005p 40p
.end
""")
    ref = reference_integrate(circ)
    eng = tran(circ)
    for name in ("i(j1)", "v(n1)"):
        err = np.sqrt(np.mean((eng.channel(name) - ref.channel(name)) ** 2))
        assert err / np.sqrt(np.mean(ref.channel(name) ** 2)) < 0.01
    i = ref.channel("i(j1)")
    assert i.min() == 0.0 and i.max() > 250.0


def _adler(t, a, b, theta0):
    """Exact solution of dtheta/dt = a - b*sin(theta), a > b > 0, from
    theta(0) = theta0 in (-pi, pi): tan(theta/2) = (b + w*tan(s))/a with
    w = sqrt(a^2 - b^2) and s = w*(t - t0)/2; theta gains 2*pi each time s
    passes a pole of tan."""
    w = math.sqrt(a * a - b * b)
    s = math.atan((a * math.tan(theta0 / 2) - b) / w) + w * t / 2
    n = np.floor(s / np.pi + 0.5)
    return 2 * np.arctan((b + w * np.tan(s)) / a) + 2 * np.pi * n


def test_reference_matches_exact_adler_solutions():
    # the AC9 circuits: an ls=0 QPSJ across 1.5 mV and a cj=0 JJ fed
    # 300 uA, both overdriven, so both start at angle pi/2 (clamped DC)
    qpsj = _circ(_BLOCH.format("0.0025p 20p"))
    jj = _circ("""t
Ib 0 n1 dc 300u
jj J1 n1 0 ic=200u rn=5 cj=0
.tran 0.005p 20p
.end
""")
    w = 2 * math.pi / TWO_E  # charge angle per aC
    wq = reference_integrate(qpsj)
    theta = _adler(wq.time, w * 1.5 / 10, w * 0.7 / 10, math.pi / 2)
    exact_q = {"i(q1)": (1.5 - 0.7 * np.sin(theta)) / 10,  # uA; rn in kohm
               "v(n1)": np.full_like(theta, 1.5)}
    g = 1 / 0.005  # 1/kohm
    wj = reference_integrate(jj)
    phi = _adler(wj.time, 2 * math.pi * 300 / (PHI0 * g),
                 2 * math.pi * 200 / (PHI0 * g), math.pi / 2)
    exact_j = {"v(n1)": (300 - 200 * np.sin(phi)) / g,  # mV
               "i(j1)": np.full_like(phi, 300.0)}  # the whole source
    for got, exact in ((wq, exact_q), (wj, exact_j)):
        assert sorted(got.channels) == sorted(exact)
        for name, want in exact.items():
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got.channel(name) - want)) < 1e-10 * scale


def test_reference_steps_at_the_pace_of_its_error_control(monkeypatch):
    # the AC9 QPSJ's 8,001 samples are read between step ends, so it needs
    # far fewer than the 6 evaluations per sample a step to each one costs
    calls = 0
    march = reference._march

    def counting_march(f, *args):
        def counted(t, y):
            nonlocal calls
            calls += 1
            return f(t, y)
        return march(counted, *args)

    monkeypatch.setattr(reference, "_march", counting_march)
    waves = reference_integrate(_circ(_BLOCH.format("0.0025p 20p")))
    assert len(waves.time) == 8001 and calls < 10_000


@pytest.mark.parametrize("text", [
    "t\nVb n1 0 pulse(0 1.5m 1p 1p 1p 5p 20p)\nR1 n1 n2 1k\n"
    "qpsj Q1 n2 0 vc=0.7m rn=10k ls=0.05n\n.tran 0.01p 20p\n.end\n",
    "t\nIin 0 n1 pulse(0 1u 1p 0.1p 0.1p 1000p 2000p)\nL1 n1 0 1n\n"
    "C1 n1 0 1f\nR1 n1 0 100meg\n.tran 0.01p 30p\n.end\n",
], ids=["qpsj_pulse_ls", "lc_tank"])
def test_reference_rests_exactly_until_the_pulse_starts(text):
    # a step ends on the 1 ps corner, so no sample before it is read from
    # an interpolant of a step that saw the pulse
    waves = reference_integrate(_circ(text))
    for values in waves.channels.values():
        assert not values[waves.time <= 1.0].any()


def test_reference_samples_the_tran_grid_from_tstart():
    circ = _circ(_BLOCH.format("0.01p 2p 1p"))
    ref = reference_integrate(circ)
    assert len(ref.time) == 101 and ref.time[0] == pytest.approx(1.0)
    np.testing.assert_array_equal(ref.time, tran(circ).time)
    full = reference_integrate(_circ(_BLOCH.format("0.01p 2p")))
    # the samples before tstart are integrated through, only not recorded
    np.testing.assert_array_equal(ref.channel("i(q1)"),
                                  full.channel("i(q1)")[100:])


@pytest.mark.parametrize("tstep, tstop", [
    (0.0, 2.0), (-0.01, 2.0), (0.01, math.nan), (0.01, math.inf),
    (3.0, 2.0), (0.01, 0.5),  # this one stops before the 1 ps tstart
    (1e-300, 1e10), (1e-6, 1e300)])  # grids too long to size
def test_reference_rejects_bad_time_grid_like_tran(tstep, tstop):
    circ = _circ(_BLOCH.format("0.01p 2p 1p"))
    with pytest.raises(TimeGridError):
        reference_integrate(circ, tstep=tstep, tstop=tstop)
    with pytest.raises(TimeGridError):
        tran(circ, tstep=tstep, tstop=tstop)


@pytest.mark.parametrize("f", [
    lambda t, y: (y[0] * y[0],),  # y = 1/(1 - t) blows up at t = 1
    lambda t, y: (math.nan,)])
def test_reference_march_raises_instead_of_looping(f):
    with pytest.raises(EngineError, match="at t ="):
        _march(f, [1.0], {"y": lambda t, y: y[0]}, np.arange(3.0), 0)


def _dot(coefficients, values):
    # left to right from 0.0, as sum() adds floats on CPython 3.10 and 3.11
    total = 0.0
    for a, v in zip(coefficients, values):
        total += a * v
    return total


def _stage_loop_march(f, y0, outputs, grid, skip, breaks=None):
    """reference._march as a generic loop over the rows of its tableau."""
    t, y = 0.0, tuple(y0)
    k1 = f(t, y)
    h = float(grid[1])
    data = np.empty((len(outputs), len(grid) - skip))
    if not skip:
        data[:, 0] = [fn(t, y) for fn in outputs.values()]
    later = map(float, grid[1:])
    k, tk = 1, next(later)
    for bp in (float(grid[-1]),) if breaks is None else breaks:
        while t < bp:
            h_try = min(h, bp - t)
            ks = [k1]
            for c, row in zip(reference._C, reference._A):
                yi = tuple(yj + h_try * _dot(row, kj)
                           for yj, kj in zip(y, zip(*ks)))
                ks.append(f(t + c * h_try, yi))
            err = max(abs(h_try * _dot(reference._E, kj))
                      / (1.0 + max(abs(a), abs(b)))
                      for a, b, kj in zip(y, yi, zip(*ks))) / reference._TOL
            assert math.isfinite(err) and h_try > 1e-12 * float(grid[1])
            h = h_try * min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))
            if err > 1.0:
                continue
            t_new = bp if h_try == bp - t else t + h_try
            rs = []
            for a, b, kj in zip(y, yi, zip(*ks)):
                r2 = b - a
                r3 = h_try * kj[0] - r2
                rs.append((a, r2, r3, r2 - h_try * kj[-1] - r3,
                           h_try * _dot(reference._D, kj)))
            while tk <= t_new:
                s = (tk - t) / h_try
                yk = yi if tk == t_new else [
                    a + s * (r2 + (1.0 - s) * (r3 + s * (r4 + (1.0 - s) * r5)))
                    for a, r2, r3, r4, r5 in rs]
                if k >= skip:
                    data[:, k - skip] = [fn(tk, yk) for fn in outputs.values()]
                k, tk = k + 1, next(later, math.inf)
            t, y, k1 = t_new, yi, ks[-1]
    return WaveformSet(grid[skip:], dict(zip(outputs, data)))


@pytest.mark.parametrize("text", [
    _BLOCH.format("0.0025p 20p"),
    "t\nIb 0 n1 dc 300u\njj J1 n1 0 ic=200u rn=5 cj=0\n.tran 0.005p 20p\n.end\n",
    "t\nIin 0 n1 pulse(0 1u 1p 0.1p 0.1p 1000p 2000p)\nL1 n1 0 1n\n"
    "C1 n1 0 1f\nR1 n1 0 100meg\n.tran 0.01p 30p\n.end\n",
    "t\nVb n1 0 pulse(0 1.5m 1p 1p 1p 5p 20p)\nR1 n1 n2 1k\n"
    "qpsj Q1 n2 0 vc=0.7m rn=10k ls=0.05n\n.tran 0.01p 20p\n.end\n",
    "t\nIb 0 n1 pulse(0 300u 1p 1p 1p 5p 20p)\nR1 n1 0 10\n"
    "jj J1 n1 0 ic=200u rn=5 cj=0.5f\n.tran 0.005p 20p\n.end\n",
], ids=["qpsj_ac9", "jj_ac9", "lc_tank", "qpsj_pulse_ls", "jj_pulse_cj"])
def test_written_out_stages_match_the_stage_loop_bit_for_bit(text,
                                                             monkeypatch):
    circuit = _circ(text)
    got = reference_integrate(circuit)
    monkeypatch.setattr(reference, "_march", _stage_loop_march)
    want = reference_integrate(circuit)
    assert list(got.channels) == list(want.channels)
    np.testing.assert_array_equal(got.time, want.time)
    for name, values in want.channels.items():
        assert np.array_equal(got.channel(name), values), name


def test_qpsj_reference_transports_positive_charge():
    circ = _circ("""t
Vb n1 0 dc 1.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0
.tran 0.01p 20p
.end
""")
    waves = reference_integrate(circ)
    i = waves.channel("i(q1)")
    assert np.all(i > 0)  # overdriven junction conducts continuously
    assert np.trapezoid(i, waves.time) > 0


def test_qpsj_reference_accepts_series_resistor():
    circ = _circ("""t
Vb n1 0 dc 1.5m
R1 n1 n2 1k
qpsj Q1 n2 0 vc=0.7m rn=10k ls=0.05n
.tran 0.01p 20p
.end
""")
    waves = reference_integrate(circ)
    assert "i(q1)" in waves


def test_jj_reference_accepts_parallel_resistor():
    circ = _circ("""t
Ib 0 n1 dc 300u
R1 n1 0 10
jj J1 n1 0 ic=200u rn=5 cj=0.5f
.tran 0.005p 20p
.end
""")
    waves = reference_integrate(circ)
    assert "v(n1)" in waves


def test_unsupported_topology_raises():
    circ = _circ("""t
Vs n1 0 dc 1m
R1 n1 n2 1k
C1 n2 0 1f
.tran 1p 10p
.end
""")
    with pytest.raises(UnsupportedTopologyError):
        reference_integrate(circ)


def test_two_junctions_unsupported():
    circ = _circ("""t
Vb n1 0 dc 1.5m
qpsj Q1 n1 n2 vc=0.7m rn=10k ls=0
qpsj Q2 n2 0 vc=0.7m rn=10k ls=0
.tran 0.01p 10p
.end
""")
    with pytest.raises(UnsupportedTopologyError):
        reference_integrate(circ)
