"""MNA engine tests: DC treatment, linear-circuit oracles, junction
dynamics, convergence behavior and probe handling."""

import math
import warnings

import numpy as np
import pytest

from qpsjsim import cli, engine
from qpsjsim.cli import EXIT_CONVERGENCE, main
from qpsjsim.engine import (ConvergenceError, EngineError, TimeGridError,
                            WaveformSet, dc_operating_point, tran)
from qpsjsim.netlist import elaborate, parse_netlist
from qpsjsim.reference import _source
from qpsjsim.templates import (NetworkSpec, NeuronParams, SynapseBinaryParams,
                               binary_synapse_netlist, network_netlist,
                               neuron_netlist)
from qpsjsim.units import PHI0, TWO_E

from conftest import crossing_rate


def _circ(text):
    return elaborate(parse_netlist(text))


# --- DC operating point -----------------------------------------------------

def test_dc_resistive_divider():
    op = dc_operating_point(_circ("""t
Vs n1 0 dc 1
R1 n1 n2 1k
R2 n2 0 1k
.tran 1p 10p
.end
"""))
    assert op.node_voltages["n2"] == pytest.approx(500.0, rel=1e-5)  # mV
    assert op.branch_currents["r1"] == pytest.approx(500.0, rel=1e-5)  # uA
    assert op.branch_currents["vs"] == pytest.approx(-500.0, rel=1e-5)


def test_dc_qpsj_blockade_state():
    # half the critical voltage: zero current, q = asin(1/2)/(2pi) * 2e
    op = dc_operating_point(_circ("""t
Vb n1 0 dc 0.35m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n
.tran 1p 10p
.end
"""))
    assert op.branch_currents["q1"] == pytest.approx(0.0, abs=1e-9)
    expected_q = math.asin(0.5) / (2.0 * math.pi) * TWO_E
    assert op.junction_states["q1"] == pytest.approx(expected_q, rel=1e-9)


def test_dc_jj_phase_from_bias():
    # current bias at Ic/2: superconducting short, phi = asin(1/2)
    op = dc_operating_point(_circ("""t
Ib 0 n1 dc 100u
jj J1 n1 0 ic=200u rn=5 cj=1f
.tran 1p 10p
.end
"""))
    assert op.node_voltages["n1"] == pytest.approx(0.0, abs=1e-6)
    assert op.junction_states["j1"] == pytest.approx(math.asin(0.5), rel=1e-6)


def test_dc_parallel_jjs_split_their_bias_equally():
    # the current between two parallel JJs is left free at DC; the
    # least-norm solution shares the 100 uA equally, at no voltage
    op = dc_operating_point(_circ("""t
Ib 0 n1 dc 100u
jj J1 n1 0 ic=200u rn=5 cj=0.1p
jj J2 n1 0 ic=200u rn=5 cj=0.1p
.tran 0.01p 1p
.end
"""))
    assert op.branch_currents["j1"] == op.branch_currents["j2"]
    assert op.branch_currents["j1"] == pytest.approx(50.0, rel=1e-12)
    assert op.junction_states["j1"] == pytest.approx(math.asin(0.25),
                                                     rel=1e-6)


def test_dc_superconducting_loop_is_nonsingular():
    # J1 in parallel with L1 and J2 in series: no JJ holds a voltage at DC,
    # so the current around the loop is left free.  The least-norm
    # solution gives J1 two thirds of the bias and the loop the rest.  It
    # is not the flux-free split: by the fluxoid relation
    # L*i_L = (Phi0/2pi)*(phi1 - phi2), that gives J1 87.2 uA and the loop
    # 12.8 uA
    op = dc_operating_point(_circ("""t
Ib 0 n1 dc 100u
jj J1 n1 0 ic=200u rn=5 cj=0.1p
L1 n1 n2 10p
jj J2 n2 0 ic=200u rn=5 cj=0.1p
.tran 0.01p 1p
.end
"""))
    currents = [op.branch_currents[name] for name in ("j1", "l1", "j2")]
    assert currents == pytest.approx([200 / 3, 100 / 3, 100 / 3], rel=1e-12)


def test_dc_solves_the_transient_system(monkeypatch, figure_runs):
    # DC solves the step's own G, B and W, on the transient unknowns and
    # each junction row's output: fig8's 46 unknowns and 16 outputs.
    # Every figure's system has full rank, so LU solves it, once, and
    # least squares never runs
    unknowns = figure_runs["fig8"].waves.stats["unknowns"]
    netlists = {fig: figure_runs[fig].netlist for fig in cli._FIGURES}
    shapes = []
    solve = np.linalg.solve

    def spy(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    def lstsq(*args, **kwargs):
        raise AssertionError("least squares on a figure's DC system")

    monkeypatch.setattr(np.linalg, "solve", spy)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    with pytest.warns(RuntimeWarning):  # the neurons' bias, as in fig8
        dc_operating_point(_circ(netlists["fig8"]))
    assert unknowns == 46 and shapes == [(62, 62)]
    for fig, netlist in netlists.items():
        sys_ = engine._System([_circ(netlist)])
        shapes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sys_.seed_from_dc()
        size = sys_.N + sys_.A.shape[1]
        assert shapes == [(size, size)], fig


def test_dc_initial_states_respect_overrides():
    op = dc_operating_point(_circ("""t
Vb n1 0 dc 0.35m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n q0=5e-20
.tran 1p 10p
.end
"""))
    assert op.junction_states["q1"] == pytest.approx(0.05, rel=1e-9)


def test_dc_clamp_outside_blockade_warns():
    # 1.5 mV on a 0.7 mV junction: outside the blockade, q seeded at 2e/4
    with pytest.warns(RuntimeWarning, match=r"q1: .*\|v\|/Vc = 2\.143"):
        op = dc_operating_point(_circ("""t
Vb n1 0 dc 1.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0
.tran 0.01p 20p
.end
"""))
    assert op.junction_states["q1"] == pytest.approx(TWO_E / 4.0, rel=1e-12)


def test_dc_clamp_outside_superconducting_window_warns():
    with pytest.warns(RuntimeWarning, match=r"j1: .*\|i\|/Ic = 1\.5"):
        op = dc_operating_point(_circ("""t
Ib 0 n1 dc 300u
jj J1 n1 0 ic=200u rn=5 cj=0
.tran 0.005p 50p
.end
"""))
    assert op.junction_states["j1"] == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_jj_current_at_t0_is_its_dc_current():
    # the bias lies outside the window, so the seeded phase sits at its
    # edge (Ic*sin(phi) = Ic), but the junction carries the whole bias
    circ = _circ("""t
Ib 0 n1 dc 300u
jj J1 n1 0 ic=200u rn=5 cj=0
.tran 0.005p 1p
.end
""")
    with pytest.warns(RuntimeWarning):
        op = dc_operating_point(circ)
    assert op.branch_currents["j1"] == pytest.approx(300.0, rel=1e-12)
    with pytest.warns(RuntimeWarning):
        waves = tran(circ)
    assert waves.channel("i(j1)")[0] == pytest.approx(300.0, rel=1e-12)


def test_binary_synapse_mjj_rests_at_its_bias_until_the_first_pulse(
        binary_on_run):
    # the DC state is the transient's rest: J1 carries its whole 140 uA
    # bias at t = 0, and nothing moves it before the input's first corner
    p = binary_on_run.params
    waves = binary_on_run.waves
    before = waves.channel("i(j1)")[waves.time < p.pulse_delay * 1e12]
    assert len(before) == 1000
    assert before == pytest.approx(np.full(len(before), p.ib * 1e6), rel=1e-9)


def test_dc_singular_system_names_node():
    # two DC sources in parallel: no operating point exists, and the
    # residual names the source whose row it breaks
    with pytest.raises(ConvergenceError, match="device 'v2'"):
        dc_operating_point(_circ("""t
V1 n1 0 dc 1m
V2 n1 0 dc 2m
R1 n1 0 1k
.tran 1p 10p
.end
"""))


def test_dc_names_a_junction_whose_row_holds_the_worst_residual():
    # four 1 mV sources across a JJ, which holds no voltage at DC: the
    # least-squares residual is largest on the JJ's own row
    sources = "".join(f"V{k} n1 0 dc 1m\n" for k in range(1, 5))
    with pytest.raises(ConvergenceError, match="device 'j1'"):
        dc_operating_point(_circ(f"t\n{sources}jj J1 n1 0 ic=200u rn=5 cj=0\n"
                                 ".tran 1p 10p\n.end\n"))


# --- linear transients ------------------------------------------------------

def test_rc_step_response_matches_analytic():
    # 1 uA step into 1 kOhm || 1 fF: tau = 1 ps
    waves = tran(_circ("""t
Iin 0 n1 pulse(0 1u 5p 0.01p 0.01p 1000p 2000p)
R1 n1 0 1k
C1 n1 0 1f
.tran 0.01p 25p
.save v(n1) i(c1)
.end
"""))
    t = waves.time
    v = waves.channel("v(n1)")
    t0 = 5.005  # mid-ramp
    model = np.where(t > t0, 1.0 - np.exp(-(np.maximum(t - t0, 0.0))), 0.0)
    assert np.max(np.abs(v - model)) < 2e-3  # mV
    # the settled stretches need fewer steps than the output grid has
    assert waves.stats["accepted_steps"] < len(t) - 1

    # charge conservation: integral of capacitor current equals C * dV
    q = np.trapezoid(waves.channel("i(c1)"), t)
    dv = v[-1] - v[0]
    assert q == pytest.approx(1.0 * dv, rel=2e-3, abs=1e-3)


def test_lc_oscillation_period():
    # 1 nH with 1 fF: omega = 1 rad/ps, period 2*pi ps
    waves = tran(_circ("""t
Iin 0 n1 pulse(0 1u 1p 0.1p 0.1p 1000p 2000p)
L1 n1 0 1n
C1 n1 0 1f
R1 n1 0 100meg
.tran 0.005p 60p
.save v(n1) i(l1)
.end
"""))
    freq, _ = crossing_rate(waves.time, waves.channel("i(l1)"))
    assert 2.0 * math.pi * freq == pytest.approx(1.0, rel=2e-3)


MIXED_SOURCES = """t
Vb n1 0 dc 1.5m
Vp n2 0 pulse(0 1m 1.234p 0.37p 0.41p 2.05p 7.3p)
Ip 0 n3 pulse(0 2u 0.5p 0.1p 0.2p 1p 3p)
Ib n3 0 dc 1u
R1 n1 n2 1k
R2 n2 n3 1k
R3 n3 0 1k
.tran 0.1p 20p
.end
"""


@pytest.mark.parametrize("text", [
    MIXED_SOURCES,
    network_netlist(NetworkSpec(weights=((1, 1, 1), (0, 1, 1)),
                                input_periods=(60e-12, 90e-12, 120e-12))),
], ids=["mixed", "fig8"])
def test_sources_are_each_source_value_at_every_pulse_corner(text):
    # the dc values are held once and the pulses evaluated at t: the same
    # floats as each source's own value, at every corner and half a tstep
    # to each side of it
    circuit = _circ(text)
    system = engine._System([circuit])
    params = [p for m in system.models if m.sources for p in m.params]
    pulses = [p["pulse"] for p in params if "dc" not in p]
    assert 0 < len(pulses) < len(params)
    dt = circuit.tstep / 2
    times = sorted({c + d for p in pulses for c in p.corners(circuit.tstop)
                    for d in (-dt, 0.0, dt)})
    assert len(times) > 10
    for t in times:
        want = np.array([_source(p)(t) for p in params])
        assert system.sources(t).tobytes() == want.tobytes()


# --- step-size control -----------------------------------------------------

def test_steps_land_on_pulse_corners():
    # a periodic pulse whose corners all lie off the 0.1 ps grid, across a
    # resistive divider: v(n2) is the source over two at every step end,
    # so the samples equal it to rounding only if every corner is a step end
    circuit = _circ("""t
Vs n1 0 pulse(0 1m 1.234p 0.37p 0.41p 2.05p 7.3p)
R1 n1 n2 1k
R2 n2 0 1k
.tran 0.1p 40p
.save v(n2)
.end
""")
    pulse = circuit.devices[0].params["pulse"]
    assert pulse.corners(10.0) == pytest.approx(
        [1.234, 1.604, 3.654, 4.064, 8.534, 8.904])
    waves = tran(circuit)
    source = np.array([pulse.value_at(t) for t in waves.time])
    assert np.max(np.abs(waves.channel("v(n2)") - source / 2)) < 1e-9  # mV
    # between the corners the steps grow far above tstep
    assert waves.stats["accepted_steps"] < (len(waves.time) - 1) / 2


def test_a_negative_pulse_delay_skips_the_periods_before_t0(monkeypatch):
    # td = -1 ns, per = 1 ps: the corners start at the first period that
    # reaches t >= 0, not 1000 periods before it, and the breakpoints are
    # those of every corner since td
    circuit = _circ("t\nVs n1 0 pulse(0 1m -1n 0.1p 0.1p 0.3p 1p)\n"
                    "R1 n1 0 1k\n.tran 0.1p 20p\n.end\n")
    pulse = circuit.devices[0].params["pulse"]

    def every_corner(p, tstop):
        offsets = (0.0, p.tr, p.tr + p.pw, p.tr + p.pw + p.tf)
        return [p.td + n * p.per + o for n in range(int((tstop - p.td)
                // p.per) + 1) for o in offsets if p.td + n * p.per + o <= tstop]

    corners = pulse.corners(circuit.tstop)
    assert len(every_corner(pulse, circuit.tstop)) == 4081
    assert len(corners) <= 88 and min(corners) > -2 * pulse.per
    points = engine._breakpoints(circuit, circuit.tstep, circuit.tstop)
    monkeypatch.setattr(type(pulse), "corners", every_corner)
    assert points == engine._breakpoints(circuit, circuit.tstep, circuit.tstop)
    assert len(points) == 80


def test_tstep_is_the_step_floor():
    # an LC tank ringing at 1 rad/ps on a 0.2 ps grid: the LTE estimate
    # wants finer steps throughout, so every step is a grid step, and
    # none is rejected
    waves = tran(_circ("""t
Iin 0 n1 pulse(0 1u 0 0.2p 0.2p 1000p 2000p)
L1 n1 0 1n
C1 n1 0 1f
R1 n1 0 100meg
.tran 0.2p 60p
.end
"""))
    assert waves.stats["accepted_steps"] == len(waves.time) - 1 == 300
    assert waves.stats["lte_rejections"] == 0


def test_thevenin_and_norton_bias_take_one_step_sequence(neuron_run):
    # fig2's bias, Vb behind Rb, and its Norton equivalent, Ib across Rb:
    # a voltage source's branch current is no state of any integration
    # rule, so it must not size the steps.  Newton's iterations may differ.
    thevenin = neuron_run.netlist
    norton = thevenin.replace(
        "Vb nb 0 dc 0.001\nRb nb nm 9000.0\n",
        "Ib 0 nm dc 1.1111111111111112e-07\nRb nm 0 9000.0\n")
    assert norton != thevenin
    a, b = neuron_run.waves, tran(_circ(norton))
    steps = a.stats["accepted_steps"], b.stats["accepted_steps"]
    assert abs(steps[0] - steps[1]) <= 0.01 * max(steps)
    assert a.channels.keys() == b.channels.keys()
    for name, x in a.channels.items():
        assert np.max(np.abs(b.channels[name] - x)) <= 1e-6 * np.max(np.abs(x))


def test_step_sizes_lie_on_a_ladder_and_newton_reuses_its_jacobian(
        monkeypatch):
    # fig4a: every step size the LTE estimate proposes is rounded down to
    # tstep * 2**(j/4); only a step that lands on a pulse corner, or goes
    # halfway to one, is cut to fit.  So step sizes repeat, and Newton
    # keeps its factored Jacobian across the steps of one size.
    circuit = _circ(binary_synapse_netlist(SynapseBinaryParams(state=0)))
    times, sizes = [], []
    sources, newton = engine._System.sources, engine._System._newton

    def spy_sources(self, t):
        times.append(t)
        return sources(self, t)

    def spy_newton(self, xg, x, xd, theta, u, h, trap):
        sizes.append(h)
        return newton(self, xg, x, xd, theta, u, h, trap)

    monkeypatch.setattr(engine._System, "sources", spy_sources)
    monkeypatch.setattr(engine._System, "_newton", spy_newton)
    waves = tran(circuit)
    tstep = circuit.tstep
    corners = engine._breakpoints(circuit, tstep, float(waves.time[-1]))
    # the DC solve reads the sources at t = 0; each step then at its end
    assert times[0] == 0.0 and len(times) == len(sizes) + 1
    rungs = []
    for t, h in zip(times[1:], sizes):
        c = next(c for c in corners if c >= t)
        if t != c and abs(c - t - h) > 1e-9 * tstep:
            j = round(4 * math.log2(h / tstep))
            assert h == tstep * 2.0 ** (j / 4), (t, h)
            rungs.append(j)
    assert len(rungs) > 0.9 * len(sizes) and max(rungs) >= 4
    stats = waves.stats
    assert 3 * stats["jacobian_factorizations"] <= stats["newton_iterations"]
    assert stats["jacobian_refinements"] > 0


def _held_inverses(sys_, J, norms):
    """Hold inverses X of the stack J whose residuals I - J @ X are
    random matrices of the given infinity norms, one per variant.  Their
    first row dominates, so their 1-norms are much smaller."""
    E = np.random.default_rng(1).standard_normal(J.shape)
    E[:, 0] *= 10.0
    E *= (np.asarray(norms) / np.abs(E).sum(axis=2).max(axis=1))[:, None, None]
    sys_._jinv = np.linalg.solve(J, sys_._eye) @ (sys_._eye - E)
    return np.abs(sys_._eye - J @ sys_._jinv).sum(axis=2).max(axis=1)


def _jacobians(sys_, K=2):
    """A well-conditioned random stack of K Jacobians of sys_'s size."""
    rng = np.random.default_rng(0)
    return 4.0 * sys_._eye + rng.standard_normal((K, sys_.N, sys_.N))


def test_a_close_held_inverse_is_refined_not_factored():
    # |I - J @ X| < 1/2 for every variant: two Newton-Schulz steps take
    # the residual to its 4th power, and LAPACK is not called
    sys_ = engine._System([_circ(neuron_netlist(NeuronParams()))])
    J = _jacobians(sys_)
    before = _held_inverses(sys_, J, [0.45, 0.2])
    assert before.max() < engine.SCHULZ_GATE and before.min() > 0.19
    X = sys_._invert(J)
    after = np.abs(sys_._eye - J @ X).sum(axis=2).max(axis=1)
    assert np.all(after <= before ** 4 + 1e-12)
    assert (sys_.refinements, sys_.factorizations) == (1, 0)


@pytest.mark.parametrize("case", ["far", "nan", "singular"])
def test_a_far_nan_or_singular_jacobian_is_factored(case):
    # a held inverse too far from one variant's Jacobian, a NaN in J or a
    # singular J (whose residual norm is at least 1) goes to LAPACK; a
    # singular variant of the stack gets a NaN inverse, and the other its
    # own inverse
    sys_ = engine._System([_circ(neuron_netlist(NeuronParams()))])
    J = _jacobians(sys_)
    _held_inverses(sys_, J, [0.2, 0.55 if case == "far" else 0.2])
    if case == "nan":
        J[1, 2, 3] = np.nan
    if case == "singular":
        J[1, 2] = 0.0
        X = sys_._invert(J)
        np.testing.assert_array_equal(X[0], np.linalg.solve(J[0], sys_._eye))
        assert np.isnan(X[1]).all()
    else:
        np.testing.assert_array_equal(sys_._invert(J),
                                      np.linalg.solve(J, sys_._eye))
    assert (sys_.refinements, sys_.factorizations) == (0, 1)
    if case == "singular":  # a lone singular Jacobian raises
        sys_._jinv = None
        with pytest.raises(np.linalg.LinAlgError):
            sys_._invert(J[1:])


def test_newton_leaves_its_starting_iterate_unchanged():
    # the step loop reads its prediction after Newton for the LTE
    # estimate; updated in place, the estimate would read 0
    sys_ = engine._System([_circ("""t
Vs n1 0 pulse(0 1m 0p 1p 1p 5p 20p)
R1 n1 n2 1k
qpsj Q1 n2 0 vc=0.7m rn=10k ls=0.1n
.tran 0.1p 10p
.end
""")])
    x, _, theta = sys_.seed_from_dc()
    x = x[None]
    xg = x.copy()
    x_new, _, _, _, failed = sys_._newton(xg, x, np.zeros_like(x), theta,
                                          sys_.sources(1.0), 0.1, False)
    assert not failed.any() and np.abs(x_new - x).max() > 0.1
    np.testing.assert_array_equal(xg, x)


def test_assembled_jacobian_is_the_derivative_of_the_residual(monkeypatch):
    # fig8: six MJJs share the node nlift, so their sine-law terms sum in
    # its row.  The stack Newton factors at a mid-run trapezoidal step
    # must be the derivative of the residual it iterates on.
    circuit = _circ(network_netlist(NetworkSpec(
        weights=((1, 1, 1), (0, 1, 1)),
        input_periods=(60e-12, 90e-12, 120e-12))))
    newton, invert = engine._System._newton, engine._System._invert
    calls, stacks = [], []

    def spy_newton(self, *args):
        calls.append((self, args))
        return newton(self, *args)

    monkeypatch.setattr(engine._System, "_newton", spy_newton)
    tran(circuit, tstop=400.0)
    sys_, (xg, x, xd, theta, u, h, trap) = calls[-1]
    assert trap and h > circuit.tstep
    # an iterate off the solution, where the angles differ from theta's
    xg = xg + np.append(np.random.default_rng(0).standard_normal(sys_.N), 0.0)
    # one iteration: the stack at xg goes to _invert, F(xg) to failed_f
    monkeypatch.setattr(engine, "MAX_NEWTON_ITERS", 1)
    monkeypatch.setattr(engine._System, "_invert",
                        lambda self, J: stacks.append(J) or invert(self, J))

    def residual(xg):
        newton(sys_, xg, x, xd, theta, u, h, trap)
        return sys_.failed_f[0]

    sys_._jinv = None
    residual(xg)
    (J,) = stacks[0]
    delta = 1e-4
    fd = np.empty_like(J)
    for j in range(sys_.N):
        e = np.zeros_like(xg)
        e[0, j] = delta
        fd[:, j] = (residual(xg + e) - residual(xg - e)) / (2.0 * delta)
    peak = np.abs(J).max(axis=1, keepdims=True)
    assert np.all(np.abs(J - fd) <= 1e-6 * peak)
    # the junction terms of nlift's row: its own column and six nj nodes'
    nl = J - sys_._step_parts[0]
    assert np.count_nonzero(nl[circuit.node_index("nlift")]) == 7


def test_newton_angles_and_derivative_follow_the_integration_rule(
        monkeypatch):
    # fig8 mid-run: whatever way Newton carries the angles and the
    # derivative through its updates, at its end they must be what the
    # rule gives from the unknowns it returns, and its last residual
    # S @ x + c + B @ (A * sin(theta)) that of those angles
    circuit = _circ(network_netlist(NetworkSpec(
        weights=((1, 1, 1), (0, 1, 1)),
        input_periods=(60e-12, 90e-12, 120e-12))))
    newton, invert = engine._System._newton, engine._System._invert
    calls, stacks = [], []

    def spy_newton(self, *args):
        calls.append((self, args))
        return newton(self, *args)

    monkeypatch.setattr(engine._System, "_newton", spy_newton)
    tran(circuit, tstop=400.0)
    sys_, (xp, x, xd, theta, u, h, trap) = calls[-1]
    assert trap and h > circuit.tstep and np.abs(xd).max() > 0.0
    monkeypatch.setattr(engine._System, "_invert",
                        lambda self, J: stacks.append(J) or invert(self, J))

    def residual(xg, k, theta):
        """S @ xg + c + B @ (A * sin(theta)), as its three terms."""
        S = sys_._GT + k / h * sys_._CT
        c = u @ sys_._F - (k / h * x + (k - 1) * xd) @ sys_._CT
        return xg @ S, c, (sys_.A * np.sin(theta)) @ sys_._BT

    def check(xg, trap):
        k = 2 if trap else 1
        sys_._jinv = None  # the first update factors at xg
        x_new, xd_new, th, s, failed = newton(sys_, xg, x, xd, theta, u, h,
                                              trap)
        assert not failed.any()
        rule = theta + h / k * (x_new + (k - 1) * x) @ sys_._WT
        assert np.abs(th - rule).max() <= 1e-12 * np.abs(rule).max()
        dxdt = k / h * (x_new - x) - (k - 1) * xd
        scale = np.abs(k / h * x_new).max()
        assert np.abs(xd_new - dxdt).max() <= 1e-12 * scale
        np.testing.assert_array_equal(s, sys_.A * np.sin(th))
        terms = residual(x_new, k, th)
        scale = max(np.abs(term).max() for term in terms)
        assert np.abs(sys_.failed_f - sum(terms)).max() <= 1e-12 * scale
        # the first update, from the iterate and angles Newton starts at
        th0 = theta + h / k * (xg + (k - 1) * x) @ sys_._WT
        dx = np.linalg.solve(stacks[-1], sum(residual(xg, k, th0))[0])
        return np.abs(h / k * dx @ sys_._WT[:sys_.N]).max()

    assert check(xp, True) <= engine.MAX_ANGLE_STEP
    assert check(xp, False) <= engine.MAX_ANGLE_STEP
    # a start some 10 mV off at every node: the angle limit damps the
    # first update, and every later one moves the angles by its W @ dx
    off = 10.0 * np.random.default_rng(0).standard_normal(sys_.N + 1)
    far = xp + np.where(np.arange(sys_.N + 1) < circuit.node_count, off, 0.0)
    assert check(far, True) > engine.MAX_ANGLE_STEP


def test_a_converged_variant_stays_frozen_while_its_partner_iterates(
        monkeypatch):
    # fig4a's last step to 60 ps, as two variants of one K = 2 call:
    # variant 0 from the run's own prediction, which one update converges,
    # and variant 1 from 3 mV off at every node, which takes more.  Once
    # converged, variant 0 must not move: it gives the bits of a batch of
    # two copies of its own start, which converge at once together.  A
    # K = 1 call is no bitwise reference: numpy multiplies one row by
    # another BLAS routine than two, whose last bits differ
    circuit = _circ(binary_synapse_netlist(SynapseBinaryParams(state=0)))
    newton, calls = engine._System._newton, []

    def spy_newton(self, *args):
        calls.append(args)
        return newton(self, *args)

    monkeypatch.setattr(engine._System, "_newton", spy_newton)
    tran(circuit, tstop=60.0)
    monkeypatch.undo()
    xp, x, xd, theta, u, h, trap = calls[-1]
    off = np.where(np.arange(len(xp[0])) < circuit.node_count, 3.0, 0.0)

    def run(K, xg):
        sys_ = engine._System([circuit] * K)
        pair = lambda a: np.repeat(a, K, axis=0)
        out = sys_._newton(xg, pair(x), pair(xd), pair(theta), u, h, trap)
        return sys_.iterations, out

    (n_own, own), (n_pair, pair), (n_mixed, mixed) = (
        run(1, xp), run(2, np.repeat(xp, 2, axis=0)),
        run(2, np.concatenate((xp, xp + off))))
    assert n_own == n_pair == 1 and n_mixed > 2
    assert not mixed[-1].any() and not pair[-1].any()
    for a, b, c in zip(pair[:4], mixed[:4], own[:4]):
        np.testing.assert_array_equal(b[0], a[0])
        assert np.abs(b[0] - c[0]).max() <= 1e-12 * np.abs(c[0]).max()
    assert np.abs(mixed[0][1] - mixed[0][0]).max() < 1e-3


# --- junction dynamics ------------------------------------------------------

def test_blockade_zero_current_below_vc():
    waves = tran(_circ("""t
Vb n1 0 dc 0.49m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n
.tran 1p 1000p
.end
"""))
    assert np.max(np.abs(waves.channel("i(q1)"))) < 1e-6  # uA


def test_josephson_relation_frequency():
    # overdriven JJ: oscillation frequency must equal Vbar / Phi0
    waves = tran(_circ("""t
Ib 0 n1 dc 300u
jj J1 n1 0 ic=200u rn=5 cj=0
.tran 0.005p 50p
.end
"""))
    freq, vbar = crossing_rate(waves.time, waves.channel("v(n1)"))
    assert freq == pytest.approx(vbar / PHI0, rel=0.01)


def test_bloch_relation_pulse_rate():
    # overdriven QPSJ: charge pulse rate must equal Ibar / 2e
    waves = tran(_circ("""t
Vb n1 0 dc 1.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0
.tran 0.005p 50p
.end
"""))
    freq, ibar = crossing_rate(waves.time, waves.channel("i(q1)"))
    assert freq == pytest.approx(ibar / TWO_E, rel=0.01)


def test_transported_charge_is_quantized_per_cycle():
    # each Bloch cycle moves exactly 2e through the junction
    waves = tran(_circ("""t
Vb n1 0 dc 1.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0
.tran 0.005p 50p
.end
"""))
    freq, ibar = crossing_rate(waves.time, waves.channel("i(q1)"))
    assert ibar / freq == pytest.approx(TWO_E, rel=0.01)


def test_step_halving_is_consistent(monkeypatch):
    # on the 0.2 ps grid each 0.2 ps pulse edge is one step from corner to
    # corner, and the steps of both grids land on the corners; the
    # transported charge must agree with a fine-grid run
    text = """t
Vin n1 0 pulse(0 1.5m 5p 0.2p 0.2p 3p 50p)
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n
.tran {dt}p 100p
.end
"""
    q = {}
    for dt in (0.2, 0.02):
        waves = tran(_circ(text.format(dt=dt)))
        q[dt] = np.trapezoid(waves.channel("i(q1)"), waves.time)
    # three Newton iterations are too few for some 0.2 ps steps, which
    # then halve (below tstep too) and recover
    monkeypatch.setattr(engine, "MAX_NEWTON_ITERS", 3)
    waves = tran(_circ(text.format(dt=0.2)))
    assert waves.stats["newton_halvings"] > 0
    q["halved"] = np.trapezoid(waves.channel("i(q1)"), waves.time)
    # every run must transport the same whole number of charge quanta
    n = round(q[0.02] / TWO_E)
    assert round(q[0.2] / TWO_E) == round(q["halved"] / TWO_E) == n
    assert q[0.02] == pytest.approx(n * TWO_E, rel=0.01)
    assert q["halved"] == pytest.approx(n * TWO_E, rel=0.01)


# --- failure modes ------------------------------------------------------------

def test_convergence_error_carries_time(monkeypatch):
    monkeypatch.setattr(engine, "MAX_NEWTON_ITERS", 1)
    monkeypatch.setattr(engine, "MAX_HALVINGS", 1)
    with pytest.raises(ConvergenceError) as err:
        tran(_circ("""t
Vb n1 0 dc 1.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n
.tran 0.1p 10p
.end
"""))
    assert err.value.t is not None and err.value.t > 0
    # one halving of the 0.1 ps step, then the branch row of the QPSJ
    # (biased past Vc) holds the largest residual
    assert err.value.h == pytest.approx(0.05)
    assert err.value.worst == "device 'q1'"
    assert "step 0.05 ps" in str(err.value) and "device 'q1'" in str(err.value)


def test_a_failing_transient_factorization_ends_cleanly(monkeypatch, tmp_path,
                                                       capsys):
    # every factorization of the transient's stacked Jacobians raises (the
    # DC solve, of one matrix, still runs): Newton fails at every halving
    solve = np.linalg.solve

    def singular(a, b):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular)
    text = """t
Vb n1 0 dc 1.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n
.tran 0.1p 10p
.end
"""
    with pytest.raises(ConvergenceError) as err:
        tran(_circ(text))
    assert err.value.t == err.value.h == 0.1 / 2 ** engine.MAX_HALVINGS
    assert err.value.worst == "device 'q1'"
    net = tmp_path / "singular.cir"
    net.write_text(text)
    out = tmp_path / "out"
    assert main(["sim", str(net), "--out", str(out)]) == EXIT_CONVERGENCE
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: Newton failed to converge")
    assert "device 'q1'" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("case", ["amplitude", "inverse"])
def test_a_non_finite_update_fails_its_attempt_at_once(monkeypatch, case):
    # a NaN Vc, or NaN inverse Jacobians of a circuit without junctions,
    # where no angle can see the NaN: each attempt stops after the NaN
    # update, so every halving fails after one update, down to the floor.
    # The error names the row the NaN began in: Q1's branch row, whose
    # sine term is NaN, not the first of the rows it spread to
    if case == "amplitude":
        circuit = _circ("""t
Vb n1 0 dc 1.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n
.tran 0.1p 10p
.end
""")
        circuit.devices[1].params["vc"] = math.nan
    else:
        circuit = _circ("""t
Iin 0 n1 pulse(0 1u 5p 0.01p 0.01p 1000p 2000p)
R1 n1 0 1k
C1 n1 0 1f
.tran 0.1p 10p
.end
""")
        monkeypatch.setattr(engine._System, "_invert",
                            lambda self, J: np.full_like(J, np.nan))
    updates = []  # the Newton updates of each attempt
    newton = engine._System._newton

    def counted(self, *args):
        before = self.iterations
        result = newton(self, *args)
        updates.append(self.iterations - before)
        return result

    monkeypatch.setattr(engine._System, "_newton", counted)
    with pytest.raises(ConvergenceError) as err:
        tran(circuit)
    assert err.value.t == err.value.h == 0.1 / 2 ** engine.MAX_HALVINGS
    assert updates == [1] * (engine.MAX_HALVINGS + 1)
    assert err.value.worst == {"amplitude": "device 'q1'",
                               "inverse": "node 'n1'"}[case]


def test_tran_argument_validation():
    circ = _circ("t\nVs n1 0 dc 1m\nR1 n1 0 1k\n.tran 1p 10p\n.end\n")
    assert issubclass(TimeGridError, EngineError)  # what callers catch
    with pytest.raises(TimeGridError):
        tran(circ, tstep=0.0, tstop=10.0)
    with pytest.raises(TimeGridError):
        tran(circ, tstep=5.0, tstop=1.0)
    with pytest.raises(TimeGridError):
        tran(circ, tstop=math.inf)
    # grids too long to size: no traceback beyond TimeGridError
    with pytest.raises(TimeGridError, match="cannot hold"):
        tran(circ, tstep=1e-300, tstop=1e10)  # tstop/tstep overflows
    with pytest.raises(TimeGridError, match="cannot hold"):
        tran(circ, tstep=1e-6, tstop=1e300)  # too many samples to index
    late = _circ("t\nVs n1 0 dc 1m\nR1 n1 0 1k\n.tran 0.01p 2p 1p\n.end\n")
    with pytest.raises(TimeGridError):
        tran(late, tstop=0.5)  # stops before the 1 ps tstart


def test_output_size_is_checked_before_integrating(monkeypatch):
    # two channels (v(n1), v(n2)) on 11 grid points per variant
    circ = _circ("t\nVs n1 0 dc 1m\nR1 n1 n2 1k\nR2 n2 0 1k\n.tran 1p 10p\n.end\n")
    monkeypatch.setattr(engine, "MAX_OUTPUT_VALUES", 44)
    assert len(engine.tran_batch([circ, circ])) == 2
    with pytest.raises(EngineError, match="cannot hold 66 output values"):
        engine.tran_batch([circ] * 3)


# --- probes and sampling ----------------------------------------------------

def test_default_probes_cover_nodes_and_junctions():
    waves = tran(_circ("""t
Vb n1 0 dc 0.49m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n
.tran 1p 10p
.end
"""))
    assert "v(n1)" in waves
    assert "i(q1)" in waves


def test_channel_lookup_is_case_insensitive():
    waves = WaveformSet(np.array([0.0]), {"v(n1)": np.array([1.0])})
    assert waves.channel("V(N1)")[0] == 1.0
    assert "V(N1)" in waves


def test_save_list_restricts_channels_and_grid_is_uniform():
    waves = tran(_circ("""t
Vs n1 0 dc 1m
R1 n1 n2 1k
R2 n2 0 1k
.tran 1p 10p
.save v(n2)
.end
"""))
    assert list(waves.channels) == ["v(n2)"]
    assert len(waves.time) == 11
    assert np.allclose(np.diff(waves.time), 1.0)


def test_tstart_inside_a_later_block_records_the_tail_of_the_run():
    # the output is interpolated a block of accepted steps at a time; from
    # a tstart several blocks in, the samples are those of the whole run
    text = """t
Vs n1 0 pulse(0 1m 1.234p 0.37p 0.41p 2.05p 7.3p)
R1 n1 n2 1k
R2 n2 0 1k
.tran 0.1p 200p {tstart}p
.end
"""
    whole = tran(_circ(text.format(tstart=0)))
    assert whole.stats["accepted_steps"] > 4 * engine._BLOCK
    tail = tran(_circ(text.format(tstart=123.45)))
    assert tail.stats == whole.stats
    skip = len(whole.time) - len(tail.time)
    assert tail.time[0] == whole.time[skip] == pytest.approx(123.5)
    assert list(tail.channels) == list(whole.channels)
    for name, values in whole.channels.items():
        assert np.array_equal(tail.channel(name), values[skip:])


def test_tstart_past_the_last_grid_point_records_no_sample():
    # grid 0, 0.3, 0.6, 0.9 ps: every point lies before tstart = tstop
    waves = tran(_circ("t\nVs n1 0 dc 1m\nR1 n1 0 1k\n.tran 0.3p 1p 1p\n.end\n"))
    assert len(waves.time) == 0
    assert [len(v) for v in waves.channels.values()] == [0]
    assert waves.stats["accepted_steps"] > 0


def test_tstart_trims_output():
    waves = tran(_circ("""t
Vs n1 0 dc 1m
R1 n1 0 1k
.tran 1p 10p 5p
.end
"""))
    assert waves.time[0] == pytest.approx(5.0)
    assert waves.time[-1] == pytest.approx(10.0)
