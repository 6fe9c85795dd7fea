"""Device constitutive relations, the engine's device models evaluated on
one-element arrays in their split form, and the charge/flux duality."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpsjsim import devices, netlist
from qpsjsim.devices import (CapacitorModel, DeviceKind, InductorModel,
                             JosephsonModel, PhaseSlipModel, ResistorModel,
                             damping_parameter)
from qpsjsim.engine import _matrix, _System, dc_operating_point
from qpsjsim.netlist import GROUND, DeviceInstance, elaborate, parse_netlist
from qpsjsim.units import PHI0, TWO_E


def test_every_device_kind_has_one_card_row_and_one_model():
    assert sorted(netlist._CARDS) == sorted(DeviceKind)
    held = [kind for cls in devices._MODELS for kind in cls.cards]
    assert sorted(held) == sorted(DeviceKind)
    for cls in devices._MODELS:  # the parser reads the model's own card
        for kind in cls.cards:
            assert netlist._CARDS[kind] is cls.cards[kind]
    assert netlist.DeviceKind is DeviceKind


# --- damping figure of merit ------------------------------------------------

def test_damping_parameter_hand_values():
    # beta = 2*pi*Vc*L / (2e * R^2), evaluated by hand for three triples
    assert damping_parameter(0.7e-3, 10e-12, 10e3) == pytest.approx(
        1.3725796486921728e-03, rel=1e-9)
    assert damping_parameter(10e-3, 1e-9, 1e3) == pytest.approx(
        1.9608280695602474e+02, rel=1e-9)
    assert damping_parameter(1e-3, 100e-12, 500.0) == pytest.approx(
        7.843312278240988e+00, rel=1e-9)


def test_damping_parameter_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        damping_parameter(0.7e-3, 1e-12, 0.0)


@pytest.mark.parametrize("vc, l", [
    (math.nan, 1e-12), (math.inf, 1e-12), (0.0, 1e-12), (-0.7e-3, 1e-12),
    (0.7e-3, math.nan), (0.7e-3, math.inf), (0.7e-3, -1e-12)])
def test_damping_parameter_rejects_impossible_vc_and_l(vc, l):
    with pytest.raises(ValueError):
        damping_parameter(vc, l, 10e3)


@given(st.floats(min_value=1e-13, max_value=1e-8),
       st.floats(min_value=0.25, max_value=64.0))
def test_damping_linear_in_inductance(l, k):
    b1 = damping_parameter(0.7e-3, l, 10e3)
    assert damping_parameter(0.7e-3, k * l, 10e3) == pytest.approx(
        k * b1, rel=1e-9)


@given(st.floats(min_value=1.0, max_value=1e6),
       st.floats(min_value=0.25, max_value=64.0))
def test_damping_inverse_square_in_resistance(r, k):
    b1 = damping_parameter(0.7e-3, 1e-12, r)
    assert damping_parameter(0.7e-3, 1e-12, k * r) == pytest.approx(
        b1 / (k * k), rel=1e-9)


# --- companion stamps of the device models --------------------------------

def _model(cls, kind, params, br=None):
    """One-device model between node 0 and ground, without gmin."""
    dev = DeviceInstance(kind, "x1", (0, GROUND), params)
    return cls([dev], None if br is None else np.array([br]), gmin=0.0)


def _rule(xg, x, xd, h, trap):
    """Time derivatives of the unknowns xg, and their integral over the
    step, after a trapezoidal (or, if not trap, backward-Euler) step of
    size h from the unknowns x with derivatives xd:
    xg = x + (h/k)*(xd_new + (k - 1)*xd), k = 2 or 1."""
    k = 2.0 if trap else 1.0
    return k / h * (xg - x) - (k - 1.0) * xd, h / k * (xg + (k - 1.0) * x)


def _sine_law(model, xint, state):
    """Angle theta of a one-junction model at the state (phi in rad or q
    in aC) moved by its declared row W of the step integral xint, and
    the columns B and amplitude A of its sin term B @ (A * sin(theta))."""
    W, B = np.zeros((1, len(xint))), np.zeros((len(xint), 1))
    for idx, w in model.angle:
        np.add.at(W, (0, idx), w)
    for idx, b in model.output:
        np.add.at(B, (idx, 0), b)
    return model.unit * state + W @ xint, W, B, model.amplitude


def _probe(model, xg, xd):
    """The current of a one-device model that is neither a junction nor
    a source, from its declared probe terms over the unknowns xg and
    their time derivatives xd."""
    part = {"x": np.asarray(xg, dtype=float), "xd": np.asarray(xd, dtype=float)}
    return sum(f * part[name][idx] for name, idx, f in model.probe)


def _step(model, xg, h, trap, x=None, xd=None, state=0.0):
    """Residual G @ xg + C @ xd_new + F_nl and Jacobian G + (k/h)*C +
    J_nl (ground slot dropped) of one Newton iterate of a
    trapezoidal (or, if not trap, backward-Euler) step from the unknowns
    x with derivatives xd, both 0 unless given, and, for a junction, from
    its state."""
    xg = np.asarray(xg, dtype=float)
    x = np.zeros_like(xg) if x is None else np.asarray(x, dtype=float)
    xd = np.zeros_like(xg) if xd is None else np.asarray(xd, dtype=float)
    G, C = (_matrix((len(xg), len(xg)), part) for part in (model.G, model.C))
    xd_new, xint = _rule(xg, x, xd, h, trap)
    F, J = G @ xg + C @ xd_new, G + (2.0 if trap else 1.0) / h * C
    if model.junction:
        # F_nl = B @ (A * sin(theta)), J_nl = (h/k) * B @ diag(A * cos(theta)) @ W
        theta, W, B, A = _sine_law(model, xint, state)
        F += B @ (A * np.sin(theta))
        J += h / (2.0 if trap else 1.0) * B @ np.diag(A * np.cos(theta)) @ W
    return F[:-1], J[:-1, :-1]


def test_resistor_capacitor_inductor_stamps():
    r = _model(ResistorModel, DeviceKind.RESISTOR, {"value": 2.0})
    F, J = _step(r, [3.0, 0.0], 0.5, True)
    assert J[0, 0] == 0.5 and F[0] == 1.5
    # trapezoidal capacitor: i = geq*(v - v_old) - i_old, geq = 2C/h,
    # i_old = C*dv/dt_old
    c = _model(CapacitorModel, DeviceKind.CAPACITOR, {"value": 3.0})
    F, J = _step(c, [0.0, 0.0], 0.5, True, x=[2.0, 0.0], xd=[1.0 / 3.0, 0.0])
    assert J[0, 0] == pytest.approx(12.0)
    assert F[0] == pytest.approx(-12.0 * 2.0 - 1.0)
    # backward-Euler inductor: v = req*(i - i_old), req = L/h, in row 1;
    # the old voltage L*di/dt_old = 1 does not enter
    ind = _model(InductorModel, DeviceKind.INDUCTOR, {"value": 3.0}, br=1)
    F, J = _step(ind, [0.0, 0.0, 0.0], 0.5, False, x=[0.0, 2.0, 0.0],
                 xd=[0.0, 1.0 / 3.0, 0.0])
    assert J[1, 1] == pytest.approx(-6.0)
    assert F[1] == pytest.approx(12.0)
    assert J[0, 1] == 1.0 and J[1, 0] == 1.0


@pytest.mark.parametrize("trap", [True, False],
                         ids=["trapezoidal", "backward-euler"])
@pytest.mark.parametrize("h", [0.001, 0.05, 2.0])
def test_static_parts_give_the_companion_stamps(h, trap):
    # G + (k/h)*C, k = 2 (trapezoidal) or 1 (backward Euler), against the
    # companion values written out by hand, on the slots [v(n0), i(br),
    # ground]: a conductance g from n0 to ground, or a branch from n0 to
    # ground whose row is v(n0) - r*i(br)
    k = 2.0 if trap else 1.0

    def stamp(model):
        G, C = (_matrix((3, 3), part) for part in (model.G, model.C))
        return G + k / h * C

    def conductance(g):
        return np.array([[g, 0, -g], [0, 0, 0], [-g, 0, g]])

    def branch(r):
        return np.array([[0, 1, 0], [1, -r, -1], [0, -1, 0]])

    r = _model(ResistorModel, DeviceKind.RESISTOR, {"value": 2.0})
    assert stamp(r).tolist() == conductance(0.5).tolist()
    c = _model(CapacitorModel, DeviceKind.CAPACITOR, {"value": 3.0})
    assert stamp(c) == pytest.approx(conductance(k * 3.0 / h), rel=1e-15)
    ind = _model(InductorModel, DeviceKind.INDUCTOR, {"value": 3.0}, br=1)
    assert stamp(ind) == pytest.approx(branch(k * 3.0 / h), rel=1e-15)
    jj = _model(JosephsonModel, DeviceKind.JJ,
                {"ic": 200.0, "rn": 0.5, "cj": 3.0})
    assert stamp(jj) == pytest.approx(conductance(1.0 / 0.5 + k * 3.0 / h),
                                      rel=1e-15)
    qp = _model(PhaseSlipModel, DeviceKind.QPSJ,
                {"vc": 0.7, "rn": 10.0, "ls": 3.0}, br=1)
    assert stamp(qp) == pytest.approx(branch(10.0 + k * 3.0 / h), rel=1e-15)


def _op(text):
    return dc_operating_point(elaborate(parse_netlist(text)))


# --- DC, one rule per circuit: the step's own equation at dx/dt = 0 ---------

def test_dc_capacitor_is_open():
    # C1 passes no current, so R2 carries none and n2 sits at ground; the
    # GMIN tie takes 1e-9 of R1's current
    op = _op("t\nIb 0 n1 dc 2u\nR1 n1 0 1k\nC1 n1 n2 1f\nR2 n2 0 1k\n"
             ".tran 1p 10p\n.end\n")
    assert op.node_voltages["n2"] == 0.0
    assert op.branch_currents["c1"] == op.branch_currents["r2"] == 0.0
    assert op.node_voltages["n1"] == pytest.approx(2.0, rel=1e-8)


def test_dc_inductor_is_a_short():
    op = _op("t\nV1 n1 0 dc 1m\nL1 n1 n2 10p\nR1 n2 0 1k\n"
             ".tran 1p 10p\n.end\n")
    assert op.node_voltages["n2"] == pytest.approx(1.0, rel=1e-12)
    assert op.branch_currents["l1"] == pytest.approx(1.0, rel=1e-8)


def test_dc_jj_carries_its_whole_bias_at_zero_voltage():
    # no voltage across J1, so R1 and the 1/Rn term carry nothing
    op = _op("t\nIb 0 n1 dc 100u\njj J1 n1 0 ic=200u rn=5 cj=1f\nR1 n1 0 1k\n"
             ".tran 1p 10p\n.end\n")
    assert op.node_voltages["n1"] == pytest.approx(0.0, abs=1e-12)
    assert op.branch_currents["j1"] == pytest.approx(100.0, rel=1e-12)
    assert op.branch_currents["r1"] == pytest.approx(0.0, abs=1e-9)


def test_dc_qpsj_bank_passes_no_current_and_holds_its_terminal_voltage():
    # a bank of m = 3 QPSJs in blockade: no member passes current, so each
    # one's Vc*sin(2*pi*q/2e) is the voltage across it
    text = ("t\nVb n1 0 dc 0.35m\nR1 n1 n2 1k\n"
            + "".join(f"qpsj Q{k} n2 0 vc=0.7m rn=10k ls=0.1n\n"
                      for k in (1, 2, 3)) + ".tran 1p 10p\n.end\n")
    (bank,) = _System([elaborate(parse_netlist(text))]).junctions
    assert bank.m.tolist() == [3.0]
    op = _op(text)
    v = op.node_voltages["n2"]
    assert v == pytest.approx(0.35, rel=1e-8)
    for name in ("q1", "q2", "q3"):
        assert op.branch_currents[name] == pytest.approx(0.0, abs=1e-12)
        q = op.junction_states[name]
        assert 0.7 * math.sin(2.0 * math.pi * q / TWO_E) == pytest.approx(
            v, rel=1e-12)


def test_commit_keeps_the_companion_current_of_the_converged_step():
    # the capacitor current and the inductor voltage that the derivatives
    # of the converged step carry into the next one are the ones the
    # step's residual holds at xg: 2C/h*(5 - 2) - 1 = 35 and
    # -(2L/h*(4 - 2) - 1) = -23; a junction commits the angle at which
    # its residual was taken
    xg, x, xd = np.array([5.0, 0.0]), np.array([2.0, 0.0]), np.array([1 / 3, 0])
    c = _model(CapacitorModel, DeviceKind.CAPACITOR, {"value": 3.0})
    F, _ = _step(c, xg, 0.5, True, x=x, xd=xd)
    xd_new, _ = _rule(xg, x, xd, 0.5, True)
    assert F[0] == pytest.approx(35.0)
    assert _probe(c, xg, xd_new)[0] == pytest.approx(F[0])
    ind = _model(InductorModel, DeviceKind.INDUCTOR, {"value": 3.0}, br=1)
    xg, x, xd = (np.array([0.0, v, 0.0]) for v in (4.0, 2.0, 1 / 3))
    F, _ = _step(ind, xg, 0.5, True, x=x, xd=xd)
    xd_new, _ = _rule(xg, x, xd, 0.5, True)
    assert -F[1] == pytest.approx(23.0)
    assert 3.0 * xd_new[1] == pytest.approx(-F[1])
    qp = _model(PhaseSlipModel, DeviceKind.QPSJ,
                {"vc": 0.7, "rn": 10.0, "ls": 3.0}, br=1)
    F, _ = _step(qp, xg, 0.5, True, x=x, xd=xd, state=0.01)
    theta = _sine_law(qp, _rule(xg, x, xd, 0.5, True)[1], 0.01)[0]
    # q = 0.01 + (h/2)*(4 + 2)
    assert theta[0] / qp.unit == pytest.approx(1.51)
    assert F[1] == pytest.approx(-23.0 - 10.0 * 4.0 - 0.7 * math.sin(
        2.0 * math.pi * 1.51 / TWO_E))


def test_mjj_model_is_jj_with_active_state():
    mjj = _model(JosephsonModel, DeviceKind.MJJ,
                 {"states": [200.0, 300.0], "state": 1, "rn": 0.005, "cj": 1.0})
    jj = _model(JosephsonModel, DeviceKind.JJ,
                {"ic": 300.0, "rn": 0.005, "cj": 1.0})
    prev = dict(x=[0.1, 0.0], xd=[0.2, 0.0], state=0.3)
    Fm, Jm = _step(mjj, [0.4, 0.0], 0.01, True, **prev)
    Fj, Jj = _step(jj, [0.4, 0.0], 0.01, True, **prev)
    assert Fm[0] == Fj[0] and Jm[0, 0] == Jj[0, 0]


# --- junction branch relations ----------------------------------------------

_VC, _IC = 0.7, 200.0  # scaled units


def _junction_voltage(q):
    """Vc*sin(2*pi*q/2e): the QPSJ model's junction voltage at charge q,
    with zero branch current and node voltage."""
    qp = _model(PhaseSlipModel, DeviceKind.QPSJ,
                {"vc": _VC, "rn": 10.0, "ls": 0.1}, br=1)
    F, _ = _step(qp, [0.0, 0.0, 0.0], 0.01, True, state=q)
    return -F[1]


def _supercurrent(phi):
    """Ic*sin(phi): the JJ model's current at phase phi, with zero node
    voltage."""
    jj = _model(JosephsonModel, DeviceKind.JJ,
                {"ic": _IC, "rn": 0.005, "cj": 1.0})
    F, _ = _step(jj, [0.0, 0.0], 0.01, True, state=phi)
    return F[0]


def test_qpsj_voltage_landmarks():
    assert _junction_voltage(0.0) == 0.0
    assert _junction_voltage(TWO_E / 4.0) == pytest.approx(_VC)
    assert _junction_voltage(TWO_E / 2.0) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(min_value=-10.0 * TWO_E, max_value=10.0 * TWO_E))
def test_qpsj_voltage_periodic_odd_bounded(q):
    v = _junction_voltage(q)
    assert abs(v) <= _VC + 1e-12
    assert _junction_voltage(q + TWO_E) == pytest.approx(v, abs=1e-6 * _VC)
    assert _junction_voltage(-q) == pytest.approx(-v, abs=1e-12)


@given(st.floats(min_value=-20.0 * math.pi, max_value=20.0 * math.pi))
def test_jj_current_periodic_odd_bounded(phi):
    i = _supercurrent(phi)
    assert abs(i) <= _IC + 1e-9
    assert _supercurrent(phi + 2.0 * math.pi) == pytest.approx(i, abs=1e-6 * _IC)
    assert _supercurrent(-phi) == pytest.approx(-i, abs=1e-9)


def _dual_pair(trap, h, q_old, i_old, vl_old, i_at):
    """QPSJ model and the JJ model of its exact dual device, one iterate.

    Under the exchange v <-> i, q <-> (2e/2pi)*phi, Vc <-> Ic,
    Rn <-> 1/Rn, Ls <-> Cj*2e/Phi0 and h <-> h*2e/Phi0 the two branch
    relations are the same discretized equation, so the QPSJ's branch
    voltage v(i) and its slope must equal the JJ's current i(v) and its
    slope: -F(QPSJ row) = F(JJ node), -J(QPSJ row) = J(JJ node).
    """
    scale = PHI0 / TWO_E
    qp = _model(PhaseSlipModel, DeviceKind.QPSJ,
                {"vc": 0.7, "rn": 10.0, "ls": 0.1}, br=1)
    jj = _model(JosephsonModel, DeviceKind.JJ,
                {"ic": 0.7, "rn": 1.0 / 10.0, "cj": 0.1 * scale}, br=1)
    fq, jq = _step(qp, [0.0, i_at, 0.0], h, trap, x=[0.0, i_old, 0.0],
                   xd=[0.0, vl_old / 0.1, 0.0], state=q_old)
    fj, jjac = _step(jj, [i_at, 0.0], h * scale, trap, x=[i_old, 0.0],
                     xd=[vl_old / (0.1 * scale), 0.0],
                     state=2.0 * math.pi * q_old / TWO_E)
    return (-fq[1], -jq[1, 1]), (fj[0], jjac[0, 0])


@pytest.mark.parametrize("trap", [True, False],
                         ids=["trapezoidal", "backward-euler"])
def test_qpsj_jj_duality_structural(trap):
    sq, sj = _dual_pair(trap, h=0.01, q_old=0.05, i_old=0.3, vl_old=0.2,
                        i_at=0.4)
    assert sq == pytest.approx(sj, rel=1e-9)


@given(h=st.floats(min_value=1e-4, max_value=1.0),
       q_old=st.floats(min_value=-1.0, max_value=1.0),
       i_old=st.floats(min_value=-1.0, max_value=1.0),
       vl_old=st.floats(min_value=-1.0, max_value=1.0),
       i_at=st.floats(min_value=-1.0, max_value=1.0),
       trap=st.booleans())
def test_qpsj_jj_duality_property(h, q_old, i_old, vl_old, i_at, trap):
    sq, sj = _dual_pair(trap, h, q_old, i_old, vl_old, i_at)
    assert sq == pytest.approx(sj, rel=1e-9, abs=1e-12)
