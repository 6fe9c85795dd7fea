"""Device constitutive relations, the engine's device models evaluated on
one-element arrays, and the charge/flux duality."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpsjsim import devices, netlist
from qpsjsim.devices import (CapacitorModel, InductorModel, JjParams,
                             JosephsonModel, MjjParams, PhaseSlipModel,
                             QpsjParams, ResistorModel, damping_parameter,
                             jj_current, mjj_set_state, qpsj_voltage)
from qpsjsim.engine import BACKWARD_EULER, TRAPEZOIDAL
from qpsjsim.netlist import GROUND, DeviceInstance, DeviceKind
from qpsjsim.units import PHI0, TWO_E


def test_every_device_kind_has_one_card_row_and_one_model():
    assert sorted(netlist._CARDS) == sorted(DeviceKind)
    held = [kind for cls in devices._MODELS for kind in cls.kinds]
    assert sorted(held) == sorted(DeviceKind)


# --- parameter validation ---------------------------------------------------

def test_qpsj_params_validation():
    QpsjParams(vc=0.7e-3, rn=10e3, ls=0.0)
    with pytest.raises(ValueError):
        QpsjParams(vc=0.0, rn=10e3, ls=0.0)
    with pytest.raises(ValueError):
        QpsjParams(vc=0.7e-3, rn=0.0, ls=0.0)
    with pytest.raises(ValueError):
        QpsjParams(vc=0.7e-3, rn=10e3, ls=-1e-9)


def test_jj_params_validation():
    JjParams(ic=200e-6, rn=5.0, cj=0.0)
    with pytest.raises(ValueError):
        JjParams(ic=-1e-6, rn=5.0, cj=0.0)
    with pytest.raises(ValueError):
        JjParams(ic=200e-6, rn=0.0, cj=0.0)
    with pytest.raises(ValueError):
        JjParams(ic=200e-6, rn=5.0, cj=-1e-15)


def test_mjj_params_and_state_switching():
    p = MjjParams(states=[200e-6, 300e-6], active_state=0, rn=7.0, cj=1e-15)
    assert p.ic == 200e-6
    p2 = mjj_set_state(p, 1)
    assert p2.ic == 300e-6
    assert p.ic == 200e-6  # original untouched
    assert p2.as_jj() == JjParams(300e-6, 7.0, 1e-15, 0.0)
    with pytest.raises(IndexError):
        mjj_set_state(p, 2)
    with pytest.raises(IndexError):
        MjjParams(states=(1e-6,), active_state=1, rn=7.0, cj=0.0)
    with pytest.raises(ValueError):
        MjjParams(states=(), active_state=0, rn=7.0, cj=0.0)
    with pytest.raises(ValueError):
        MjjParams(states=(1e-6, -2e-6), active_state=0, rn=7.0, cj=0.0)


# --- branch relations -------------------------------------------------------

_QP = QpsjParams(vc=0.7, rn=10.0, ls=0.1)  # scaled units
_JJ = JjParams(ic=200.0, rn=0.005, cj=1.0)


def test_qpsj_voltage_landmarks():
    assert qpsj_voltage(0.0, _QP, two_e=TWO_E) == 0.0
    assert qpsj_voltage(TWO_E / 4.0, _QP, two_e=TWO_E) == pytest.approx(0.7)
    assert qpsj_voltage(TWO_E / 2.0, _QP, two_e=TWO_E) == pytest.approx(
        0.0, abs=1e-12)


@given(st.floats(min_value=-10.0 * TWO_E, max_value=10.0 * TWO_E))
def test_qpsj_voltage_periodic_odd_bounded(q):
    v = qpsj_voltage(q, _QP, two_e=TWO_E)
    assert abs(v) <= _QP.vc + 1e-12
    assert qpsj_voltage(q + TWO_E, _QP, two_e=TWO_E) == pytest.approx(
        v, abs=1e-6 * _QP.vc)
    assert qpsj_voltage(-q, _QP, two_e=TWO_E) == pytest.approx(
        -v, abs=1e-12)


@given(st.floats(min_value=-20.0 * math.pi, max_value=20.0 * math.pi))
def test_jj_current_periodic_odd_bounded(phi):
    i = jj_current(phi, _JJ)
    assert abs(i) <= _JJ.ic + 1e-9
    assert jj_current(phi + 2.0 * math.pi, _JJ) == pytest.approx(
        i, abs=1e-6 * _JJ.ic)
    assert jj_current(-phi, _JJ) == pytest.approx(-i, abs=1e-9)


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


def _step(model, xg, h, method, **state):
    """Residual and Jacobian (ground slot dropped) of one Newton iterate."""
    for name, value in state.items():
        setattr(model, name, np.array([value]))
    model.begin_step(h, method == TRAPEZOIDAL)
    static = model.static()
    f, nl = model.evaluate(np.asarray(xg, dtype=float), 0.0)
    size = len(xg)
    F = np.zeros(size)
    J = np.zeros((size, size))
    np.add.at(F, model.f_rows, f)
    np.add.at(J, (model.s_rows, model.s_cols), static)
    np.add.at(J, (model.nl_rows, model.nl_cols), nl)
    return F[:-1], J[:-1, :-1]


def test_resistor_capacitor_inductor_stamps():
    r = _model(ResistorModel, DeviceKind.RESISTOR, {"value": 2.0})
    F, J = _step(r, [3.0, 0.0], 0.5, TRAPEZOIDAL)
    assert J[0, 0] == 0.5 and F[0] == 1.5
    # trapezoidal capacitor: i = geq*(v - v_old) - i_old, geq = 2C/h
    c = _model(CapacitorModel, DeviceKind.CAPACITOR, {"value": 3.0})
    F, J = _step(c, [0.0, 0.0], 0.5, TRAPEZOIDAL, vold=2.0, iold=1.0)
    assert J[0, 0] == pytest.approx(12.0)
    assert F[0] == pytest.approx(-12.0 * 2.0 - 1.0)
    # backward-Euler inductor: v = req*(i - i_old), req = L/h, in row 1
    ind = _model(InductorModel, DeviceKind.INDUCTOR, {"value": 3.0}, br=1)
    F, J = _step(ind, [0.0, 0.0, 0.0], 0.5, BACKWARD_EULER,
                 iold=2.0, vlold=1.0)
    assert J[1, 1] == pytest.approx(-6.0)
    assert F[1] == pytest.approx(12.0)
    assert J[0, 1] == 1.0 and J[1, 0] == 1.0


def test_mjj_model_is_jj_with_active_state():
    mjj = _model(JosephsonModel, DeviceKind.MJJ,
                 {"states": [200.0, 300.0], "state": 1, "rn": 0.005, "cj": 1.0})
    jj = _model(JosephsonModel, DeviceKind.JJ,
                {"ic": 300.0, "rn": 0.005, "cj": 1.0})
    state = dict(phi=0.3, vold=0.1, icold=0.2)
    Fm, Jm = _step(mjj, [0.4, 0.0], 0.01, TRAPEZOIDAL, **state)
    Fj, Jj = _step(jj, [0.4, 0.0], 0.01, TRAPEZOIDAL, **state)
    assert Fm[0] == Fj[0] and Jm[0, 0] == Jj[0, 0]


def _dual_pair(method, h, q_old, i_old, vl_old, i_at):
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
    fq, jq = _step(qp, [0.0, i_at, 0.0], h, method,
                   q=q_old, iold=i_old, vlold=vl_old)
    fj, jjac = _step(jj, [i_at, 0.0], h * scale, method,
                     phi=2.0 * math.pi * q_old / TWO_E, vold=i_old,
                     icold=vl_old)
    return (-fq[1], -jq[1, 1]), (fj[0], jjac[0, 0])


@pytest.mark.parametrize("method", [TRAPEZOIDAL, BACKWARD_EULER])
def test_qpsj_jj_duality_structural(method):
    sq, sj = _dual_pair(method, h=0.01, q_old=0.05, i_old=0.3, vl_old=0.2,
                        i_at=0.4)
    assert sq == pytest.approx(sj, rel=1e-9)


@given(h=st.floats(min_value=1e-4, max_value=1.0),
       q_old=st.floats(min_value=-1.0, max_value=1.0),
       i_old=st.floats(min_value=-1.0, max_value=1.0),
       vl_old=st.floats(min_value=-1.0, max_value=1.0),
       i_at=st.floats(min_value=-1.0, max_value=1.0),
       method=st.sampled_from([TRAPEZOIDAL, BACKWARD_EULER]))
def test_qpsj_jj_duality_property(h, q_old, i_old, vl_old, i_at, method):
    sq, sj = _dual_pair(method, h, q_old, i_old, vl_old, i_at)
    assert sq == pytest.approx(sj, rel=1e-9, abs=1e-12)
