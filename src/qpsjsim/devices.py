"""Device equations: one vectorized model per device kind.

The quantum phase-slip junction (QPSJ) is the exact charge/flux dual of
the Josephson junction: where a JJ carries a supercurrent Ic*sin(phi)
with d(phi)/dt = 2*pi*v/Phi0, a QPSJ sustains a voltage
Vc*sin(2*pi*q/2e) with i = dq/dt.  The full branch relations are

    QPSJ:   v = Vc*sin(2*pi*q/2e) + Rn*dq/dt + Ls*d2q/dt2
    JJ:     i = Ic*sin(phi) + v/Rn + Cj*dv/dt,   dphi/dt = 2*pi*v/Phi0

Here the duality is structural: the JJ model is the capacitor model
(Cj) plus Rn and Ic*sin(phi); the QPSJ model is the inductor model (Ls)
plus Rn and Vc*sin(2*pi*q/2e).  Within one companion step every other
term is affine in the unknowns, so only the junctions' sin terms are
computed per Newton iteration.

The models work in the scaled units of :mod:`qpsjsim.units` on
parameters that :func:`qpsjsim.netlist.elaborate` checked.  They hold
every device equation the engine uses: :func:`build_models` gives one
:class:`DeviceModel` per device kind.  :func:`damping_parameter` alone
takes SI values.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .netlist import DeviceKind
from .units import PHI0, TWO_E, TWO_E_SI


def damping_parameter(vc, l, r, *, two_e=TWO_E_SI):
    """RLC damping figure of merit 2*pi*Vc*L/(2e*R^2).

    Much less than 1: overdamped (clean quantized pulses); much greater
    than 1: underdamped.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    return 2.0 * math.pi * vc * l / (two_e * r * r)


# --- vectorized models -------------------------------------------------------

_W = 2.0 * math.pi / TWO_E  # QPSJ charge-to-angle factor, rad/aC

# Series resistance (kOhm) of the branches shorted at DC.  It keeps
# superconducting loops (JJ-L-JJ) nonsingular; the split it picks is the
# flux-free one.
_DC_SHORT = 1e-9

_NO_INDEX = np.zeros(0, dtype=np.intp)
_NO_VALUES = np.zeros(0)
_NO_RHS = (_NO_INDEX, _NO_VALUES)


def _source_value(params, t):
    return params["dc"] if "dc" in params else params["pulse"].value_at(t)


# Jacobian entries of conductances g between nodes a and b: rows and
# columns from _conductance(a, b), values from _g4(g).  Entries of branch
# currents br from node a to b, with rows v(a) - v(b) - r*i(br): rows and
# columns from _incidence(a, b, br), values from _pm5(r).

def _conductance(a, b):
    return np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a])


def _g4(g):
    return np.concatenate([g, g, -g, -g])


def _incidence(a, b, br):
    return np.concatenate([a, b, br, br, br]), np.concatenate([br, br, a, b, br])


def _pm5(r):
    ones = np.ones(len(r))
    return np.concatenate([ones, -ones, ones, -ones, -r])


def _series(l):
    """The C part of _pm5(k*l/h): -l on the branch diagonal alone."""
    return np.concatenate([np.zeros(4 * len(l)), -l])


def _dc_state(names, ratio, preset, scale, bias, window):
    """Initial junction state asin(ratio)/scale, or the preset one.  A
    ratio outside [-1, 1] (a DC bias outside the junction's window) is
    clamped to the edge, with a RuntimeWarning."""
    for name, r, p in zip(names, ratio, preset):
        if p is None and abs(r) > 1.0:
            warnings.warn(f"{name}: DC bias {bias} = {abs(r):.4g} lies outside"
                          f" the {window}; initial state clamped to its edge",
                          RuntimeWarning)
    return np.array([math.asin(max(-1.0, min(1.0, r))) / scale if p is None
                     else p for r, p in zip(ratio, preset)])


class DeviceModel:
    """Every device of one kind in a circuit, held as arrays.

    ``xg`` holds the unknowns, node voltages (mV) then branch currents
    (uA), and a trailing 0 that node GROUND (-1) reads; row or column -1
    is that ground slot, which the engine drops.  The residual of a step
    of size h to t is ``S @ xg + c + F_nl(xg)``, with k = 2 (trapezoidal)
    or 1 (backward Euler).  ``static`` gives the values of G and C, fixed
    per circuit, in S = G + (k/h)*C at ``s_rows, s_cols``; ``history(t)``
    gives c at ``f_rows`` (the sources at t and the companion terms of the
    committed state); a junction's ``nonlinear(xg)`` gives F_nl at
    ``f_rows`` and its Jacobian at ``nl_rows, nl_cols``.  ``commit``
    advances the state to the step's converged unknowns.
    """

    kinds = ()  # device kinds held, grouped in this order
    branch = None  # "tran" or "dc": a branch unknown always, or at DC only
    junction = False  # probed by default, has nonlinear and angle_step
    state = ()  # names of the state arrays, primary (phi or q) first

    def __init__(self, devs, br=None, gmin=0.0):
        self.names = [d.name for d in devs]
        self.params = [d.params for d in devs]
        self.a = np.array([d.nodes[0] for d in devs], dtype=np.intp)
        self.b = np.array([d.nodes[1] for d in devs], dtype=np.intp)
        self.br = br
        self.gmin = gmin  # leak conductance across junctions
        self.f_rows = np.concatenate([self.a, self.b])
        self.s_rows = self.s_cols = self.nl_rows = self.nl_cols = _NO_INDEX
        if self.branch == "tran":  # branch currents from node a to b
            self.f_rows = br
            self.s_rows, self.s_cols = _incidence(self.a, self.b, br)
        self.setup()

    def setup(self):
        """Set the kind's parameter and index arrays."""

    def _param(self, key):
        return np.array([p[key] for p in self.params])

    def _sources(self, t):
        return np.array([_source_value(p, t) for p in self.params])

    def begin_step(self, h, trap):
        """Set the coefficients of a trapezoidal (or BE) step of size h."""
        k = 2.0 if trap else 1.0
        self.kh = k / h  # companion factor: 2/h or 1/h
        self.k_old = k - 1.0  # weight of the previous step's derivative

    def static(self):
        """The parts G and C of the static Jacobian values G + (k/h)*C."""
        return _NO_VALUES, _NO_VALUES

    def source(self, t):
        """Independent-source values at f_rows at time t."""
        return np.zeros(len(self.f_rows))

    def history(self, t):
        """Residual values at f_rows that stay fixed within a step to t."""
        return self.source(t)

    def commit(self, xg):
        """Advance the state from the converged unknowns xg."""

    def dc(self):
        """Entries (rows, cols, values) of A and (rows, values) of b: by
        default the limit h -> inf of a step: G and the sources at 0."""
        return (self.s_rows, self.s_cols, self.static()[0]), (self.f_rows,
                                                              -self.source(0.0))

    def seed(self, xg):
        """Set the state from the DC solution xg."""

    def current(self, xg, t):
        """Probe currents; by default the branch unknowns."""
        return xg[self.br]


class ResistorModel(DeviceModel):
    kinds = (DeviceKind.RESISTOR,)

    def setup(self):
        self.g = 1.0 / self._param("value")
        self.s_rows, self.s_cols = _conductance(self.a, self.b)

    def static(self):
        g = _g4(self.g)
        return g, np.zeros(len(g))

    def current(self, xg, t):
        return self.g * (xg[self.a] - xg[self.b])


class CapacitorModel(DeviceModel):
    kinds = (DeviceKind.CAPACITOR,)
    state = ("vold", "iold")

    def setup(self):
        self.c = self._param("value")
        self.s_rows, self.s_cols = _conductance(self.a, self.b)

    def begin_step(self, h, trap):
        super().begin_step(h, trap)
        self.gc = self.kh * self.c

    def static(self):
        c = _g4(self.c)
        return np.zeros(len(c)), c

    def history(self, t):
        i = -self.gc * self.vold - self.k_old * self.iold
        return np.concatenate([i, -i])

    def commit(self, xg):
        v = xg[self.a] - xg[self.b]
        self.vold, self.iold = v, self.gc * (v - self.vold) - self.k_old * self.iold

    def seed(self, xg):
        self.vold, self.iold = xg[self.a] - xg[self.b], np.zeros(len(self.c))

    def current(self, xg, t):
        return self.iold


class CurrentSourceModel(DeviceModel):
    kinds = (DeviceKind.ISOURCE,)

    def source(self, t):
        i = self._sources(t)
        return np.concatenate([i, -i])

    def current(self, xg, t):
        return self._sources(t)


class VoltageSourceModel(DeviceModel):
    kinds = (DeviceKind.VSOURCE,)
    branch = "tran"

    def static(self):
        g = _pm5(np.zeros(len(self.br)))
        return g, np.zeros(len(g))

    def source(self, t):
        return -self._sources(t)


class InductorModel(DeviceModel):
    kinds = (DeviceKind.INDUCTOR,)
    branch = "tran"
    state = ("iold", "vlold")

    def setup(self):
        self.l = self._param("value")

    def begin_step(self, h, trap):
        super().begin_step(h, trap)
        self.r = self.kh * self.l

    def static(self):
        return _pm5(np.zeros(len(self.l))), _series(self.l)

    def history(self, t):
        return self.r * self.iold + self.k_old * self.vlold

    def commit(self, xg):
        i = xg[self.br]
        self.iold, self.vlold = i, self.r * (i - self.iold) - self.k_old * self.vlold

    def dc(self):
        short = _pm5(np.full(len(self.l), _DC_SHORT))
        return (self.s_rows, self.s_cols, short), _NO_RHS

    def seed(self, xg):
        self.iold, self.vlold = xg[self.br], np.zeros(len(self.l))


class JosephsonModel(CapacitorModel):
    """JJs, then MJJs (a JJ with ic = states[state]): the capacitance Cj in
    parallel with Rn and the supercurrent Ic*sin(phi).  At DC a JJ is a
    short: a DC-only branch through a tiny series resistance, whose current
    gives the phase."""

    kinds = (DeviceKind.JJ, DeviceKind.MJJ)
    branch = "dc"
    junction = True
    state = ("phi", "vold", "iold")

    def setup(self):
        self.ic = np.array([p["states"][p["state"]] if "states" in p else p["ic"]
                            for p in self.params])
        self.rn, self.c = self._param("rn"), self._param("cj")
        self.s_rows, self.s_cols = _conductance(self.a, self.b)
        self.nl_rows, self.nl_cols = self.s_rows, self.s_cols

    def begin_step(self, h, trap):
        super().begin_step(h, trap)
        self.beta = 2.0 * math.pi / (self.kh * PHI0)  # d(phi)/dv over the step

    def static(self):
        return _g4(1.0 / self.rn + self.gmin), _g4(self.c)

    def _phase(self, xg):
        v = xg[self.a] - xg[self.b]
        return self.phi + self.k_old * self.beta * self.vold + self.beta * v

    def nonlinear(self, xg):
        phi = self._phase(xg)
        i = self.ic * np.sin(phi)
        return np.concatenate([i, -i]), _g4(self.ic * np.cos(phi) * self.beta)

    def angle_step(self, dxg):
        return np.abs(dxg[self.a] - dxg[self.b]).max() * self.beta

    def commit(self, xg):
        self.phi = self._phase(xg)
        super().commit(xg)

    def dc(self):
        k = len(self.ic)
        rows, cols = _incidence(self.a, self.b, self.br)
        values = [_g4(np.full(k, self.gmin)), _pm5(np.full(k, _DC_SHORT))]
        return ((np.concatenate([self.s_rows, rows]),
                 np.concatenate([self.s_cols, cols]),
                 np.concatenate(values)), _NO_RHS)

    def seed(self, xg):
        self.phi = _dc_state(self.names, xg[self.br] / self.ic,
                             [p.get("phi0") for p in self.params], 1.0,
                             "|i|/Ic", "superconducting window")
        super().seed(xg)

    def current(self, xg, t):
        return self.ic * np.sin(self.phi) + self.vold / self.rn + self.iold


class PhaseSlipModel(InductorModel):
    """QPSJs: the inductance Ls in series with Rn and the voltage
    Vc*sin(2*pi*q/2e).  At DC a QPSJ is in Coulomb blockade: its branch
    current is held at zero and its branch voltage gives the initial
    charge."""

    kinds = (DeviceKind.QPSJ,)
    junction = True
    state = ("q", "iold", "vlold")

    def setup(self):
        self.vc, self.rn, self.l = (self._param(k) for k in ("vc", "rn", "ls"))
        g_rows, g_cols = _conductance(self.a, self.b)
        self.s_rows = np.concatenate([self.s_rows, g_rows])
        self.s_cols = np.concatenate([self.s_cols, g_cols])
        self.nl_rows = self.nl_cols = self.br

    def begin_step(self, h, trap):
        super().begin_step(h, trap)
        self.alpha = 1.0 / self.kh  # dq/di over the step

    def static(self):
        gmin = _g4(np.full(len(self.vc), self.gmin))
        return (np.concatenate([_pm5(self.rn), gmin]),
                np.concatenate([_series(self.l), np.zeros(len(gmin))]))

    def _charge(self, xg):
        return self.q + self.k_old * self.alpha * self.iold + self.alpha * xg[self.br]

    def nonlinear(self, xg):
        wq = _W * self._charge(xg)
        return -self.vc * np.sin(wq), -self.vc * np.cos(wq) * _W * self.alpha

    def angle_step(self, dxg):
        return np.abs(dxg[self.br]).max() * _W * self.alpha

    def commit(self, xg):
        self.q = self._charge(xg)
        super().commit(xg)

    def dc(self):
        ones, zeros = np.ones(len(self.vc)), np.zeros(len(self.vc))
        values = [ones, -ones, zeros, zeros, ones, _g4(self.gmin * ones)]
        return (self.s_rows, self.s_cols, np.concatenate(values)), _NO_RHS

    def seed(self, xg):
        """Also sets the branch currents in xg to their blockade value 0."""
        self.q = _dc_state(self.names, (xg[self.a] - xg[self.b]) / self.vc,
                           [p.get("q0") for p in self.params], _W, "|v|/Vc",
                           "Coulomb blockade")
        xg[self.br] = 0.0
        super().seed(xg)


_MODELS = (ResistorModel, CapacitorModel, CurrentSourceModel,
           VoltageSourceModel, InductorModel, JosephsonModel, PhaseSlipModel)


def build_models(circuit, gmin):
    """One model per device kind present, in the order of ``_MODELS`` (the
    engine sums their contributions in that order), and the numbers N and
    N_dc of transient and DC unknowns: branch currents follow the node
    voltages, first the "tran" branches, then the DC-only ones."""
    groups = [(cls, [d for kind in cls.kinds for d in circuit.devices
                     if d.kind is kind]) for cls in _MODELS]
    groups = [(cls, devs) for cls, devs in groups if devs]
    nxt = circuit.node_count
    branches, sizes = {}, []
    for scope in ("tran", "dc"):
        for cls, devs in groups:
            if cls.branch == scope:
                branches[cls] = np.arange(nxt, nxt + len(devs), dtype=np.intp)
                nxt += len(devs)
        sizes.append(nxt)
    return [cls(devs, branches.get(cls), gmin) for cls, devs in groups], *sizes
