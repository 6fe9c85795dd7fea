"""Device equations: one vectorized model per device kind.

The quantum phase-slip junction (QPSJ) is the exact charge/flux dual of
the Josephson junction: where a JJ carries a supercurrent Ic*sin(phi)
with d(phi)/dt = 2*pi*v/Phi0, a QPSJ sustains a voltage
Vc*sin(2*pi*q/2e) with i = dq/dt.  The full branch relations are

    QPSJ:   v = Vc*sin(2*pi*q/2e) + Rn*dq/dt + Ls*d2q/dt2
    JJ:     i = Ic*sin(phi) + v/Rn + Cj*dv/dt,   dphi/dt = 2*pi*v/Phi0

Here the duality is structural: the JJ model is the capacitor model
(Cj) plus Rn and Ic*sin(phi); the QPSJ model is the inductor model (Ls)
plus Rn and Vc*sin(2*pi*q/2e).  Every other term is linear in the
unknowns and their time derivatives.  The two sin terms are one sine
law, A*sin(theta) with the angle theta moved by a row of the unknowns'
integral, and each junction model only declares that row, the rows the
term enters and its amplitude A (Ic, -Vc).

The models work in the scaled units of :mod:`qpsjsim.units` on
parameters that :func:`qpsjsim.netlist.elaborate` checked.  They hold
every device equation the engine uses, and no integration rule and no
step state: the engine keeps the unknowns, their time derivatives and
the junction angles, and discretizes them for every kind at once.
:func:`build_models` gives one :class:`DeviceModel` per device kind.
:func:`damping_parameter` alone takes SI values.

A model holds one row per bank (:func:`banks`): m identical QPSJs in
parallel, such as the neuron's threshold junctions, are one row whose
branch unknown is one member's current.  Only its KCL entries (+-m) and
its leak (m*gmin) count the members; its branch equation, sine law and
DC output are each member's, so its Newton and LTE tests are too.
"""

from __future__ import annotations

import dataclasses
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
    if not 0 < vc < math.inf:
        raise ValueError(f"vc must be positive and finite, got {vc}")
    if not 0 <= l < math.inf:
        raise ValueError(f"l must be non-negative and finite, got {l}")
    if not r > 0:
        raise ValueError("r must be positive")
    return 2.0 * math.pi * vc * l / (two_e * r * r)


# --- vectorized models -------------------------------------------------------

_W = 2.0 * math.pi / TWO_E  # QPSJ charge-to-angle factor, rad/aC
_WJ = 2.0 * math.pi / PHI0  # JJ flux-to-phase factor, rad/(mV*ps)

# Series resistance (kOhm) of the branches shorted at DC.  It keeps
# superconducting loops (JJ-L-JJ) nonsingular; the split it picks is the
# flux-free one.
_DC_SHORT = 1e-9

_NO_INDEX = np.zeros(0, dtype=np.intp)
_NO_VALUES = np.zeros(0)


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


def _pm5(r, m=1.0):
    """As above, with KCL entries +-m: the currents of m parallel
    branches, each equal to br's."""
    ones = np.ones(len(r))
    return np.concatenate([m * ones, -m * ones, ones, -ones, -r])


def _series(l):
    """The C part of _pm5(k*l/h): -l on the branch diagonal alone."""
    return np.concatenate([np.zeros(4 * len(l)), -l])


class DeviceModel:
    """Every device of one kind in a circuit, held as arrays.

    ``xg`` holds the unknowns, node voltages (mV) then branch currents
    (uA), and a trailing 0 that node GROUND (-1) reads; row or column -1
    is that ground slot, which the engine drops; ``xdg`` holds their
    time derivatives.  The engine integrates ``G @ x + C @ dx/dt +
    F_nl(x) = sources``: ``static`` gives the values of G and C, fixed
    per circuit, at ``s_rows, s_cols``; a source kind declares the rows
    its values enter, negated, as (index array, factor) pairs
    (``sources``).

    A junction adds one sine law per device, F_nl = B @ (A * sin(theta)),
    whose angle theta a step moves by W @ (the unknowns' integral over
    it).  The engine holds the angles; the model declares its rows of W
    (``angle``) and columns of B (``output``), each as (index array,
    factor) pairs, its amplitudes A (``amplitude``, set by the params
    named in ``amplitude_params``), and what the DC solution asks of
    A * sin(theta) (``dc_output``), from which ``seed`` sets theta.

    ``probe`` declares each device's current as (part, index array,
    factor) terms over the unknowns "x", their time derivatives "xd",
    and, by device, the kind's A * sin(theta) "out" and source values
    "src"; by default a branch kind's current is its branch unknown.

    Each device of devs is one row of the model and stands for the
    devices named in its entry of ``members`` (by default itself): a
    bank of m identical parallel devices (see :func:`banks`), m = ``m``.
    """

    kinds = ()  # device kinds held, grouped in this order
    branch = None  # "tran" or "dc": a branch unknown always, or at DC only
    junction = False  # probed by default; obeys the sine law (see above)
    parallel = False  # identical parallel devices form banks
    amplitude_params = ()
    sources = ()

    def __init__(self, devs, br=None, gmin=0.0, members=None):
        self.names = [d.name for d in devs]
        self.members = members or [[name] for name in self.names]
        self.m = np.array([len(names) for names in self.members], dtype=float)
        self.params = [d.params for d in devs]
        self.a = np.array([d.nodes[0] for d in devs], dtype=np.intp)
        self.b = np.array([d.nodes[1] for d in devs], dtype=np.intp)
        self.br = br
        self.gmin = gmin  # leak conductance across junctions
        self.s_rows = self.s_cols = _NO_INDEX
        self.probe = ()
        if self.branch == "tran":  # branch currents from node a to b
            self.s_rows, self.s_cols = _incidence(self.a, self.b, br)
            self.probe = (("x", br, 1.0),)
        self.setup()

    def setup(self):
        """Set the kind's parameter and index arrays."""

    def _param(self, key):
        return np.array([p[key] for p in self.params])

    def static(self):
        """The values G and C, in the order of s_rows and s_cols."""
        return _NO_VALUES, _NO_VALUES

    def dc(self):
        """Entries (rows, cols, values) of the DC matrix: by default the
        limit h -> inf of a step, G.  The sources give its right side."""
        return self.s_rows, self.s_cols, self.static()[0]

    def seed(self, ratio):
        """Angles asin(ratio) for the ratios of dc_output to the
        amplitudes, one row per variant, or the preset ones.  A ratio
        outside [-1, 1] (a DC bias outside the junction's window) is
        clamped to the edge, with a RuntimeWarning."""
        preset = [p.get(self.preset) for p in self.params]
        for row in ratio:
            for names, r, p in zip(self.members, row, preset):
                for name in names if p is None and abs(r) > 1.0 else ():
                    warnings.warn(f"{name}: DC bias {self.bias} = {abs(r):.4g}"
                                  f" lies outside the {self.window}; initial"
                                  f" state clamped to its edge", RuntimeWarning)
        return np.array([[math.asin(max(-1.0, min(1.0, r))) if p is None
                          else self.unit * p for r, p in zip(row, preset)]
                         for row in ratio])


class ResistorModel(DeviceModel):
    kinds = (DeviceKind.RESISTOR,)

    def setup(self):
        self.g = 1.0 / self._param("value")
        self.s_rows, self.s_cols = _conductance(self.a, self.b)
        self.probe = (("x", self.a, self.g), ("x", self.b, -self.g))

    def static(self):
        g = _g4(self.g)
        return g, np.zeros(len(g))


class CapacitorModel(DeviceModel):
    kinds = (DeviceKind.CAPACITOR,)

    def setup(self):
        self.c = self._param("value")
        self.s_rows, self.s_cols = _conductance(self.a, self.b)
        self.probe = (("xd", self.a, self.c), ("xd", self.b, -self.c))

    def static(self):
        c = _g4(self.c)
        return np.zeros(len(c)), c


class CurrentSourceModel(DeviceModel):
    kinds = (DeviceKind.ISOURCE,)

    def setup(self):
        self.sources = ((self.a, 1.0), (self.b, -1.0))
        self.probe = (("src", np.arange(len(self.a)), 1.0),)


class VoltageSourceModel(DeviceModel):
    kinds = (DeviceKind.VSOURCE,)
    branch = "tran"

    def setup(self):
        self.sources = ((self.br, -1.0),)

    def static(self):
        g = _pm5(np.zeros(len(self.br)))
        return g, np.zeros(len(g))


class InductorModel(DeviceModel):
    kinds = (DeviceKind.INDUCTOR,)
    branch = "tran"

    def setup(self):
        self.l = self._param("value")

    def static(self):
        return _pm5(np.zeros(len(self.l))), _series(self.l)

    def dc(self):
        return self.s_rows, self.s_cols, _pm5(np.full(len(self.l), _DC_SHORT))


class JosephsonModel(CapacitorModel):
    """JJs, then MJJs (a JJ with ic = states[state]): the capacitance Cj in
    parallel with Rn and the supercurrent Ic*sin(phi), from node a to b,
    whose phase phi moves by 2*pi/Phi0 times the flux v(a) - v(b).  At DC
    a JJ is a short: a DC-only branch through a tiny series resistance,
    whose current Ic*sin(phi) carries."""

    kinds = (DeviceKind.JJ, DeviceKind.MJJ)
    branch = "dc"
    junction = True
    amplitude_params = ("ic", "states", "state")
    preset, unit = "phi0", 1.0  # state phi (rad) = theta
    bias, window = "|i|/Ic", "superconducting window"

    def setup(self):
        self.amplitude = np.array([p["states"][p["state"]] if "states" in p
                                   else p["ic"] for p in self.params])
        self.rn, self.c = self._param("rn"), self._param("cj")
        self.s_rows, self.s_cols = _conductance(self.a, self.b)
        self.angle = ((self.a, _WJ), (self.b, -_WJ))
        self.output = ((self.a, 1.0), (self.b, -1.0))
        g = 1.0 / self.rn
        self.probe = (("out", np.arange(len(g)), 1.0), ("x", self.a, g),
                      ("x", self.b, -g), ("xd", self.a, self.c),
                      ("xd", self.b, -self.c))

    def static(self):
        return _g4(1.0 / self.rn + self.gmin), _g4(self.c)

    def dc(self):
        k = len(self.amplitude)
        rows, cols = _incidence(self.a, self.b, self.br)
        values = [_g4(np.full(k, self.gmin)), _pm5(np.full(k, _DC_SHORT))]
        return (np.concatenate([self.s_rows, rows]),
                np.concatenate([self.s_cols, cols]), np.concatenate(values))

    def dc_output(self, xg):
        return xg[self.br]


class PhaseSlipModel(InductorModel):
    """QPSJs: the inductance Ls in series with Rn and the voltage
    Vc*sin(2*pi*q/2e) on the branch from node a to b, whose charge q is
    the integral of the branch current.  At DC a QPSJ is in Coulomb
    blockade: its branch current is held at zero and its branch voltage
    gives the initial charge.  A bank of m QPSJs in parallel is one row,
    whose branch current is one member's: its KCL entries are +-m, and
    its leak is m*gmin, as the m leaks of the members."""

    kinds = (DeviceKind.QPSJ,)
    junction = True
    parallel = True
    amplitude_params = ("vc",)
    preset, unit = "q0", _W  # state q (aC) = theta / _W
    bias, window = "|v|/Vc", "Coulomb blockade"

    def setup(self):
        vc, self.rn, self.l = (self._param(k) for k in ("vc", "rn", "ls"))
        self.amplitude = -vc
        g_rows, g_cols = _conductance(self.a, self.b)
        self.s_rows = np.concatenate([self.s_rows, g_rows])
        self.s_cols = np.concatenate([self.s_cols, g_cols])
        self.angle = ((self.br, _W),)
        self.output = ((self.br, 1.0),)

    def static(self):
        gmin = _g4(self.m * self.gmin)
        return (np.concatenate([_pm5(self.rn, self.m), gmin]),
                np.concatenate([_series(self.l), np.zeros(len(gmin))]))

    def dc(self):
        m, ones, zeros = self.m, np.ones(len(self.m)), np.zeros(len(self.m))
        values = [m, -m, zeros, zeros, ones, _g4(self.gmin * m)]
        return self.s_rows, self.s_cols, np.concatenate(values)

    def dc_output(self, xg):
        """Also sets the branch currents in xg to their blockade value 0."""
        xg[self.br] = 0.0
        return xg[self.b] - xg[self.a]


_MODELS = (ResistorModel, CapacitorModel, CurrentSourceModel,
           VoltageSourceModel, InductorModel, JosephsonModel, PhaseSlipModel)


def device_groups(circuit):
    """Each model class with devices in the circuit, in the order of
    ``_MODELS``, and its devices in the order of its ``kinds``."""
    groups = [(cls, [d for kind in cls.kinds for d in circuit.devices
                     if d.kind is kind]) for cls in _MODELS]
    return [(cls, devs) for cls, devs in groups if devs]


def banks(cls, variants):
    """The rows of a model of class cls, as lists of the indices of the
    devices each stands for; variants holds the model's devices in each
    circuit of a batch, in one order.  Where cls is ``parallel``, devices
    with one kind, one ordered pair of terminals (so anti-parallel ones
    stay apart) and equal parameters in every variant form one bank, as
    SPICE's instance multiplier M does; every other device is its own."""
    def key(i):
        return [(v[i].kind, v[i].nodes, v[i].params) for v in variants]

    rows = []
    for i in range(len(variants[0])):
        row = next((row for row in rows
                    if cls.parallel and key(row[0]) == key(i)), None)
        if row is None:
            rows.append([i])
        else:
            row.append(i)
    return rows


def build_models(circuits, gmin):
    """For each circuit of a batch (circuits of one topology), one model
    per device kind present, in the order of ``_MODELS`` (the engine sums
    their contributions in that order), with one row per bank (see
    :func:`banks`); and the numbers N and N_dc of transient and DC
    unknowns: branch currents follow the node voltages, first the "tran"
    branches, then the DC-only ones."""
    groups = [device_groups(c) for c in circuits]
    rows = [banks(cls, [g[j][1] for g in groups])
            for j, (cls, _) in enumerate(groups[0])]
    nxt = circuits[0].node_count
    branches, sizes = {}, []
    for scope in ("tran", "dc"):
        for (cls, _), r in zip(groups[0], rows):
            if cls.branch == scope:
                branches[cls] = np.arange(nxt, nxt + len(r), dtype=np.intp)
                nxt += len(r)
        sizes.append(nxt)
    return [[cls([devs[row[0]] for row in r], branches.get(cls), gmin,
                 [[devs[i].name for i in row] for row in r])
             for (cls, devs), r in zip(g, rows)] for g in groups], *sizes


def topology(circuit):
    """The circuit with its junction amplitudes (JJ/MJJ Ic, QPSJ Vc) left
    out.  Circuits of equal topology share every matrix, source and probe
    of the engine, which integrates them as one batch."""
    drop = {kind: cls.amplitude_params for cls in _MODELS for kind in cls.kinds}
    return dataclasses.replace(circuit, devices=[
        dataclasses.replace(d, params={k: v for k, v in d.params.items()
                                       if k not in drop[d.kind]})
        for d in circuit.devices])
