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

A model class defines its device kinds whole, as data: the netlist
card :mod:`qpsjsim.netlist` reads, and every device equation the engine
uses, in the scaled units of :mod:`qpsjsim.units` on parameters that
:func:`qpsjsim.netlist.elaborate` checked.  It holds no integration rule
and no step state: the engine keeps the unknowns, their time derivatives
and the junction angles, and discretizes them for every kind at once.
:func:`build_models` gives one :class:`DeviceModel` per device kind.
:func:`damping_parameter` alone takes SI values.

At DC a model declares nothing of its own: the engine solves G and the
sine laws' B and W, with each junction's output A*sin(theta) an unknown
that the W row sets (a JJ holds no voltage, a QPSJ passes no current).

A model holds one row per bank (:func:`banks`): m identical QPSJs in
parallel, such as the neuron's threshold junctions, are one row whose
branch unknown is one member's current.  Only its KCL entries (+-m) and
its leak (m*gmin) count the members; its branch equation and sine law
are each member's, so its Newton and LTE tests are too.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections import namedtuple
from enum import Enum

import numpy as np

from . import units
from .units import PHI0, TWO_E, TWO_E_SI


class DeviceKind(str, Enum):
    RESISTOR = "resistor"
    INDUCTOR = "inductor"
    CAPACITOR = "capacitor"
    VSOURCE = "vsource"
    ISOURCE = "isource"
    QPSJ = "qpsj"
    JJ = "jj"
    MJJ = "mjj"


_Card = namedtuple("_Card", "form head params")


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


def _conductance(a, b, g):
    """Entries (rows, cols, values) of conductances g from node a to b."""
    return (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]),
            np.concatenate([g, g, -g, -g]))


def _incidence(a, b, br, r, m=1.0):
    """Entries of branch currents br from node a to b, with rows
    v(a) - v(b) - r*i(br), and KCL entries +-m: the currents of m
    parallel branches, each equal to br's."""
    ones = np.ones(len(br))
    return (np.concatenate([a, b, br, br, br]),
            np.concatenate([br, br, a, b, br]),
            np.concatenate([m * ones, -m * ones, ones, -ones, -r]))


class DeviceModel:
    """Every device of one kind in a circuit, held as arrays.  ``cards``
    maps each kind of the class, in the order its devices are grouped, to
    its netlist card: form, head and parameters (see :mod:`qpsjsim.netlist`).

    ``xg`` holds the unknowns, node voltages (mV) then branch currents
    (uA), and a trailing 0 that node GROUND (-1) reads; row or column -1
    is that ground slot, which the engine drops; ``xdg`` holds their
    time derivatives.  The engine integrates ``G @ x + C @ dx/dt +
    F_nl(x) = sources``, and DC is that equation at dx/dt = 0: ``setup``
    declares the entries of G and C, fixed per circuit, each as a tuple
    of (rows, cols, values) triples; a source kind declares the rows its
    values enter, negated, as (index array, factor) pairs (``sources``).

    A junction adds one sine law per device, F_nl = B @ (A * sin(theta)),
    whose angle theta a step moves by W @ (the unknowns' integral over
    it).  The engine holds the angles; the model declares its rows of W
    (``angle``) and columns of B (``output``), each as (index array,
    factor) pairs, its amplitudes A (``amplitude``, set by the params
    named in ``amplitude_params``); ``seed`` sets theta from the DC
    solution's A * sin(theta).

    ``probe`` declares each device's current as (part, index array,
    factor) terms over the unknowns "x", their time derivatives "xd",
    and, by device, the kind's A * sin(theta) "out" and source values
    "src"; by default a branch kind's current is its branch unknown.

    Each device of devs is one row of the model and stands for the
    devices named in its entry of ``members`` (by default itself): a
    bank of m identical parallel devices (see :func:`banks`), m = ``m``.
    """

    cards = {}
    branch = False  # has a branch unknown, its current from node a to b
    junction = False  # probed by default; obeys the sine law (see above)
    parallel = False  # identical parallel devices form banks
    amplitude_params = ()
    sources = ()
    G, C = (), ()

    def __init__(self, devs, br=None, gmin=0.0, members=None):
        self.names = [d.name for d in devs]
        self.members = members or [[name] for name in self.names]
        self.m = np.array([len(names) for names in self.members], dtype=float)
        self.params = [d.params for d in devs]
        self.a = np.array([d.nodes[0] for d in devs], dtype=np.intp)
        self.b = np.array([d.nodes[1] for d in devs], dtype=np.intp)
        self.br = br
        self.gmin = gmin  # leak conductance across junctions
        self.probe = (("x", br, 1.0),) if self.branch else ()
        self.setup()

    def setup(self):
        """Set the kind's parameter and index arrays and its entries."""

    def _param(self, key):
        return np.array([p[key] for p in self.params])

    def seed(self, ratio):
        """Angles asin(ratio) for the ratios of the DC solution's
        A * sin(theta) to the amplitudes A, one row per variant, or the
        preset ones.  A ratio outside [-1, 1] (a DC bias outside the
        junction's window) is clamped to the edge, with a RuntimeWarning."""
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
    cards = {DeviceKind.RESISTOR: _Card(
        "value", "r", {"value": (units.OHM, "positive")})}

    def setup(self):
        g = 1.0 / self._param("value")
        self.G = (_conductance(self.a, self.b, g),)
        self.probe = (("x", self.a, g), ("x", self.b, -g))


class CapacitorModel(DeviceModel):
    cards = {DeviceKind.CAPACITOR: _Card(
        "value", "c", {"value": (units.FARAD, "positive")})}

    def setup(self):
        c = self._param("value")
        self.C = (_conductance(self.a, self.b, c),)
        self.probe = (("xd", self.a, c), ("xd", self.b, -c))


class CurrentSourceModel(DeviceModel):
    cards = {DeviceKind.ISOURCE: _Card("source", "i", {
        "dc": (units.AMP, "optional"), "pulse": (units.AMP, "optional")})}

    def setup(self):
        self.sources = ((self.a, 1.0), (self.b, -1.0))
        self.probe = (("src", np.arange(len(self.a)), 1.0),)


class VoltageSourceModel(DeviceModel):
    cards = {DeviceKind.VSOURCE: _Card("source", "v", {
        "dc": (units.VOLT, "optional"), "pulse": (units.VOLT, "optional")})}
    branch = True

    def setup(self):
        self.sources = ((self.br, -1.0),)
        self.G = (_incidence(self.a, self.b, self.br, np.zeros(len(self.br))),)


class InductorModel(DeviceModel):
    cards = {DeviceKind.INDUCTOR: _Card(
        "value", "l", {"value": (units.HENRY, "positive")})}
    branch = True

    def setup(self):
        a, b, br, l = self.a, self.b, self.br, self._param("value")
        self.G = (_incidence(a, b, br, np.zeros(len(l))),)
        self.C = ((br, br, -l),)


class JosephsonModel(DeviceModel):
    """JJs, then MJJs (a JJ with ic = states[state]): the capacitance Cj in
    parallel with Rn and the supercurrent Ic*sin(phi), from node a to b,
    whose phase phi moves by 2*pi/Phi0 times the flux v(a) - v(b).  At DC
    its W row holds v(a) - v(b) at zero, so Ic*sin(phi) carries the JJ's
    whole current."""

    cards = {
        DeviceKind.JJ: _Card("junction", "jj", {
            "ic": (units.AMP, "positive"), "rn": (units.OHM, "positive"),
            "cj": (units.FARAD, "non-negative"), "phi0": (1.0, "optional")}),
        DeviceKind.MJJ: _Card("junction", "mjj", {
            "states": (units.AMP, "list"), "state": (1, "index"),
            "rn": (units.OHM, "positive"), "cj": (units.FARAD, "non-negative")})}
    junction = True
    amplitude_params = ("ic", "states", "state")
    preset, unit = "phi0", 1.0  # state phi (rad) = theta
    bias, window = "|i|/Ic", "superconducting window"

    def setup(self):
        a, b = self.a, self.b
        self.amplitude = np.array([p["states"][p["state"]] if "states" in p
                                   else p["ic"] for p in self.params])
        g, c = 1.0 / self._param("rn"), self._param("cj")
        self.G = (_conductance(a, b, g + self.gmin),)
        self.C = (_conductance(a, b, c),)
        self.angle = ((a, _WJ), (b, -_WJ))
        self.output = ((a, 1.0), (b, -1.0))
        self.probe = (("out", np.arange(len(g)), 1.0), ("x", a, g),
                      ("x", b, -g), ("xd", a, c), ("xd", b, -c))


class PhaseSlipModel(DeviceModel):
    """QPSJs: the inductance Ls in series with Rn and the voltage
    Vc*sin(2*pi*q/2e) on the branch from node a to b, whose charge q is
    the integral of the branch current.  At DC a QPSJ is in Coulomb
    blockade: its W row holds its branch current at zero, and its branch
    voltage, Vc*sin(2*pi*q/2e), gives the initial charge.  A bank of m
    QPSJs in parallel is one row, whose branch current is one member's:
    its KCL entries are +-m, and its leak is m*gmin, as the m leaks of
    the members."""

    cards = {DeviceKind.QPSJ: _Card("junction", "qpsj", {
        "vc": (units.VOLT, "positive"), "rn": (units.OHM, "positive"),
        "ls": (units.HENRY, "non-negative"), "q0": (units.COULOMB, "optional")})}
    branch = True
    junction = True
    parallel = True
    amplitude_params = ("vc",)
    preset, unit = "q0", _W  # state q (aC) = theta / _W
    bias, window = "|v|/Vc", "Coulomb blockade"

    def setup(self):
        a, b, br, m = self.a, self.b, self.br, self.m
        vc, rn, l = (self._param(k) for k in ("vc", "rn", "ls"))
        self.amplitude = -vc
        self.G = (_incidence(a, b, br, rn, m),
                  _conductance(a, b, m * self.gmin))
        self.C = ((br, br, -l),)
        self.angle = ((br, _W),)
        self.output = ((br, 1.0),)


_MODELS = (ResistorModel, CapacitorModel, CurrentSourceModel,
           VoltageSourceModel, InductorModel, JosephsonModel, PhaseSlipModel)


def device_groups(circuit):
    """Each model class with devices in the circuit, in the order of
    ``_MODELS``, and its devices in the order of its ``cards``."""
    groups = [(cls, [d for kind in cls.cards for d in circuit.devices
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
    :func:`banks`); and the number N of unknowns of a step: the node
    voltages, then the branch currents of the ``branch`` kinds, in that
    order."""
    groups = [device_groups(c) for c in circuits]
    rows = [banks(cls, [g[j][1] for g in groups])
            for j, (cls, _) in enumerate(groups[0])]
    nxt, branches = circuits[0].node_count, {}
    for (cls, _), r in zip(groups[0], rows):
        if cls.branch:
            branches[cls] = np.arange(nxt, nxt + len(r), dtype=np.intp)
            nxt += len(r)
    return [[cls([devs[row[0]] for row in r], branches.get(cls), gmin,
                 [[devs[i].name for i in row] for row in r])
             for (cls, devs), r in zip(g, rows)] for g in groups], nxt


def topology(circuit):
    """The circuit with its junction amplitudes (JJ/MJJ Ic, QPSJ Vc) left
    out.  Circuits of equal topology share every matrix, source and probe
    of the engine, which integrates them as one batch."""
    drop = {kind: cls.amplitude_params for cls in _MODELS for kind in cls.cards}
    return dataclasses.replace(circuit, devices=[
        dataclasses.replace(d, params={k: v for k, v in d.params.items()
                                       if k not in drop[d.kind]})
        for d in circuit.devices])
