"""Builders for the neuron, synapse and network circuits.

Each builder renders a netlist in the simulator's own dialect, as text:
``elaborate(parse_netlist(neuron_netlist(p)))`` gives the circuit.  All
numeric parameters are in base SI units here; elaboration converts to
the internal scaled system.

Circuit notes
-------------
Neuron: the input pulse source rides in series on top of the Vb/Rb bias
rail, so the driving junction Q0 sees bias + pulse and switches exactly
once per input regardless of the integration capacitor's momentary
voltage.  Between pulses every junction is in Coulomb blockade and the
capacitor node floats inside the blockade window; its rest level settles
at vb - vc, and c_store is sized so that N charge steps of 2e/C lift it
from there past vc, firing all N parallel junctions in lockstep.

Binary synapse: the input pulse adds a marginal overdrive current to the
MJJ's bias.  In the low-Ic state the junction emits one SFQ pulse whose
fixed area (Phi0) drives exactly one 2e slip through the output QPSJ; in
the high-Ic state nothing switches.

Multi-state synapse: the input JJ pumps flux into the storage inductor;
the MJJ releases it as a voltage pulse whose usable charge drive falls
with its critical current, so the output QPSJ emits fewer 2e pulses the
higher the MJJ state, down to none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .units import TWO_E_SI


def _si(x):
    return repr(float(x))


@dataclass(frozen=True)
class NeuronParams:
    n_threshold: int = 10
    vc: float = 0.7e-3  # V
    vb: float = 1.0e-3  # V
    rn_q0: float = 10e3  # ohm
    rn_parallel: float = 15e3  # ohm
    rb: float = 9e3  # ohm
    c_store: float | None = None  # F; default sized from the threshold
    c_bypass: float = 1e-15  # F across rb; its sag self-limits charge per pulse
    ls: float = 0.1e-9  # H
    vin_amplitude: float = 0.8e-3  # V
    pulse_width: float = 3e-12  # s
    pulse_period: float = 120e-12  # s
    pulse_delay: float = 300e-12  # s; settling time before the first input
    n_pulses: int = 12
    r_load: float = 1.0  # ohm
    tstep: float = 0.1e-12  # s

    def __post_init__(self):
        if self.n_threshold < 1:
            raise ValueError("n_threshold must be >= 1")
        if not self.vc > 0 or not self.vb > 0:
            raise ValueError("vc and vb must be positive")
        if not 0 < self.vb - self.vc < self.vc:
            raise ValueError("need vc < vb < 2*vc so the rest level "
                             "(vb - vc) sits inside the blockade window")

    @property
    def v_rest(self):
        """Capacitor-node rest voltage: blockade edge of the input junction."""
        return self.vb - self.vc

    @property
    def c_store_effective(self):
        if self.c_store is not None:
            return self.c_store
        # N steps of 2e/C must lift node 1 from v_rest just past vc.  Part
        # of each injected quantum is absorbed by the parallel junctions
        # themselves (their stored charge follows asin(v/vc) as the node
        # rises), so the capacitor only has to hold the remainder.  The
        # 0.95 undersizing makes the Nth step overshoot the threshold
        # instead of landing exactly on it.
        bank_frac = 0.25 - math.asin(self.v_rest / self.vc) / (2.0 * math.pi)
        stored = self.n_threshold * TWO_E_SI * (1.0 - bank_frac)
        return 0.95 * stored / (self.vc - self.v_rest)

    @property
    def tstop(self):
        return self.pulse_delay + self.n_pulses * self.pulse_period


def neuron_netlist(p: NeuronParams | None = None) -> str:
    p = p or NeuronParams()
    lines = [f"* qpsj integrate-and-fire neuron, threshold {p.n_threshold}"]
    lines.append(f"Vb nb 0 dc {_si(p.vb)}")
    lines.append(f"Rb nb nm {_si(p.rb)}")
    lines.append(f"Cb nm 0 {_si(p.c_bypass)}")
    lines.append(f"Vin nin nm pulse(0 {_si(p.vin_amplitude)} {_si(p.pulse_delay)}"
                 f" 2e-13 2e-13 {_si(p.pulse_width)} {_si(p.pulse_period)})")
    lines.append(f"qpsj Q0 nin n1 vc={_si(p.vc)} rn={_si(p.rn_q0)} ls={_si(p.ls)}")
    lines.append(f"C1 n1 0 {_si(p.c_store_effective)}")
    for k in range(1, p.n_threshold + 1):
        lines.append(f"qpsj Q{k} n1 n2 vc={_si(p.vc)} rn={_si(p.rn_parallel)}"
                     f" ls={_si(p.ls)}")
    lines.append(f"Rload n2 0 {_si(p.r_load)}")
    lines.append(f".tran {_si(p.tstep)} {_si(p.tstop)}")
    probes = "v(n1) v(n2) i(Q0) i(Q1) i(Rload)"
    lines.append(f".save {probes}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SynapseBinaryParams:
    ic_states: tuple = (200e-6, 300e-6)  # A, (weight-1, weight-0)
    state: int = 0
    ib: float = 140e-6  # A
    vc: float = 0.7e-3  # V
    vin_amplitude: float = 1.4e-3  # V
    r1: float = 10.0  # ohm; sets the marginal overdrive current
    l1: float = 10e-12  # H
    rn_jj: float = 7.0  # ohm
    cj: float = 1e-15  # F
    rn_q1: float = 5e3  # ohm
    ls_q1: float = 0.1e-9  # H
    r_load: float = 1.0  # ohm
    pulse_width: float = 3e-12  # s
    pulse_period: float = 100e-12  # s
    pulse_delay: float = 50e-12  # s
    n_pulses: int = 10
    tstep: float = 0.05e-12  # s

    def __post_init__(self):
        if len(self.ic_states) != 2 or not self.ic_states[0] < self.ic_states[1]:
            raise ValueError("ic_states must be exactly (low, high)")
        if not 0 <= self.state < 2:
            raise ValueError("state must be 0 or 1")

    @property
    def tstop(self):
        return self.pulse_delay + self.n_pulses * self.pulse_period


def binary_synapse_netlist(p: SynapseBinaryParams | None = None) -> str:
    p = p or SynapseBinaryParams()
    states = ",".join(_si(s) for s in p.ic_states)
    lines = [f"* binary synapse, mjj state {p.state}"]
    lines.append(f"Vin nin 0 pulse(0 {_si(p.vin_amplitude)} {_si(p.pulse_delay)}"
                 f" 2e-13 2e-13 {_si(p.pulse_width)} {_si(p.pulse_period)})")
    lines.append(f"R1 nin na {_si(p.r1)}")
    lines.append(f"L1 na nj {_si(p.l1)}")
    lines.append(f"Ib 0 nj dc {_si(p.ib)}")
    lines.append(f"mjj J1 nj 0 states={states} state={p.state}"
                 f" rn={_si(p.rn_jj)} cj={_si(p.cj)}")
    lines.append(f"qpsj Q1 nj nout vc={_si(p.vc)} rn={_si(p.rn_q1)}"
                 f" ls={_si(p.ls_q1)}")
    lines.append(f"Rload nout 0 {_si(p.r_load)}")
    lines.append(f".tran {_si(p.tstep)} {_si(p.tstop)}")
    lines.append(".save v(nj) i(J1) i(Q1)")
    lines.append(".end")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SynapseMultiParams:
    ic_j1: float = 200e-6  # A
    ib: float = 160e-6  # A
    vc: float = 0.7e-3  # V
    ic_j2_states: tuple = (10e-6, 50e-6, 350e-6, 400e-6)  # A
    state: int = 0
    l2: float = 20e-12  # H storage inductor
    r1: float = 10.0  # ohm
    r2: float = 1.0  # ohm in the storage loop, resets it between inputs
    rn_j1: float = 7.0  # ohm
    cj_j1: float = 1e-15  # F
    rn_j2: float = 20.0  # ohm; fast flux release, peak above the QPSJ blockade
    cj_j2: float = 1e-15  # F
    rn_q1: float = 1e3  # ohm; low so the output junction can fire repeatedly
    ls_q1: float = 0.02e-9  # H
    vin_amplitude: float = 1.4e-3  # V
    r_load: float = 1.0  # ohm
    pulse_width: float = 5e-12  # s
    pulse_period: float = 100e-12  # s
    pulse_delay: float = 50e-12  # s
    n_pulses: int = 8
    tstep: float = 0.05e-12  # s

    def __post_init__(self):
        states = self.ic_j2_states
        if len(states) < 2 or any(a >= b for a, b in zip(states, states[1:])):
            raise ValueError("ic_j2_states must be strictly increasing")
        if not 0 <= self.state < len(states):
            raise ValueError("state index out of range")

    @property
    def tstop(self):
        return self.pulse_delay + self.n_pulses * self.pulse_period


def multistate_synapse_netlist(p: SynapseMultiParams | None = None) -> str:
    p = p or SynapseMultiParams()
    states = ",".join(_si(s) for s in p.ic_j2_states)
    lines = [f"* multi-state synapse, mjj state {p.state}"]
    lines.append(f"Vin nin 0 pulse(0 {_si(p.vin_amplitude)} {_si(p.pulse_delay)}"
                 f" 2e-13 2e-13 {_si(p.pulse_width)} {_si(p.pulse_period)})")
    lines.append(f"R1 nin nj {_si(p.r1)}")
    lines.append(f"Ib 0 nj dc {_si(p.ib)}")
    lines.append(f"jj J1 nj 0 ic={_si(p.ic_j1)} rn={_si(p.rn_j1)}"
                 f" cj={_si(p.cj_j1)}")
    lines.append(f"L2 nj n2 {_si(p.l2)}")
    lines.append(f"R2 n2 n2b {_si(p.r2)}")
    lines.append(f"mjj J2 n2b 0 states={states} state={p.state}"
                 f" rn={_si(p.rn_j2)} cj={_si(p.cj_j2)}")
    lines.append(f"qpsj Q1 n2 nout vc={_si(p.vc)} rn={_si(p.rn_q1)}"
                 f" ls={_si(p.ls_q1)}")
    lines.append(f"Rload nout 0 {_si(p.r_load)}")
    lines.append(f".tran {_si(p.tstep)} {_si(p.tstop)}")
    lines.append(".save v(nj) v(n2) i(J1) i(J2) i(Q1)")
    lines.append(".end")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NetworkSpec:
    """Layered network: n_inputs pulse sources fanning into n_outputs
    integrate-and-fire neurons through binary synapses."""

    weights: tuple  # n_outputs rows x n_inputs cols of 0/1
    input_periods: tuple  # s, one per input
    synapse: SynapseBinaryParams = field(default_factory=SynapseBinaryParams)
    neuron: NeuronParams = field(default_factory=NeuronParams)
    # The synapse output junctions terminate on the neuron's 1 mV merge
    # rail, so the MJJ side of every synapse is level-shifted by v_lift
    # to keep those junctions inside their blockade window at rest.  The
    # input amplitude and bias current are raised by the matching amounts
    # in the builder, which leaves the MJJ's operating point unchanged.
    v_lift: float = 1.2e-3  # V
    c_merge: float = 0.25e-15  # F; one 2e quantum spikes the rail by ~1 mV
    l1_net: float = 30e-12  # H; extra inertia against MJJ double-flips
    rn_q1_net: float = 10e3  # ohm; one slip per SFQ against the lifted rail
    rn_q0: float = 1e3  # ohm; merge-to-integrator junction
    pulse_delay: float = 50e-12  # s
    delay_stagger: float = 7e-12  # s per input, avoids coincident arrivals
    duration: float = 1.2e-9  # s
    tstep: float = 0.05e-12  # s

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.weights)
        object.__setattr__(self, "weights", rows)
        object.__setattr__(self, "input_periods", tuple(self.input_periods))
        if not rows or not rows[0]:
            raise ValueError("weights must be a non-empty matrix")
        n_in = len(rows[0])
        if any(len(r) != n_in for r in rows):
            raise ValueError("ragged weight matrix")
        if any(w not in (0, 1) for r in rows for w in r):
            raise ValueError("weights must be 0 or 1")
        if len(self.input_periods) != n_in:
            raise ValueError("need one input period per input")

    @property
    def n_inputs(self):
        return len(self.weights[0])

    @property
    def n_outputs(self):
        return len(self.weights)


def network_netlist(spec: NetworkSpec) -> str:
    syn = spec.synapse
    neu = spec.neuron
    lines = [f"* {spec.n_inputs}x{spec.n_outputs} qpsj network"]
    # input amplitude rides on the lifted synapse rail
    vin = syn.vin_amplitude + spec.v_lift
    ib = syn.ib + spec.v_lift / syn.r1
    for x in range(spec.n_inputs):
        per = spec.input_periods[x]
        delay = spec.pulse_delay + x * spec.delay_stagger
        lines.append(
            f"Vin{x} nin{x} 0 pulse(0 {_si(vin)}"
            f" {_si(delay)} 2e-13 2e-13 {_si(syn.pulse_width)}"
            f" {_si(per)})")
    lines.append(f"Vlift nlift 0 dc {_si(spec.v_lift)}")
    states = ",".join(_si(s) for s in syn.ic_states)
    for y in range(spec.n_outputs):
        for x in range(spec.n_inputs):
            s = 0 if spec.weights[y][x] else 1
            tag = f"{x}_{y}"
            lines.append(f"R1x{tag} nin{x} na{tag} {_si(syn.r1)}")
            lines.append(f"L1x{tag} na{tag} nj{tag} {_si(spec.l1_net)}")
            lines.append(f"Ibx{tag} 0 nj{tag} dc {_si(ib)}")
            lines.append(f"mjj J1x{tag} nj{tag} nlift states={states} state={s}"
                         f" rn={_si(syn.rn_jj)} cj={_si(syn.cj)}")
            lines.append(f"qpsj Q1x{tag} nj{tag} nm{y} vc={_si(syn.vc)}"
                         f" rn={_si(spec.rn_q1_net)} ls={_si(syn.ls_q1)}")
        # merge rail: same bias arrangement as the standalone neuron, but
        # synapse charge quanta arrive on the merge capacitor instead of
        # a series pulse source
        lines.append(f"Vbn{y} nb{y} 0 dc {_si(neu.vb)}")
        lines.append(f"Rb{y} nb{y} nm{y} {_si(neu.rb)}")
        lines.append(f"Cm{y} nm{y} 0 {_si(spec.c_merge)}")
        lines.append(f"qpsj Q0n{y} nm{y} nc{y} vc={_si(neu.vc)}"
                     f" rn={_si(spec.rn_q0)} ls={_si(neu.ls)}")
        c_int = neu.c_store_effective
        lines.append(f"Cint{y} nc{y} 0 {_si(c_int)}")
        for k in range(1, neu.n_threshold + 1):
            lines.append(f"qpsj Qn{y}x{k} nc{y} no{y} vc={_si(neu.vc)}"
                         f" rn={_si(neu.rn_parallel)} ls={_si(neu.ls)}")
        lines.append(f"Rloadn{y} no{y} 0 {_si(neu.r_load)}")
    lines.append(f".tran {_si(spec.tstep)} {_si(spec.duration)}")
    probes = " ".join(
        [f"v(nc{y}) i(Rloadn{y}) i(Q0n{y})" for y in range(spec.n_outputs)])
    lines.append(f".save {probes}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
