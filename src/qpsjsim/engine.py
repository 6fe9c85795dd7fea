"""Modified nodal analysis transient engine, independent of device kinds.

Unknown vector layout: node voltages (mV) first, then branch currents
(uA).  The device equations live in the models of :mod:`qpsjsim.devices`;
this module scatters their values with ``np.bincount`` and solves: at DC
(capacitors open, inductors and JJs shorted, QPSJs in Coulomb blockade)
to seed the device states, then per timestep by damped Newton iteration
on the companion discretization F = S @ x + c + F_nl(x), whose S and c
are fixed once per step; only the junctions' F_nl run per iteration.
Output is sampled on the requested uniform grid while the engine may
sub-step (step halving, backward-Euler fallback).  The numerics are
fixed module constants; run manifests record :data:`SOLVER_SETTINGS`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import _NO_INDEX, _NO_VALUES, build_models

# Fixed solver numerics.  Steps are trapezoidal; the first step and every
# halved sub-step use backward Euler.
RELTOL = 1e-3
ABSTOL_V = 1e-6  # mV
ABSTOL_I = 1e-6  # uA
MAX_NEWTON_ITERS = 50
GMIN = 1e-9  # 1/kohm: junction leak and the DC tie of every node to ground
MAX_HALVINGS = 8
MAX_ANGLE_STEP = 1.5  # junction phase/charge-angle limit per iteration, rad

# The settings a run manifest records.
SOLVER_SETTINGS = {
    "reltol": RELTOL, "abstol_v": ABSTOL_V, "abstol_i": ABSTOL_I,
    "max_newton_iters": MAX_NEWTON_ITERS, "gmin": GMIN,
    "method": "trapezoidal", "max_halvings": MAX_HALVINGS,
    "max_angle_step": MAX_ANGLE_STEP,
}

_GROUND = np.zeros(1)  # the slot appended to the unknowns for ground


class EngineError(Exception):
    pass


class ConvergenceError(EngineError):
    """Newton gave up at time t on a step of size h (ps); worst names the
    node or branch device with the largest residual."""

    def __init__(self, message, t=None, h=None, worst=None):
        self.t, self.h, self.worst = t, h, worst
        super().__init__(message)


@dataclass
class WaveformSet:
    """Uniformly sampled waveforms: time in ps, channels in mV or uA."""

    time: np.ndarray
    channels: dict

    def channel(self, name):
        return self.channels[name.lower()]

    def __contains__(self, name):
        return name.lower() in self.channels


@dataclass
class OperatingPoint:
    node_voltages: dict  # node name -> mV
    branch_currents: dict  # device name -> uA
    junction_states: dict  # device name -> q (aC) or phi (rad)


def _flat(rows, cols, size):
    """Flat indices into a size x size matrix; index -1 is the last slot."""
    return np.ravel_multi_index((rows % size, cols % size), (size, size))


def _scatter(idx, parts, size):
    """The values of parts summed into a zero vector of size at idx."""
    return np.bincount(idx, np.concatenate([_NO_VALUES, *parts]),
                       minlength=size)


class _System:
    """The MNA system of one circuit, assembled from its device models."""

    def __init__(self, circuit):
        self.circuit = circuit
        self.n = circuit.node_count
        self.models, self.N, self.N_dc = build_models(circuit, GMIN)
        self.junctions = [m for m in self.models if m.junction]
        M = self.N + 1  # the last slot collects ground entries
        self._f_idx = np.concatenate([m.f_rows for m in self.models]) % M
        self._s_idx = np.concatenate(
            [_flat(m.s_rows, m.s_cols, M) for m in self.models])
        # the junctions' F_nl and J_nl, scattered into one vector
        self._nl_idx = np.concatenate([_NO_INDEX] + [
            idx for m in self.junctions
            for idx in (m.f_rows % M, M + _flat(m.nl_rows, m.nl_cols, M))])
        self._static = {}  # static Jacobian S per (h, trap)
        # absolute tolerances of the rows of F (KCL in uA, branch rows in mV)
        # and of the unknowns (node voltages in mV, branch currents in uA)
        counts = [self.n, self.N - self.n]
        self._ftol = np.repeat([ABSTOL_I, ABSTOL_V], counts)
        self._xtol = np.repeat([ABSTOL_V, ABSTOL_I], counts)

    def _newton(self, xg, t, h, trap):
        """Converged unknowns of a trapezoidal (or, if not trap, backward
        Euler) step to t, with the ground slot, or None."""
        for m in self.models:
            m.begin_step(h, trap)
        N, M = self.N, self.N + 1
        if (h, trap) not in self._static:
            self._static[h, trap] = _scatter(
                self._s_idx, [m.static() for m in self.models], M * M)
        S = self._static[h, trap].reshape(M, M)
        c = _scatter(self._f_idx, [m.history(t) for m in self.models], M)
        delta_ok = False
        for _ in range(MAX_NEWTON_ITERS):
            nl = _scatter(self._nl_idx, [v for m in self.junctions
                                         for v in m.nonlinear(xg)], M + M * M)
            F = (S @ xg + c + nl[:M])[:N]
            if delta_ok and (np.abs(F) < self._ftol).all():
                return xg
            J = S + nl[M:].reshape(M, M)
            try:
                dx = np.linalg.solve(J[:N, :N], -F)
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(dx).all():
                break
            # damp the step so no junction jumps minima within one iteration
            dxg = np.concatenate((dx, _GROUND))
            max_angle = max((m.angle_step(dxg) for m in self.junctions),
                            default=0.0)
            if max_angle > MAX_ANGLE_STEP:
                dxg *= MAX_ANGLE_STEP / max_angle
            xg = xg + dxg
            delta_ok = (np.abs(dxg[:N])
                        < RELTOL * np.abs(xg[:N]) + self._xtol).all()
        self.failed_f = F  # the residual that ConvergenceError reports
        return None

    def _worst(self, resid):
        """The node or branch device of the largest entry of resid."""
        names = ([f"node {name!r}" for name in self.circuit.node_names]
                 + [f"device {name!r}" for m in self.models
                    if m.branch == "tran" for name in m.names])
        return names[int(np.argmax(np.abs(resid)))] if len(resid) else "node '?'"

    def _advance(self, xg, how):
        """Seed ("seed") or commit ("commit") every device state from xg."""
        for m in self.models:
            getattr(m, how)(xg)
        states = [getattr(m, name) for m in self.models for name in m.state]
        if not np.isfinite(np.concatenate([_NO_VALUES, *states])).all():
            raise EngineError("non-finite device state after timestep")

    def seed_from_dc(self):
        """Solve the static system and seed every device state from it.
        Returns the solution (DC-only branches last) and a ground slot."""
        n, Nd = self.n, self.N_dc
        M = Nd + 1
        nodes = np.arange(n)
        tie = (nodes, nodes, np.full(n, GMIN))  # keeps floating nodes defined
        entries, rhs = zip(*[m.dc() for m in self.models])
        rows, cols, vals = (np.concatenate(z) for z in zip(tie, *entries))
        A = np.bincount(_flat(rows, cols, M), vals, minlength=M * M)
        A = A.reshape(M, M)[:Nd, :Nd]
        rows, vals = (np.concatenate(z) for z in zip(*rhs))
        b = np.bincount(rows % M, vals, minlength=M)[:Nd]
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            x = None
        if x is None or not np.all(np.isfinite(x)):
            resid = A @ (np.zeros(Nd) if x is None else x) - b
            worst = self._worst(resid[:n])
            raise ConvergenceError(f"DC operating point did not converge;"
                                   f" worst residual at {worst}", worst=worst)
        xg = np.concatenate((x, _GROUND))
        self._advance(xg, "seed")
        return xg

    def probes(self):
        """Channel names, and a function of (xg, t) giving their values."""
        c = self.circuit
        probes = c.save_list or (
            [("v", name) for name in c.node_names]
            + [("i", name) for m in self.models if m.junction for name in m.names])
        targets = {t for q, t in probes if q == "i"}
        probed = [m for m in self.models if targets.intersection(m.names)]
        # values(xg, t) indexes xg followed by the probed models' currents
        currents = [name for m in probed for name in m.names]
        index = np.array([c.node_index(t) % (self.N + 1) if q == "v"
                          else self.N + 1 + currents.index(t) for q, t in probes],
                         dtype=np.intp)

        def values(xg, t):
            return np.concatenate([xg] + [m.current(xg, t) for m in probed])[index]

        return [f"{q}({t})" for q, t in probes], values


def dc_operating_point(circuit):
    """Static solution (see module docstring) and the states it seeds.

    ``branch_currents`` holds each device's probe current at t = 0, the
    first sample :func:`tran` records.
    """
    sys_ = _System(circuit)
    xg = sys_.seed_from_dc()
    currents = {name: i for m in sys_.models
                for name, i in zip(m.names, m.current(xg, 0.0))}
    states = {name: s for m in sys_.models if m.junction
              for name, s in zip(m.names, getattr(m, m.state[0]))}
    return OperatingPoint(
        {name: xg[i] for i, name in enumerate(circuit.node_names)},
        {d.name: currents[d.name] for d in circuit.devices}, states)


def _time_grid(circuit, tstep=None, tstop=None):
    """The uniform output grid from 0 to tstop, and how many of its
    points lie before the circuit's tstart (they are not recorded).
    None takes the circuit's own tstep or tstop."""
    tstep = circuit.tstep if tstep is None else tstep
    tstop = circuit.tstop if tstop is None else tstop
    if not (0 < tstep < tstop < np.inf and circuit.tstart <= tstop):
        raise EngineError(f"need 0 < tstep < tstop < inf and tstart <= tstop"
                          f" (ps), got {tstep}, {tstop} and {circuit.tstart}")
    try:
        grid = np.arange(int(round(tstop / tstep)) + 1) * tstep
    except (OverflowError, ValueError, MemoryError) as exc:
        raise EngineError(f"cannot hold a grid of tstop/tstep ="
                          f" {tstop / tstep:.3g} steps, got {tstep} and"
                          f" {tstop} (ps)") from exc
    skip = int(np.count_nonzero(grid < circuit.tstart - 1e-9 * tstep))
    return grid, skip


def tran(circuit, tstep=None, tstop=None):
    """Integrate the circuit through time; returns a :class:`WaveformSet`.

    Output samples lie on the uniform tstep grid from tstart to tstop;
    the engine sub-steps internally when Newton fails on a full step.
    """
    grid, skip = _time_grid(circuit, tstep, tstop)
    sys_ = _System(circuit)
    x = np.concatenate((sys_.seed_from_dc()[:sys_.N], _GROUND))
    names, values = sys_.probes()

    tstep = float(grid[1])
    times = grid[skip:]
    data = np.empty((len(names), len(times)))
    if not skip:
        data[:, 0] = values(x, 0.0)

    t = 0.0
    for k in range(1, len(grid)):
        t_target = grid[k]
        h_cur = tstep
        while t < t_target - 1e-9 * tstep:
            h_try = min(h_cur, t_target - t)
            halved = h_cur < tstep * (1.0 - 1e-12)
            x_new = sys_._newton(x, t + h_try, h_try, not (t == 0.0 or halved))
            if x_new is None:
                h_cur = h_try / 2.0
                if h_cur < tstep / (2.0 ** MAX_HALVINGS):
                    worst = sys_._worst(sys_.failed_f)
                    raise ConvergenceError(
                        f"Newton failed to converge at t = {t + h_try:.6g} ps "
                        f"with step {h_try:.3g} ps after {MAX_HALVINGS} "
                        f"halvings; worst residual at {worst}",
                        t=t + h_try, h=h_try, worst=worst)
                continue
            sys_._advance(x_new, "commit")
            x = x_new
            t += h_try
            h_cur = min(h_cur * 2.0, tstep)
        t = t_target  # snap accumulated float error to the grid
        if k >= skip:
            data[:, k - skip] = values(x, t)

    if not all(np.all(np.isfinite(row)) for row in data):
        raise EngineError("non-finite waveform sample")
    return WaveformSet(times, dict(zip(names, data)))
