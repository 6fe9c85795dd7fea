"""Modified nodal analysis transient engine, independent of device kinds.

Unknown vector layout: node voltages (mV) first, then branch currents
(uA).  The device equations live in the models of :mod:`qpsjsim.devices`;
this module scatters them with ``np.bincount`` into G @ x + C @ dx/dt +
F_nl(x) = sources and integrates it: at DC (capacitors open, inductors
and JJs shorted, QPSJs in Coulomb blockade, dx/dt = 0) to seed the
junction angles, then per step by the one rule x_new = x + (h/k)*(dx/dt_new
+ (k - 1)*dx/dt), trapezoidal (k = 2) or backward Euler (k = 1), and
damped Newton iteration on F = S @ x_new + c + F_nl(x_new), whose
S = G + (k/h)*C and c are fixed once per step.  The step state is x,
dx/dt and the junction angles, which move by the unknowns' integral.

Newton starts each step from the polynomial through the last three
accepted points.  The difference between that prediction and the
converged step estimates the trapezoidal local truncation error (LTE),
and the step size follows it: it grows above the requested tstep where
the estimate allows, and never falls below tstep on its account.  Steps
land exactly on every pulse-source corner.  A Newton failure halves the
step, down to tstep / 2**MAX_HALVINGS; steps halved below tstep use
backward Euler.  The output is interpolated linearly onto the requested
uniform tstep grid.  The numerics are fixed module constants; run
manifests record :data:`SOLVER_SETTINGS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .devices import _NO_INDEX, _NO_VALUES, build_models

# Fixed solver numerics.  Steps are trapezoidal; the first step and every
# step halved below tstep use backward Euler.
RELTOL = 1e-3
ABSTOL_V = 1e-6  # mV
ABSTOL_I = 1e-6  # uA
MAX_NEWTON_ITERS = 50
GMIN = 1e-9  # 1/kohm: junction leak and the DC tie of every node to ground
MAX_HALVINGS = 8
MAX_ANGLE_STEP = 1.5  # junction phase/charge-angle limit per iteration, rad
LTE_FRACTION = 0.005  # LTE bound, as a fraction of RELTOL*|x| + abstol

# The settings a run manifest records.
SOLVER_SETTINGS = {
    "reltol": RELTOL, "abstol_v": ABSTOL_V, "abstol_i": ABSTOL_I,
    "max_newton_iters": MAX_NEWTON_ITERS, "gmin": GMIN,
    "method": "trapezoidal", "max_halvings": MAX_HALVINGS,
    "max_angle_step": MAX_ANGLE_STEP, "lte_fraction": LTE_FRACTION,
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
    """Uniformly sampled waveforms: time in ps, channels in mV or uA.
    ``stats`` counts what the solver did (see :func:`tran`)."""

    time: np.ndarray
    channels: dict
    stats: dict = field(default_factory=dict)

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
        G, C = zip(*[m.static() for m in self.models])
        self._G = _scatter(self._s_idx, G, M * M).reshape(M, M)
        self._C = _scatter(self._s_idx, C, M * M).reshape(M, M)
        self.solves = 0  # LU solves, one per Newton iteration
        # absolute tolerances of the rows of F (KCL in uA, branch rows in mV)
        # and of the unknowns (node voltages in mV, branch currents in uA)
        counts = [self.n, self.N - self.n]
        self._ftol = np.repeat([ABSTOL_I, ABSTOL_V], counts)
        self._xtol = np.repeat([ABSTOL_V, ABSTOL_I], counts)

    def _newton(self, xg, x, xd, t, h, trap):
        """Newton iteration from xg on a trapezoidal (or, if not trap,
        backward Euler) step to t from x, of derivative xd.  Returns the
        unknowns (with the ground slot), their derivative and their
        integral over the step, or None."""
        # C @ xd_new = (k/h)*C @ x_new - C @ ((k/h)*x + (k - 1)*xd), and
        # the integral over the step is (h/k)*(x_new + (k - 1)*x)
        N, M = self.N, self.N + 1
        k = 2.0 if trap else 1.0
        kh, hk = k / h, h / k
        S = self._G + kh * self._C
        c = (_scatter(self._f_idx, [m.source(t) for m in self.models], M)
             - self._C @ (kh * x + (k - 1.0) * xd))
        b = (k - 1.0) * hk * x
        delta_ok = False
        for _ in range(MAX_NEWTON_ITERS):
            xint = hk * xg + b
            nl = _scatter(self._nl_idx, [v for m in self.junctions for v in
                                         m.nonlinear(xint, hk)], M + M * M)
            F = (S @ xg + c + nl[:M])[:N]
            if delta_ok and (np.abs(F) < self._ftol).all():
                return xg, kh * (xg - x) - (k - 1.0) * xd, xint
            J = S + nl[M:].reshape(M, M)
            self.solves += 1
            try:
                dx = np.linalg.solve(J[:N, :N], -F)
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(dx).all():
                break
            # damp the step so no junction jumps minima within one iteration
            dxg = np.concatenate((dx, _GROUND))
            max_angle = max((m.angle_step(hk * dxg) for m in self.junctions),
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

    def _advance(self, how, xg, xd=_NO_VALUES):
        """Seed (from the DC solution) or commit (from the step integral)
        every junction angle; check them and the derivatives xd."""
        for m in self.junctions:
            getattr(m, how)(xg)
        angles = [getattr(m, m.state) for m in self.junctions]
        if not np.isfinite(np.concatenate([xd, *angles])).all():
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
        self._advance("seed", xg)
        return xg

    def probes(self):
        """Channel names, and their values as a function of (xg, xdg, t)."""
        c = self.circuit
        probes = c.save_list or (
            [("v", name) for name in c.node_names]
            + [("i", name) for m in self.models if m.junction for name in m.names])
        targets = {t for q, t in probes if q == "i"}
        probed = [m for m in self.models if targets.intersection(m.names)]
        # values indexes xg followed by the probed models' currents
        currents = [name for m in probed for name in m.names]
        index = np.array([c.node_index(t) % (self.N + 1) if q == "v"
                          else self.N + 1 + currents.index(t) for q, t in probes],
                         dtype=np.intp)

        def values(xg, xdg, t):
            return np.concatenate([xg] + [m.current(xg, xdg, t)
                                          for m in probed])[index]

        return [f"{q}({t})" for q, t in probes], values


def dc_operating_point(circuit):
    """Static solution (see module docstring) and the angles it seeds.

    ``branch_currents`` holds each device's probe current at t = 0, the
    first sample :func:`tran` records.
    """
    sys_ = _System(circuit)
    xg = sys_.seed_from_dc()
    currents = {name: i for m in sys_.models
                for name, i in zip(m.names, m.current(xg, 0.0 * xg, 0.0))}
    states = {name: s for m in sys_.junctions
              for name, s in zip(m.names, getattr(m, m.state))}
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


def _breakpoints(circuit, tstep, tend):
    """The times a step must end on: the pulse-source corners in (0, tend),
    each at least half a tstep past the one kept before it, then tend.  A
    pulse whose period is under tstep has no corner the grid resolves."""
    pulses = [d.params["pulse"] for d in circuit.devices if "pulse" in d.params]
    points, last = [], 0.0
    for c in sorted(c for p in pulses if not 0 < p.per < tstep
                    for c in p.corners(tend)):
        if last + tstep / 2 <= c <= tend - tstep / 2:
            points.append(c)
            last = c
    return points + [tend]


def _predict(past, t):
    """The polynomial through the accepted points past, [(t_i, x_i)], at t."""
    ts = [ti for ti, _ in past]
    x = 0.0
    for i, (ti, xi) in enumerate(past):
        w = 1.0
        for tj in ts[:i] + ts[i + 1:]:
            w *= (t - tj) / (ti - tj)
        x = x + w * xi
    return x


def tran(circuit, tstep=None, tstop=None):
    """Integrate the circuit through time; returns a :class:`WaveformSet`.

    Output samples lie on the uniform tstep grid from tstart to tstop,
    interpolated linearly between the accepted steps (see the module
    docstring).  ``stats`` holds the counts ``accepted_steps``,
    ``lte_rejections``, ``newton_halvings`` and ``newton_iterations``
    (one LU solve each).
    """
    grid, skip = _time_grid(circuit, tstep, tstop)
    sys_ = _System(circuit)
    x = np.concatenate((sys_.seed_from_dc()[:sys_.N], _GROUND))
    xd = np.zeros(len(x))  # time derivatives of the unknowns, 0 at DC
    names, values = sys_.probes()

    tstep, tend = float(grid[1]), float(grid[-1])
    slack = 1e-9 * tstep  # float error of a sum of steps
    xtol = np.concatenate((sys_._xtol, [1.0]))  # the ground slot stays 0
    times = grid[skip:]
    data = np.empty((len(names), len(times)))
    p = values(x, xd, 0.0)
    if not skip:
        data[:, 0] = p
    stats = dict(accepted_steps=0, lte_rejections=0, newton_halvings=0)
    breaks = iter(_breakpoints(circuit, tstep, tend))
    bp = next(breaks)
    past = [(0.0, x)]  # accepted points since the last breakpoint, oldest first
    filled = 1  # grid points recorded so far
    t, h = 0.0, tstep
    while t < tend:
        # land on the next breakpoint, without leaving a sliver before it
        r = bp - t
        h_try = r if r < h + slack else min(h, r / 2) if r < h + tstep else h
        t_new = bp if h_try == r else t + h_try
        xp = _predict(past, t_new)
        step = sys_._newton(xp, x, xd, t_new, h_try,
                            t > 0.0 and h > tstep - slack)
        if step is None:
            stats["newton_halvings"] += 1
            h = h_try / 2.0
            if h < tstep / (2.0 ** MAX_HALVINGS):
                worst = sys_._worst(sys_.failed_f)
                raise ConvergenceError(
                    f"Newton failed to converge at t = {t_new:.6g} ps "
                    f"with step {h_try:.3g} ps after {MAX_HALVINGS} "
                    f"halvings; worst residual at {worst}",
                    t=t_new, h=h_try, worst=worst)
            continue
        x_new, xd_new, xint = step
        # Milne's device: x_new - xp is h*(t_new - t1)*(t_new - t2)*x3/6,
        # x3 the third derivative, and the trapezoidal LTE is h**3*x3/12.
        # A step of at most tstep passes whatever its estimate.
        grow = 1.0
        if len(past) == 3:
            (t2, _), (t1, _), (_, x0) = past
            tol = RELTOL * np.maximum(np.abs(x0), np.abs(x_new)) + xtol
            err = float((np.abs(x_new - xp) / tol).max()) * h_try * h_try / (
                2.0 * LTE_FRACTION * (t_new - t1) * (t_new - t2))
            grow = min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** (-1.0 / 3.0)))
            if err > 1.0 and h_try > tstep + slack:
                stats["lte_rejections"] += 1
                h = max(tstep, h_try * grow)
                continue
        sys_._advance("commit", xint, xd_new)
        stats["accepted_steps"] += 1
        # fill the grid points in (t, t_new] by linear interpolation
        p_new = values(x_new, xd_new, t_new)
        end = int(np.searchsorted(grid, t_new + slack, "right"))
        lo = max(filled, skip)
        if end > lo:
            w = np.minimum((grid[lo:end] - t) / (t_new - t), 1.0)
            data[:, lo - skip:end - skip] = (np.outer(p, 1.0 - w)
                                             + np.outer(p_new, w))
        filled = end
        t, x, xd, p = t_new, x_new, xd_new, p_new
        if t == bp:  # a corner: no polynomial reaches across it
            bp = next(breaks, tend)
            past, h = [(t, x)], tstep
        else:
            past = past[-2:] + [(t, x)]
            h = (min(2.0 * h, tstep) if h < tstep - slack
                 else max(tstep, h_try * grow))
    stats["newton_iterations"] = sys_.solves

    if not all(np.all(np.isfinite(row)) for row in data):
        raise EngineError("non-finite waveform sample")
    return WaveformSet(times, dict(zip(names, data)), stats)
