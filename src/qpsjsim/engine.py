"""Modified nodal analysis transient engine, independent of device kinds.

Unknown vector layout: node voltages (mV) first, then branch currents
(uA).  The device equations live in the models of :mod:`qpsjsim.devices`;
this module scatters them with ``np.bincount`` into G @ x + C @ dx/dt +
F_nl(x) = sources and integrates it: at DC (capacitors open, inductors
and JJs shorted, QPSJs in Coulomb blockade, dx/dt = 0) to seed the
junction angles, then per step by the one rule x_new = x + (h/k)*(dx/dt_new
+ (k - 1)*dx/dt), trapezoidal (k = 2) or backward Euler (k = 1), and
damped Newton iteration on F = S @ x_new + c + F_nl(x_new), whose
S = G + (k/h)*C and c are fixed once per step.  Every junction obeys one
sine law, F_nl = B @ (A * sin(theta)): its angle theta moves by W @ the
unknowns' integral over the step, and its model declares only its row
of W, its column of B and its amplitude A.  The step state is x, dx/dt
and theta, held here as arrays.

Circuits that differ only in junction amplitudes (JJ/MJJ Ic, QPSJ Vc)
share G, C, W, B and the sources, so :func:`tran_batch` steps them as
one batch: each array of the step state stacks the variants in rows,
and their Jacobians are factored as one stack.  :func:`tran` is the
batch of one.

A bank, m identical QPSJs in parallel (one ordered pair of terminals,
equal parameters in every variant), is one row of unknowns, as SPICE's
instance multiplier M makes m devices one: its branch unknown is one
member's current, its KCL entries are +-m, and its leak is m*GMIN, the
members' leaks, which set a floating node's DC level.  Its branch
equation, angle and tolerances are each member's, so every residual,
update and LTE test reads what the members' rows would, and the steps
are those of the circuit integrated device by device.  Every member's
name resolves in the probes, the operating point and the DC warnings.

Newton starts each step from the polynomial through the last three
accepted points.  The difference between that prediction and the
converged step estimates the trapezoidal local truncation error (LTE)
of every unknown but the voltage sources' branch currents, which no
integration rule acts on (so a Thevenin bias steps like its Norton
equivalent, and SPICE too checks only storage elements).  The step
size follows the estimate (the largest of a batch): it grows above the
requested tstep where the estimate allows, and never falls below tstep
on its account.  Every size it proposes is rounded down onto a ladder,
tstep * 2**(j/4), so consecutive steps share their size.  Steps land
exactly on every pulse-source corner.  A Newton failure halves the
step, down to tstep / 2**MAX_HALVINGS; steps halved below tstep use
backward Euler.  Newton is a chord iteration: it applies the inverse
Jacobians of an earlier iterate, factored when the step size or rule
changes, as RADAU5 and VODE keep their factors while the step size
holds.  At each iteration of a step from JACOBIAN_REFRESH_ITER on they
are refreshed: while the held inverses are close to the new Jacobians'
(|I - J @ X|_inf < SCHULZ_GATE), SCHULZ_STEPS Newton-Schulz steps refine
them, else they are factored anew.  The numerics are fixed module
constants; run manifests record :data:`SOLVER_SETTINGS`.

The sources are one flat list: the dc values are held as constants,
and only the pulses are evaluated at each step.  Every channel is linear
in the state [x, dx/dt, A * sin(theta), source values].  Each accepted
step's raw state goes into a buffer of _BLOCK; when it fills and at the
end, one product with the probe matrix gives the buffered samples, and
one pass interpolates linearly the points of the uniform tstep grid
they cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .devices import _NO_VALUES, build_models, device_groups, topology

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
RUNGS_PER_OCTAVE = 4  # steps the LTE estimate sizes are tstep * 2**(j/4)
JACOBIAN_REFRESH_ITER = 3  # a step's Newton iterations from this one refresh
SCHULZ_GATE = 0.5  # a held inverse X with |I - J @ X|_inf below is refined
SCHULZ_STEPS = 2  # Newton-Schulz steps per refinement
MAX_OUTPUT_VALUES = 2 ** 27  # float64 output samples a run may hold: 1 GiB
_BLOCK = 64  # accepted steps recorded per interpolation pass

# The settings a run manifest records.
SOLVER_SETTINGS = {
    "reltol": RELTOL, "abstol_v": ABSTOL_V, "abstol_i": ABSTOL_I,
    "max_newton_iters": MAX_NEWTON_ITERS, "gmin": GMIN,
    "method": "trapezoidal", "max_halvings": MAX_HALVINGS,
    "max_angle_step": MAX_ANGLE_STEP, "lte_fraction": LTE_FRACTION,
    "ladder_ratio": 2.0 ** (1.0 / RUNGS_PER_OCTAVE),
    "jacobian_refresh_iter": JACOBIAN_REFRESH_ITER,
    "schulz_gate": SCHULZ_GATE, "schulz_steps": SCHULZ_STEPS,
}

_GROUND = np.zeros(1)  # the slot appended to the unknowns for ground


class EngineError(Exception):
    pass


class TimeGridError(EngineError):
    """A bad time grid, or one whose output exceeds MAX_OUTPUT_VALUES."""


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


def _probe_pairs(circuit):
    """The (quantity, target) pairs a run records: the .save list, or
    every node voltage and then every junction current."""
    return circuit.save_list or (
        [("v", name) for name in circuit.node_names]
        + [("i", d.name) for cls, devs in device_groups(circuit)
           if cls.junction for d in devs])


def _slots(models):
    """The positions of each model's devices in the list of all their
    devices, and the list's length."""
    n = [len(m.names) for m in models]
    return dict(zip(models, np.split(np.arange(sum(n)),
                                     np.cumsum(n)[:-1]))), sum(n)


def _matrix(shape, terms):
    """A zero matrix of shape plus the values of each (rows, cols, values)
    of terms at their rows and columns; index -1 is the last slot."""
    A = np.zeros(shape)
    for rows, cols, values in terms:
        np.add.at(A, (rows % shape[0], cols % shape[1]), values)
    return A


class _System:
    """The MNA system of circuits that differ only in junction amplitudes,
    assembled from the first one's device models.  Each array of the
    step state stacks the variants in rows."""

    def __init__(self, circuits):
        self.circuit = circuit = circuits[0]
        if any(topology(c) != topology(circuit) for c in circuits[1:]):
            raise EngineError("circuits integrated together must differ only"
                              " in junction amplitudes (JJ/MJJ Ic, QPSJ Vc)")
        self.n = circuit.node_count
        variants, self.N, self.N_dc = build_models(circuits, GMIN)
        self.models = variants[0]
        self.junctions = [m for m in self.models if m.junction]
        N, M = self.N, self.N + 1  # the last slot collects ground entries
        G, C = (_matrix((M, M), [
            (m.s_rows, m.s_cols, v) for m, v in zip(self.models, part)])
            for part in zip(*[m.static() for m in self.models]))
        # G^T and C^T off the ground column, for S^T and c, in the memory
        # order (which picks the BLAS kernel and its rounding) of each use
        self._GT, self._CT = G.T[:, :N], C.T[:, :N]
        self._CTc = self._CT.copy()
        # the circuit's sources as one flat list, sources(t) @ F negated:
        # the dc values once, the pulses evaluated at each t
        drives = [m for m in self.models if m.sources]
        self.srcs, ns = _slots(drives)
        params = [p for m in drives for p in m.params]
        self._dc = np.array([p.get("dc", 0.0) for p in params])
        self._pulses = [(i, p["pulse"]) for i, p in enumerate(params)
                        if "dc" not in p]
        self._F = _matrix((ns, M), [(self.srcs[m], idx, f) for m in drives
                                    for idx, f in m.sources])[:, :N].copy()
        # the sine law of the junctions j: theta = theta_n + W @ xint,
        # F_nl = B @ (A * sin(theta)), J_nl = (h/k) * B @ diag(A * cos(theta)) @ W
        self.cols, nj = _slots(self.junctions)  # each model's columns of W^T
        W = _matrix((nj, M), [(self.cols[m], idx, w)
                              for m in self.junctions for idx, w in m.angle])
        B = _matrix((M, nj), [(idx, self.cols[m], b)
                              for m in self.junctions for idx, b in m.output])
        self._WT, self._BT = W.T.copy(), B[:N].T.copy()
        self._WN, self._BN = W[:, :N], B[:N]
        self.A = np.array([np.concatenate([_NO_VALUES] + [
            m.amplitude for m in models if m.junction]) for models in variants])
        self._eye = np.eye(self.N)
        self._step = None  # the (h, trap) of _newton's cached step parts
        self._jinv = None  # and the inverse Jacobians of that step size
        self.iterations = 0  # Newton updates of the stack
        self.factorizations = 0  # Jacobian stacks factored (and inverted)
        self.refinements = 0  # held inverse stacks refined instead
        # absolute tolerances of the rows of F (KCL in uA, branch rows in mV)
        # and of the unknowns (node voltages in mV, branch currents in uA)
        counts = [self.n, self.N - self.n]
        self._ftol = np.repeat([ABSTOL_I, ABSTOL_V], counts)
        self._xtol = np.repeat([ABSTOL_V, ABSTOL_I], counts)

    def sources(self, t):
        """The values of every source at time t, as one flat array."""
        u = self._dc.copy()
        for i, pulse in self._pulses:
            u[i] = pulse.value_at(t)
        return u

    def _newton(self, xg, x, xd, theta, u, h, trap):
        """Newton iteration from xg on a trapezoidal (or, if not trap,
        backward Euler) step h from x, of derivative xd and junction angles
        theta, to the source values u, each variant until it converges.
        Returns the unknowns (with the ground slot), their derivative, the
        angles, A * sin(angles) and which variants failed to converge."""
        # C @ xd_new = (k/h)*C @ x_new - C @ ((k/h)*x + (k - 1)*xd), and
        # the angles move by W @ the integral over the step,
        # (h/k)*(x_new + (k - 1)*x); k - 1 is 1 (trapezoidal) or 0
        N, K = self.N, len(xg)
        kh = 2.0 / h if trap else 1.0 / h
        # on the ladder most steps share the size of the one before: 83% of
        # fig2's, 93% of fig8's and 92% of the fig4a/b batch's, 73% and 78%
        # of the AC9 circuits' (without it 47%, 73%, 76% and none)
        if self._step != (h, trap):
            hk = h / 2.0 if trap else h
            WT = hk * self._WT
            # one product gives the rows of S @ x_new and W @ x_new
            SW = np.concatenate((self._GT + kh * self._CT, WT), axis=1)
            self._step_parts = (SW[:N, :N].T, WT, WT[:N], SW, hk * self.A)
            self._step, self._jinv = (h, trap), None
        SN, WT, WTN, SW, hkA = self._step_parts
        c = u @ self._F - (kh * x + xd if trap else kh * x) @ self._CTc
        if trap:
            theta = theta + x @ WT
        A = self.A
        xg = xg.copy()  # updated in place below
        # converged: a small update before, and a small residual now.  A
        # converged variant's unknowns stop moving, so it stays converged.
        ok = np.zeros(K, dtype=bool)
        for i in range(MAX_NEWTON_ITERS):
            P = xg @ SW
            th = theta + P[:, N:]
            s = A * np.sin(th)
            F = P[:, :N] + c + s @ self._BT
            if i:
                ok = (np.abs(F) < self._ftol).all(axis=1)
                if ok.any():  # only then can the update test decide
                    ok &= (np.abs(dx) < RELTOL * np.abs(xg[:, :N])
                           + self._xtol).all(axis=1)
                    if ok.all():
                        break
            # a chord iteration: the inverse Jacobians of an earlier
            # iterate, kept while (h, trap) holds, even across steps, and
            # refreshed at each iteration of a step that needs many
            if self._jinv is None or i >= JACOBIAN_REFRESH_ITER:
                J = SN + (self._BN * (hkA * np.cos(th))[:, None, :]) @ self._WN
                try:
                    self._jinv = self._invert(J)
                except np.linalg.LinAlgError:
                    break  # the retry has another h, or another batch
            self.iterations += 1
            dx = (self._jinv @ F[:, :, None])[:, :, 0]
            if K > 1:  # a lone variant that gets here has not converged
                dx[ok] = 0.0
            if not np.isfinite(dx).all():  # a diverged variant stops here
                bad = ~np.isfinite(dx).all(axis=1)
                if (ok | bad).all():
                    break
                dx[bad] = 0.0  # no NaN reaches the others' damping
            # damp the step so no junction jumps minima within one iteration
            angle = np.abs(dx @ WTN)
            if angle.max(initial=0.0) > MAX_ANGLE_STEP:
                dx *= MAX_ANGLE_STEP / np.maximum(angle.max(axis=1),
                                                  MAX_ANGLE_STEP)[:, None]
            xg[:, :N] -= dx
        self.failed_f = F  # the residuals that ConvergenceError reports
        xd_new = kh * (xg - x)
        return xg, xd_new - xd if trap else xd_new, th, s, ~ok

    def _invert(self, J):
        """The inverses of the Jacobian stack J.  Where the held stack X
        leaves every residual R = I - J @ X at |R|_inf < SCHULZ_GATE,
        SCHULZ_STEPS Newton-Schulz steps refine it: X <- X + X @ R, with
        R <- R @ R between steps, so two leave |R|_inf**4 at most
        (Schulz, 1933; Pan and Schreiber, 1991), for half the time of a
        factorization at N = 64.  Otherwise J is factored: also where J
        or X holds a NaN, or J is singular (then |R|_inf >= 1), so a
        singular stack raises LinAlgError."""
        X = self._jinv
        if X is not None:
            R = self._eye - J @ X
            if np.abs(R).sum(axis=2).max() < SCHULZ_GATE:
                self.refinements += 1
                X = X + X @ R
                for _ in range(1, SCHULZ_STEPS):
                    R = R @ R
                    X += X @ R
                return X
        self.factorizations += 1
        return np.linalg.solve(J, self._eye)

    def _worst(self, resid):
        """The node or branch device of the largest entry of resid."""
        names = ([f"node {name!r}" for name in self.circuit.node_names]
                 + [f"device {name!r}" for m in self.models
                    if m.branch == "tran" for name in m.names])
        return names[int(np.argmax(np.abs(resid)))] if len(resid) else "node '?'"

    def seed_from_dc(self):
        """Solve the static system, which every variant shares.  Returns
        the transient unknowns it gives, with a ground slot, the state at
        t = 0 (one row; dx/dt = 0, and A * sin(theta) what the solution
        asks of the junctions), and the angles (one row per variant) that
        give those outputs, or their windows' edges."""
        n, N, Nd = self.n, self.N, self.N_dc
        M = Nd + 1
        nodes = np.arange(n)
        tie = (nodes, nodes, np.full(n, GMIN))  # keeps floating nodes defined
        A = _matrix((M, M), [tie] + [m.dc() for m in self.models])[:Nd, :Nd]
        b = np.zeros(Nd)  # the sources enter no DC-only branch row
        u = self.sources(0.0)
        b[:N] = -(u @ self._F)
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
        out = np.concatenate([_NO_VALUES] + [m.dc_output(xg)
                                             for m in self.junctions])
        ratio = out / self.A
        theta = np.concatenate([np.zeros((len(ratio), 0))] + [
            m.seed(ratio[:, self.cols[m]]) for m in self.junctions], axis=1)
        x = np.concatenate((xg[:N], _GROUND))
        return x, np.concatenate((x, 0.0 * x, out, u))[None], theta

    def probes(self, pairs):
        """The matrix that takes a variant's state [x, dx/dt, A * sin(theta),
        sources] (x and dx/dt with their ground slot) to the samples of
        the (quantity, target) pairs: node voltages, and device currents
        by the models' probe terms."""
        M, nj = self.N + 1, self.A.shape[1]
        at = {"x": lambda m, i: i % M, "xd": lambda m, i: M + i % M,
              "out": lambda m, i: 2 * M + self.cols[m][i],
              "src": lambda m, i: 2 * M + nj + self.srcs[m][i]}
        devices, n = _slots(self.models)
        P = _matrix((2 * M + nj + len(self._dc), M + n), [
            (np.arange(M), np.arange(M), 1.0)] + [
            (at[part](m, idx), M + devices[m], f)
            for m in self.models for part, idx, f in m.probe])
        row = {name: i for i, names in enumerate(
            names for m in self.models for names in m.members) for name in names}
        return P[:, [self.circuit.node_index(t) % M if q == "v"
                     else M + row[t] for q, t in pairs]]


def dc_operating_point(circuit):
    """Static solution (see module docstring) and the angles it seeds.

    ``branch_currents`` holds each device's probe current at t = 0, the
    first sample :func:`tran` records; a junction's A * sin(theta) there
    is what the DC solution asks of it (a JJ carries its DC current even
    where the seeded phase sits at the window's edge).
    """
    sys_ = _System([circuit])
    x, s0, theta = sys_.seed_from_dc()
    names = [d.name for d in circuit.devices]
    currents = s0 @ sys_.probes([("i", name) for name in names])
    states = {name: s for m in sys_.junctions for members, s in zip(
        m.members, theta[0, sys_.cols[m]] / m.unit) for name in members}
    return OperatingPoint(dict(zip(circuit.node_names, x)),
                          dict(zip(names, currents[0])),
                          {name: states[name] for name in names if name in states})


def _time_grid(circuit, tstep=None, tstop=None, variants=1):
    """The uniform output grid from 0 to tstop, and how many of its
    points lie before the circuit's tstart (they are not recorded).
    None takes the circuit's own tstep or tstop.  Raises TimeGridError
    for a bad grid; one whose output over that many variants would
    exceed MAX_OUTPUT_VALUES is refused before anything is allocated."""
    tstep = circuit.tstep if tstep is None else tstep
    tstop = circuit.tstop if tstop is None else tstop
    if not (0 < tstep < tstop < np.inf and circuit.tstart <= tstop):
        raise TimeGridError(f"need 0 < tstep < tstop < inf and tstart <= tstop"
                            f" (ps), got {tstep}, {tstop} and {circuit.tstart}")
    points = np.round(tstop / tstep) + 1  # inf if tstop/tstep overflows
    channels = len(_probe_pairs(circuit))
    if variants * channels * points > MAX_OUTPUT_VALUES:
        raise TimeGridError(f"cannot hold {variants * channels * points:.3g}"
                            f" output values ({variants} variants x"
                            f" {channels} channels x {points:.0f} samples);"
                            f" the limit is {MAX_OUTPUT_VALUES:.3g}")
    grid = np.arange(int(points)) * tstep
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


class _Record:
    """The samples of K variants on the grid points from skip on: probe
    matrix P times the state at t = 0, s0 (one row), and at each accepted
    step, whose parts x, dx/dt, A * sin(theta) and u end at cuts.  The
    buffer holds the last step's state, then up to _BLOCK more."""

    def __init__(self, grid, skip, P, s0, K, cuts):
        self.grid, self.skip, self.P, self.cuts = grid, skip, P, cuts
        self.n, self.filled = 0, 1
        self.data = np.empty((K, P.shape[1], len(grid) - skip))
        self.t = np.zeros(_BLOCK + 1)
        self.s = np.empty((K, _BLOCK + 1, len(P)))
        self.s[:, 0] = s0
        if not skip:  # with skip > 0, no grid point at t = 0 is recorded
            self.data[:, :, 0] = s0 @ P

    def add(self, t, x, xd, out, u):
        """Buffer the state [x, xd, out, u] of the variants at time t."""
        self.n = n = self.n + 1
        a, b, c = self.cuts
        s = self.s[:, n]
        self.t[n] = t
        s[:, :a], s[:, a:b], s[:, b:c], s[:, c:] = x, xd, out, u
        if n == _BLOCK:
            self.flush()

    def flush(self):
        """Write the grid points the buffered steps cover into the output."""
        n, t, slack = self.n, self.t[:self.n + 1], 1e-9 * self.grid[1]
        ends = np.searchsorted(self.grid, t[1:] + slack, "right")
        lo, end = max(self.filled, self.skip), int(ends[-1]) if n else 0
        if end > lo:  # step j + 1 of the buffer covers the points to ends[j]
            p = (self.s[:, :n + 1] @ self.P).transpose(0, 2, 1)
            j = np.searchsorted(ends, np.arange(lo, end), "right")
            w = np.minimum((self.grid[lo:end] - t[j]) / (t[j + 1] - t[j]), 1.0)
            v = p[:, :, j] * (1.0 - w)
            v += p[:, :, j + 1] * w
            self.data[:, :, lo - self.skip:end - self.skip] = v
        self.filled, self.n, self.t[0] = max(self.filled, end), 0, t[n]
        self.s[:, 0] = self.s[:, n]


def _predict(past, t):
    """The polynomial through the accepted points past, [(t_i, x_i)], at t."""
    if len(past) == 1:
        return past[0][1]
    terms = []
    for ti, xi in past:
        w = 1.0
        for tj, _ in past:
            if tj != ti:
                w *= (t - tj) / (ti - tj)
        terms.append(w * xi)
    return sum(terms[1:], terms[0])


def _rung(h, tstep):
    """The largest step tstep * 2**(j/RUNGS_PER_OCTAVE), j an integer, that
    is at most h (to rounding)."""
    j = math.floor(RUNGS_PER_OCTAVE * math.log2(h / tstep) + 1e-9)
    return tstep * 2.0 ** (j / RUNGS_PER_OCTAVE)


def tran_batch(circuits, tstep=None, tstop=None):
    """Integrate circuits that differ only in junction amplitudes (JJ/MJJ
    Ic, QPSJ Vc) as one batch; returns one :class:`WaveformSet`, or the
    :class:`EngineError` a variant failed with, per circuit.

    The variants share one step sequence: one predictor and LTE estimate
    (the largest over the variants), one S and c per step, one stack of
    inverse Jacobians per factorization, and the output grid.  A Newton failure
    halves the step of every variant.  Where variants still fail at
    tstep / 2**MAX_HALVINGS, the run stops, and the others run again from
    t = 0 as a batch of their own: each result is that of the batch
    without the failed variants, and a lone survivor's is its
    :func:`tran`.  ``stats`` counts the batch's shared work (see
    :func:`tran`).  Errors common to every variant (grid, topology, DC
    operating point) raise.
    """
    K = len(circuits)
    grid, skip = _time_grid(circuits[0], tstep, tstop, K)
    sys_ = _System(circuits)
    pairs = _probe_pairs(circuits[0])
    names, P = [f"{q}({t})" for q, t in pairs], sys_.probes(pairs)
    x, s0, theta = sys_.seed_from_dc()
    M = sys_.N + 1
    rec = _Record(grid, skip, P, s0, K, (M, 2 * M, 2 * M + sys_.A.shape[1]))
    x = np.tile(x, (K, 1))
    xd = np.zeros_like(x)  # time derivatives of the unknowns, 0 at DC

    tstep, tend = float(grid[1]), float(grid[-1])
    slack = 1e-9 * tstep  # float error of a sum of steps
    xtol = np.concatenate((sys_._xtol, [1.0]))  # the ground slot stays 0
    # A voltage source's branch current has no column in C or W, so no
    # integration rule acts on it: its ratio is 0, and the steps of a
    # Thevenin bias are those of its Norton equivalent.  SPICE likewise
    # checks only the charges and fluxes of storage elements (Nagel, 1975).
    for m in sys_.models:
        if m.sources and m.branch == "tran":
            xtol[m.br] = np.inf
    errors = {}  # the variants that failed, by index
    stats = dict(accepted_steps=0, lte_rejections=0, newton_halvings=0)
    breaks = iter(_breakpoints(circuits[0], tstep, tend))
    bp = next(breaks)
    past = [(0.0, x)]  # accepted points since the last breakpoint, oldest first
    t, h = 0.0, tstep
    while t < tend:
        # land on the next breakpoint, without leaving a sliver before it
        r = bp - t
        h_try = r if r < h + slack else min(h, r / 2) if r < h + tstep else h
        t_new = bp if h_try == r else t + h_try
        xp = _predict(past, t_new)
        u = sys_.sources(t_new)
        x_new, xd_new, th_new, s_new, failed = sys_._newton(
            xp, x, xd, theta, u, h_try, t > 0.0 and h > tstep - slack)
        if failed.any():
            stats["newton_halvings"] += 1
            h = h_try / 2.0
            if h < tstep / (2.0 ** MAX_HALVINGS):
                for i in np.flatnonzero(failed):
                    worst = sys_._worst(sys_.failed_f[i])
                    errors[i] = ConvergenceError(
                        f"Newton failed to converge at t = {t_new:.6g} ps "
                        f"with step {h_try:.3g} ps after {MAX_HALVINGS} "
                        f"halvings; worst residual at {worst}",
                        t=t_new, h=h_try, worst=worst)
                break
            continue
        # Milne's device: x_new - xp is h*(t_new - t1)*(t_new - t2)*x3/6,
        # x3 the third derivative, and the trapezoidal LTE is h**3*x3/12.
        # A step of at most tstep passes whatever its estimate.  Each step
        # size it proposes is rounded down onto the ladder, by 0.84 to 1
        # (0.92 on average), on top of the safety factor 0.95.
        grow = 1.0
        if len(past) == 3:
            (t2, _), (t1, _), (_, x0) = past
            tol = RELTOL * np.maximum(np.abs(x0), np.abs(x_new)) + xtol
            err = float((np.abs(x_new - xp) / tol).max()) * h_try * h_try / (
                2.0 * LTE_FRACTION * (t_new - t1) * (t_new - t2))
            grow = min(5.0, max(0.2, 0.95 * max(err, 1e-10) ** (-1.0 / 3.0)))
            if err > 1.0 and h_try > tstep + slack:
                stats["lte_rejections"] += 1
                h = _rung(max(tstep, h_try * grow), tstep)
                continue
        stats["accepted_steps"] += 1
        rec.add(t_new, x_new, xd_new, s_new, u)
        t, x, xd, theta = t_new, x_new, xd_new, th_new
        if t == bp:  # a corner: no polynomial reaches across it
            bp = next(breaks, tend)
            past, h = [(t, x)], tstep
        else:
            past = past[-2:] + [(t, x)]
            h = (min(2.0 * h, tstep) if h < tstep - slack
                 else _rung(max(tstep, h_try * grow), tstep))
    if errors:  # the survivors run again as a batch of their own
        del rec  # free this run's output before the rerun holds its own
        rest = [k for k in range(K) if k not in errors]
        errors.update(zip(rest, tran_batch([circuits[k] for k in rest],
                                           tstep, tstop) if rest else []))
        return [errors[k] for k in range(K)]
    rec.flush()
    stats["newton_iterations"] = sys_.iterations
    stats["jacobian_factorizations"] = sys_.factorizations
    stats["jacobian_refinements"] = sys_.refinements
    stats["variants"] = K
    stats["unknowns"] = sys_.N
    # row by row: no temporary the size of the output
    return [WaveformSet(grid[skip:], dict(zip(names, data)), dict(stats))
            if all(np.isfinite(row).all() for row in data)
            else EngineError("non-finite waveform sample")
            for data in rec.data]


def tran(circuit, tstep=None, tstop=None):
    """Integrate the circuit through time; returns a :class:`WaveformSet`.

    The batch of one of :func:`tran_batch`.  Output samples lie on the
    uniform tstep grid from tstart to tstop, interpolated linearly
    between the accepted steps (see the module docstring).  ``stats``
    holds the counts ``accepted_steps``, ``lte_rejections``,
    ``newton_halvings``, ``newton_iterations`` (Newton updates),
    ``jacobian_factorizations`` (each one LU factorization, which gives
    the inverse Jacobians the updates apply until the next refresh) and
    ``jacobian_refinements`` (refreshes by Newton-Schulz steps instead),
    ``variants`` (the batch's size, here 1) and ``unknowns`` (the size N
    of the transient system, each bank one row: fig2 9, fig8 46).  The
    traced ``netlist.unknowns`` of perfbench counts the DC system
    instead, which adds the JJs' DC-only branches (fig8 52: 46 and six
    MJJ branches).
    """
    (waves,) = tran_batch([circuit], tstep, tstop)
    if isinstance(waves, EngineError):
        raise waves
    return waves
