"""Modified nodal analysis transient engine, independent of device kinds.

Unknown vector layout: node voltages (mV) first, then branch currents
(uA).  The device equations live in the models of :mod:`qpsjsim.devices`;
this module scatters them with ``np.add.at`` into G @ x + C @ dx/dt +
F_nl(x) = sources and integrates it: at DC (dx/dt = 0, each junction's
A * sin(theta) an unknown, and W @ x = 0: a JJ holds no voltage, a QPSJ
passes no current) to seed the junction angles, then per step by the
one rule x_new = x + (h/k)*(dx/dt_new + (k - 1)*dx/dt), trapezoidal
(k = 2) or backward Euler (k = 1), and damped Newton iteration on
S @ x_new + F_nl(x_new) - sources - C @ y, S = G + (k/h)*C.  As in
SPICE's companion models, the step's history is one constant,
y = (k/h)*x + (k - 1)*dx/dt, and dx/dt_new = (k/h)*x_new - y.
Every junction obeys one sine law, F_nl = B @ (A * sin(theta)): its angle
theta moves by W @ the unknowns' integral over the step, and its model
declares only its row of W, its column of B and its amplitude A.  So a
variant's residual is one product, of its row [x_new, A * sin(theta),
u, y] with the rows [S^T; B^T; F; -C^T] (u @ F the sources, negated),
built once per step size.  The step state is x, dx/dt and theta, one row
per variant of each array.

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
them, else they are factored anew.  Newton tests convergence once for
the whole stack; only a batch that fails the test tests each variant,
and a variant is frozen (its updates masked to zero) only once it has
converged.  A variant whose Jacobian is singular gets a NaN inverse and
fails alone.  Newton returns the unknowns as one contiguous array, so
the step loop's arithmetic on them takes no strided loop.  The numerics
are fixed module constants; run manifests record :data:`SOLVER_SETTINGS`.

The sources are one flat list: the dc values are held as constants,
and only the pulses are evaluated at each step.  Every channel is linear
in the state [x, dx/dt, A * sin(theta), source values].  Each accepted
step's raw state goes into a buffer of _BLOCK; when it fills and at the
end, one product with the probe matrix gives the buffered samples, and
one pass interpolates linearly the points of the uniform tstep grid
they cover.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .devices import build_models, device_groups, topology

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
    """Newton gave up at time t on a step of size h (ps), or DC found no
    solution; worst names the node, branch device or (at DC) junction
    with the largest residual."""

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
        variants, self.N = build_models(circuits, GMIN)
        self.models = variants[0]
        self.junctions = [m for m in self.models if m.junction]
        N, M = self.N, self.N + 1  # the last slot collects ground entries
        G = _matrix((M, M), [e for m in self.models for e in m.G])
        C = _matrix((M, M), [e for m in self.models for e in m.C])
        self._GT, self._CT = G.T[:, :N], C.T[:, :N]  # S^T = G^T + (k/h)*C^T
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
        self.A = np.array([np.concatenate([np.zeros(0)] + [
            m.amplitude for m in models if m.junction]) for models in variants])
        # the rows [S^T; B^T; F; -C^T] that take a variant's row
        # [x, A * sin(theta), u, y] to its residual; _newton writes S^T
        self._SB = np.concatenate((0.0 * self._GT, self._BT, self._F,
                                   -self._CT))
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
        Each variant's iterate is one row z = [x_new, A * sin(theta_new),
        u, y], y = (k/h)*x + (k - 1)*xd the step's history, so its residual
        S @ x_new + F_nl(x_new) + u @ F - C @ y is the one product z @ SB.
        The angles start at theta + (h/k)*W @ (xg + (k - 1)*x) and move
        with each update by the W @ dx its damping test computes, so they
        stay theta + W @ the integral over the step (to rounding).  Each
        iteration first tests the whole stack; a batch that fails the test
        tests each variant, and only once one has converged are its updates
        masked to zero (frozen).  A non-finite update shows as a NaN
        residual, after which its variant has failed; no NaN angle damps
        another variant's update.  Returns the unknowns (with the ground
        slot; a contiguous array, not a view of the rows z), their
        derivative (k/h)*x_new - y, the angles, A * sin(angles) and which
        variants failed to converge."""
        N, M, K = self.N, self.N + 1, len(xg)
        kh = 2.0 / h if trap else 1.0 / h
        # on the ladder most steps share the size of the one before: 83% of
        # fig2's, 93% of fig8's and 92% of the fig4a/b batch's, 73% and 78%
        # of the AC9 circuits' (without it 47%, 73%, 76% and none)
        if self._step != (h, trap):
            hk = h / 2.0 if trap else h
            self._SB[:M] = self._GT + kh * self._CT
            WT = hk * self._WT
            self._step_parts = (self._SB[:N, :N].T, WT, WT[:N], hk * self.A)
            self._step, self._jinv = (h, trap), None
        SN, WT, WTN, hkA = self._step_parts
        A, SB = self.A, self._SB
        z = np.empty((K, len(SB)))  # [x_new, A * sin(theta), u, y]
        j = M + A.shape[1]
        z[:, :M], z[:, j:-M] = xg, u
        xN, s, y = z[:, :N], z[:, M:j], z[:, -M:]
        np.multiply(x, kh, out=y)
        if trap:
            y += xd
        th = theta + (x + xg if trap else xg) @ WT
        # converged: a small update before, and a small residual now.  A
        # converged variant's unknowns stop moving, so it stays converged.
        ok = np.zeros(K, dtype=bool)
        frozen = False  # whether ok holds a converged variant
        for i in range(MAX_NEWTON_ITERS):
            np.multiply(A, np.sin(th), out=s)
            F = z @ SB
            if i:  # the whole stack first, then (K > 1) each variant
                excess = np.abs(F) - self._ftol  # < 0 if small, NaN if NaN
                worst = np.maximum.reduce(excess, None)
                if worst < 0.0 and np.logical_and.reduce(
                        np.abs(dx) < RELTOL * np.abs(xN) + self._xtol, None):
                    ok[:] = True
                    break
                if K > 1:  # which variants converged, to freeze them
                    ok = np.maximum.reduce(excess, 1) < 0.0
                    frozen = np.logical_or.reduce(ok)
                    if frozen:
                        ok &= np.logical_and.reduce(
                            np.abs(dx) < RELTOL * np.abs(xN) + self._xtol, 1)
                        frozen = np.logical_or.reduce(ok)
                if worst != worst and np.isnan(excess[~ok]).any(axis=1).all():
                    break  # every variant still iterating has diverged
            # a chord iteration: the inverse Jacobians of an earlier
            # iterate, kept while (h, trap) holds, even across steps, and
            # refreshed at each iteration of a step that needs many
            if self._jinv is None or i >= JACOBIAN_REFRESH_ITER:
                J = SN + (self._BN * (hkA * np.cos(th))[:, None, :]) @ self._WN
                try:
                    self._jinv = self._invert(J)
                except np.linalg.LinAlgError:
                    break  # a lone singular J: the retry has another h
            self.iterations += 1
            dx = (self._jinv @ F[:, :, None])[:, :, 0]
            if frozen:  # the converged variants of a batch stay put
                dx[ok] = 0.0
            # damp the step so no junction jumps minima within one iteration
            dth = dx @ WTN
            angle = np.abs(dth)
            if not np.maximum.reduce(angle, None,
                                     initial=0.0) <= MAX_ANGLE_STEP:
                damp = MAX_ANGLE_STEP / np.maximum(
                    np.maximum.reduce(angle, 1), MAX_ANGLE_STEP)[:, None]
                dx *= damp
                dth *= damp
            xN -= dx
            th -= dth
        self.failed_f = F  # the residuals that ConvergenceError reports
        # a copy where z's rows make the view strided (K > 1), else the view
        x_new = np.ascontiguousarray(z[:, :M])
        return x_new, kh * x_new - y, th, s, ~ok

    def _invert(self, J):
        """The inverses of the Jacobian stack J.  Where the held stack X
        leaves every residual R = I - J @ X at |R|_inf < SCHULZ_GATE,
        SCHULZ_STEPS Newton-Schulz steps refine it: X <- X + X @ R, with
        R <- R @ R between steps, so two leave |R|_inf**4 at most
        (Schulz, 1933; Pan and Schreiber, 1991), for half the time of a
        factorization at N = 64.  Otherwise J is factored: also where J
        or X holds a NaN, or J is singular (then |R|_inf >= 1).  A singular
        J of a batch gets a NaN inverse, so its variant fails alone (its
        update is NaN); a lone singular J raises LinAlgError."""
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
        try:
            return np.linalg.solve(J, self._eye)
        except np.linalg.LinAlgError:
            if len(J) == 1:
                raise
        X = np.full(J.shape, np.nan)
        for k, Jk in enumerate(J):
            with contextlib.suppress(np.linalg.LinAlgError):
                X[k] = np.linalg.solve(Jk, self._eye)
        return X

    def _worst(self, resid, amplitude=None):
        """The node, branch device or (a DC residual's W rows) junction of
        the largest entry of resid; or, where one of a variant's amplitudes
        is not finite, of the first row its sine term enters: the NaN
        begins there, and B spreads it to every row of the residual."""
        names = ([f"node {name!r}" for name in self.circuit.node_names]
                 + [f"device {name!r}" for m in self.models
                    if m.branch for name in m.names]
                 + [f"device {name!r}" for m in self.junctions
                    for name in m.names])
        if amplitude is not None and not np.isfinite(amplitude).all():
            resid = ~np.isfinite(amplitude) @ (self._BT != 0.0)
        return names[int(np.argmax(np.abs(resid)))] if len(resid) else "node '?'"

    def seed_from_dc(self):
        """Solve the static system, which every variant shares: the step's
        equation at dx/dt = 0, on the unknowns x and each junction's output
        s = A * sin(theta), [[G + GMIN tie, B], [W, 0]] @ [x; s] =
        [-u(0) @ F; 0].  Its W rows hold each JJ's voltage and each QPSJ's
        current at zero.  Where a current is left free (parallel JJs, a
        loop of JJs and inductors), the least-norm solution is taken.
        Returns the unknowns, with a ground slot, the state at t = 0 (one
        row; dx/dt = 0, and s), and the angles (one row per variant) that
        give s, or their windows' edges."""
        N, nj = self.N, self.A.shape[1]
        D = np.block([[self._GT[:N].T, self._BN],
                      [self._WN, np.zeros((nj, nj))]])
        nodes = np.arange(self.n)
        D[nodes, nodes] += GMIN  # the tie that keeps floating nodes defined
        u = self.sources(0.0)
        b = np.concatenate((-(u @ self._F), np.zeros(nj)))
        # full rank where the 1-norm condition, from an LU inverse, is below
        # 1/eps; an SVD rank test would page in ~1 MB of LAPACK per process
        if np.linalg.cond(D, 1) < 1.0 / np.finfo(float).eps:
            z = np.linalg.solve(D, b)
        else:
            z = np.linalg.lstsq(D, b)[0]
        # a solution leaves each row within the step's Newton tolerance, and
        # each W row within what the tolerances of the unknowns give
        resid = D @ z - b
        if not np.all(np.abs(resid) <= np.concatenate(
                (self._ftol, np.abs(self._WN) @ self._xtol))):
            worst = self._worst(resid)
            raise ConvergenceError(f"DC operating point did not converge;"
                                   f" worst residual at {worst}", worst=worst)
        x, out = np.concatenate((z[:N], _GROUND)), z[N:]
        ratio = out / self.A
        theta = np.concatenate([np.zeros((len(ratio), 0))] + [
            m.seed(ratio[:, self.cols[m]]) for m in self.junctions], axis=1)
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
    xp = None
    for ti, xi in past:
        w = 1.0
        for tj, _ in past:
            if tj != ti:
                w *= (t - tj) / (ti - tj)
        if xp is None:
            xp = w * xi
        else:
            xp += w * xi
    return xp


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
        if m.sources and m.branch:
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
                    worst = sys_._worst(sys_.failed_f[i], sys_.A[i])
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
        ax_new = np.abs(x_new)
        if len(past) == 3:
            (t2, _), (t1, _), _ = past
            tol = RELTOL * np.maximum(ax, ax_new) + xtol
            err = float((np.abs(x_new - xp) / tol).max()) * h_try * h_try / (
                2.0 * LTE_FRACTION * (t_new - t1) * (t_new - t2))
            grow = min(5.0, max(0.2, 0.95 * max(err, 1e-10) ** (-1.0 / 3.0)))
            if err > 1.0 and h_try > tstep + slack:
                stats["lte_rejections"] += 1
                h = _rung(max(tstep, h_try * grow), tstep)
                continue
        stats["accepted_steps"] += 1
        rec.add(t_new, x_new, xd_new, s_new, u)
        t, x, xd, theta, ax = t_new, x_new, xd_new, th_new, ax_new
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
    of the system, each bank one row: fig2 9, fig8 46).
    """
    (waves,) = tran_batch([circuit], tstep, tstop)
    if isinstance(waves, EngineError):
        raise waves
    return waves
