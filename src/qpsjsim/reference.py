"""Independent high-order reference integrator for single-junction circuits.

Used in tests as an oracle for the MNA engine: the circuit's ODE is
formed explicitly for a small set of recognized topologies and integrated
on plain floats by the Dormand-Prince 5(4) pair with local error control
(1e-13 per component, relative above 1).  A step ends where the error
control puts it, on a pulse-source corner (the engine's breakpoints) or
on tstop; the tstep grid is sampled from each accepted step's 4th-order
dense output.  Supported topologies (at most two state variables):

* voltage-biased QPSJ: vsource (+ optional series resistor) driving a
  single QPSJ to ground; states (q, i), or q alone when ls = 0
* current-biased JJ: isource (+ optional parallel resistor) across a
  single JJ to ground; states (phi, v), or phi alone when cj = 0; the
  JJ's current is its whole branch current, as the engine's
* LC tank: inductor parallel capacitor (+ optional resistor), kicked by
  a current source; states (v, iL)
"""

from __future__ import annotations

import math
import numpy as np

from .engine import EngineError, WaveformSet, _breakpoints, _time_grid
from .netlist import GROUND, DeviceKind
from .units import PHI0, TWO_E

_W = 2.0 * math.pi / TWO_E

# Dormand-Prince 5(4): the nodes and stage rows (the last row is the
# 5th-order solution, whose derivative is the next step's first stage),
# and the 5th- minus 4th-order weights over all seven stages
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)
# the continuous extension's weights (d2 = 0), for r5 in _march
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)
_TOL = 1e-13  # per component: |error| <= _TOL * (1 + max(|y|, |y_new|))


class UnsupportedTopologyError(EngineError):
    pass


def _source(params):
    """A source's value as a function of t: its dc constant, or its
    pulse's value_at."""
    if "dc" in params:
        dc = params["dc"]
        return lambda t: dc
    return params["pulse"].value_at


def _kinds(circuit):
    out = {}
    for d in circuit.devices:
        out.setdefault(d.kind, []).append(d)
    return out


def _march(f, y0, outputs, grid, skip, breaks=None):
    """Integrate from t = 0 with local error control; outputs maps
    name -> fn(t, y), sampled on grid[skip:].  A step ends where the
    error control puts it, or on the next of breaks (the pulse corners,
    then grid[-1], which None takes alone).  Each grid point in (t, t + h]
    of an accepted step is read from the step's 4th-order continuous
    extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6, contd5):

        y(t + s*h) = y0 + s*(r2 + (1-s)*(r3 + s*(r4 + (1-s)*r5)))

    with r2 = y1 - y0, r3 = h*k1 - r2, r4 = r2 - h*k7 - r3 and
    r5 = h * sum(D[j]*k[j]); a grid point on the step's end takes y1.

    The stages, the error estimate and r5 are written out, each summed
    left to right from 0.0 with its zero coefficients kept: the floats
    that ``sum`` over a tableau row gives on CPython 3.10 and 3.11.  One
    comprehension per stage serves every state size."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76) = _A
    c2, c3, c4, c5, c6, c7 = _C
    e1, e2, e3, e4, e5, e6, e7 = _E
    d1, d2, d3, d4, d5, d6, d7 = _D
    fns = tuple(outputs.values())
    t, y = 0.0, tuple(y0)
    k1 = f(t, y)
    h = float(grid[1])
    hmin = 1e-12 * h
    data = np.empty((len(fns), len(grid) - skip))
    if not skip:
        data[:, 0] = [fn(t, y) for fn in fns]
    later = map(float, grid[1:])
    k, tk = 1, next(later)  # the next grid point to sample, and its time
    for bp in (float(grid[-1]),) if breaks is None else breaks:
        while t < bp:
            h_try = min(h, bp - t)
            k2 = f(t + c2 * h_try, [yj + h_try * (0.0 + a21 * p1)
                                    for yj, p1 in zip(y, k1)])
            k3 = f(t + c3 * h_try, [yj + h_try * (0.0 + a31 * p1 + a32 * p2)
                                    for yj, p1, p2 in zip(y, k1, k2)])
            k4 = f(t + c4 * h_try,
                   [yj + h_try * (0.0 + a41 * p1 + a42 * p2 + a43 * p3)
                    for yj, p1, p2, p3 in zip(y, k1, k2, k3)])
            k5 = f(t + c5 * h_try,
                   [yj + h_try * (0.0 + a51 * p1 + a52 * p2 + a53 * p3
                                  + a54 * p4)
                    for yj, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
            k6 = f(t + c6 * h_try,
                   [yj + h_try * (0.0 + a61 * p1 + a62 * p2 + a63 * p3
                                  + a64 * p4 + a65 * p5)
                    for yj, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
            yi = [yj + h_try * (0.0 + a71 * p1 + a72 * p2 + a73 * p3
                                + a74 * p4 + a75 * p5 + a76 * p6)
                  for yj, p1, p2, p3, p4, p5, p6
                  in zip(y, k1, k2, k3, k4, k5, k6)]
            k7 = f(t + c7 * h_try, yi)
            err = max([abs(h_try * (0.0 + e1 * p1 + e2 * p2 + e3 * p3
                                    + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7))
                       / (1.0 + max(abs(a), abs(b)))
                       for a, b, p1, p2, p3, p4, p5, p6, p7
                       in zip(y, yi, k1, k2, k3, k4, k5, k6, k7)]) / _TOL
            if not math.isfinite(err):
                raise EngineError(
                    f"reference state non-finite at t = {t:.6g} ps")
            h = h_try * min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))
            if err <= 1.0:
                t_new = bp if h_try == bp - t else t + h_try
                if tk <= t_new:
                    rs = []
                    for a, b, p1, p2, p3, p4, p5, p6, p7 \
                            in zip(y, yi, k1, k2, k3, k4, k5, k6, k7):
                        r2 = b - a
                        r3 = h_try * p1 - r2
                        rs.append((a, r2, r3, r2 - h_try * p7 - r3,
                                   h_try * (0.0 + d1 * p1 + d2 * p2 + d3 * p3
                                            + d4 * p4 + d5 * p5 + d6 * p6
                                            + d7 * p7)))
                    while tk <= t_new:
                        if tk == t_new:
                            yk = yi
                        else:
                            s = (tk - t) / h_try
                            s1 = 1.0 - s
                            yk = [a + s * (r2 + s1 * (r3 + s * (r4 + s1 * r5)))
                                  for a, r2, r3, r4, r5 in rs]
                        if k >= skip:
                            data[:, k - skip] = [fn(tk, yk) for fn in fns]
                        k, tk = k + 1, next(later, math.inf)
                t, y, k1 = t_new, yi, k7
            elif h < hmin:
                raise EngineError(
                    f"reference step below {hmin:.3g} ps at t = {t:.6g} ps")
    return WaveformSet(grid[skip:], dict(zip(outputs, data)))


def _qpsj_case(circuit, kinds):
    qp = kinds[DeviceKind.QPSJ][0]
    vs = kinds[DeviceKind.VSOURCE][0]
    res = kinds.get(DeviceKind.RESISTOR, [])
    rext = sum(r.params["value"] for r in res)
    vc, rn, ls = qp.params["vc"], qp.params["rn"], qp.params["ls"]
    rtot = rn + rext
    q0 = qp.params.get("q0")
    src = _source(vs.params)
    drive_node = next(n for n in qp.nodes if n != GROUND)
    node_name = circuit.node_names[drive_node]
    if q0 is None:
        v0 = src(0.0)
        q0 = math.asin(max(-1.0, min(1.0, v0 / vc))) / _W

    if ls > 0:
        def f(t, y):
            q, i = y
            didt = (src(t) - vc * math.sin(_W * q) - rtot * i) / ls
            return (i, didt)

        def cur(t, y):
            return y[1]
        y0 = [q0, 0.0]
    else:
        def f(t, y):
            q = y[0]
            return ((src(t) - vc * math.sin(_W * q)) / rtot,)

        def cur(t, y):
            return (src(t) - vc * math.sin(_W * y[0])) / rtot
        y0 = [q0]

    outputs = {
        f"i({qp.name})": cur,
        f"v({node_name})": lambda t, y: src(t),
    }
    return f, y0, outputs


def _jj_case(circuit, kinds):
    jj = (kinds.get(DeviceKind.JJ, []) + kinds.get(DeviceKind.MJJ, []))[0]
    isrc = kinds[DeviceKind.ISOURCE][0]
    res = kinds.get(DeviceKind.RESISTOR, [])
    if jj.kind is DeviceKind.MJJ:
        ic = jj.params["states"][jj.params["state"]]
    else:
        ic = jj.params["ic"]
    rn, cj = jj.params["rn"], jj.params["cj"]
    g_ext = sum(1.0 / r.params["value"] for r in res)
    g = 1.0 / rn + g_ext
    src = _source(isrc.params)
    node = next(n for n in jj.nodes if n != GROUND)
    node_name = circuit.node_names[node]
    phi0 = jj.params.get("phi0")
    if phi0 is None:
        phi0 = math.asin(max(-1.0, min(1.0, src(0.0) / ic)))

    if cj > 0:
        def f(t, y):
            phi, v = y
            dv = (src(t) - ic * math.sin(phi) - g * v) / cj
            return (2.0 * math.pi * v / PHI0, dv)

        def volt(t, y):
            return y[1]
        y0 = [phi0, 0.0]
    else:
        def f(t, y):
            phi = y[0]
            v = (src(t) - ic * math.sin(phi)) / g
            return (2.0 * math.pi * v / PHI0,)

        def volt(t, y):
            return (src(t) - ic * math.sin(y[0])) / g
        y0 = [phi0]

    outputs = {
        f"v({node_name})": volt,
        # the whole junction current: the source less the parallel resistors
        f"i({jj.name})": lambda t, y: src(t) - g_ext * volt(t, y),
    }
    return f, y0, outputs


def _lc_case(circuit, kinds):
    ind = kinds[DeviceKind.INDUCTOR][0]
    cap = kinds[DeviceKind.CAPACITOR][0]
    res = kinds.get(DeviceKind.RESISTOR, [])
    isrcs = kinds.get(DeviceKind.ISOURCE, [])
    l, c = ind.params["value"], cap.params["value"]
    g = sum(1.0 / r.params["value"] for r in res)
    node = next(n for n in ind.nodes if n != GROUND)
    node_name = circuit.node_names[node]

    sources = [_source(s.params) for s in isrcs]

    def src(t):
        return sum(s(t) for s in sources)

    def f(t, y):
        v, il = y
        return ((src(t) - il - g * v) / c, v / l)

    outputs = {
        f"v({node_name})": lambda t, y: y[0],
        f"i({ind.name})": lambda t, y: y[1],
    }
    return f, [0.0, 0.0], outputs


def reference_integrate(circuit, tstep=None, tstop=None):
    """Reference waveforms of a single-junction or LC test circuit, on
    :func:`~qpsjsim.engine.tran`'s output grid.  Raises
    :class:`UnsupportedTopologyError` for any other topology and
    :class:`EngineError` for a bad time grid or a failed integration."""
    grid, skip = _time_grid(circuit, tstep, tstop)
    kinds = _kinds(circuit)
    n_jj = len(kinds.get(DeviceKind.JJ, [])) + len(kinds.get(DeviceKind.MJJ, []))
    n_qp = len(kinds.get(DeviceKind.QPSJ, []))

    if n_qp == 1 and n_jj == 0 and len(kinds.get(DeviceKind.VSOURCE, [])) == 1 \
            and not kinds.get(DeviceKind.ISOURCE) \
            and not kinds.get(DeviceKind.INDUCTOR) \
            and not kinds.get(DeviceKind.CAPACITOR):
        case = _qpsj_case
    elif n_jj == 1 and n_qp == 0 \
            and len(kinds.get(DeviceKind.ISOURCE, [])) == 1 \
            and not kinds.get(DeviceKind.VSOURCE) \
            and not kinds.get(DeviceKind.INDUCTOR) \
            and not kinds.get(DeviceKind.CAPACITOR):
        case = _jj_case
    elif n_jj == 0 and n_qp == 0 \
            and len(kinds.get(DeviceKind.INDUCTOR, [])) == 1 \
            and len(kinds.get(DeviceKind.CAPACITOR, [])) == 1 \
            and not kinds.get(DeviceKind.VSOURCE):
        case = _lc_case
    else:
        raise UnsupportedTopologyError("reference integrator supports only"
                                       " single-junction or LC test circuits")
    breaks = _breakpoints(circuit, float(grid[1]), float(grid[-1]))
    return _march(*case(circuit, kinds), grid, skip, breaks)
