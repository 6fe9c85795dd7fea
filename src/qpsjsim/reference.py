"""Independent high-order reference integrator for single-junction circuits.

Used in tests as a brute-force oracle for the MNA engine: the circuit's
ODE is formed explicitly for a small set of recognized topologies and
integrated with classical 4-stage Runge-Kutta at 1/100 of the requested
timestep.  Supported topologies (at most two dynamic state variables):

* voltage-biased QPSJ: vsource (+ optional series resistor) driving a
  single QPSJ to ground; states (q, i), or q alone when ls = 0
* current-biased JJ: isource (+ optional parallel resistor) across a
  single JJ to ground; states (phi, v), or phi alone when cj = 0
* LC tank: inductor parallel capacitor (+ optional resistor), kicked by
  a current source; states (v, iL)
"""

from __future__ import annotations

import math

import numpy as np

from .devices import _source_value
from .engine import EngineError, WaveformSet
from .netlist import GROUND, DeviceKind
from .units import PHI0, TWO_E

_W = 2.0 * math.pi / TWO_E

SUBSTEPS = 100


class UnsupportedTopologyError(EngineError):
    pass


def _kinds(circuit):
    out = {}
    for d in circuit.devices:
        out.setdefault(d.kind, []).append(d)
    return out


def _rk4(f, y, t, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(f, y0, outputs, tstep, tstop):
    """Integrate and sample every tstep; outputs maps name -> fn(t, y)."""
    n_out = int(round(tstop / tstep))
    h = tstep / SUBSTEPS
    times = np.arange(n_out + 1) * tstep
    data = {name: np.empty(n_out + 1) for name in outputs}
    y = np.asarray(y0, dtype=float)
    for name, fn in outputs.items():
        data[name][0] = fn(0.0, y)
    t = 0.0
    for k in range(1, n_out + 1):
        for _ in range(SUBSTEPS):
            y = _rk4(f, y, t, h)
            t += h
        t = times[k]
        for name, fn in outputs.items():
            data[name][k] = fn(t, y)
    return WaveformSet(times, data)


def _qpsj_case(circuit, kinds, tstep, tstop):
    qp = kinds[DeviceKind.QPSJ][0]
    vs = kinds[DeviceKind.VSOURCE][0]
    res = kinds.get(DeviceKind.RESISTOR, [])
    rext = sum(r.params["value"] for r in res)
    vc, rn, ls = qp.params["vc"], qp.params["rn"], qp.params["ls"]
    rtot = rn + rext
    q0 = qp.params.get("q0")
    src = lambda t: _source_value(vs.params, t)
    drive_node = next(n for n in qp.nodes if n != GROUND)
    node_name = circuit.node_names[drive_node]
    if q0 is None:
        v0 = src(0.0)
        q0 = math.asin(max(-1.0, min(1.0, v0 / vc))) / _W

    if ls > 0:
        def f(t, y):
            q, i = y
            didt = (src(t) - vc * math.sin(_W * q) - rtot * i) / ls
            return np.array([i, didt])

        def cur(t, y):
            return y[1]
        y0 = [q0, 0.0]
    else:
        def f(t, y):
            q = y[0]
            return np.array([(src(t) - vc * math.sin(_W * q)) / rtot])

        def cur(t, y):
            return (src(t) - vc * math.sin(_W * y[0])) / rtot
        y0 = [q0]

    outputs = {
        f"i({qp.name})": cur,
        f"v({node_name})": lambda t, y: src(t),
    }
    return _march(f, y0, outputs, tstep, tstop)


def _jj_case(circuit, kinds, tstep, tstop):
    jj = (kinds.get(DeviceKind.JJ, []) + kinds.get(DeviceKind.MJJ, []))[0]
    isrc = kinds[DeviceKind.ISOURCE][0]
    res = kinds.get(DeviceKind.RESISTOR, [])
    if jj.kind is DeviceKind.MJJ:
        ic = jj.params["states"][jj.params["state"]]
    else:
        ic = jj.params["ic"]
    rn, cj = jj.params["rn"], jj.params["cj"]
    g = 1.0 / rn + sum(1.0 / r.params["value"] for r in res)
    src = lambda t: _source_value(isrc.params, t)
    node = next(n for n in jj.nodes if n != GROUND)
    node_name = circuit.node_names[node]
    phi0 = jj.params.get("phi0")
    if phi0 is None:
        phi0 = math.asin(max(-1.0, min(1.0, src(0.0) / ic)))

    if cj > 0:
        def f(t, y):
            phi, v = y
            dv = (src(t) - ic * math.sin(phi) - g * v) / cj
            return np.array([2.0 * math.pi * v / PHI0, dv])

        def volt(t, y):
            return y[1]
        y0 = [phi0, 0.0]
    else:
        def f(t, y):
            phi = y[0]
            v = (src(t) - ic * math.sin(phi)) / g
            return np.array([2.0 * math.pi * v / PHI0])

        def volt(t, y):
            return (src(t) - ic * math.sin(y[0])) / g
        y0 = [phi0]

    outputs = {
        f"v({node_name})": volt,
        f"i({jj.name})": lambda t, y: ic * math.sin(y[0]),
    }
    return _march(f, y0, outputs, tstep, tstop)


def _lc_case(circuit, kinds, tstep, tstop):
    ind = kinds[DeviceKind.INDUCTOR][0]
    cap = kinds[DeviceKind.CAPACITOR][0]
    res = kinds.get(DeviceKind.RESISTOR, [])
    isrcs = kinds.get(DeviceKind.ISOURCE, [])
    l, c = ind.params["value"], cap.params["value"]
    g = sum(1.0 / r.params["value"] for r in res)
    node = next(n for n in ind.nodes if n != GROUND)
    node_name = circuit.node_names[node]

    def src(t):
        return sum(_source_value(s.params, t) for s in isrcs)

    def f(t, y):
        v, il = y
        return np.array([(src(t) - il - g * v) / c, v / l])

    outputs = {
        f"v({node_name})": lambda t, y: y[0],
        f"i({ind.name})": lambda t, y: y[1],
    }
    return _march(f, [0.0, 0.0], outputs, tstep, tstop)


def reference_integrate(circuit, tstep=None, tstop=None):
    """RK4 oracle for single-junction / LC test circuits.

    Raises :class:`UnsupportedTopologyError` for anything else.
    """
    tstep = circuit.tstep if tstep is None else tstep
    tstop = circuit.tstop if tstop is None else tstop
    kinds = _kinds(circuit)
    n_jj = len(kinds.get(DeviceKind.JJ, [])) + len(kinds.get(DeviceKind.MJJ, []))
    n_qp = len(kinds.get(DeviceKind.QPSJ, []))

    if n_qp == 1 and n_jj == 0 and len(kinds.get(DeviceKind.VSOURCE, [])) == 1 \
            and not kinds.get(DeviceKind.ISOURCE) \
            and not kinds.get(DeviceKind.INDUCTOR) \
            and not kinds.get(DeviceKind.CAPACITOR):
        return _qpsj_case(circuit, kinds, tstep, tstop)
    if n_jj == 1 and n_qp == 0 and len(kinds.get(DeviceKind.ISOURCE, [])) == 1 \
            and not kinds.get(DeviceKind.VSOURCE) \
            and not kinds.get(DeviceKind.INDUCTOR) \
            and not kinds.get(DeviceKind.CAPACITOR):
        return _jj_case(circuit, kinds, tstep, tstop)
    if n_jj == 0 and n_qp == 0 \
            and len(kinds.get(DeviceKind.INDUCTOR, [])) == 1 \
            and len(kinds.get(DeviceKind.CAPACITOR, [])) == 1 \
            and not kinds.get(DeviceKind.VSOURCE):
        return _lc_case(circuit, kinds, tstep, tstop)
    raise UnsupportedTopologyError(
        "reference integrator supports only single-junction or LC test circuits")
