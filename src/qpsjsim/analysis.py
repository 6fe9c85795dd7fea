"""Waveform post-processing: pulse detection, charge accounting, energy.

Works on the engine's scaled units throughout: times in ps, currents in
uA, charges in aC (uA*ps), energies in zJ unless stated otherwise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .engine import WaveformSet
from .units import TWO_E, TWO_E_SI


@dataclass(frozen=True)
class PulseEvent:
    t_peak: float  # ps
    charge: float  # aC
    width: float  # ps (time spent above detection threshold)


@dataclass
class SpikeTrain:
    events: list
    source: str = ""

    def __len__(self):
        return len(self.events)

    def charges(self):
        return np.array([e.charge for e in self.events])

    def times(self):
        return np.array([e.t_peak for e in self.events])


@dataclass(frozen=True)
class DetectorConfig:
    threshold_fraction: float = 0.5  # of channel max above baseline
    min_separation: float = 1.0  # ps
    baseline: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must be in (0, 1)")
        if not self.min_separation > 0:
            raise ValueError("min_separation must be positive")


def detect_pulses(time, values, cfg=None, source=""):
    """Detect positive pulses in a current channel.

    Events start at upward crossings of threshold (with hysteresis: the
    detector re-arms only after the signal falls back below half the
    threshold); events closer than min_separation are merged.  Each
    event's charge is the trapezoidal integral of the current over the
    contiguous above-baseline window around the crossing.
    """
    cfg = cfg or DetectorConfig()
    time = np.asarray(time, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(time) != len(values) or len(time) == 0:
        raise ValueError("time and values must be equal-length, non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite samples in channel")

    base = cfg.baseline
    vmax = float(np.max(values))
    if vmax <= base:
        return SpikeTrain([], source)
    thr = base + cfg.threshold_fraction * (vmax - base)
    rearm = base + 0.5 * (thr - base)

    # threshold-crossing state machine with hysteresis
    starts = []
    armed = True
    for k in range(len(values)):
        v = values[k]
        if armed and v >= thr:
            starts.append(k)
            armed = False
        elif not armed and v < rearm:
            armed = True
    if not starts:
        return SpikeTrain([], source)

    above = values > base
    windows = []
    for k in starts:
        lo = k
        while lo > 0 and above[lo - 1]:
            lo -= 1
        hi = k
        while hi < len(values) - 1 and above[hi + 1]:
            hi += 1
        if windows and lo <= windows[-1][1]:
            windows[-1] = (windows[-1][0], max(hi, windows[-1][1]))
        else:
            windows.append((lo, hi))

    # merge windows whose peaks sit closer than min_separation
    merged = [windows[0]]
    for lo, hi in windows[1:]:
        plo, phi_ = merged[-1]
        t_prev = time[plo + int(np.argmax(values[plo:phi_ + 1]))]
        t_this = time[lo + int(np.argmax(values[lo:hi + 1]))]
        if t_this - t_prev < cfg.min_separation:
            merged[-1] = (plo, hi)
        else:
            merged.append((lo, hi))

    events = []
    for lo, hi in merged:
        seg_t = time[lo:hi + 1]
        seg_v = values[lo:hi + 1]
        peak = lo + int(np.argmax(seg_v))
        charge = float(np.trapezoid(seg_v - base, seg_t)) if hi > lo else 0.0
        width = float(np.sum(np.diff(seg_t)[seg_v[:-1] >= thr])) if hi > lo else 0.0
        events.append(PulseEvent(float(time[peak]), charge, width))
    return SpikeTrain(events, source)


def window_charges(time, values, centers, half_width):
    """Transported charge in a symmetric window around each center time.

    Complements :func:`detect_pulses`: the event detector clips its
    integration window at the first return to baseline, which misses the
    displacement-current tail of a switching event.  Integrating the
    branch current over a window wide enough to span the whole event
    (half the pulse spacing, say) recovers the net transported charge.
    """
    time = np.asarray(time, dtype=float)
    values = np.asarray(values, dtype=float)
    if not half_width > 0:
        raise ValueError("half_width must be positive")
    out = []
    for tc in centers:
        m = (time >= tc - half_width) & (time <= tc + half_width)
        if not np.any(m):
            raise ValueError(f"no samples within {half_width} ps of t={tc}")
        out.append(float(np.trapezoid(values[m], time[m])))
    return np.array(out)


@dataclass(frozen=True)
class QuantumCheck:
    multiple: int
    residual: float  # in units of 2e, after rounding
    quantized: bool


def pulse_charge_quantum_check(train, *, two_e=TWO_E, tolerance=0.05):
    """Per-event nearest integer multiple of 2e and its residual.

    Charges are expected in the same unit as two_e (aC by default).  An
    event is flagged quantized when |residual| < tolerance (in 2e units).
    """
    out = []
    for e in train.events:
        ratio = e.charge / two_e
        multiple = round(ratio)
        residual = ratio - multiple
        out.append(QuantumCheck(multiple, residual, abs(residual) < tolerance))
    return out


def switching_energy(vc, *, two_e=TWO_E_SI):
    """Energy dissipated per QPSJ switching event, E = 2e*Vc.

    With SI inputs (the default) the result is in joules; with vc in mV
    and two_e in aC the result is in zJ.
    """
    if vc < 0:
        raise ValueError("vc must be non-negative")
    return two_e * vc


def neuron_firing_energy(vc, n_threshold, *, two_e=TWO_E_SI):
    """Energy per neuron firing: the input junction plus all N parallel
    junctions switch once each, (N + 1) switches total."""
    return (n_threshold + 1) * switching_energy(vc, two_e=two_e)


def firing_rate(train, window):
    """Events per unit window (events/ps for scaled inputs)."""
    if not window > 0:
        raise ValueError("window must be positive")
    return len(train.events) / window


# --- CSV export ------------------------------------------------------------

def _write_rows(fh, header, rows):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def export_csv(obj, destination):
    """Write a WaveformSet or SpikeTrain as RFC-4180-style CSV.

    Times are in ps, voltages in mV, currents in uA, charges in aC.
    destination may be a path or a writable text file object.
    """
    if isinstance(obj, WaveformSet):
        header = ["time_ps"] + list(obj.channels)
        columns = [obj.time] + [obj.channels[name] for name in obj.channels]
        rows = (tuple(repr(float(c[k])) for c in columns)
                for k in range(len(obj.time)))
    elif isinstance(obj, SpikeTrain):
        header = ["t_peak_ps", "charge_ac", "width_ps"]
        rows = ((repr(e.t_peak), repr(e.charge), repr(e.width))
                for e in obj.events)
    else:
        raise TypeError(f"cannot export {type(obj).__name__}")
    if hasattr(destination, "write"):
        _write_rows(destination, header, rows)
    else:
        with open(destination, "w", newline="") as fh:
            _write_rows(fh, header, rows)


def import_waveforms_csv(source):
    """Read back a WaveformSet written by :func:`export_csv`."""
    if hasattr(source, "read"):
        reader = csv.reader(source)
        rows = list(reader)
    else:
        with open(source, newline="") as fh:
            rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array([[float(x) for x in row] for row in body])
    if data.size == 0:
        data = data.reshape(0, len(header))
    channels = {name: data[:, k] for k, name in enumerate(header[1:], start=1)}
    return WaveformSet(data[:, 0] if len(body) else np.empty(0), channels)


def import_spikes_csv(source):
    """Read back a SpikeTrain written by :func:`export_csv`."""
    if hasattr(source, "read"):
        rows = list(csv.reader(source))
    else:
        with open(source, newline="") as fh:
            rows = list(csv.reader(fh))
    events = [PulseEvent(float(a), float(b), float(c)) for a, b, c in rows[1:]]
    return SpikeTrain(events)
