"""Waveform post-processing: pulse detection, charge accounting, energy
and the waveform CSV.

Pulses are measured from each channel's level at its first sample, so a
DC-biased branch reports its pulses on top of the bias.  Works on the
engine's scaled units throughout: times in ps, currents in uA, charges
in aC (uA*ps), energies in zJ unless stated otherwise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .units import TWO_E_SI


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


THRESHOLD_FRACTION = 0.5  # of the channel's peak above its baseline
MIN_SEPARATION = 1.0  # ps; closer peaks are one event


def detect_pulses(time, values, source=""):
    """Detect positive pulses in a current channel.

    The baseline is the channel's first sample: the DC operating point,
    where a run starts (with ``tstart > 0``, the first recorded sample),
    so a DC-biased branch counts pulses from its bias level.  Events
    start at upward crossings of the threshold, THRESHOLD_FRACTION of
    the way from the baseline to the channel maximum, with hysteresis:
    the detector re-arms only after the signal falls back below half
    the threshold.  A channel whose threshold does not lie above its
    baseline (no peak, or one that rounds thr onto base) has no events.
    Events whose peaks lie closer than MIN_SEPARATION are merged.  Each
    event's charge is the trapezoidal integral of the current above the
    baseline, max(v - base, 0), over the contiguous above-baseline window
    around the crossing widened by one sample on each side (clamped to
    the array), so a sample at the baseline adds the same charge
    whichever sign its rounding noise has.
    """
    time = np.asarray(time, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(time) != len(values) or len(time) == 0:
        raise ValueError("time and values must be equal-length, non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite samples in channel")

    base = float(values[0])
    thr = base + THRESHOLD_FRACTION * (float(np.max(values)) - base)
    if not thr > base:  # no peak, or one too small to lift thr off base
        return SpikeTrain([], source)
    rearm = base + 0.5 * (thr - base)

    # the runs [s, e) of values >= thr, flat as s0, e0, s1, ...: events
    # start at the first, and at each after a gap that fell below rearm
    high = np.flatnonzero(np.diff(values >= thr, prepend=False, append=False))
    rearmed = np.minimum.reduceat(values, high[1:-1])[::2] < rearm
    starts = high[::2][np.concatenate(([True], rearmed))]
    # each start's window: the run [s, e) of values > base it lies in
    # (thr > base), once for the starts that share one
    above = np.diff(values > base, prepend=False, append=False)
    s, e = np.flatnonzero(above).reshape(-1, 2).T
    i = np.searchsorted(e, starts)
    windows = list(dict.fromkeys(zip(s[i].tolist(), (e[i] - 1).tolist())))

    # merge windows whose peaks sit closer than MIN_SEPARATION
    merged = [windows[0]]
    for lo, hi in windows[1:]:
        plo, phi_ = merged[-1]
        t_prev = time[plo + int(np.argmax(values[plo:phi_ + 1]))]
        t_this = time[lo + int(np.argmax(values[lo:hi + 1]))]
        if t_this - t_prev < MIN_SEPARATION:
            merged[-1] = (plo, hi)
        else:
            merged.append((lo, hi))

    events = []
    for lo, hi in merged:
        seg_t = time[lo:hi + 1]
        seg_v = values[lo:hi + 1]
        peak = lo + int(np.argmax(seg_v))
        # one more sample on each side, clipped at the baseline: a sample
        # at the baseline adds the same charge whichever side of it
        # rounding puts it
        wide = slice(max(lo - 1, 0), hi + 2)
        charge = float(np.trapezoid(np.maximum(values[wide] - base, 0.0),
                                    time[wide]))
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


# --- CSV export ------------------------------------------------------------

_CSV_BLOCK = 512  # rows per formatting pass


def export_csv(waves, path):
    """Write a WaveformSet to path as RFC-4180-style CSV.

    Times are in ps, voltages in mV, currents in uA.  Each value is
    written with repr, so it reads back exactly.  Rows are formatted a
    block of _CSV_BLOCK at a time.
    """
    columns = [np.asarray(c, dtype=float)
               for c in [waves.time, *waves.channels.values()]]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            ["time_ps"] + list(waves.channels))
        for lo in range(0, len(waves.time), _CSV_BLOCK):
            block = [map(repr, c[lo:lo + _CSV_BLOCK].tolist()) for c in columns]
            fh.write("".join([",".join(row) + "\n" for row in zip(*block)]))
