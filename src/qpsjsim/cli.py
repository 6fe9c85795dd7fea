"""Command line front end: simulate netlists, canned scenarios, sweeps.

Every command writes its outputs plus a manifest.json that records the
exact inputs needed to reproduce the run and what the solver did
(``WaveformSet.stats``; a sweep lists them per point).  A sweep runs
the points whose circuits differ only in junction amplitudes as one
batch (:func:`~qpsjsim.engine.tran_batch`); each point's stats are its
batch's, whose size they record as ``variants``.  Output CSVs are
deterministic: the same inputs give byte-identical files.

The commands raise; :func:`main` alone maps a failure to its exit code
and prints one ``error:`` line.  Exit codes: 0 success, 2 input error
(a netlist that cannot be read, decoded as UTF-8, parsed or elaborated,
a bad time grid or command line, an output path that cannot be created;
a path that is or lies under a non-directory is refused before the run),
3 simulation failure (no convergence, or a non-finite result).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import detect_pulses, export_csv
from .devices import damping_parameter, topology
from .engine import (SOLVER_SETTINGS, EngineError, TimeGridError, tran,
                     tran_batch)
from .netlist import NetlistError, elaborate, parse_netlist
from .templates import (NetworkSpec, NeuronParams, SynapseBinaryParams,
                        SynapseMultiParams, binary_synapse_netlist,
                        multistate_synapse_netlist, network_netlist,
                        neuron_netlist)
from .units import TWO_E

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3

OUT_DIR_ENV = "QPSJSIM_OUT"

_FIRING_QUANTA = 4.0  # events above this many 2e count as neuron firings


class InputError(Exception):
    """A command line naming no figure or sweep, no value to sweep or an
    output path under a non-directory, or a netlist that is not UTF-8."""


def _out_dir(args):
    """The output directory, checked but not created: refused if it, or
    its nearest existing ancestor, is not a directory."""
    path = Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")
    existing = next((p for p in (path, *path.parents) if os.path.lexists(p)),
                    path)
    if not existing.is_dir():
        raise InputError(f"cannot create output directory {path}:"
                         f" {existing} is not a directory")
    return path


def _write_spikes(path, trains):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["channel", "t_peak_ps", "charge_ac", "width_ps"])
        for train in trains:
            for e in train.events:
                writer.writerow([train.source, repr(e.t_peak),
                                 repr(e.charge), repr(e.width)])


def _detect_all(waves):
    """Pulse trains for every saved current channel (none in a run that
    records no sample)."""
    return [detect_pulses(waves.time, values, source=name)
            for name, values in waves.channels.items()
            if name.startswith("i(") and len(values)]


def _write_manifest(out, command, params, outputs, stats, t0):
    """Write out/manifest.json: the run's inputs, the solver settings,
    the files written, what the solver did and the wall time since t0."""
    manifest = {"command": command, "params": params,
                "solver": SOLVER_SETTINGS, "outputs": outputs, "stats": stats,
                "deterministic": True, "version": __version__,
                "wall_time_s": round(time.perf_counter() - t0, 3)}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run(out, command, params, waves, t0, written=()):
    """Write a run's waveforms.csv and spikes.csv into out, then its
    manifest, which lists the files already written first; returns the
    waveforms' path."""
    wave_path = out / "waveforms.csv"
    spike_path = out / "spikes.csv"
    export_csv(waves, wave_path)
    _write_spikes(spike_path, _detect_all(waves))
    _write_manifest(out, command, params,
                    [*written, wave_path.name, spike_path.name],
                    waves.stats, t0)
    return wave_path


def cmd_sim(args):
    t0 = time.perf_counter()
    out = _out_dir(args)
    try:
        text = Path(args.netlist).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.netlist}: not UTF-8 at byte {exc.start}")
    waves = tran(elaborate(parse_netlist(text)), tstep=args.tstep,
                 tstop=args.tstop)
    params = {"netlist": str(args.netlist), "tstep_ps": args.tstep,
              "tstop_ps": args.tstop}
    out.mkdir(parents=True, exist_ok=True)
    wave_path = _write_run(out, "sim", params, waves, t0)
    print(f"wrote {wave_path} ({len(waves.time)} samples)")
    return EXIT_OK


def _simulate(netlist):
    return tran(elaborate(parse_netlist(netlist)))


def _firings(waves, channel):
    """The pulses on a neuron's output channel that count as firings."""
    train = detect_pulses(waves.time, waves.channel(channel))
    return [e for e in train.events if e.charge / TWO_E > _FIRING_QUANTA]


def _neuron_summary(waves):
    firings = _firings(waves, "i(rload)")
    lines = [f"firings: {len(firings)}"]
    for e in firings:
        lines.append(f"  t={e.t_peak:.1f} ps  charge={e.charge / TWO_E:.2f} x 2e")
    return firings, lines


def _count_quanta(waves, channel):
    train = detect_pulses(waves.time, waves.channel(channel))
    return sum(round(e.charge / TWO_E) for e in train.events
               if round(e.charge / TWO_E) >= 1)


def _figure_fig2(fig):
    p = NeuronParams(n_pulses=22)
    netlist = neuron_netlist(p)
    waves = _simulate(netlist)
    firings, lines = _neuron_summary(waves)
    if firings:
        gaps = np.diff([e.t_peak for e in firings])
        periods = gaps / (p.pulse_period * 1e12)
        lines.append(f"firing interval: {', '.join(f'{x:.1f}' for x in periods)}"
                     " input periods")
    lines.insert(0, "integrate-and-fire neuron, threshold 10: expect one"
                    " firing per 10 inputs carrying 20e")
    return netlist, waves, lines


def _figure_fig4(fig):
    p = SynapseBinaryParams(state="ab".index(fig[-1]))
    netlist = binary_synapse_netlist(p)
    waves = _simulate(netlist)
    n = _count_quanta(waves, "i(q1)")
    lines = [f"binary synapse, Ic={p.ic_states[p.state] * 1e6:.0f} uA"
             f" (weight {1 - p.state})",
             f"output pulses over {p.n_pulses} inputs: {n}"]
    return netlist, waves, lines


def _figure_fig6(fig):
    p = SynapseMultiParams(state="abcd".index(fig[-1]))
    netlist = multistate_synapse_netlist(p)
    waves = _simulate(netlist)
    n = _count_quanta(waves, "i(q1)")
    lines = [f"multi-state synapse, Ic={p.ic_j2_states[p.state] * 1e6:.0f} uA",
             f"output pulses over {p.n_pulses} inputs: {n}"]
    return netlist, waves, lines


_NETWORK_WEIGHTS = {
    "fig8": ((1, 1, 1), (0, 1, 1)),
    "fig9": ((1, 0, 1), (0, 0, 1)),
}


def _figure_network(fig):
    spec = NetworkSpec(weights=_NETWORK_WEIGHTS[fig],
                       input_periods=(60e-12, 90e-12, 120e-12))
    netlist = network_netlist(spec)
    waves = _simulate(netlist)
    lines = [f"3x2 network, weights {list(map(list, spec.weights))}"]
    for y in range(spec.n_outputs):
        firings = _firings(waves, f"i(rloadn{y})")
        lines.append(f"output neuron {y}: {len(firings)} firings at "
                     + ", ".join(f"{e.t_peak:.0f} ps" for e in firings))
    return netlist, waves, lines


# Each figure id's builder takes the id: id -> (netlist, waves, lines).
_FIGURES = {
    "fig2": _figure_fig2,
    "fig4a": _figure_fig4, "fig4b": _figure_fig4,
    "fig6a": _figure_fig6, "fig6b": _figure_fig6,
    "fig6c": _figure_fig6, "fig6d": _figure_fig6,
    "fig8": _figure_network, "fig9": _figure_network,
}


def cmd_figure(args):
    t0 = time.perf_counter()
    fig = args.id
    if fig not in _FIGURES:
        raise InputError(f"unknown figure id {fig!r}")
    out = _out_dir(args)
    netlist, waves, lines = _FIGURES[fig](fig)
    out.mkdir(parents=True, exist_ok=True)
    net_path = out / f"{fig}.cir"
    net_path.write_text(netlist)
    _write_run(out, "figure", {"id": fig}, waves, t0, [net_path.name])
    for line in lines:
        print(line)
    return EXIT_OK


# Each sweep point gives the circuit it simulates (or None) and how its
# sweep.csv columns follow from the circuit's waveforms.

def _sweep_neuron(value):
    n = int(value)
    p = NeuronParams(n_threshold=n, n_pulses=max(12, 3 * n))

    def columns(waves):
        firings = _firings(waves, "i(rload)")
        if len(firings) >= 2:
            period = float(np.mean(np.diff([e.t_peak for e in firings])))
        elif firings:
            period = float("nan")
        else:
            period = float("inf")
        return {"firings": len(firings), "firing_period_ps": period}

    return elaborate(parse_netlist(neuron_netlist(p))), columns


def _sweep_synapse(value):
    ic = float(value)
    if not 0 < ic < np.inf:
        raise ValueError(f"ic must be positive and finite, got {value}")
    p = SynapseBinaryParams()
    state = 0 if abs(ic - p.ic_states[0]) <= abs(ic - p.ic_states[1]) else 1
    p = SynapseBinaryParams(state=state)

    def columns(waves):
        n = _count_quanta(waves, "i(q1)")
        return {"output_pulses": n, "pulses_per_input": n / p.n_pulses}

    return elaborate(parse_netlist(binary_synapse_netlist(p))), columns


def _sweep_damping(value):
    beta = damping_parameter(0.7e-3, float(value), 10e3)
    return None, lambda waves: {"beta_l": beta}


_SWEEPS = {
    ("neuron", "n_threshold"): _sweep_neuron,
    ("synapse", "ic"): _sweep_synapse,
    ("damping", "l"): _sweep_damping,
}


def _sweep_waves(circuits):
    """The waveforms of each circuit (None where there is none), or the
    error it failed with.  Circuits of one topology run as one batch,
    and the points that fail leave the others the results of the batch
    without them."""
    groups = []  # [topology, [indices]]
    for i, circuit in enumerate(circuits):
        if circuit is not None:
            shape = topology(circuit)
            group = next((g for g in groups if g[0] == shape), None)
            if group is None:
                groups.append(group := [shape, []])
            group[1].append(i)
    results = [None] * len(circuits)
    for _, members in groups:
        try:
            batch = tran_batch([circuits[i] for i in members])
        except EngineError as exc:
            batch = [exc] * len(members)
        for i, waves in zip(members, batch):
            results[i] = waves
    return results


def cmd_sweep(args):
    t0 = time.perf_counter()
    key = (args.template, args.param)
    if key not in _SWEEPS:
        known = ", ".join(f"{t}/{p}" for t, p in sorted(_SWEEPS))
        raise InputError(f"no sweep for {args.template}/{args.param}"
                         f" (available: {known})")
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise InputError("empty value list")
    fn = _SWEEPS[key]
    out = _out_dir(args)

    points = []
    for v in values:
        try:
            points.append(fn(v))
        except (NetlistError, ValueError) as exc:
            points.append(exc)
    waves = _sweep_waves([None if isinstance(p, Exception) else p[0]
                          for p in points])

    rows, stats = [], []
    for v, p, w in zip(values, points, waves):
        error = (p if isinstance(p, Exception)
                 else w if isinstance(w, EngineError) else None)
        if error is None:
            rows.append({"value": v, "status": "ok", **p[1](w)})
            stats.append({} if w is None else w.stats)
        else:
            rows.append({"value": v, "status": f"failed: {error}"})
            stats.append({})

    fields = list(dict.fromkeys(k for row in rows for k in row))
    out.mkdir(parents=True, exist_ok=True)
    sweep_path = out / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    _write_manifest(out, "sweep", {"template": args.template,
                                   "param": args.param, "values": values},
                    [sweep_path.name], stats, t0)
    for row in rows:
        print(row)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qpsjsim",
        description="transient simulation of quantum phase-slip circuits")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sim = sub.add_parser("sim", help="simulate a netlist file")
    p_sim.add_argument("netlist")
    p_sim.add_argument("--tstep", type=float, default=None,
                       help="override timestep (ps)")
    p_sim.add_argument("--tstop", type=float, default=None,
                       help="override stop time (ps)")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.set_defaults(func=cmd_sim)

    p_fig = sub.add_parser("figure", help="run a canned scenario")
    p_fig.add_argument("id", help="fig2, fig4a, fig4b, fig6a..fig6d,"
                                  " fig8 or fig9")
    p_fig.add_argument("--out", default=None)
    p_fig.set_defaults(func=cmd_figure)

    p_sweep = sub.add_parser("sweep", help="sweep a template parameter")
    p_sweep.add_argument("template", help="neuron, synapse or damping")
    p_sweep.add_argument("param", help="parameter name")
    p_sweep.add_argument("values", help="comma separated grid values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NetlistError, OSError, TimeGridError, InputError) as exc:
        error, code = exc, EXIT_INPUT
    except EngineError as exc:
        error, code = exc, EXIT_CONVERGENCE
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
