"""In-memory span tracer for the traced benchmark run.

Spans are recorded by the benchmark's own code around each call into a
qpsjsim module.  The only hook inside the program is a wrapper on
``numpy.linalg.solve``, installed for the duration of a traced operation
and removed afterwards; each solve call is charged to the innermost open
span, so calls made by ``cli.main``'s worker threads land on the
``cli.main`` span that is waiting for them.
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np


class Tracer:
    """Records spans (name, start, end, parent, operation id) in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # operation id -> {count name: value}
        self.op = None
        self._open = []  # indices into spans, innermost last
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None,
               "solve_calls": 0, "solve_s": 0.0, "solve_dim": 0}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def __getstate__(self):  # what the benchmark's child process sends back
        return {"spans": self.spans, "counts": self.counts}

    def count(self, name, value):
        op_counts = self.counts.setdefault(self.op, {})
        op_counts[name] = op_counts.get(name, 0) + value

    @contextlib.contextmanager
    def operation(self, op_id):
        """Attribute spans to op_id and count numpy.linalg.solve calls."""
        original = np.linalg.solve

        def solve(a, b):
            t0 = time.perf_counter()
            try:
                return original(a, b)
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    if self._open:
                        rec = self.spans[self._open[-1]]
                        rec["solve_calls"] += 1
                        rec["solve_s"] += dt
                        rec["solve_dim"] = max(rec["solve_dim"], len(a))

        self.op = op_id
        np.linalg.solve = solve
        try:
            yield
        finally:
            np.linalg.solve = original
            self.op = None

    def dump(self):
        """Spans with times relative to the first span, for writing out."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                for s in self.spans]


class NullTracer:
    """Stands in for Tracer in untraced operations; records nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass


def op_metrics(tracer, op_id, speed):
    """Per-layer figures of one traced operation, at reference speed.

    speed holds the pauses made during the operation (speed.py).  Every
    span is rescaled by the factor of its outermost span, so that a
    parent's time is the sum of its children's plus its own.  A pause can
    fall inside a solve call, and solve_s keeps the pauses that did, which
    the spans have taken out.
    """
    spans = [s for s in tracer.spans if s["op"] == op_id]
    counts = tracer.counts.get(op_id, {})
    factor = {}
    for s in spans:  # parents precede their children
        parent = s["parent"]
        factor[s["id"]] = (factor[parent] if parent in factor
                           else speed.factor(s["start"], s["end"]))

    def duration(s):
        host = s["end"] - s["start"] - speed.busy(s["start"], s["end"])
        return host * factor[s["id"]]

    def total(name):
        return sum(duration(s) for s in spans if s["name"] == name)

    engine = [s for s in spans if s["name"] in ("engine.dc", "engine.tran")]
    tran = [s for s in spans if s["name"] == "engine.tran"]
    solve_calls = sum(s["solve_calls"] for s in engine)
    solve_s = sum(s["solve_s"] * factor[s["id"]] for s in engine)
    dc_s, tran_s = total("engine.dc"), total("engine.tran")
    samples = counts.get("engine.samples", 0)
    m = {
        "templates.render_s": total("templates.render"),
        "netlist.parse_s": total("netlist.parse"),
        "netlist.elaborate_s": total("netlist.elaborate"),
        "netlist.devices": counts.get("netlist.devices", 0),
        "netlist.unknowns": sum(s["solve_dim"] for s in tran),
        "engine.dc_s": dc_s,
        "engine.tran_s": tran_s,
        "engine.samples": samples,
        "engine.us_per_sample": 1e6 * tran_s / samples,
        "engine.solve_calls": solve_calls,
        "engine.solves_per_sample": solve_calls / samples,
        "engine.solve_s": solve_s,
        "engine.us_per_solve": 1e6 * solve_s / solve_calls,
        "engine.self_s": dc_s + tran_s - solve_s,
        "analysis.detect_s": total("analysis.detect"),
        "analysis.events": counts.get("analysis.events", 0),
        "analysis.export_s": total("analysis.export"),
        "analysis.csv_bytes": counts.get("analysis.csv_bytes", 0),
        "reference.integrate_s": total("reference.integrate"),
        "cli.main_s": total("cli.main"),
        "cli.points": counts.get("cli.points", 0),
        "cli.serial_s": total("cli.serial"),
    }
    if m["cli.main_s"] and m["cli.serial_s"]:
        m["cli.pool_speedup"] = m["cli.serial_s"] / m["cli.main_s"]
    root = next(s for s in spans if s["name"] == "op")
    covered = sum(duration(s) for s in spans if s["parent"] == root["id"])
    m["bench.other_s"] = duration(root) - covered
    return m
