"""Netlist dialect: parser, AST, elaboration and serialization.

Grammar (line oriented, case-insensitive):

    line 1                     title (ignored)
    * ...                      comment
    + ...                      continuation of the previous logical line
    R<name> n+ n- <value>
    L<name> n+ n- <value>
    C<name> n+ n- <value>
    V<name> n+ n- dc <v>  |  V<name> n+ n- pulse(v1 v2 td tr tf pw per)
    I<name> n+ n- dc <i>  |  same pulse form
    qpsj <name> n+ n- vc=<V> rn=<ohm> ls=<H> [q0=<C>]
    jj <name> n+ n- ic=<A> rn=<ohm> cj=<F> [phi0=<rad>]
    mjj <name> n+ n- states=<A,A,...> state=<idx> rn=<ohm> cj=<F>
    .tran <tstep> <tstop> [tstart]
    .save v(<node>) i(<devname>) ...
    .end

Node "0" is ground.  Values use SI-suffix notation (f p n u m k meg g).
Parsed card values are in base SI units; :func:`elaborate` converts them
to the internal scaled unit system (see :mod:`qpsjsim.units`).

Parsing, checking, scaling and serializing read one card per device
kind, which its model class in :mod:`qpsjsim.devices` declares
(``cards``) and ``_CARDS`` gathers: its form ("value", "source" or
"junction", as above), its head (leading letter or keyword) and, in
serialized order, each parameter's SI-to-scaled multiplier and rule:
"positive", "non-negative", "list" (non-empty, each positive), "index"
(into "states") or "optional" (unbounded, and the only rule that lets a
card leave it out).
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass

from . import units
from .devices import _MODELS, DeviceKind


class NetlistError(Exception):
    """Diagnostic for malformed netlist input, with a line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class PulseSpec:
    """SPICE-style pulse source description (periodic)."""

    v1: float
    v2: float
    td: float
    tr: float
    tf: float
    pw: float
    per: float

    def value_at(self, t):
        """Instantaneous source value at time t (same units as v1/v2)."""
        if t < self.td:
            return self.v1
        tau = (t - self.td) % self.per if self.per > 0 else (t - self.td)
        if tau < self.tr:
            return self.v1 + (self.v2 - self.v1) * tau / self.tr
        tau -= self.tr
        if tau < self.pw:
            return self.v2
        tau -= self.pw
        if tau < self.tf:
            return self.v2 + (self.v1 - self.v2) * tau / self.tf
        return self.v1

    def corners(self, tstop):
        """The times up to tstop where the waveform's slope changes:
        td + n*per + (0, tr, tr + pw, tr + pw + tf) for every period n
        from the first whose last corner may reach t >= 0 (with td < 0)."""
        offsets = (0.0, self.tr, self.tr + self.pw, self.tr + self.pw + self.tf)
        per = self.per or math.inf  # one period if per = 0
        first = max(0, int(-(self.td + offsets[-1]) // per))
        starts = [self.td + n * self.per
                  for n in range(first, int((tstop - self.td) // per) + 1)]
        return [s + o for s in starts for o in offsets if s + o <= tstop]

    def scaled(self, value_mult, time_mult):
        return PulseSpec(
            self.v1 * value_mult, self.v2 * value_mult,
            self.td * time_mult, self.tr * time_mult, self.tf * time_mult,
            self.pw * time_mult, self.per * time_mult)


@dataclass
class DeviceCard:
    kind: DeviceKind
    name: str
    nodes: tuple
    params: dict
    line_no: int = 0


@dataclass
class Directive:
    kind: str  # "tran" | "save" | "end"
    args: tuple
    line_no: int = 0


@dataclass
class NetlistAst:
    title: str
    cards: list
    directives: list

    def tran(self):
        return [d for d in self.directives if d.kind == "tran"]

    def saves(self):
        out = []
        for d in self.directives:
            if d.kind == "save":
                out.extend(d.args)
        return out


_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(meg|[fpnumkg])?$",
    re.IGNORECASE)

_SUFFIX = {
    "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3,
    "k": 1e3, "meg": 1e6, "g": 1e9,
}


def parse_value(token, line_no=None):
    """Parse a number with optional SI suffix into a base-SI float.

    "0.7m" -> 7e-4, "10k" -> 1e4, "140u" -> 1.4e-4.  The "meg" suffix is
    recognized before "m"; suffixes are case-insensitive.
    """
    m = _VALUE_RE.match(token.strip())
    if not m:
        raise NetlistError(f"malformed value {token!r}", line_no)
    value = float(m.group(1))
    suffix = m.group(2)
    if suffix:
        value *= _SUFFIX[suffix.lower()]
    return value


def _logical_lines(text):
    """Join continuation lines; yield (line_no, content) skipping comments.

    The line number reported for a joined line is that of its first
    physical line.
    """
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not out:
                raise NetlistError("continuation line with nothing to continue", i)
            no, prev = out[-1]
            out[-1] = (no, prev + " " + stripped[1:].strip())
        else:
            out.append((i, stripped))
    return out


_PULSE_RE = re.compile(r"^pulse\s*\((.*)\)$", re.IGNORECASE | re.DOTALL)

_CARDS = {kind: card for cls in _MODELS for kind, card in cls.cards.items()}
_HEADS = {row.head: kind for kind, row in _CARDS.items()}


def _parse_source(kind, name, tokens, line_no):
    if len(tokens) < 3:
        raise NetlistError(f"source {name}: missing value specification", line_no)
    nodes = (tokens[0].lower(), tokens[1].lower())
    rest = " ".join(tokens[2:]).strip()
    m = _PULSE_RE.match(rest)
    if m:
        args = m.group(1).replace(",", " ").split()
        if len(args) != 7:
            raise NetlistError(
                f"source {name}: pulse() takes 7 arguments, got {len(args)}", line_no)
        vals = [parse_value(a, line_no) for a in args]
        params = {"pulse": PulseSpec(*vals)}
    elif rest.lower().startswith("dc"):
        parts = rest.split()
        if len(parts) != 2:
            raise NetlistError(f"source {name}: expected 'dc <value>'", line_no)
        params = {"dc": parse_value(parts[1], line_no)}
    else:
        raise NetlistError(
            f"source {name}: expected 'dc <value>' or 'pulse(...)'", line_no)
    return DeviceCard(kind, name, nodes, params, line_no)


def _parse_junction(kind, tokens, line_no):
    if len(tokens) < 4:
        raise NetlistError(f"{kind.value} card: too few tokens", line_no)
    name = tokens[1].lower()
    nodes = (tokens[2].lower(), tokens[3].lower())
    rules = _CARDS[kind].params
    params = {}
    for tok in tokens[4:]:
        if "=" not in tok:
            raise NetlistError(f"expected key=value parameter, got {tok!r}", line_no)
        key, _, val = tok.partition("=")
        key = key.lower()
        if key not in rules:
            raise NetlistError(f"unknown parameter {key!r} for {kind.value}", line_no)
        rule = rules[key][1]
        if rule == "list":
            params[key] = [parse_value(v, line_no) for v in val.split(",") if v]
        elif rule == "index":
            try:
                params[key] = int(val)
            except ValueError:
                raise NetlistError(f"{key} index must be an integer, got {val!r}",
                                   line_no) from None
        else:
            params[key] = parse_value(val, line_no)
    for key, (_, rule) in rules.items():
        if rule != "optional" and key not in params:
            raise NetlistError(
                f"{kind.value} {name}: missing required parameter {key!r}", line_no)
    return DeviceCard(kind, name, nodes, params, line_no)


def _parse_directive(tokens, line_no):
    word = tokens[0].lower()
    if word == ".tran":
        if len(tokens) not in (3, 4):
            raise NetlistError(".tran takes <tstep> <tstop> [tstart]", line_no)
        args = tuple(parse_value(t, line_no) for t in tokens[1:])
        return Directive("tran", args, line_no)
    if word == ".save":
        probes = []
        for tok in tokens[1:]:
            m = re.match(r"^([vi])\((.+)\)$", tok, re.IGNORECASE)
            if not m:
                raise NetlistError(f"bad probe {tok!r}; expected v(node) or i(dev)",
                                   line_no)
            probes.append((m.group(1).lower(), m.group(2).lower()))
        return Directive("save", tuple(probes), line_no)
    if word == ".end":
        return Directive("end", (), line_no)
    raise NetlistError(f"unknown directive {word!r}", line_no)


def parse_netlist(text):
    """Parse netlist text into a :class:`NetlistAst`.

    Raises :class:`NetlistError` (carrying a line number) on any malformed
    input; never raises anything else on string input.
    """
    if not isinstance(text, str):
        raise NetlistError("netlist input must be a string")
    lines = text.splitlines()
    if not lines:
        raise NetlistError("empty netlist")
    title = lines[0].strip()
    body = "\n".join(lines[1:])
    cards = []
    directives = []
    seen_names = set()
    ended = False
    for line_no0, content in _logical_lines(body):
        line_no = line_no0 + 1  # account for the stripped title line
        if ended:
            continue
        tokens = content.split()
        head = tokens[0].lower()
        if head.startswith("."):
            d = _parse_directive(tokens, line_no)
            if d.kind == "tran" and any(x.kind == "tran" for x in directives):
                raise NetlistError("duplicate .tran directive", line_no)
            if d.kind == "end":
                ended = True
            directives.append(d)
            continue
        card = _parse_card(tokens, line_no)
        if card.name in seen_names:
            raise NetlistError(f"duplicate device name {card.name!r}", line_no)
        seen_names.add(card.name)
        cards.append(card)
    if not ended:
        raise NetlistError("missing .end directive")
    return NetlistAst(title, cards, directives)


def _parse_card(tokens, line_no):
    head = tokens[0].lower()
    # a junction card starts with its keyword, any other card with its letter
    kind = _HEADS.get(head) or _HEADS.get(head[0])
    if kind is None:
        raise NetlistError(f"unknown device kind for card {head!r}", line_no)
    form = _CARDS[kind].form
    if form == "junction":
        return _parse_junction(kind, tokens, line_no)
    if form == "source":
        return _parse_source(kind, head, tokens[1:], line_no)
    if len(tokens) != 4:
        raise NetlistError(f"{head}: expected '<name> n+ n- <value>'", line_no)
    nodes = (tokens[1].lower(), tokens[2].lower())
    return DeviceCard(kind, head, nodes,
                      {"value": parse_value(tokens[3], line_no)}, line_no)


# --- elaboration -----------------------------------------------------------

GROUND = -1


@dataclass
class DeviceInstance:
    """Elaborated device: node indices and scaled-unit parameters."""

    kind: DeviceKind
    name: str
    nodes: tuple  # indices; GROUND for node "0"
    params: dict


@dataclass
class Circuit:
    """Elaborated, simulatable circuit (internal scaled units)."""

    node_names: list  # index -> original node name
    devices: list  # DeviceInstance
    tstep: float  # ps
    tstop: float  # ps
    tstart: float  # ps
    save_list: list  # (quantity, target) pairs

    @property
    def node_count(self):
        return len(self.node_names)

    def node_index(self, name):
        name = str(name).lower()
        if name == "0":
            return GROUND
        return self.node_names.index(name)


def _check_physical(card):
    p = card.params
    no = card.line_no
    for key, (_, rule) in _CARDS[card.kind].params.items():
        if rule == "list" and not p[key]:
            raise NetlistError(f"{card.name}: {key} list is empty", no)
        if rule == "index" and not 0 <= p[key] < len(p["states"]):
            raise NetlistError(f"{card.name}: state index {p[key]} out of range", no)
        if rule in ("positive", "non-negative", "list"):
            bound = "positive" if rule == "list" else rule
            for v in p[key] if rule == "list" else [p[key]]:
                if not (v >= 0 if bound == "non-negative" else v > 0):
                    raise NetlistError(
                        f"{card.name}: parameter {key} must be {bound}, got {v}", no)
    for key, value in p.items():
        if isinstance(value, PulseSpec):
            if not all(math.isfinite(x) for x in astuple(value)):
                raise NetlistError(f"{card.name}: non-finite pulse value", no)
            for field in ("tr", "tf", "pw", "per"):  # a td < 0 only shifts it
                if (v := getattr(value, field)) < 0:
                    raise NetlistError(f"{card.name}: pulse {field} must be"
                                       f" non-negative, got {v} s", no)
        elif not all(math.isfinite(v) for v in
                     (value if isinstance(value, list) else [value])):
            raise NetlistError(f"{card.name}: non-finite value for {key}", no)


def _scale(value, mult):
    """SI card value -> scaled units; :func:`_card_text` undoes it."""
    if isinstance(value, PulseSpec):
        return value.scaled(mult, units.SECOND)
    if isinstance(value, list):
        return [v * mult for v in value]
    return value * mult


def elaborate(ast):
    """Elaborate an AST into a simulatable :class:`Circuit`.

    Maps node names to dense indices (ground = node "0"), converts values
    to the internal scaled unit system and validates connectivity and
    physicality.
    """
    trans = ast.tran()
    if len(trans) != 1:
        raise NetlistError("netlist must contain exactly one .tran directive")
    tran = trans[0]
    tstep = tran.args[0] * units.SECOND
    tstop = tran.args[1] * units.SECOND
    tstart = (tran.args[2] * units.SECOND) if len(tran.args) > 2 else 0.0
    if not tstep > 0:
        raise NetlistError(".tran: tstep must be positive", tran.line_no)
    if not tstop > tstep:
        raise NetlistError(".tran: tstop must exceed tstep", tran.line_no)
    if not all(math.isfinite(x) for x in tran.args):
        raise NetlistError(".tran: non-finite value", tran.line_no)
    if tstart > tstop:
        raise NetlistError(".tran: tstart must not exceed tstop", tran.line_no)

    node_names = []
    node_map = {}
    terminal_count = {}

    def index_of(name):
        if name == "0":
            return GROUND
        if name not in node_map:
            node_map[name] = len(node_names)
            node_names.append(name)
        return node_map[name]

    devices = []
    ground_seen = False
    for card in ast.cards:
        _check_physical(card)
        idx = tuple(index_of(n) for n in card.nodes)
        if idx[0] == idx[1]:
            raise NetlistError(f"{card.name}: both terminals on node"
                               f" {card.nodes[0]!r}", card.line_no)
        if GROUND in idx:
            ground_seen = True
        for n in card.nodes:
            terminal_count[n] = terminal_count.get(n, 0) + 1
        rules = _CARDS[card.kind].params
        params = {k: _scale(v, rules[k][0]) for k, v in card.params.items()}
        devices.append(DeviceInstance(card.kind, card.name, idx, params))
    if not devices:
        raise NetlistError("netlist contains no devices")
    if not ground_seen:
        raise NetlistError("no device is connected to ground (node 0)")
    for name, count in terminal_count.items():
        if name != "0" and count < 2:
            raise NetlistError(f"dangling node {name!r} (single terminal)")

    dev_names = {d.name for d in devices}
    save_list = []
    for quantity, target in ast.saves():
        if quantity == "v":
            if target != "0" and target not in node_map:
                raise NetlistError(f".save: unknown node {target!r}")
        else:
            if target not in dev_names:
                raise NetlistError(f".save: unknown device {target!r}")
        save_list.append((quantity, target))

    return Circuit(node_names, devices, tstep, tstop, tstart, save_list)


# --- serialization ---------------------------------------------------------

def _fmt(value):
    return repr(float(value))


def _card_text(value, mult):
    """Card text of a scaled value, in base SI units."""
    if isinstance(value, PulseSpec):
        ps = value.scaled(1.0 / mult, 1.0 / units.SECOND)
        return f"pulse({' '.join(_fmt(x) for x in astuple(ps))})"
    if isinstance(value, list):
        return ",".join(_fmt(v / mult) for v in value)
    if isinstance(value, int):  # an index
        return str(value)
    return _fmt(value / mult)


def serialize_circuit(circuit):
    """Render a Circuit back to netlist text (base SI values).

    Re-parsing and elaborating the output yields an equivalent Circuit
    (node names are the originals, so the round trip is exact).
    """
    def node(i):
        return "0" if i == GROUND else circuit.node_names[i]

    lines = ["* serialized by qpsjsim"]
    for dev in circuit.devices:
        a, b = (node(i) for i in dev.nodes)
        row = _CARDS[dev.kind]
        values = [(key, _card_text(dev.params[key], mult))
                  for key, (mult, _) in row.params.items() if key in dev.params]
        if row.form == "junction":
            fields = [row.head, dev.name, a, b] + [f"{k}={t}" for k, t in values]
        else:  # the value, "dc <value>" or "pulse(...)"
            fields = [dev.name, a, b] + [f"dc {t}" if k == "dc" else t
                                         for k, t in values]
        lines.append(" ".join(fields))
    step = circuit.tstep / units.SECOND
    stop = circuit.tstop / units.SECOND
    start = circuit.tstart / units.SECOND
    tran = f".tran {_fmt(step)} {_fmt(stop)}"
    if start:
        tran += f" {_fmt(start)}"
    lines.append(tran)
    if circuit.save_list:
        probes = " ".join(f"{q}({t})" for q, t in circuit.save_list)
        lines.append(f".save {probes}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
