"""Banks: identical parallel QPSJs integrate as one junction row, whose
KCL entries are +-m and whose leak is m*GMIN, with the results of the
circuit integrated device by device."""

import warnings

import numpy as np
import pytest

from qpsjsim import devices, engine
from qpsjsim.engine import dc_operating_point, tran, tran_batch
from qpsjsim.netlist import elaborate, parse_netlist
from qpsjsim.templates import (NetworkSpec, NeuronParams, network_netlist,
                               neuron_netlist)


def _circ(text):
    return elaborate(parse_netlist(text))


def _singletons(cls, variants):
    return [[i] for i in range(len(variants[0]))]


def _unmerged(monkeypatch, run, *args):
    """run(*args) with every device its own row."""
    with monkeypatch.context() as patch:
        patch.setattr(devices, "banks", _singletons)
        return run(*args)


def _unsaved(text):
    return "".join(line for line in text.splitlines(True)
                   if not line.startswith(".save"))


def _same_run(waves, alone):
    """waves has alone's stats, but for its unknowns, and its channels,
    each within 1e-9 of its peak."""
    assert {**waves.stats, "unknowns": 0} == {**alone.stats, "unknowns": 0}
    assert list(waves.channels) == list(alone.channels)
    for name, values in alone.channels.items():
        peak = np.max(np.abs(values))
        assert np.max(np.abs(waves.channels[name] - values)) <= 1e-9 * peak, name


BANK_OF_TEN = _unsaved(neuron_netlist(NeuronParams(n_pulses=2)))


@pytest.mark.parametrize("text", [
    neuron_netlist(NeuronParams(n_pulses=12)),
    network_netlist(NetworkSpec(weights=((1, 1),),
                                input_periods=(60e-12, 90e-12),
                                duration=0.45e-9)),
], ids=["neuron", "network"])
def test_a_bank_integrates_as_its_members_do(monkeypatch, text):
    # the neuron's 10-bank seeds its floating node n1 through its eleven
    # leaks, and fires once; the network's neuron fires once too
    circuit = _circ(text)
    merged = tran(circuit)
    alone = _unmerged(monkeypatch, tran, circuit)
    assert merged.stats["unknowns"] < alone.stats["unknowns"]
    _same_run(merged, alone)


def test_bank_unknowns():
    # fig2's neuron: five nodes, two voltage sources, Q0 and the bank
    assert engine._System([_circ(BANK_OF_TEN)]).N == 9


@pytest.mark.parametrize("text", [
    # anti-parallel: the same terminals in the other order
    """t
Vb n1 0 dc 0.49m
R1 n1 n2 1k
qpsj Q1 n2 n3 vc=0.7m rn=10k ls=0.1n
qpsj Q2 n3 n2 vc=0.7m rn=10k ls=0.1n
R2 n3 0 1k
.tran 1p 20p
.end
""",
    # one member's preset charge differs
    """t
Vb n1 0 dc 0.49m
R1 n1 n2 1k
qpsj Q1 n2 0 vc=0.7m rn=10k ls=0.1n
qpsj Q2 n2 0 vc=0.7m rn=10k ls=0.1n q0=5e-20
.tran 1p 20p
.end
""",
], ids=["anti-parallel", "q0"])
def test_junctions_that_are_no_bank_stay_apart(monkeypatch, text):
    circuit = _circ(text)
    assert engine._System([circuit]).N == _unmerged(
        monkeypatch, engine._System, [circuit]).N
    waves, alone = tran(circuit), _unmerged(monkeypatch, tran, circuit)
    assert waves.stats == alone.stats
    for name, values in alone.channels.items():
        np.testing.assert_array_equal(waves.channels[name], values)


def test_a_variant_that_splits_a_bank_keeps_it_apart_in_every_variant(
        monkeypatch):
    # variant 1 gives Q7 of the 10-bank another Vc: Q7 stands alone in
    # both variants, and the other nine stay a bank
    circuits = [_circ(BANK_OF_TEN), _circ(BANK_OF_TEN.replace(
        "Q7 n1 n2 vc=0.0007", "Q7 n1 n2 vc=0.00071"))]
    assert circuits[0] != circuits[1]
    sizes = [engine._System(c).N for c in (circuits[:1], circuits)]
    assert sizes == [9, 10]
    batch = tran_batch(circuits)
    alone = _unmerged(monkeypatch, tran_batch, circuits)
    for waves, own in zip(batch, alone):
        _same_run(waves, own)
    assert not np.array_equal(batch[1].channel("i(q7)"),
                              batch[1].channel("i(q1)"))


def test_every_member_of_a_bank_is_probed_and_reported():
    circuit = _circ(BANK_OF_TEN)
    waves = tran(circuit)
    members = [f"q{k}" for k in range(1, 11)]
    for name in members:
        np.testing.assert_array_equal(waves.channel(f"i({name})"),
                                      waves.channel("i(q1)"))
    op = dc_operating_point(circuit)
    names = [d.name for d in circuit.devices]
    assert list(op.branch_currents) == names
    assert list(op.junction_states) == ["q0"] + members
    assert len({op.junction_states[name] for name in members}) == 1


def test_a_clamped_bank_warns_for_every_member():
    # 1 mV across a 0.7 mV bank of three lies outside its blockade
    circuit = _circ("""t
Vb n1 0 dc 1m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n
qpsj Q2 n1 0 vc=0.7m rn=10k ls=0.1n
qpsj Q3 n1 0 vc=0.7m rn=10k ls=0.1n
.tran 1p 10p
.end
""")
    assert engine._System([circuit]).N == 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dc_operating_point(circuit)
    assert [str(w.message).split(":")[0] for w in caught] == ["q1", "q2", "q3"]
