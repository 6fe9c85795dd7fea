"""Circuit builders: parameter validation, netlist structure, round trips."""

import pytest

from qpsjsim.netlist import DeviceKind, elaborate, parse_netlist, \
    serialize_circuit
from qpsjsim.templates import (NetworkSpec, NeuronParams, SynapseBinaryParams,
                               SynapseMultiParams, binary_synapse_netlist,
                               multistate_synapse_netlist, network_netlist,
                               neuron_netlist)
from qpsjsim.units import TWO_E_SI


def _kinds(ast):
    out = {}
    for c in ast.cards:
        out.setdefault(c.kind, []).append(c)
    return out


# --- neuron -----------------------------------------------------------------

def test_neuron_defaults():
    p = NeuronParams()
    assert p.v_rest == pytest.approx(0.3e-3)
    assert 5e-15 < p.c_store_effective < 8e-15
    # the capacitor must hold fewer than N naive quanta (undersized) but
    # clearly more than half of them
    naive = p.n_threshold * TWO_E_SI / (p.vc - p.v_rest)
    assert 0.5 * naive < p.c_store_effective < naive


def test_neuron_c_store_override():
    p = NeuronParams(c_store=4e-15)
    assert p.c_store_effective == 4e-15


def test_neuron_param_validation():
    with pytest.raises(ValueError):
        NeuronParams(n_threshold=0)
    with pytest.raises(ValueError):
        NeuronParams(vb=0.5e-3)  # rest level below zero
    with pytest.raises(ValueError):
        NeuronParams(vb=1.5e-3)  # rest level outside the blockade window
    with pytest.raises(ValueError):
        NeuronParams(vc=-0.7e-3)


def test_neuron_netlist_structure():
    p = NeuronParams(n_threshold=7)
    ast = parse_netlist(neuron_netlist(p))
    kinds = _kinds(ast)
    assert len(kinds[DeviceKind.QPSJ]) == 8  # input junction + 7 parallel
    assert len(kinds[DeviceKind.CAPACITOR]) == 2  # storage + bypass
    assert len(kinds[DeviceKind.VSOURCE]) == 2  # bias + input pulses
    assert len(ast.tran()) == 1
    circuit = elaborate(ast)
    assert circuit.tstop == pytest.approx(p.tstop * 1e12)


def test_neuron_netlist_round_trips_through_serializer():
    circuit = elaborate(parse_netlist(neuron_netlist(NeuronParams())))
    circuit2 = elaborate(parse_netlist(serialize_circuit(circuit)))
    assert len(circuit2.devices) == len(circuit.devices)
    assert circuit2.node_names == circuit.node_names


# --- binary synapse ---------------------------------------------------------

def test_binary_synapse_validation():
    with pytest.raises(ValueError):
        SynapseBinaryParams(state=2)
    with pytest.raises(ValueError):
        SynapseBinaryParams(ic_states=(300e-6, 200e-6))
    with pytest.raises(ValueError):
        SynapseBinaryParams(ic_states=(200e-6,))


def test_binary_synapse_netlist_structure():
    for state in (0, 1):
        p = SynapseBinaryParams(state=state)
        ast = parse_netlist(binary_synapse_netlist(p))
        kinds = _kinds(ast)
        mjj = kinds[DeviceKind.MJJ][0]
        assert mjj.params["state"] == state
        assert mjj.params["states"] == pytest.approx([200e-6, 300e-6])
        assert len(kinds[DeviceKind.QPSJ]) == 1
        elaborate(ast)  # must be simulatable


# --- multi-state synapse ----------------------------------------------------

def test_multistate_synapse_validation():
    with pytest.raises(ValueError):
        SynapseMultiParams(state=4)
    with pytest.raises(ValueError):
        SynapseMultiParams(ic_j2_states=(50e-6, 10e-6, 350e-6, 400e-6))


def test_multistate_synapse_netlist_structure():
    p = SynapseMultiParams(state=2)
    ast = parse_netlist(multistate_synapse_netlist(p))
    kinds = _kinds(ast)
    assert len(kinds[DeviceKind.JJ]) == 1  # input pump junction
    mjj = kinds[DeviceKind.MJJ][0]
    assert mjj.params["state"] == 2
    assert len(mjj.params["states"]) == 4
    assert len(kinds[DeviceKind.QPSJ]) == 1
    elaborate(ast)


# --- network ----------------------------------------------------------------

def test_network_spec_validation():
    ok = NetworkSpec(weights=((1, 0), (0, 1)), input_periods=(60e-12, 90e-12))
    assert ok.n_inputs == 2 and ok.n_outputs == 2
    with pytest.raises(ValueError):
        NetworkSpec(weights=(), input_periods=())
    with pytest.raises(ValueError):
        NetworkSpec(weights=((1, 0), (1,)), input_periods=(60e-12, 90e-12))
    with pytest.raises(ValueError):
        NetworkSpec(weights=((1, 2),), input_periods=(60e-12, 90e-12))
    with pytest.raises(ValueError):
        NetworkSpec(weights=((1, 0),), input_periods=(60e-12,))


def test_network_netlist_structure():
    spec = NetworkSpec(weights=((1, 1, 1), (0, 1, 1)),
                       input_periods=(60e-12, 90e-12, 120e-12))
    ast = parse_netlist(network_netlist(spec))
    kinds = _kinds(ast)
    n_in, n_out = spec.n_inputs, spec.n_outputs
    n_thresh = spec.neuron.n_threshold
    # one mjj per synapse; weight 1 selects the low-Ic state (index 0)
    mjjs = {c.name: c for c in kinds[DeviceKind.MJJ]}
    assert len(mjjs) == n_in * n_out
    for y, row in enumerate(spec.weights):
        for x, w in enumerate(row):
            assert mjjs[f"j1x{x}_{y}"].params["state"] == (0 if w else 1)
    # synapse output junctions plus per-neuron input and bank junctions
    assert len(kinds[DeviceKind.QPSJ]) == n_in * n_out + n_out * (1 + n_thresh)
    # per input: one pulse source; plus the bias and level-shift sources
    assert len(kinds[DeviceKind.VSOURCE]) == n_in + n_out + 1
    elaborate(ast)


def test_network_of_twelve_by_twelve_elaborates():
    # synapse tags join input and output with "_": input 11 to output 0
    # and input 1 to output 10 no longer share the tag "110"
    spec = NetworkSpec(weights=[[1] * 12] * 12,
                       input_periods=[60e-12] * 12)
    names = [d.name for d in elaborate(parse_netlist(
        network_netlist(spec))).devices]
    assert len(names) == len(set(names))
    assert {"r1x11_0", "r1x1_10"} <= set(names)


def test_network_input_pulse_timing():
    spec = NetworkSpec(weights=((1, 1),), input_periods=(60e-12, 90e-12))
    ast = parse_netlist(network_netlist(spec))
    pulses = [c.params["pulse"] for c in ast.cards
              if c.kind == DeviceKind.VSOURCE and "pulse" in c.params]
    assert [p.per for p in pulses] == pytest.approx([60e-12, 90e-12])
    # staggered delays avoid coincident arrivals
    assert pulses[1].td - pulses[0].td == pytest.approx(spec.delay_stagger)
