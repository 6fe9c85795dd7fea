"""Transient simulator and neuromorphic circuit templates for QPSJ circuits."""

from .netlist import (Circuit, DeviceKind, NetlistAst, NetlistError,
                      elaborate, parse_netlist, parse_value, serialize_circuit)
from .devices import damping_parameter
from .engine import (ConvergenceError, EngineError, WaveformSet,
                     dc_operating_point, tran, tran_batch)

__all__ = [
    "Circuit", "DeviceKind", "NetlistAst", "NetlistError",
    "elaborate", "parse_netlist", "parse_value", "serialize_circuit",
    "damping_parameter",
    "ConvergenceError", "EngineError", "WaveformSet",
    "dc_operating_point", "tran", "tran_batch",
]

__version__ = "0.1.0"
