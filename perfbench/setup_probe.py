"""Set-up of one fresh process: prints its start and end, in seconds.

Times the import of qpsjsim and of the modules the workload reaches, plus
building, parsing, elaborating and DC-solving its circuits: everything a
user waits for before the first transient step.  Both times are read from
time.perf_counter(), the system's monotonic clock, so that the caller can
take out the pauses it made meanwhile (speed.py).

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import importlib
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports qpsjsim and numpy)
from qpsjsim import engine, netlist  # noqa: E402

work = workloads.WORKLOADS[sys.argv[1]]
for layer in work.layers:
    importlib.import_module(f"qpsjsim.{layer}")
for text in work.netlists(work.scenario(int(sys.argv[2]))):
    engine.dc_operating_point(netlist.elaborate(netlist.parse_netlist(text)))
print(t0, time.perf_counter())
