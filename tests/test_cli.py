"""Command line interface: exit codes, outputs, manifest, determinism."""

import csv
import json
import tracemalloc
from pathlib import Path

import pytest

from qpsjsim.cli import EXIT_CONVERGENCE, EXIT_INPUT, EXIT_OK, OUT_DIR_ENV, main
from qpsjsim.engine import EngineError
from qpsjsim.netlist import PulseSpec
from qpsjsim.templates import SynapseBinaryParams, binary_synapse_netlist
from qpsjsim.units import TWO_E

RC_NETLIST = """rc demo
Iin 0 n1 pulse(0 1u 5p 0.1p 0.1p 1000p 2000p)
R1 n1 0 1k
C1 n1 0 1f
.tran 0.1p 20p
.save v(n1) i(c1)
.end
"""

QPSJ_NETLIST = """bloch demo
Vb n1 0 dc 1.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0
.tran 0.01p 20p
.end
"""


def _write(tmp_path, text, name="circuit.cir"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_sim_writes_outputs_and_manifest(tmp_path, capsys):
    net = _write(tmp_path, RC_NETLIST)
    out = tmp_path / "out"
    assert main(["sim", str(net), "--out", str(out)]) == EXIT_OK
    assert (out / "waveforms.csv").exists()
    assert (out / "spikes.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sim"
    assert manifest["deterministic"] is True
    assert sorted(manifest["outputs"]) == ["spikes.csv", "waveforms.csv"]
    assert manifest["solver"] == {
        "reltol": 0.001, "abstol_v": 1e-06, "abstol_i": 1e-06,
        "max_newton_iters": 50, "gmin": 1e-09, "method": "trapezoidal",
        "max_halvings": 8, "max_angle_step": 1.5, "lte_fraction": 0.005,
        "ladder_ratio": 2 ** 0.25, "jacobian_refresh_iter": 3,
        "schulz_gate": 0.5, "schulz_steps": 2}
    stats = manifest["stats"]
    assert sorted(stats) == ["accepted_steps", "jacobian_factorizations",
                             "jacobian_refinements", "lte_rejections",
                             "newton_halvings", "newton_iterations",
                             "unknowns", "variants"]
    samples = len((out / "waveforms.csv").read_text().splitlines()) - 1
    assert 0 < stats["accepted_steps"] < samples
    assert "wrote" in capsys.readouterr().out


def test_sim_outputs_are_byte_identical_across_runs(tmp_path):
    net = _write(tmp_path, QPSJ_NETLIST)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["sim", str(net), "--out", str(d1)]) == EXIT_OK
    assert main(["sim", str(net), "--out", str(d2)]) == EXIT_OK
    for name in ("waveforms.csv", "spikes.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    # the junction run produced detected pulses with charge near 2e
    rows = list(csv.DictReader((d1 / "spikes.csv").open()))
    assert rows and all(r["channel"] == "i(q1)" for r in rows)


def test_sim_missing_file_is_input_error(tmp_path, capsys):
    assert main(["sim", str(tmp_path / "nope.cir")]) == EXIT_INPUT
    assert "error" in capsys.readouterr().err


def test_sim_malformed_netlist_is_input_error(tmp_path, capsys):
    net = _write(tmp_path, "t\nR1 n1 0 garbage\n.tran 1p 10p\n.end\n")
    assert main(["sim", str(net), "--out", str(tmp_path)]) == EXIT_INPUT
    assert "malformed value" in capsys.readouterr().err


def test_sim_missing_tran_is_input_error(tmp_path, capsys):
    net = _write(tmp_path, "t\nVs n1 0 dc 1m\nR1 n1 0 1k\n.end\n")
    assert main(["sim", str(net), "--out", str(tmp_path)]) == EXIT_INPUT
    assert ".tran" in capsys.readouterr().err


def test_out_dir_env_variable(tmp_path, monkeypatch):
    net = _write(tmp_path, RC_NETLIST)
    out = tmp_path / "envout"
    monkeypatch.setenv(OUT_DIR_ENV, str(out))
    assert main(["sim", str(net)]) == EXIT_OK
    assert (out / "manifest.json").exists()


def test_figure_unknown_id_is_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["figure", "fig99", "--out", str(out)]) == EXIT_INPUT
    assert "unknown figure id" in capsys.readouterr().err
    assert not out.exists()


def test_figure_spikes_measure_biased_channels_from_rest(tmp_path):
    # the MJJ carries a 140 uA bias: its pulses sit on top of it, one per
    # input, not one whole-run event measured from zero
    out = tmp_path / "fig4a"
    assert main(["figure", "fig4a", "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "spikes.csv").open()))
    inputs = [52.0 + 100.0 * k for k in range(10)]
    j1 = [r for r in rows if r["channel"] == "i(j1)"]
    assert [float(r["t_peak_ps"]) for r in j1] == pytest.approx(inputs,
                                                                abs=0.1)
    assert all(float(r["width_ps"]) < 5.0 for r in j1)
    q1 = [r for r in rows if r["channel"] == "i(q1)"]
    assert [float(r["t_peak_ps"]) for r in q1] == pytest.approx(
        [t + 0.9 for t in inputs], abs=1e-6)
    assert [float(r["charge_ac"]) / TWO_E for r in q1] == pytest.approx(
        [1.015] * 10, abs=1e-3)
    assert len(rows) == 20


def test_sweep_damping_is_linear_in_inductance(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "damping", "l", "1e-12,2e-12,4e-12",
                 "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "sweep.csv").open()))
    assert [r["status"] for r in rows] == ["ok"] * 3
    betas = [float(r["beta_l"]) for r in rows]
    assert betas[1] == pytest.approx(2.0 * betas[0], rel=1e-9)
    assert betas[2] == pytest.approx(4.0 * betas[0], rel=1e-9)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"


def test_sweep_points_with_impossible_values_fail(tmp_path):
    # no circuit has a non-finite or non-positive Ic, or a non-finite or
    # negative inductance: each such point fails in its own row
    out = tmp_path / "synapse"
    assert main(["sweep", "synapse", "ic", "nan,inf,0,-2e-4",
                 "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "sweep.csv").open()))
    assert [r["value"] for r in rows] == ["nan", "inf", "0", "-2e-4"]
    assert all(r["status"].startswith("failed: ic must be") for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stats"] == [{}] * 4
    out = tmp_path / "damping"
    assert main(["sweep", "damping", "l", "nan,inf,-1e-12,1e-12",
                 "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "sweep.csv").open()))
    assert [r["status"].split(":")[0] for r in rows] == ["failed"] * 3 + ["ok"]
    assert rows[3]["beta_l"] and not rows[2]["beta_l"]


def test_sweep_batches_points_of_one_topology(tmp_path):
    # both Ic states are one circuit with another MJJ state: one batch,
    # whose rows equal those of each point swept alone
    out = tmp_path / "both"
    assert main(["sweep", "synapse", "ic", "200e-6,300e-6",
                 "--out", str(out)]) == EXIT_OK
    both = (out / "sweep.csv").read_text().splitlines()
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    assert [s["variants"] for s in stats] == [2, 2]
    assert [r["output_pulses"] for r in csv.DictReader(both)] == ["10", "0"]
    for value, row in zip(["200e-6", "300e-6"], both[1:]):
        alone = tmp_path / value
        assert main(["sweep", "synapse", "ic", value,
                     "--out", str(alone)]) == EXIT_OK
        assert (alone / "sweep.csv").read_text().splitlines() == [both[0], row]
        stats = json.loads((alone / "manifest.json").read_text())["stats"]
        assert stats[0]["variants"] == 1


def test_sweep_unknown_combination_is_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "neuron", "bogus", "1,2",
                 "--out", str(out)]) == EXIT_INPUT
    assert "no sweep" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empty_values_is_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "damping", "l", ",", "--out", str(out)]) \
        == EXIT_INPUT
    assert "empty value list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--tstep", "0"], ["--tstep", "-1"],
                                   ["--tstep", "1", "--tstop", "1"],
                                   ["--tstop", "inf"],
                                   ["--tstep", "1e-300", "--tstop", "1e10"],
                                   ["--tstep", "1e-6", "--tstop", "1e300"]])
def test_sim_bad_time_grid_is_input_error(tmp_path, capsys, flags):
    net = _write(tmp_path, RC_NETLIST)
    out = tmp_path / "out"
    assert main(["sim", str(net), "--out", str(out), *flags]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,out,named", [
    (["sim", "{tmp}/bad.cir"], "{tmp}/out", "{tmp}/bad.cir"),
    (["figure", "fig4a"], "{tmp}/file", "{tmp}/file"),
    (["sweep", "damping", "l", "1e-12"], "{tmp}/file/x", "{tmp}/file"),
    (["sim", "{tmp}/good.cir"], "{tmp}/file", "{tmp}/file"),
    (["sweep", "synapse", "ic", "200e-6"], "{tmp}/file/x", "{tmp}/file"),
    (["sim", "{tmp}/good.cir"], "{tmp}/link/x", "{tmp}/link"),
], ids=["netlist_not_utf8", "out_is_a_file", "out_under_a_file",
        "sim_out_is_a_file", "sweep_out_under_a_file",
        "sim_out_under_a_dangling_link"])
def test_undecodable_netlist_or_uncreatable_out_is_input_error(
        tmp_path, capsys, monkeypatch, argv, out, named):
    # refused before anything is simulated
    def no_run(*args, **kwargs):
        pytest.fail("simulated before the input error was found")

    monkeypatch.setattr("qpsjsim.cli.tran", no_run)
    monkeypatch.setattr("qpsjsim.cli.tran_batch", no_run)
    (tmp_path / "bad.cir").write_bytes(b"\xff")
    _write(tmp_path, QPSJ_NETLIST, "good.cir")
    (tmp_path / "file").write_text("not a directory")
    (tmp_path / "link").symlink_to(tmp_path / "nowhere")
    argv = [a.format(tmp=tmp_path) for a in argv]
    out = Path(out.format(tmp=tmp_path))
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named.format(tmp=tmp_path) in err
    assert not out.is_dir()


def test_sim_output_too_large_is_input_error(tmp_path, capsys):
    # fig4a's netlist on 1e9 grid points of three channels: refused before
    # anything is allocated for them
    net = tmp_path / "fig4a.cir"
    net.write_text(binary_synapse_netlist(SynapseBinaryParams(state=0)))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["sim", str(net), "--out", str(out),
                     "--tstep", "1e-3", "--tstop", "1e6"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INPUT
    assert "cannot hold 3e+09 output values" in capsys.readouterr().err
    assert peak < 10e6  # bytes
    assert not out.exists()


@pytest.mark.parametrize("tran_line,flags", [(".tran 0.01p 5p 20p", []),
                                             (".tran 0.01p 20p 5p",
                                              ["--tstop", "2"])])
def test_sim_tstart_after_tstop_is_input_error(tmp_path, capsys, tran_line,
                                               flags):
    net = _write(tmp_path, QPSJ_NETLIST.replace(".tran 0.01p 20p", tran_line))
    assert main(["sim", str(net), "--out", str(tmp_path), *flags]) \
        == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tstart" in err


def test_sim_tstart_past_the_last_grid_point_writes_empty_outputs(tmp_path):
    net = _write(tmp_path, "t\nVs n1 0 dc 1m\nR1 n1 n2 1k\nC1 n2 0 1f\n"
                           ".tran 0.3p 1p 1p\n.end\n")
    out = tmp_path / "out"
    assert main(["sim", str(net), "--out", str(out)]) == EXIT_OK
    assert (out / "waveforms.csv").read_text() == "time_ps,v(n1),v(n2)\n"
    assert (out / "manifest.json").exists()


def test_sim_junction_run_with_no_sample_writes_empty_spikes(tmp_path):
    # a current channel with no sample has no pulse to detect
    net = _write(tmp_path, "t\nVs n1 0 dc 0.5m\nR1 n1 n2 1k\n"
                           "qpsj Q1 n2 0 vc=0.7m rn=10k ls=0.1n\n"
                           ".tran 0.3p 1p 1p\n.end\n")
    out = tmp_path / "out"
    assert main(["sim", str(net), "--out", str(out)]) == EXIT_OK
    assert (out / "waveforms.csv").read_text() == \
        "time_ps,v(n1),v(n2),i(q1)\n"
    assert (out / "spikes.csv").read_text() == \
        "channel,t_peak_ps,charge_ac,width_ps\n"
    assert (out / "manifest.json").exists()


def test_sim_pulse_delayed_by_minus_one_second_runs(tmp_path, monkeypatch):
    # td = -1 s is 1e12 periods of 1 ps before t = 0; the run builds the
    # corners of the periods it simulates only
    corners, counts = PulseSpec.corners, []

    def counted(pulse, tstop):
        out = corners(pulse, tstop)
        counts.append(len(out))
        return out

    monkeypatch.setattr(PulseSpec, "corners", counted)
    net = _write(tmp_path, "t\nVs n1 0 pulse(0 1m -1 0.1p 0.1p 0.3p 1p)\n"
                           "R1 n1 0 1k\n.tran 0.1p 20p\n.end\n")
    assert main(["sim", str(net), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert counts and max(counts) <= 88


def test_sim_dc_failure_is_convergence_error(tmp_path, capsys):
    net = _write(tmp_path, "t\nV1 n1 0 dc 1m\nV2 n1 0 dc 2m\nR1 n1 0 1k\n"
                           ".tran 1p 10p\n.end\n")
    assert main(["sim", str(net), "--out", str(tmp_path)]) == EXIT_CONVERGENCE
    assert "device 'v2'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["sim", "NETLIST"], ["figure", "fig4a"]])
def test_engine_error_is_exit_3(tmp_path, capsys, monkeypatch, argv):
    def failing_tran(*args, **kwargs):
        raise EngineError("non-finite device state after timestep")

    monkeypatch.setattr("qpsjsim.cli.tran", failing_tran)
    net = _write(tmp_path, RC_NETLIST)
    argv = [str(net) if a == "NETLIST" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONVERGENCE
    assert capsys.readouterr().err == \
        "error: non-finite device state after timestep\n"
