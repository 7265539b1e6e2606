"""Command-line behaviour: verbs, overrides, exit codes."""

import json
import math

import numpy as np
import pytest

from pmsmlab.cli import SWEEP_COLUMNS, main
from pmsmlab.observability import hfi_det_y1
from pmsmlab.report import read_csv
from pmsmlab.simulation import MachineKind, table_params

SPMSM_MACHINE = {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2, "J": 0.02}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_config(tmp_path, **extra):
    doc = {
        "machine": dict(SPMSM_MACHINE),
        "scenario": {"t_end": 0.02, "injection": {"kind": "none"}},
        "output": {"dir": str(tmp_path)},
    }
    for key, val in extra.items():
        if key in doc and isinstance(val, dict):
            doc[key].update(val)
        else:
            doc[key] = val
    return write_config(tmp_path, doc)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_success(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert main(["simulate", "-c", cfg]) == 0
    out = capsys.readouterr().out
    assert f"wrote 200 rows to {tmp_path}" in out
    assert "standstill" in out  # summary table
    data = read_csv(tmp_path / "trajectory.csv")
    assert data["t"].shape == (200,)
    assert np.all(np.isfinite(data["omega_hat"]))


def test_simulate_seed_override_reproducible(tmp_path, capsys):
    cfg = tiny_config(tmp_path, scenario={"noise_std": 0.01})
    main(["simulate", "-c", cfg, "--seed", "7", "--csv", "a.csv"])
    main(["simulate", "-c", cfg, "--seed", "7", "--csv", "b.csv"])
    main(["simulate", "-c", cfg, "--seed", "8", "--csv", "c.csv"])
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a != (tmp_path / "c.csv").read_bytes()


def test_simulate_numerical_abort(tmp_path, capsys):
    cfg = tiny_config(tmp_path, scenario={"profile": [[0.0, 1.0e9]], "t_end": 0.01})
    assert main(["simulate", "-c", cfg]) == 2
    captured = capsys.readouterr()
    assert "numerical abort at t=" in captured.err
    assert "partial log written" in captured.err
    data = read_csv(tmp_path / "trajectory.csv")
    assert 0 < data["t"].shape[0] < 100


def test_simulate_io_failure(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("")
    cfg = tiny_config(tmp_path, output={"dir": str(blocker)})
    assert main(["simulate", "-c", cfg]) == 3
    assert "i/o failure:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_trajectory_has_no_estimates(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert main(["analyze", "-c", cfg]) == 0
    data = read_csv(tmp_path / "trajectory.csv")
    assert np.all(np.isnan(data["omega_hat"]))
    assert np.all(np.isnan(data["theta_err"]))
    assert np.all(np.isfinite(data["det_y1"]))


def test_analyze_fixed_states_table(tmp_path, capsys):
    cfg = tiny_config(
        tmp_path,
        analyze={
            "states": [
                {"i_d": 1.0, "i_q": 2.0, "omega": 0.0},
                {"i_d": 1.0, "i_q": 2.0, "omega": 30.0},
            ]
        },
    )
    assert main(["analyze", "-c", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("i_d")
    assert "rank" in out[0]
    # standstill non-salient point is rank deficient, the moving one is not
    first, second = out[1].split(), out[2].split()
    assert first[4] == "3"
    assert second[4] == "4"
    assert not (tmp_path / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_grid_csv(tmp_path, capsys):
    cfg = tiny_config(
        tmp_path,
        scenario={
            "t_end": 0.02,
            "profile": [[0.0, 20.0]],
            "injection": {
                "kind": "voltage_on_dhat",
                "amplitude": 2.0,
                "frequency": 500.0,
                "window": [0.005, 0.015],
            },
        },
        sweep={"parameter": "injection.amplitude", "values": [0.0, 1.0]},
    )
    assert main(["sweep", "-c", cfg]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "# sweep parameter: injection.amplitude"
    assert lines[1] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 4
    params = table_params(MachineKind.SPMSM)
    for line, amplitude in zip(lines[2:], (0.0, 1.0)):
        fields = [float(v) for v in line.split(",")]
        assert fields[0] == amplitude
        # carrier-peak determinant column reproduces the closed form
        expect = hfi_det_y1(20.0, -math.pi / 4.0, 0.0, amplitude, 500.0, params)
        assert fields[-1] == expect
    assert "wrote 2 sweep rows" in capsys.readouterr().out


def test_sweep_hfi_column_nan_for_current_injection(tmp_path, capsys):
    cfg = tiny_config(
        tmp_path,
        scenario={
            "injection": {
                "kind": "current_on_q",
                "amplitude": 0.5,
                "frequency": 500.0,
                "window": [0.005, 0.015],
            }
        },
        sweep={"parameter": "injection.amplitude", "values": [0.5]},
    )
    assert main(["sweep", "-c", cfg]) == 0
    last = (tmp_path / "sweep.csv").read_text().splitlines()[-1]
    assert math.isnan(float(last.split(",")[-1]))


def test_sweep_invalid_point_is_config_error(tmp_path, capsys):
    cfg = tiny_config(tmp_path, sweep={"parameter": "noise_std", "values": [-1.0]})
    assert main(["sweep", "-c", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: sweep: invalid point noise_std=-1.0: ")
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_requires_sweep_block(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert main(["sweep", "-c", cfg]) == 1
    assert "no sweep block" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration inspection and failure modes
# ---------------------------------------------------------------------------


def test_print_config_without_verb(capsys):
    assert main(["--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"]["t_end"] == 1.0
    assert doc["machine"]["psi_r"] == 0.0225


def test_print_config_on_verb_skips_run(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert main(["simulate", "-c", cfg, "--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"]["t_end"] == 0.02
    assert not (tmp_path / "trajectory.csv").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "-c", str(tmp_path / "nope.json")]) == 1
    assert "config error: cannot read config" in capsys.readouterr().err


def test_invalid_json_reports_each_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "machine": dict(SPMSM_MACHINE, R=-1.0),
            "scenario": {"t_end": -1.0},
        },
    )
    assert main(["simulate", "-c", cfg]) == 1
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l]
    assert len(err_lines) == 2
    assert all(l.startswith("config error: ") for l in err_lines)


@pytest.mark.parametrize("how", ["config", "flag"])
def test_negative_seed_is_config_error(tmp_path, capsys, how):
    if how == "config":
        argv = ["simulate", "-c", tiny_config(tmp_path, scenario={"seed": -1})]
    else:
        argv = ["simulate", "-c", tiny_config(tmp_path), "--seed", "-5"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "config error: scenario.seed: must be >= 0\n"
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("verb", ["simulate", "sweep"])
def test_run_shorter_than_one_sample_is_config_error(tmp_path, capsys, verb):
    cfg = tiny_config(
        tmp_path, scenario={"t_end": 4e-5},
        sweep={"parameter": "injection.amplitude", "values": [0.0]},
    )
    assert main([verb, "-c", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: scenario.t_end: must span at least one sample")
    assert not list(tmp_path.glob("*.csv"))


def test_no_verb_prints_usage(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_unknown_flag_exits_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frobnicate"])
    assert exc.value.code == 1


def _run_cli(argv):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    import os
    import subprocess
    import sys

    import pmsmlab

    src = os.path.dirname(os.path.dirname(pmsmlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pmsmlab.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "verb, block, override, code, message",
    [
        ("simulate", "scenario", {"t_end": 1e300, "T_s": 1e-300}, 1, "config error: scenario: t_end / T_s"),
        ("simulate", "machine", {"L0": None, "L2": None, "Ld": 1e-300, "Lq": 1e-300}, 1,
         "config error: machine: Ld*Lq"),
        ("analyze", "machine", {"p": 10**320}, 1, "config error: machine: p must not exceed"),
        ("simulate", "scenario", {"profile": [[0.0, 1e200]], "t_end": 0.001}, 2, "numerical abort: non-finite"),
        ("analyze", "scenario", {"profile": [[0.0, 1e200]], "t_end": 0.001}, 2, "numerical abort: non-finite"),
        ("simulate", "estimator", {"q_diag": [1e308] * 4}, 2, "non-finite covariance propagation"),
    ],
)
def test_extreme_inputs_fail_without_traceback(tmp_path, verb, block, override, code, message):
    doc = {
        "machine": dict(SPMSM_MACHINE),
        "scenario": {"t_end": 0.02, "injection": {"kind": "none"}},
        "output": {"dir": str(tmp_path)},
    }
    doc.setdefault(block, {}).update(override)
    doc[block] = {k: v for k, v in doc[block].items() if v is not None}
    rc, err = _run_cli([verb, "-c", write_config(tmp_path, doc)])
    assert rc == code, err
    assert message in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
