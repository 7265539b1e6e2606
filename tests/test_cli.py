"""Command-line behaviour: verbs, overrides, exit codes."""

import contextlib
import io
import json
import math
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmsmlab.cli import SWEEP_COLUMNS, main
from pmsmlab.observability import hfi_det_y1
from pmsmlab.report import read_csv
from pmsmlab.simulation import MachineKind, Scenario, table_params

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


@pytest.mark.parametrize("verb", ["simulate", "analyze", "sweep"])
def test_derive_pass_abort_writes_the_finished_samples(tmp_path, capsys, verb):
    # the loop stops itself at t = 0.0022, and the order-1 matrix at t = 0.0021 is not finite:
    # the 21 samples before it are written, and a sweep stops there as at a loop abort
    scenario = {"profile": [[0, 0], [0.002, 0], [0.0021, 1e304]], "t_end": 0.0137}
    cfg = tiny_config(tmp_path, scenario=scenario, sweep={"parameter": "noise_std", "values": [0.0, 0.01]})
    assert main([verb, "-c", cfg]) == 2
    err = capsys.readouterr().err
    assert "numerical abort at t=0.0021 s" in err and "non-finite order-1 observability matrix at t=0.0021" in err
    if verb == "sweep":
        assert "(noise_std=0.0)" in err
        assert (tmp_path / "sweep.csv").read_text().count("\n") == 2
    else:
        assert "partial log written" in err
        assert read_csv(tmp_path / "trajectory.csv")["t"].shape == (21,)


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


SWEEP_POINTS = {
    "injection.amplitude": [0.0, 2.0, 4.0],
    "injection.frequency": [2000.0, 3000.0],
    "noise_std": [0.0, 0.05],
    "theta_hat_err0": [-0.5, 0.5],
}


@pytest.mark.parametrize("parameter", list(SWEEP_POINTS))
def test_sweep_points_equal_standalone_runs(tmp_path, parameter):
    import pmsmlab.cli as cli
    from pmsmlab.config import SWEEPABLE, parse_config
    from pmsmlab.simulation import run_scenario

    assert set(SWEEPABLE) == set(SWEEP_POINTS)
    cfg = parse_config(open(tiny_config(
        tmp_path,
        scenario={
            "t_end": 0.03,
            "profile": [[0.0, 0.0], [0.02, 0.0], [0.03, 30.0]],
            "injection": {"kind": "voltage_on_dhat", "amplitude": 2.0, "frequency": 3000.0, "window": [0.005, 0.025]},
        },
        sweep={"parameter": parameter, "values": SWEEP_POINTS[parameter]},
    )).read())
    points = list(cli.run_sweep(cfg))
    assert len(points) == len(SWEEP_POINTS[parameter])
    for _, scn, log in points:
        alone = run_scenario(scn)
        assert not log.aborted
        for name, value in vars(log).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, getattr(alone, name), equal_nan=True), name
            else:
                assert value == getattr(alone, name), name


def test_run_memory_is_bounded_in_its_length(tmp_path):
    # a run is derived and written a chunk at a time and keeps only the columns its summary reads, so a run
    # twice as long peaks at most 100 B a sample higher (the whole-run derive pass held ~0.6 KB a sample)
    import tracemalloc

    doc = json.loads((pathlib.Path(__file__).resolve().parent.parent / "configs" / "standstill_spmsm.json").read_text())
    peaks = {}
    for t_end, traced in ((1.0, False), (1.0, True), (2.0, True)):  # the first run makes numpy's first-call allocations
        doc["scenario"]["t_end"] = t_end
        cfg = write_config(tmp_path, doc)
        if traced:
            tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["analyze", "-c", cfg, "-o", str(tmp_path)]) == 0
            peaks[t_end] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2.0] - peaks[1.0] <= 100 * 10_000, (peaks[2.0] - peaks[1.0]) / 10_000


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


def test_sweep_grid_is_checked_before_any_point_runs(tmp_path, capsys, monkeypatch):
    # a bad later point fails the whole config: no point runs, no file is written, and
    # --print-config does not render it as a valid input
    import pmsmlab.cli as cli

    runs = []
    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kw: runs.append(args))
    cfg = tiny_config(tmp_path, sweep={"parameter": "noise_std", "values": [0.0, -1.0]})
    for extra in ([], ["--print-config"]):
        assert main(["sweep", "-c", cfg, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: sweep: invalid point noise_std=-1.0: noise_std: must be >= 0\n"
    assert runs == []
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_abort_keeps_the_finished_rows(tmp_path, capsys):
    # the point that aborts ends the sweep; the rows of the points before it are still written
    for sub, values in (("full", [0.0]), ("aborted", [0.0, 1e300])):
        out = tmp_path / sub
        cfg = tiny_config(tmp_path, scenario={"t_end": 0.001}, sweep={"parameter": "noise_std", "values": values},
                          output={"dir": str(out)})
        assert main(["sweep", "-c", cfg]) == (0 if sub == "full" else 2)
    err = capsys.readouterr().err
    assert "numerical abort at t=" in err and "(noise_std=1e+300)" in err
    assert (tmp_path / "aborted" / "sweep.csv").read_bytes() == (tmp_path / "full" / "sweep.csv").read_bytes()


def test_sweep_abort_at_first_point_writes_the_header(tmp_path, capsys):
    # no point finishes, so the sweep writes no rows: only the comment and the header
    cfg = tiny_config(tmp_path, scenario={"t_end": 0.001}, sweep={"parameter": "noise_std", "values": [1e300, 0.0]})
    assert main(["sweep", "-c", cfg]) == 2
    assert "numerical abort at t=" in capsys.readouterr().err
    assert (tmp_path / "sweep.csv").read_text() == "# sweep parameter: noise_std\n" + ",".join(SWEEP_COLUMNS) + "\n"


def test_sweep_rejects_a_csv_name(tmp_path, capsys):
    # a sweep writes sweep.csv and no trajectory, so a trajectory CSV name is an argument error
    cfg = tiny_config(tmp_path, sweep={"parameter": "noise_std", "values": [0.0]})
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "-c", cfg, "--csv", "x.csv"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --csv x.csv" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_sweep_requires_sweep_block(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert main(["sweep", "-c", cfg]) == 1
    assert capsys.readouterr().err == "config error: sweep: config has no sweep block\n"


def test_sweep_point_quotes_the_injection_rule(tmp_path, capsys):
    cfg = tiny_config(
        tmp_path,
        scenario={"injection": {"kind": "current_on_q", "amplitude": 0.5, "window": [0.005, 0.015]}},
        sweep={"parameter": "injection.amplitude", "values": [-1.0]},
    )
    assert main(["sweep", "-c", cfg]) == 1
    assert capsys.readouterr().err == (
        "config error: sweep: invalid point injection.amplitude=-1.0: amplitude: must be >= 0\n"
    )


# ---------------------------------------------------------------------------
# configuration inspection and failure modes
# ---------------------------------------------------------------------------


def test_print_config_without_verb(capsys):
    assert main(["--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"]["t_end"] == 1.0
    assert doc["machine"]["psi_r"] == 0.0225


def test_print_config_layout():
    # the blocks and keys of the rendered default, in the order a user reads them
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--print-config"]) == 0
    doc = json.loads(out.getvalue())
    assert [(block, list(keys)) for block, keys in doc.items()] == [
        ("machine", ["R", "L0", "L2", "psi_r", "p", "J"]),
        ("scenario", ["profile", "setpoints", "injection", "t_end", "T_s", "ode_substeps", "theta0", "theta_hat_err0",
                      "noise_std", "seed", "obs_on_estimates"]),
        ("estimator", ["q_diag", "r_diag", "p0_diag"]),
        ("control", ["bandwidth", "voltage_limit"]),
        ("output", ["dir", "csv", "summary"]),
    ]
    assert list(doc["scenario"]["injection"]) == ["kind", "amplitude", "frequency", "window"]


def test_print_config_on_verb_skips_run(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert main(["simulate", "-c", cfg, "--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"]["t_end"] == 0.02
    assert not (tmp_path / "trajectory.csv").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "-c", str(tmp_path / "nope.json")]) == 1
    assert "config error: cannot read config" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{"machine": 1}')  # a UTF-16 byte order mark; JSON files are UTF-8
    assert main(["simulate", "-c", str(path)]) == 1
    assert capsys.readouterr().err == (
        "config error: cannot read config: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


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
        ("simulate", "scenario", {"profile": [[0.0, 1e200]], "t_end": 0.001}, 2,
         "numerical abort at t=0.0001 s: non-finite"),
        ("analyze", "scenario", {"profile": [[0.0, 1e200]], "t_end": 0.001}, 2,
         "numerical abort at t=0.0001 s: non-finite"),
        ("simulate", "estimator", {"q_diag": [1e308] * 4}, 2, "non-finite covariance propagation"),
        ("simulate", "scenario", {"ode_substeps": 10**400}, 1,
         "config error: scenario: t_end / T_s * ode_substeps must not exceed"),
        ("analyze", "scenario", {"injection": {"kind": "current_on_q", "amplitude": 0.5, "frequency": 1e308,
                                               "window": [0.0, 3.0]}, "t_end": 3.0, "T_s": 0.001}, 1,
         "config error: scenario.injection.frequency: the carrier phase"),
        ("simulate", "scenario", {"injection": {"kind": "voltage_on_dhat", "amplitude": 0.5, "frequency": 1e308,
                                                "window": [0.0, 3.0]}, "t_end": 3.0, "T_s": 0.001}, 1,
         "config error: scenario.injection.frequency: the carrier phase"),
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


@pytest.mark.parametrize("verb", ["simulate", "analyze", "sweep"])
def test_overflowing_filter_prior_is_config_error(tmp_path, verb):
    # theta0 + theta_hat_err0 is the filter's prior angle: at inf it has no cosine, in the run or at a sweep point
    doc = {"machine": dict(SPMSM_MACHINE), "scenario": {"t_end": 0.001, "theta0": 1e308, "theta_hat_err0": 1e308},
           "output": {"dir": str(tmp_path)}}
    rule = "theta0 + theta_hat_err0, the filter's prior angle, must be finite"
    message = f"config error: scenario: {rule}"
    if verb == "sweep":
        doc["scenario"]["theta_hat_err0"] = 0.0
        doc["sweep"] = {"parameter": "theta_hat_err0", "values": [0.0, 1e308]}
        message = f"config error: sweep: invalid point theta_hat_err0=1e+308: {rule}"
    rc, err = _run_cli([verb, "-c", write_config(tmp_path, doc)])
    assert rc == 1, err
    assert err == message + "\n"
    assert not any(tmp_path.glob("*.csv"))


def test_analyze_trajectory_with_obs_on_estimates_is_config_error(tmp_path, capsys):
    # a voltage carrier on the estimated axis needs the estimates as much as obs_on_estimates does
    carrier = {"kind": "voltage_on_dhat", "amplitude": 2.0, "frequency": 3000.0, "window": [0.005, 0.015]}
    for scenario, rule in (
        ({"obs_on_estimates": True}, "obs_on_estimates: must be false"),
        ({"injection": carrier}, "injection.kind: must not be voltage_on_dhat"),
    ):
        cfg = tiny_config(tmp_path, scenario=scenario)
        assert main(["analyze", "-c", cfg]) == 1
        assert capsys.readouterr().err == f"config error: scenario.{rule} for analyze, which runs no estimator\n"
        assert not list(tmp_path.glob("*.csv"))
        # fixed operating points do not use the estimates
        states = tiny_config(tmp_path, scenario=scenario, analyze={"states": [{"omega": 30.0}]})
        assert main(["analyze", "-c", states]) == 0


def test_huge_json_integer_is_config_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": ' + "9" * 5000 + "}}")
    assert main(["simulate", "-c", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: invalid JSON: ")


# ---------------------------------------------------------------------------
# run-level fuzz
# ---------------------------------------------------------------------------

FUZZ_SAMPLES = 30  # samples per fuzzed run: t_end is FUZZ_SAMPLES * T_s
FUZZ_BASES = {
    path.name: {k: v for k, v in json.loads(path.read_text()).items() if k != "sweep"}
    for path in sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
}
FUZZ_NUMBERS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(-100.0, 100.0)
    | st.integers(-3, 50)  # small enough for ode_substeps
    | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-154, 1e154, 1e300, -1.0])
)


def _numeric_paths(doc, path=()):
    """Paths of every number in a config document; bools are not numbers."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [p for key, value in items for p in _numeric_paths(value, path + (key,))]
    return [path] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_fuzzed_shipped_configs_end_as_a_run_or_a_named_error(data):
    # a shipped config with up to 6 numbers replaced, run through the CLI for FUZZ_SAMPLES samples: no exception
    # escapes, a config error prints only config error lines, and a numerical abort leaves the finished samples
    name = data.draw(st.sampled_from(list(FUZZ_BASES)))
    doc = json.loads(json.dumps(FUZZ_BASES[name]))
    paths = [p for p in _numeric_paths(doc) if p != ("scenario", "t_end")]
    for path, value in data.draw(st.lists(st.tuples(st.sampled_from(paths), FUZZ_NUMBERS), max_size=6)):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    T_s = doc["scenario"].get("T_s", Scenario.T_s)
    doc["scenario"]["t_end"] = FUZZ_SAMPLES * T_s
    verb = data.draw(st.sampled_from(["simulate", "analyze"]))
    with tempfile.TemporaryDirectory() as tmp:
        doc["output"] = {"dir": tmp, "csv": "run.csv"}
        cfg = os.path.join(tmp, "run.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([verb, "-c", cfg])
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), lines
        if code == 1:
            assert lines and all(line.startswith("config error: ") for line in lines), lines
        else:
            t = read_csv(os.path.join(tmp, "run.csv"))["t"]
            assert len(t) == FUZZ_SAMPLES if code == 0 else len(t) < FUZZ_SAMPLES, lines
            assert np.array_equal(t, np.arange(len(t)) * T_s)


def test_only_a_run_that_draws_noise_loads_numpy_random(tmp_path):
    # a noise-free run makes no generator, so numpy.random (~6 MB resident) is never imported; the test session has
    # imported it already, so the shipped runs go through cli.main in a fresh interpreter, then one noisy analyze
    import subprocess
    import sys

    import pmsmlab

    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    noisy = json.loads((configs / "standstill_spmsm.json").read_text())
    noisy["scenario"].update(noise_std=0.05, t_end=0.01)
    runs = [("simulate", configs / "standstill_ipmsm.json"), ("analyze", configs / "standstill_spmsm.json"),
            ("sweep", configs / "hfi_voltage_sweep.json"), ("analyze", write_config(tmp_path, noisy, "noisy.json"))]
    script = (
        "import contextlib, io, json, sys\n"
        "from pmsmlab.cli import main\n"
        "loaded = []\n"
        "for i, (verb, config) in enumerate(json.loads(sys.argv[1])):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main([verb, '-c', config, '-o', f'{sys.argv[2]}/{i}'])\n"
        "    loaded.append((code, 'numpy.random' in sys.modules))\n"
        "print(json.dumps(loaded))\n"
    )
    src = os.path.dirname(os.path.dirname(pmsmlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([(verb, str(c)) for verb, c in runs]),
                           str(tmp_path)], capture_output=True, text=True, env=env, timeout=300, check=True)
    assert json.loads(proc.stdout) == [[0, False], [0, False], [0, False], [0, True]], proc.stderr
