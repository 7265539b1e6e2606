"""JSON config parsing, validation messages, rendering, sweep plumbing."""

import json
import math
import pathlib
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmsmlab.config import (
    FILE_FIELDS,
    SCENARIO_PATHS,
    SWEEPABLE,
    ConfigError,
    RunConfig,
    apply_sweep_value,
    parse_config,
    render_config,
)
from pmsmlab.control import InjectionKind
from pmsmlab.machine import TYPE_RULES, MachineParams
from pmsmlab.simulation import Scenario
from pmsmlab.simulation import MAX_RK4_STEPS, MAX_SAMPLES

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

MINIMAL_SPMSM = '{"machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2}}'


def errors_of(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value.errors


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_minimal_config_gives_reference_scenario():
    cfg = parse_config(MINIMAL_SPMSM)
    assert cfg.scenario == Scenario(params=MachineParams(L2=0.0))
    assert cfg.out_dir == "."
    assert cfg.csv_name == "trajectory.csv"
    assert cfg.write_summary
    assert cfg.sweep is None
    assert cfg.analyze_states == ()


@pytest.mark.parametrize("kind", ["ipmsm", "spmsm"])
def test_the_default_paths_agree(kind):
    # the field defaults are the reference study, in code and in a file that gives only the machine
    machine = json.loads((CONFIG_DIR / f"standstill_{kind}.json").read_text())["machine"]
    cfg = parse_config(json.dumps({"machine": machine}))
    params = {"ipmsm": MachineParams(), "spmsm": MachineParams(L2=0.0)}[kind]
    assert cfg.scenario == Scenario(params=params)
    if kind == "ipmsm":  # MachineParams() is the reference machine and Scenario() the reference study
        assert Scenario().params == params
        assert cfg == RunConfig(Scenario())  # the output defaults included


def test_shipped_standstill_configs_match_reference():
    for name, params in (("standstill_ipmsm.json", MachineParams()), ("standstill_spmsm.json", MachineParams(L2=0.0))):
        cfg = parse_config((CONFIG_DIR / name).read_text())
        assert cfg.scenario == Scenario(params=params), name
        assert cfg.csv_name == name.replace(".json", ".csv")


def test_python_built_and_shipped_machines_are_the_same_bit_for_bit():
    # repr writes each float so that it reads back to the same bits, so equal reprs are equal bits, signed zeros too
    shipped = {name: parse_config((CONFIG_DIR / f"{name}.json").read_text()).scenario.params
               for name in ("standstill_ipmsm", "standstill_spmsm", "hfi_voltage_sweep")}
    assert repr(shipped["standstill_ipmsm"]) == repr(MachineParams())
    assert repr(shipped["standstill_spmsm"]) == repr(shipped["hfi_voltage_sweep"]) == repr(MachineParams(L2=0.0))
    # the shipped Ld/Lq as l0_l2 gives them, which --print-config renders, not the float -0.15e-3
    assert MachineParams().L2 == -0.00015000000000000001
    assert MachineParams().L2 != -0.15e-3


def test_shipped_sweep_config():
    cfg = parse_config((CONFIG_DIR / "hfi_voltage_sweep.json").read_text())
    assert cfg.sweep is not None
    assert cfg.sweep.parameter == "injection.amplitude"
    assert cfg.sweep.values == (0.0, 0.5, 1.0, 2.0, 4.0)
    scn = cfg.scenario
    assert scn.injection.kind is InjectionKind.VOLTAGE_ON_DHAT
    assert (scn.injection.t_start, scn.injection.t_end) == (0.1, 0.5)
    assert scn.t_end == 0.6
    assert scn.params.L2 == 0.0
    assert scn.profile.speeds == (0.0, 0.0)


def test_machine_dq_form_equivalent_to_l0_form():
    dq_form = parse_config(
        '{"machine": {"R": 0.01, "Ld": 0.0005, "Lq": 0.0008, "psi_r": 0.0225, "p": 2}}'
    )
    p = dq_form.scenario.params
    assert p.L0 == pytest.approx(0.65e-3, rel=1e-15)
    assert p.L2 == pytest.approx(-0.15e-3, rel=1e-15)
    assert p.J == 0.02  # documented default


def test_analyze_states_block():
    cfg = parse_config(
        json.dumps(
            {
                "machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2},
                "analyze": {"states": [{"i_d": 1.0, "omega": 30.0}, {"theta": 0.5}]},
            }
        )
    )
    assert len(cfg.analyze_states) == 2
    assert cfg.analyze_states[0].i_d == 1.0
    assert cfg.analyze_states[0].omega == 30.0
    assert cfg.analyze_states[0].i_q == 0.0
    assert cfg.analyze_states[1].theta == 0.5


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_syntax_error_reports_position():
    errs = errors_of('{"machine": {,}}')
    assert len(errs) == 1
    assert errs[0].startswith("syntax error at line 1 column 14")


def test_non_object_top_level():
    assert errors_of("[1, 2]") == ["top level must be a JSON object"]


def test_missing_machine_block():
    assert "machine: block required" in errors_of("{}")


def test_machine_required_fields():
    errs = errors_of('{"machine": {"L0": 0.001, "L2": 0.0}}')
    for key in ("R", "psi_r", "p"):
        assert f"machine.{key}: required" in errs


def test_machine_inductance_forms_are_exclusive():
    errs = errors_of(
        '{"machine": {"R": 1, "psi_r": 0.1, "p": 2, "Ld": 1e-3, "Lq": 1e-3, "L0": 1e-3, "L2": 0}}'
    )
    assert "machine: give either Ld/Lq or L0/L2, not both" in errs
    errs = errors_of('{"machine": {"R": 1, "psi_r": 0.1, "p": 2, "Ld": 1e-3}}')
    assert "machine: Ld and Lq must be given together" in errs
    errs = errors_of('{"machine": {"R": 1, "psi_r": 0.1, "p": 2}}')
    assert "machine: inductances required (Ld/Lq or L0/L2)" in errs


def test_machine_invariants_reported():
    errs = errors_of(
        '{"machine": {"R": -1, "psi_r": -0.1, "p": 0, "L0": 1e-3, "L2": 2e-3, "J": 0}}'
    )
    assert "machine.R: must be > 0" in errs
    assert "machine: |L2| must be < L0 (both Ld and Lq positive)" in errs
    assert "machine.psi_r: must be >= 0" in errs
    assert "machine.p: must be >= 1" in errs
    assert "machine.J: must be > 0" in errs


def test_unknown_keys_reported_everywhere():
    errs = errors_of(
        json.dumps(
            {
                "machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2, "zz": 1},
                "scenario": {"bogus": 1, "injection": {"kind": "none", "nope": 2}},
                "wat": {},
            }
        )
    )
    assert "machine.zz: unknown key" in errs
    assert "scenario.bogus: unknown key" in errs
    assert "scenario.injection.nope: unknown key" in errs
    assert "wat: unknown top-level block" in errs


def test_a_blocks_lines_follow_its_fields_then_its_unknown_keys():
    # the profile and the injection are parsed where they are read, as every other field is
    scenario = {"bogus": 1, "setpoints": "x", "injection": {"kind": "zap"}, "profile": []}
    errs = errors_of(json.dumps(dict(json.loads(MINIMAL_SPMSM), scenario=scenario)))
    labels = [e.partition(": ")[0] for e in errs]
    assert labels == ["scenario.profile", "scenario.setpoints", "scenario.injection.kind", "scenario.bogus"], errs


def test_multiple_errors_collected_in_one_raise():
    errs = errors_of(
        json.dumps(
            {
                "machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2},
                "scenario": {"t_end": -1.0, "T_s": 0.0, "ode_substeps": 0, "noise_std": -1},
            }
        )
    )
    assert "scenario.t_end: must be > 0" in errs
    assert "scenario.T_s: must be > 0" in errs
    assert "scenario.ode_substeps: must be >= 1" in errs
    assert "scenario.noise_std: must be >= 0" in errs
    assert len(errs) == 4


def test_injection_kind_error_lists_options():
    errs = errors_of(
        json.dumps(
            {
                "machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2},
                "scenario": {"injection": {"kind": "zap"}},
            }
        )
    )
    assert len(errs) == 1
    assert errs[0].startswith("scenario.injection.kind: must be an InjectionKind (") and errs[0].endswith(", got 'zap'")
    for option in ("none", "current_on_q", "voltage_on_dhat"):
        assert option in errs[0]


def test_injection_window_and_amplitude_checks():
    base = {"machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2}}
    bad = dict(base, scenario={"injection": {"kind": "current_on_q", "window": [0.5, 0.5]}})
    assert "scenario.injection.window: needs t_start < t_end" in errors_of(json.dumps(bad))
    bad = dict(
        base,
        scenario={
            "injection": {"kind": "current_on_q", "amplitude": -1, "window": [0.0, 0.1]}
        },
    )
    assert "scenario.injection.amplitude: must be >= 0" in errors_of(json.dumps(bad))


def test_profile_validation_messages():
    base = {"machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2}}
    bad = dict(base, scenario={"profile": []})
    assert (
        "scenario.profile: must be a non-empty list of [time, omega] pairs"
        in errors_of(json.dumps(bad))
    )
    bad = dict(base, scenario={"profile": [[0.0, 1.0], [0.0, 2.0]]})
    assert (
        "scenario.profile: breakpoint times must be strictly increasing"
        in errors_of(json.dumps(bad))
    )


def test_null_profile_or_injection_is_a_type_error(tmp_path):
    # an explicit null is a value of the wrong shape, as for every other key; an absent key keeps its default
    from pmsmlab.cli import main

    base = json.loads(MINIMAL_SPMSM)
    for key, message in (("profile", "scenario.profile: must be a non-empty list of [time, omega] pairs"),
                         ("injection", "scenario.injection: must be an object")):
        bad = dict(base, scenario={key: None})
        assert errors_of(json.dumps(bad)) == [message]
        path = tmp_path / f"null_{key}.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", "-c", str(path), "-o", str(tmp_path / key)]) == 1
        assert not (tmp_path / key).exists()
    assert parse_config(json.dumps(dict(base, scenario={}))).scenario == Scenario(params=MachineParams(L2=0.0))


@pytest.mark.parametrize("value", [None, 3, []])
@pytest.mark.parametrize("block", ["machine", "sweep", "analyze"])
def test_a_block_that_is_no_object_has_one_line(block, value):
    # only the shape is reported, not the block's missing constants, parameter or states besides
    assert errors_of(json.dumps(dict(json.loads(MINIMAL_SPMSM), **{block: value}))) == [f"{block}: must be an object"]


@pytest.mark.parametrize("block, value, lines", [
    ("machine", {"R": 0.01, "L0": "x", "L2": 0.0, "psi_r": 0.0225, "p": 2}, ["machine.L0: must be a finite number"]),
    ("machine", {"R": 0.01, "Ld": "x", "Lq": 0.0008, "psi_r": 0.0225, "p": 2}, ["machine.Ld: must be a finite number"]),
    ("machine", {"R": 0.01, "L0": 0.00065, "L2": 0.0, "Ld": "x", "psi_r": 0.0225, "p": 2},
     ["machine.Ld: must be a finite number", "machine: give either Ld/Lq or L0/L2, not both"]),
    ("sweep", {"parameter": 5, "values": [0.1]}, ["sweep.parameter: must be a string"]),
    ("sweep", {"parameter": "noise_std", "values": "x"}, ["sweep.values: must be a list of finite numbers"]),
    ("sweep", {"parameter": "noise_std", "values": [0.1, "x"]}, ["sweep.values: must be a list of finite numbers"]),
    ("sweep", {"parameter": "noise_std", "values": []}, ["sweep: needs 'parameter' and a non-empty 'values' list"]),
], ids=["L0", "Ld_with_Lq", "Ld_with_L0_L2", "parameter", "values", "values_entry", "empty"])
def test_a_present_key_is_given_though_mistyped(block, value, lines):
    # a mistyped key has its type line only, not a missing key's or a missing partner's besides; an absent or
    # empty key keeps its line
    assert errors_of(json.dumps(dict(json.loads(MINIMAL_SPMSM), **{block: value}))) == lines


def test_negative_seed_rejected():
    base = {"machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2}}
    # rejected even without noise, where the seed would never be drawn from
    bad = dict(base, scenario={"seed": -1, "noise_std": 0.0})
    assert "scenario.seed: must be >= 0" in errors_of(json.dumps(bad))
    with pytest.raises(ValueError, match="seed"):
        replace(Scenario(), seed=-1)


def test_run_shorter_than_one_sample_rejected():
    base = {"machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2}}
    bad = dict(base, scenario={"t_end": 4e-5, "T_s": 1e-4})
    errs = errors_of(json.dumps(bad))
    assert "scenario.t_end: must span at least one sample (round(t_end / T_s) >= 1)" in errs
    one = parse_config(json.dumps(dict(base, scenario={"t_end": 1e-4, "T_s": 1e-4})))
    assert one.scenario.n_samples == 1
    with pytest.raises(ValueError, match="at least one sample"):
        replace(Scenario(), t_end=4e-5)


def test_estimator_and_control_checks():
    base = {"machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2}}
    bad = dict(
        base,
        estimator={"q_diag": [1, 1, 1], "r_diag": [1.0, 0.0]},
        control={"bandwidth": -1.0},
    )
    errs = errors_of(json.dumps(bad))
    assert "estimator.q_diag: must have exactly 4 entries" in errs
    assert "estimator.r_diag: entries must be > 0" in errs
    assert "control.bandwidth: must be > 0" in errs


def test_sweep_validation():
    base = {"machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2}}
    bad = dict(base, sweep={})
    assert "sweep: needs 'parameter' and a non-empty 'values' list" in errors_of(
        json.dumps(bad)
    )
    bad = dict(base, sweep={"parameter": "params.R", "values": [1.0]})
    errs = errors_of(json.dumps(bad))
    assert any("not sweepable" in e for e in errs)


def test_type_errors():
    bad = {
        "machine": {"R": "small", "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2.5},
        "scenario": {"seed": 1.5, "obs_on_estimates": "yes"},
    }
    errs = errors_of(json.dumps(bad))
    # a present key of the wrong type is not also reported as missing
    assert [e for e in errs if e.startswith(("machine.R:", "machine.p:"))] == [
        "machine.R: must be a finite number",
        "machine.p: must be an integer",
    ]
    assert "scenario.seed: must be an integer" in errs
    assert "scenario.obs_on_estimates: must be true or false" in errs


# ---------------------------------------------------------------------------
# rendering and sweep application
# ---------------------------------------------------------------------------


def test_render_round_trips():
    for name in ("standstill_ipmsm.json", "standstill_spmsm.json", "hfi_voltage_sweep.json"):
        cfg = parse_config((CONFIG_DIR / name).read_text())
        again = parse_config(render_config(cfg))
        assert again == cfg, name


def test_render_exposes_defaults():
    doc = json.loads(render_config(parse_config(MINIMAL_SPMSM)))
    assert doc["scenario"]["T_s"] == 1e-4
    assert doc["scenario"]["theta_hat_err0"] == -math.pi / 4.0
    assert doc["estimator"]["q_diag"] == [1.0, 1.0, 1e3, 0.1]
    assert doc["control"]["voltage_limit"] == 50.0
    assert doc["machine"]["J"] == 0.02


def test_apply_sweep_value():
    scn = Scenario()
    assert apply_sweep_value(scn, "injection.amplitude", 2.0).injection.amplitude == 2.0
    assert apply_sweep_value(scn, "injection.frequency", 70.0).injection.frequency == 70.0
    assert apply_sweep_value(scn, "noise_std", 0.3).noise_std == 0.3
    assert apply_sweep_value(scn, "theta_hat_err0", 0.1).theta_hat_err0 == 0.1
    assert set(SWEEPABLE) == {
        "injection.amplitude", "injection.frequency", "noise_std", "theta_hat_err0"
    }
    with pytest.raises(ValueError, match="not a sweepable parameter"):
        apply_sweep_value(scn, "params.R", 1.0)


# ---------------------------------------------------------------------------
# one statement per rule: the dataclasses' violations, labelled by JSON path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("setpoints", (1.0,), "must have exactly 2 entries"),
        ("q_diag", (-1.0, 1.0, 1.0, 1.0), "entries must be >= 0"),
        ("r_diag", (1.0, 0.0), "entries must be > 0"),
        ("p0_diag", (1.0, 1.0), "must have exactly 4 entries"),
        ("control_bandwidth", -1.0, "must be > 0"),
        ("voltage_limit", 0.0, "must be > 0"),
        ("t_end", 0.010005, "must be a whole number of samples (t_end / T_s = 100.05)"),
        ("ode_substeps", 0, "must be >= 1"),
        ("noise_std", -0.5, "must be >= 0"),
        ("seed", -3, "must be >= 0"),
        # the parser rejects a non-finite number before the rule sees it, in the same words
        ("noise_std", math.nan, "must be a finite number"),
        ("voltage_limit", math.inf, "must be a finite number"),
        ("setpoints", (math.nan, 0.0), "must be a list of finite numbers"),
        ("q_diag", (1.0, 1.0, math.inf, 0.1), "must be a list of finite numbers"),
        # a bool is not a number, and a string is named rather than left to fail in math.isfinite
        ("noise_std", True, "must be a finite number"),
        ("t_end", "0.001", "must be a finite number"),
        ("q_diag", (1.0, True, 1e3, 0.1), "must be a list of finite numbers"),
        # a list field's rule is chosen by the field, not guessed from the value
        ("setpoints", "ab", "must be a list of finite numbers"),
        ("setpoints", None, "must be a list of finite numbers"),
    ],
)
def test_scenario_rule_stated_once_for_code_and_config(field, value, message):
    with pytest.raises(ValueError) as exc:
        replace(Scenario(), **{field: value})
    assert str(exc.value) == f"{field}: {message}"
    block, key = SCENARIO_PATHS[field].split(".")
    doc = json.loads(MINIMAL_SPMSM)
    doc[block] = {key: list(value) if isinstance(value, tuple) else value}
    assert errors_of(json.dumps(doc)) == [f"{SCENARIO_PATHS[field]}: {message}"]


_PATH_FIELDS = {f.name: f for f in FILE_FIELDS}


@pytest.mark.parametrize("field", _PATH_FIELDS)
def test_every_config_field_names_a_mistyped_value(field):
    # a list holding null breaks every type rule; each field with a path is covered, also one added later
    value = [None]
    path = _PATH_FIELDS[field].metadata["path"]
    block, key = path.split(".")
    doc = json.loads(MINIMAL_SPMSM)
    doc[block] = {key: value}
    (config,) = errors_of(json.dumps(doc))
    if field not in SCENARIO_PATHS:  # an output field of RunConfig is read by the type rule of its default
        assert config == f"{path}: {TYPE_RULES[type(_PATH_FIELDS[field].default)][1]}"
        return
    with pytest.raises(ValueError) as exc:
        replace(Scenario(), **{field: value})
    code = str(exc.value)
    assert code.startswith(f"{field}: ") and config.startswith(f"{path}: ")
    if not is_dataclass(getattr(Scenario(), field)):
        # profile and injection are written in the file as a list and an object, not as the values they become,
        # so their two messages differ in form; every other field's are the same words
        assert config.removeprefix(f"{SCENARIO_PATHS[field]}: ") == code.removeprefix(f"{field}: ")


@pytest.mark.parametrize(
    "field, change, value, message",
    [
        ("window", {"t_start": 0.5, "t_end": 0.5}, [0.5, 0.5], "needs t_start < t_end"),
        ("amplitude", {"amplitude": -1.0}, -1.0, "must be >= 0"),
        ("frequency", {"frequency": 1e308}, 1e308, "the carrier phase frequency * t must stay finite over the window"),
        ("amplitude", {"amplitude": math.nan}, math.nan, "must be a finite number"),
        ("window", {"t_start": -math.inf}, [-math.inf, 3.0], "must be a list of finite numbers"),
        ("kind", {"kind": "zap"}, "zap", "must be an InjectionKind (none, current_on_q, voltage_on_dhat), got 'zap'"),
    ],
)
def test_injection_rule_stated_once_for_code_and_config(field, change, value, message):
    # on a window [0.2, 3.0), where a frequency of 1e308 overflows the carrier phase
    with pytest.raises(ValueError) as exc:
        replace(Scenario().injection, **{"t_end": 3.0, **change})
    assert str(exc.value) == f"{field}: {message}"
    doc = json.loads(MINIMAL_SPMSM)
    doc["scenario"] = {"injection": {"kind": "current_on_q", "window": [0.2, 3.0], field: value}}
    assert errors_of(json.dumps(doc)) == [f"scenario.injection.{field}: {message}"]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("R", None, "must be a finite number"),
        ("R", True, "must be a finite number"),
        ("R", "x", "must be a finite number"),
        ("p", True, "must be an integer"),
    ],
)
def test_machine_rule_stated_once_for_code_and_config(field, value, message):
    with pytest.raises(ValueError) as exc:
        replace(Scenario().params, **{field: value})
    assert str(exc.value) == f"{field}: {message}"
    doc = json.loads(MINIMAL_SPMSM)
    doc["machine"][field] = value
    assert errors_of(json.dumps(doc)) == [f"machine.{field}: {message}"]


def test_scenario_rules_reported_with_machine_errors():
    errs = errors_of(json.dumps({
        "machine": {"R": -1.0, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": 2},
        "estimator": {"r_diag": [1.0, 0.0]},
        "control": {"voltage_limit": 0.0},
    }))
    assert errs == [
        "machine.R: must be > 0",
        "estimator.r_diag: entries must be > 0",
        "control.voltage_limit: must be > 0",
    ]


def test_sample_count_is_capped():
    base = json.loads(MINIMAL_SPMSM)
    cap = f"scenario: t_end / T_s must not exceed {MAX_SAMPLES} samples"
    for t_end, T_s in ((1e300, 1.0), (1e300, 1e-300), (MAX_SAMPLES * 1e-4 + 1e-4, 1e-4)):
        assert errors_of(json.dumps(dict(base, scenario={"t_end": t_end, "T_s": T_s}))) == [cap]
    longest = parse_config(json.dumps(dict(base, scenario={"t_end": MAX_SAMPLES * 1e-4, "T_s": 1e-4})))
    assert longest.scenario.n_samples == MAX_SAMPLES


def test_rk4_step_count_is_capped():
    base = json.loads(MINIMAL_SPMSM)
    cap = f"scenario: t_end / T_s * ode_substeps must not exceed {MAX_RK4_STEPS} RK4 steps"
    for substeps in (10**400, 10**9):  # at the shipped 1 s run of 10^4 samples
        assert errors_of(json.dumps(dict(base, scenario={"ode_substeps": substeps}))) == [cap]
    longest = {"t_end": MAX_SAMPLES * 1e-4, "T_s": 1e-4, "ode_substeps": 10}
    scn = parse_config(json.dumps(dict(base, scenario=longest))).scenario
    assert scn.n_samples * scn.ode_substeps == MAX_RK4_STEPS
    assert errors_of(json.dumps(dict(base, scenario=dict(longest, ode_substeps=11)))) == [cap]
    with pytest.raises(ValueError, match="RK4 steps"):
        replace(Scenario(), ode_substeps=10**400)


def test_t_end_must_be_a_whole_number_of_samples():
    base = json.loads(MINIMAL_SPMSM)
    errs = errors_of(json.dumps(dict(base, scenario={"t_end": 0.01, "T_s": 0.003})))
    assert errs == ["scenario.t_end: must be a whole number of samples (t_end / T_s = 3.33333333)"]
    # within the relative tolerance: 0.6 / 1e-4 = 5999.999999999999
    assert parse_config(json.dumps(dict(base, scenario={"t_end": 0.6}))).scenario.n_samples == 6000
    # a run shorter than one sample gets that rule only
    errs = errors_of(json.dumps(dict(base, scenario={"t_end": 4e-5})))
    assert errs == ["scenario.t_end: must span at least one sample (round(t_end / T_s) >= 1)"]


def test_out_of_range_json_numbers_are_config_errors():
    errs = errors_of('{"machine": {"R": 0.01, "L0": 0.00065, "L2": 0.0, "psi_r": 0.0225, "p": ' + "9" * 5000 + "}}")
    assert len(errs) == 1 and errs[0].startswith("invalid JSON: ")
    errs = errors_of("[" * 100_000 + "]" * 100_000)
    assert len(errs) == 1 and errs[0].startswith("invalid JSON: ")
    doc = json.loads(MINIMAL_SPMSM)
    doc["machine"]["J"] = 10**400  # an int past the float range
    assert errors_of(json.dumps(doc)) == ["machine.J: must be a finite number"]


def _leaf_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (key,))


SHIPPED = {
    name: json.loads((CONFIG_DIR / name).read_text())
    for name in ("standstill_ipmsm.json", "standstill_spmsm.json", "hfi_voltage_sweep.json")
}
FIELD_PATHS = sorted({(name, path) for name, doc in SHIPPED.items() for path in _leaf_paths(doc)})
EDGE_NUMBERS = st.sampled_from([0, -1, 0.5, 10**400, -(10**400), 10**320, 1e308, -1e308, 5e-324, 1e-300])
JSON_SCALARS = st.none() | st.booleans() | st.integers() | EDGE_NUMBERS | st.floats() | st.text(max_size=8)
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=5) | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(FIELD_PATHS), JSON_VALUES)
def test_any_one_field_replaced_parses_or_is_a_config_error(field_path, value):
    name, path = field_path
    doc = json.loads(json.dumps(SHIPPED[name]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        assert isinstance(parse_config(json.dumps(doc)), RunConfig)
    except ConfigError as exc:
        assert exc.errors


_SCN = Scenario()
CODE_FIELDS = [(obj, f.name) for obj in (_SCN, _SCN.params, _SCN.profile, _SCN.injection)
               for f in fields(obj) if f.init]
PYTHON_VALUES = st.sampled_from(
    [10**300, -(10**300), np.float32(np.inf), np.float32(0.5), np.float64(np.nan), np.int64(2), 1j, InjectionKind.NONE]
) | JSON_VALUES | st.lists(JSON_SCALARS, max_size=5).map(tuple)


@pytest.mark.parametrize("obj, field", CODE_FIELDS, ids=[f"{type(obj).__name__}.{name}" for obj, name in CODE_FIELDS])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(value=PYTHON_VALUES)
def test_any_one_field_of_a_code_built_object_replaced_constructs_or_is_a_value_error(obj, field, value):
    # the type rules name what the value rules could not compute with: no TypeError or OverflowError escapes
    try:
        replace(obj, **{field: value})
    except ValueError:
        pass


@pytest.mark.parametrize("renamed", [False, True])
def test_profile_and_injection_errors_start_with_their_declared_paths(renamed, monkeypatch):
    # the profile and injection parsers label every error with the path their field declares, so a renamed path
    # reads, renders and reports under its new name; renamed=True moves both fields to new keys of the scenario block
    import copy
    import types

    import pmsmlab.config as config

    paths = dict(SCENARIO_PATHS, profile="scenario.speed_profile", injection="scenario.carrier") if renamed \
        else SCENARIO_PATHS

    def declared(f):
        f = copy.copy(f)
        f.metadata = types.MappingProxyType({**f.metadata, "path": paths[f.name]})
        return f

    monkeypatch.setattr(config, "FILE_FIELDS", tuple(declared(f) if f.name in paths else f for f in FILE_FIELDS))
    bad = {
        "profile": [None, [], 1, [[0.0, 1.0], [0.0, 2.0]], [[0, 0], ["x", 1]], [[0.0]]],
        "injection": [None, 1, {"kind": "zap"}, {"nope": 1}, {"window": [1.0]}, {"amplitude": "x"},
                      {"kind": "current_on_q", "window": [0.5, 0.5]}, {"kind": "current_on_q", "amplitude": -1.0},
                      {"kind": "current_on_q", "frequency": 1e308, "window": [0.2, 3.0]}],
    }
    for name, values in bad.items():
        path = paths[name]
        for value in values:
            doc = json.loads(MINIMAL_SPMSM)
            doc["scenario"] = {path.split(".")[1]: value}
            errors = errors_of(json.dumps(doc))
            assert errors and all(e.startswith((f"{path}: ", f"{path}.")) for e in errors), (path, value, errors)
