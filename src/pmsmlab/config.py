"""Run configuration: JSON parsing with exhaustive validation.

The file is a JSON object with blocks "machine" (required), "scenario",
"estimator", "control", "output", "sweep", and "analyze".  Every omitted
field takes the documented default (the reference standstill study), so a
minimal file needs only the machine constants.  Validation never stops at
the first problem: parse_config raises ConfigError carrying the complete
list of violations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from pmsmlab.control import InjectionKind, InjectionSchedule
from pmsmlab.machine import MachineParams
from pmsmlab.simulation import Scenario, SpeedProfile, standstill_study_scenario

SWEEPABLE = ("injection.amplitude", "injection.frequency", "noise_std", "theta_hat_err0")


class ConfigError(ValueError):
    """Carries every validation problem found in a config file."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class AnalyzePoint:
    """A fixed operating point for single-shot observability evaluation."""

    i_d: float = 0.0
    i_q: float = 0.0
    di_d: float = 0.0
    di_q: float = 0.0
    omega: float = 0.0
    omega_dot: float = 0.0
    theta: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    out_dir: str = "."
    csv_name: str = "trajectory.csv"
    write_summary: bool = True
    sweep: SweepSpec | None = None
    analyze_states: tuple[AnalyzePoint, ...] = ()


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


class _Block:
    """One nested section: typed getters that record problems instead of raising."""

    def __init__(self, name: str, data: dict, errors: list):
        self.name = name
        self.data = data if isinstance(data, dict) else {}
        self.errors = errors
        self.seen = set()
        if not isinstance(data, dict):
            errors.append(f"{name}: must be an object")

    def num(self, key, default=None):
        self.seen.add(key)
        if key not in self.data:
            return default
        v = self.data[key]
        if not _is_num(v):
            self.errors.append(f"{self.name}.{key}: must be a finite number")
            return default
        return float(v)

    def integer(self, key, default=None):
        self.seen.add(key)
        if key not in self.data:
            return default
        v = self.data[key]
        if isinstance(v, bool) or not isinstance(v, int):
            self.errors.append(f"{self.name}.{key}: must be an integer")
            return default
        return v

    def boolean(self, key, default=None):
        self.seen.add(key)
        if key not in self.data:
            return default
        v = self.data[key]
        if not isinstance(v, bool):
            self.errors.append(f"{self.name}.{key}: must be true or false")
            return default
        return v

    def string(self, key, default=None):
        self.seen.add(key)
        if key not in self.data:
            return default
        v = self.data[key]
        if not isinstance(v, str):
            self.errors.append(f"{self.name}.{key}: must be a string")
            return default
        return v

    def num_list(self, key, length=None, default=None):
        self.seen.add(key)
        if key not in self.data:
            return default
        v = self.data[key]
        if not isinstance(v, list) or not all(_is_num(x) for x in v):
            self.errors.append(f"{self.name}.{key}: must be a list of finite numbers")
            return default
        if length is not None and len(v) != length:
            self.errors.append(f"{self.name}.{key}: must have exactly {length} entries")
            return default
        return tuple(float(x) for x in v)

    def raw(self, key):
        self.seen.add(key)
        return self.data.get(key)

    def check_unknown(self):
        extra = set(self.data) - self.seen
        for k in sorted(extra):
            self.errors.append(f"{self.name}.{k}: unknown key")


def _parse_machine(block: _Block, errors: list) -> MachineParams | None:
    R = block.num("R")
    psi_r = block.num("psi_r")
    p = block.integer("p")
    J = block.num("J", 0.02)
    Ld, Lq = block.num("Ld"), block.num("Lq")
    L0, L2 = block.num("L0"), block.num("L2")
    block.check_unknown()

    for key, val in (("R", R), ("psi_r", psi_r), ("p", p)):
        if val is None:
            errors.append(f"machine.{key}: required")
    dq_given = Ld is not None or Lq is not None
    ab_given = L0 is not None or L2 is not None
    if dq_given and ab_given:
        errors.append("machine: give either Ld/Lq or L0/L2, not both")
        return None
    if dq_given:
        if Ld is None or Lq is None:
            errors.append("machine: Ld and Lq must be given together")
            return None
        L0, L2 = 0.5 * (Ld + Lq), 0.5 * (Ld - Lq)
    elif ab_given:
        if L0 is None or L2 is None:
            errors.append("machine: L0 and L2 must be given together")
            return None
    else:
        errors.append("machine: inductances required (Ld/Lq or L0/L2)")
        return None

    # mirror the MachineParams invariants so every violation is reported
    if R is not None and R <= 0.0:
        errors.append("machine.R: must be > 0")
    if L0 <= 0.0:
        errors.append("machine.L0: must be > 0 (equivalently Ld + Lq > 0)")
    if L0 > 0.0 and abs(L2) >= L0:
        errors.append("machine: |L2| must be < L0 (both Ld and Lq positive)")
    if psi_r is not None and psi_r < 0.0:
        errors.append("machine.psi_r: must be >= 0")
    if p is not None and p < 1:
        errors.append("machine.p: must be >= 1")
    if J <= 0.0:
        errors.append("machine.J: must be > 0")
    if errors:
        return None
    return MachineParams(R=R, L0=L0, L2=L2, psi_r=psi_r, p=p, J=J)


def _parse_injection(raw, defaults: InjectionSchedule, errors: list) -> InjectionSchedule:
    if raw is None:
        return defaults
    b = _Block("scenario.injection", raw, errors)
    kind_s = b.string("kind", defaults.kind.value)
    amplitude = b.num("amplitude", defaults.amplitude)
    frequency = b.num("frequency", defaults.frequency)
    window = b.num_list("window", 2, (defaults.t_start, defaults.t_end))
    b.check_unknown()
    try:
        kind = InjectionKind(kind_s)
    except ValueError:
        errors.append(
            f"scenario.injection.kind: unknown kind {kind_s!r} "
            f"(use {', '.join(k.value for k in InjectionKind)})"
        )
        return defaults
    if kind is not InjectionKind.NONE:
        if window[0] >= window[1]:
            errors.append("scenario.injection.window: needs t_start < t_end")
        if amplitude < 0.0:
            errors.append("scenario.injection.amplitude: must be >= 0")
    if errors:
        return defaults
    return InjectionSchedule(
        kind=kind, amplitude=amplitude, frequency=frequency,
        t_start=window[0], t_end=window[1],
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; raises ConfigError with every problem."""
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from exc
    if not isinstance(root, dict):
        raise ConfigError(["top level must be a JSON object"])

    errors: list[str] = []
    known = {"machine", "scenario", "estimator", "control", "output", "sweep", "analyze"}
    for k in sorted(set(root) - known):
        errors.append(f"{k}: unknown top-level block")
    if "machine" not in root:
        errors.append("machine: block required")

    machine_errors: list[str] = []
    params = None
    if "machine" in root:
        params = _parse_machine(_Block("machine", root["machine"], machine_errors), machine_errors)
    errors.extend(machine_errors)

    base = standstill_study_scenario()
    sb = _Block("scenario", root.get("scenario", {}), errors)
    profile_raw = sb.raw("profile")
    setpoints = sb.num_list("setpoints", 2, base.setpoints)
    injection = _parse_injection(sb.raw("injection"), base.injection, errors)
    t_end = sb.num("t_end", base.t_end)
    T_s = sb.num("T_s", base.T_s)
    ode_substeps = sb.integer("ode_substeps", base.ode_substeps)
    theta0 = sb.num("theta0", base.theta0)
    theta_hat_err0 = sb.num("theta_hat_err0", base.theta_hat_err0)
    noise_std = sb.num("noise_std", base.noise_std)
    seed = sb.integer("seed", base.seed)
    obs_on_estimates = sb.boolean("obs_on_estimates", base.obs_on_estimates)
    sb.check_unknown()

    profile = base.profile
    if profile_raw is not None:
        ok = (
            isinstance(profile_raw, list)
            and profile_raw
            and all(isinstance(q, list) and len(q) == 2 and all(_is_num(x) for x in q) for q in profile_raw)
        )
        if not ok:
            errors.append("scenario.profile: must be a non-empty list of [time, omega] pairs")
        elif any(b[0] <= a[0] for a, b in zip(profile_raw, profile_raw[1:])):
            errors.append("scenario.profile: breakpoint times must be strictly increasing")
        else:
            profile = SpeedProfile.from_breakpoints(profile_raw)

    eb = _Block("estimator", root.get("estimator", {}), errors)
    q_diag = eb.num_list("q_diag", 4, base.q_diag)
    r_diag = eb.num_list("r_diag", 2, base.r_diag)
    p0_diag = eb.num_list("p0_diag", 4, base.p0_diag)
    eb.check_unknown()
    for name, diag in (("q_diag", q_diag), ("p0_diag", p0_diag)):
        if any(v < 0.0 for v in diag):
            errors.append(f"estimator.{name}: entries must be >= 0")
    if any(v <= 0.0 for v in r_diag):
        errors.append("estimator.r_diag: entries must be > 0")

    cb = _Block("control", root.get("control", {}), errors)
    bandwidth = cb.num("bandwidth", base.control_bandwidth)
    voltage_limit = cb.num("voltage_limit", base.voltage_limit)
    cb.check_unknown()
    if bandwidth <= 0.0:
        errors.append("control.bandwidth: must be > 0")
    if voltage_limit <= 0.0:
        errors.append("control.voltage_limit: must be > 0")

    ob = _Block("output", root.get("output", {}), errors)
    out_dir = ob.string("dir", ".")
    csv_name = ob.string("csv", "trajectory.csv")
    write_summary = ob.boolean("summary", True)
    ob.check_unknown()

    sweep = None
    if "sweep" in root:
        wb = _Block("sweep", root["sweep"], errors)
        parameter = wb.string("parameter")
        values = wb.num_list("values")
        wb.check_unknown()
        if parameter is None or values is None or not values:
            errors.append("sweep: needs 'parameter' and a non-empty 'values' list")
        elif parameter not in SWEEPABLE:
            errors.append(f"sweep.parameter: {parameter!r} not sweepable (use one of {', '.join(SWEEPABLE)})")
        else:
            sweep = SweepSpec(parameter=parameter, values=values)

    analyze_states: tuple[AnalyzePoint, ...] = ()
    if "analyze" in root:
        ab = _Block("analyze", root["analyze"], errors)
        states_raw = ab.raw("states")
        ab.check_unknown()
        if not isinstance(states_raw, list) or not states_raw:
            errors.append("analyze.states: must be a non-empty list of state objects")
        else:
            pts = []
            for idx, entry in enumerate(states_raw):
                pb = _Block(f"analyze.states[{idx}]", entry, errors)
                pt = AnalyzePoint(
                    i_d=pb.num("i_d", 0.0), i_q=pb.num("i_q", 0.0),
                    di_d=pb.num("di_d", 0.0), di_q=pb.num("di_q", 0.0),
                    omega=pb.num("omega", 0.0), omega_dot=pb.num("omega_dot", 0.0),
                    theta=pb.num("theta", 0.0),
                )
                pb.check_unknown()
                pts.append(pt)
            analyze_states = tuple(pts)

    # scenario-level invariants, all reported
    if t_end <= 0.0:
        errors.append("scenario.t_end: must be > 0")
    if T_s <= 0.0:
        errors.append("scenario.T_s: must be > 0")
    elif t_end > 0.0 and t_end / T_s <= 0.5:  # round(t_end / T_s) < 1, without overflow
        errors.append("scenario.t_end: must span at least one sample (round(t_end / T_s) >= 1)")
    if ode_substeps < 1:
        errors.append("scenario.ode_substeps: must be >= 1")
    if noise_std < 0.0:
        errors.append("scenario.noise_std: must be >= 0")
    if seed < 0:
        errors.append("scenario.seed: must be >= 0")

    if errors:
        raise ConfigError(errors)

    scenario = Scenario(
        params=params,
        profile=profile,
        setpoints=setpoints,
        injection=injection,
        t_end=t_end,
        T_s=T_s,
        ode_substeps=ode_substeps,
        theta0=theta0,
        theta_hat_err0=theta_hat_err0,
        q_diag=q_diag,
        r_diag=r_diag,
        p0_diag=p0_diag,
        control_bandwidth=bandwidth,
        voltage_limit=voltage_limit,
        noise_std=noise_std,
        seed=seed,
        obs_on_estimates=obs_on_estimates,
    )
    return RunConfig(
        scenario=scenario,
        out_dir=out_dir,
        csv_name=csv_name,
        write_summary=write_summary,
        sweep=sweep,
        analyze_states=analyze_states,
    )


def render_config(cfg: RunConfig) -> str:
    """Serialize the fully-resolved configuration, defaults included.

    The output parses back to an equal RunConfig, so every effective default
    is inspectable and a rendered file is a valid input.
    """
    scn = cfg.scenario
    p = scn.params
    doc = {
        "machine": {"R": p.R, "L0": p.L0, "L2": p.L2, "psi_r": p.psi_r, "p": p.p, "J": p.J},
        "scenario": {
            "profile": [[t, w] for t, w in zip(scn.profile.times, scn.profile.speeds)],
            "setpoints": list(scn.setpoints),
            "injection": {
                "kind": scn.injection.kind.value,
                "amplitude": scn.injection.amplitude,
                "frequency": scn.injection.frequency,
                "window": [scn.injection.t_start, scn.injection.t_end],
            },
            "t_end": scn.t_end,
            "T_s": scn.T_s,
            "ode_substeps": scn.ode_substeps,
            "theta0": scn.theta0,
            "theta_hat_err0": scn.theta_hat_err0,
            "noise_std": scn.noise_std,
            "seed": scn.seed,
            "obs_on_estimates": scn.obs_on_estimates,
        },
        "estimator": {
            "q_diag": list(scn.q_diag),
            "r_diag": list(scn.r_diag),
            "p0_diag": list(scn.p0_diag),
        },
        "control": {
            "bandwidth": scn.control_bandwidth,
            "voltage_limit": scn.voltage_limit,
        },
        "output": {"dir": cfg.out_dir, "csv": cfg.csv_name, "summary": cfg.write_summary},
    }
    if cfg.sweep is not None:
        doc["sweep"] = {"parameter": cfg.sweep.parameter, "values": list(cfg.sweep.values)}
    if cfg.analyze_states:
        doc["analyze"] = {
            "states": [
                {
                    "i_d": s.i_d, "i_q": s.i_q, "di_d": s.di_d, "di_q": s.di_q,
                    "omega": s.omega, "omega_dot": s.omega_dot, "theta": s.theta,
                }
                for s in cfg.analyze_states
            ]
        }
    return json.dumps(doc, indent=2) + "\n"


def apply_sweep_value(scn: Scenario, parameter: str, value: float) -> Scenario:
    """Return a copy of the scenario with one sweepable parameter replaced."""
    if parameter == "injection.amplitude":
        return replace(scn, injection=replace(scn.injection, amplitude=value))
    if parameter == "injection.frequency":
        return replace(scn, injection=replace(scn.injection, frequency=value))
    if parameter == "noise_std":
        return replace(scn, noise_std=value)
    if parameter == "theta_hat_err0":
        return replace(scn, theta_hat_err0=value)
    raise ValueError(f"not a sweepable parameter: {parameter}")
