"""Run configuration: JSON parsing with exhaustive validation.

The file is a JSON object with blocks "machine" (required), "scenario",
"estimator", "control", "output", "sweep", and "analyze".  Every omitted
field takes the default its field declares (the reference standstill study,
written to trajectory.csv in the working directory), so a minimal file needs
only the machine constants.

The parser checks the JSON's shapes, unknown keys and the choice between
Ld/Lq and L0/L2, and each value by the type rules that the dataclasses
check too, machine.TYPE_RULES.  The value rules belong to the dataclasses:
MachineParams, SpeedProfile, InjectionSchedule and Scenario each state
theirs once in violations(), which the parser calls on the values it read,
without building the objects, and labels with the JSON path.  The fields
of Scenario and RunConfig give the paths, in file order, and their
defaults; Scenario's also say what a sweep may vary.  Each
sweep point is checked as the scenario it makes, once the base scenario is
valid.  Validation never stops at the first problem: parse_config raises
ConfigError carrying the complete list of violations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from itertools import groupby

from pmsmlab.control import InjectionKind, InjectionSchedule
from pmsmlab.machine import TYPE_RULES, MachineParams, _is_num
from pmsmlab.simulation import Scenario, SpeedProfile, _config, table_params

# what a sweep may vary, "a.b" naming part b of field a; sorted, as the sweep.parameter message lists them
SWEEPABLE = tuple(sorted(f.name + part for f in fields(Scenario) for part in f.metadata.get("sweep", ())))


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
    """A scenario and what to do with it; the output fields, like Scenario's, state their config path and default."""

    scenario: Scenario
    out_dir: str = _config("output.dir", ".")
    csv_name: str = _config("output.csv", "trajectory.csv")
    write_summary: bool = _config("output.summary", True)
    sweep: SweepSpec | None = None
    analyze_states: tuple[AnalyzePoint, ...] = ()


# every field the file holds outside the machine block, in file order: drives parsing, rendering and error labels
FILE_FIELDS = tuple(f for cls in (Scenario, RunConfig) for f in fields(cls) if f.metadata)
SCENARIO_PATHS = {f.name: f.metadata["path"] for f in fields(Scenario) if f.metadata}


def _labels(block: str, found, path) -> list[str]:
    """One error line per (field or None, message) pair: 'path(field): message' or 'block: message'."""
    return [f"{block if key is None else path(key)}: {msg}" for key, msg in found]


class _Block:
    """One nested section: a getter that records problems instead of raising."""

    def __init__(self, name: str, data: dict, errors: list):
        self.name = name
        self.data = data if isinstance(data, dict) else {}
        self.errors = errors
        self.seen = set()
        if not isinstance(data, dict):
            errors.append(f"{name}: must be an object")

    def get(self, key, default, kind=None):
        """The value at key if it keeps the type rule of kind (by default the default's type), else the default.

        A broken rule is recorded; a number is read as a float and a list of numbers as a tuple of floats.
        """
        self.seen.add(key)
        if key not in self.data:
            return default
        kind = kind or type(default)
        holds, message = TYPE_RULES[kind]
        v = self.data[key]
        if not holds(v):
            self.errors.append(f"{self.name}.{key}: {message}")
            return default
        return tuple(map(float, v)) if kind is tuple else kind(v)

    def raw(self, key):
        self.seen.add(key)
        return self.data.get(key)

    def read(self, path: str, default):
        """The value at path (this block's name, then the key): the injection block parsed, the profile raw (parsed
        once its block is read), else get.

        An absent key gives the default; an explicit null is a value, so it breaks the shape rule of its key.
        """
        key = path.rpartition(".")[2]
        if not isinstance(default, (InjectionSchedule, SpeedProfile)):
            return self.get(key, default)
        self.seen.add(key)
        if key not in self.data:
            return default
        raw = self.data[key]
        return _parse_injection(raw, path, default, self.errors) if isinstance(default, InjectionSchedule) else raw

    def check_unknown(self):
        extra = set(self.data) - self.seen
        for k in sorted(extra):
            self.errors.append(f"{self.name}.{k}: unknown key")


def _parse_machine(block: _Block, errors: list, ref: MachineParams) -> MachineParams | None:
    # a missing or mistyped constant takes the reference machine's value, so the value rules still run on the others
    values = {key: block.get(key, getattr(ref, key)) for key in ("R", "psi_r", "p", "J")}
    Ld, Lq, L0, L2 = (block.get(key, None, float) for key in ("Ld", "Lq", "L0", "L2"))
    block.check_unknown()

    for key in ("R", "psi_r", "p"):
        if key not in block.data:  # a value of the wrong type has its own line
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

    values.update(L0=L0, L2=L2)
    errors.extend(_labels("machine", MachineParams.violations(**values), "machine.{}".format))
    return None if errors else MachineParams(**values)


def _parse_injection(raw, path: str, defaults: InjectionSchedule, errors: list) -> InjectionSchedule:
    """The injection block at path; its errors are labelled with path and the block's keys."""
    b = _Block(path, raw, errors)
    name = b.get("kind", defaults.kind.value)
    amplitude = b.get("amplitude", defaults.amplitude)
    frequency = b.get("frequency", defaults.frequency)
    window = b.get("window", (defaults.t_start, defaults.t_end))
    if len(window) != 2:
        errors.append(f"{path}.window: must have exactly 2 entries")
        window = (defaults.t_start, defaults.t_end)
    b.check_unknown()
    kind = {k.value: k for k in InjectionKind}.get(name, name)  # an unknown name is left for the kind rule to name
    found = _labels(path, InjectionSchedule.violations(kind, amplitude, frequency, *window), f"{path}.{{}}".format)
    errors.extend(found)
    return defaults if found else InjectionSchedule(kind, amplitude, frequency, *window)


def _parse_profile(raw, path: str, default: SpeedProfile, errors: list) -> SpeedProfile:
    """The breakpoint list at path; its errors are labelled with path."""
    if raw is default:  # the key is absent
        return default
    if not (
        isinstance(raw, list)
        and raw
        and all(isinstance(q, list) and len(q) == 2 and all(_is_num(x) for x in q) for q in raw)
    ):
        errors.append(f"{path}: must be a non-empty list of [time, omega] pairs")
        return default
    times, speeds = tuple(float(q[0]) for q in raw), tuple(float(q[1]) for q in raw)
    found = _labels(path, SpeedProfile.violations(times, speeds), lambda key: path)
    errors.extend(found)
    return default if found else SpeedProfile(times, speeds)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; raises ConfigError with every problem."""
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or too deep nesting
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(root, dict):
        raise ConfigError(["top level must be a JSON object"])

    errors: list[str] = []
    known = {"machine", "scenario", "estimator", "control", "output", "sweep", "analyze"}
    for k in sorted(set(root) - known):
        errors.append(f"{k}: unknown top-level block")
    if "machine" not in root:
        errors.append("machine: block required")

    reference = table_params()
    machine_errors: list[str] = []
    params = None
    if "machine" in root:
        params = _parse_machine(_Block("machine", root["machine"], machine_errors), machine_errors, reference)
    errors.extend(machine_errors)

    field_values = {"params": reference if params is None else params}  # a bad machine block is named above
    for name, group in groupby(FILE_FIELDS, lambda f: f.metadata["path"].split(".")[0]):
        block, group = _Block(name, root.get(name, {}), errors), list(group)
        for f in group:
            field_values[f.name] = block.read(f.metadata["path"], f.default)
        block.check_unknown()
        for f in group:  # a profile's breakpoint checks follow its block's key checks
            if isinstance(f.default, SpeedProfile):
                field_values[f.name] = _parse_profile(field_values[f.name], f.metadata["path"], f.default, errors)

    sweep = None
    if "sweep" in root:
        wb = _Block("sweep", root["sweep"], errors)
        parameter = wb.get("parameter", None, str)
        values = wb.get("values", None, tuple)
        wb.check_unknown()
        if parameter is None or values is None or not values:
            if isinstance(root["sweep"], dict):  # a block that is no object has its one line
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
            if isinstance(root["analyze"], dict):  # a block that is no object has its one line
                errors.append("analyze.states: must be a non-empty list of state objects")
        else:
            pts = []
            for idx, entry in enumerate(states_raw):
                pb = _Block(f"analyze.states[{idx}]", entry, errors)
                pt = AnalyzePoint(**{f.name: pb.get(f.name, f.default) for f in fields(AnalyzePoint)})
                pb.check_unknown()
                pts.append(pt)
            analyze_states = tuple(pts)

    errors.extend(_labels("scenario", Scenario.violations(**field_values), SCENARIO_PATHS.get))
    if errors:
        raise ConfigError(errors)
    scenario = Scenario(**{f.name: field_values.pop(f.name) for f in fields(Scenario)})  # the output fields remain
    for value in sweep.values if sweep else ():
        try:
            apply_sweep_value(scenario, sweep.parameter, value)
        except ValueError as exc:
            errors.append(f"sweep: invalid point {sweep.parameter}={value!r}: {exc}")
    if errors:
        raise ConfigError(errors)
    return RunConfig(scenario, sweep=sweep, analyze_states=analyze_states, **field_values)


def _json_value(value):
    """A field value as the config file writes it."""
    if isinstance(value, SpeedProfile):
        return [[t, w] for t, w in zip(value.times, value.speeds)]
    if isinstance(value, InjectionSchedule):
        return {
            "kind": value.kind.value,
            "amplitude": value.amplitude,
            "frequency": value.frequency,
            "window": [value.t_start, value.t_end],
        }
    return list(value) if isinstance(value, tuple) else value


def render_config(cfg: RunConfig) -> str:
    """Serialize the fully-resolved configuration, defaults included.

    The output parses back to an equal RunConfig, so every effective default
    is inspectable and a rendered file is a valid input.
    """
    doc = {"machine": asdict(cfg.scenario.params)}
    for f in FILE_FIELDS:
        name, key = f.metadata["path"].split(".")
        doc.setdefault(name, {})[key] = _json_value(getattr(cfg.scenario if f.name in SCENARIO_PATHS else cfg, f.name))
    if cfg.sweep is not None:
        doc["sweep"] = {"parameter": cfg.sweep.parameter, "values": list(cfg.sweep.values)}
    if cfg.analyze_states:
        doc["analyze"] = {"states": [asdict(s) for s in cfg.analyze_states]}
    return json.dumps(doc, indent=2) + "\n"


def apply_sweep_value(scn: Scenario, parameter: str, value: float) -> Scenario:
    """Return a copy of the scenario with one SWEEPABLE field replaced; "a.b" names field b of field a."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"not a sweepable parameter: {parameter}")
    outer, _, name = parameter.rpartition(".")
    if outer:
        value = replace(getattr(scn, outer), **{name: value})
    return replace(scn, **{outer or name: value})
