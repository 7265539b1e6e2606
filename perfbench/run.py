"""pmsmlab benchmark: end-to-end metrics per workload, or a traced per-layer split.

    python3 perfbench/run.py --workload study_ipmsm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
inputs from the seed under .perfbench/, measures set-up time in fresh
interpreters, runs the operations in one worker process (closed loop, no
threads), checks every operation's output and prints one line per metric
followed by a JSON summary line.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from hostclock import calibrated

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SIM_WORKLOADS = {
    # name: (verb, shipped config or None when generated, pass --seed)
    "study_ipmsm": ("simulate", "standstill_ipmsm.json", True),
    "hfi_sweep": ("sweep", "hfi_voltage_sweep.json", True),
    "analyze_spmsm_noisy": ("analyze", None, False),
}
WORKLOADS = (*SIM_WORKLOADS, "oracle_points")

SETUP_REPS = 5  # fresh interpreters per run, after one unmeasured warm-up
WORKER_TIMEOUT_S = 150  # keeps a run within 180 s; an operation overruns --seconds by at most itself
# numpy's BLAS pool would add threads; the workloads are single-threaded
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
REPORTED = {"realtime_factor": "sim-s/wall-s", "point_ms_p50": "ms", "point_ms_p99": "ms", "failed_frac": "ratio"}

# per-layer metric -> (layer statistic, field); values are per traced operation
LAYER_FIELDS = {
    "cli.verb_s": ("cli.verb", "total_s"),
    "cli.self_s": ("cli.verb", "self_s"),
    "config.parse_s": ("config.parse", "total_s"),
    "simulation.run_scenario_s": ("simulation.run_scenario", "total_s"),
    "simulation.run_scenario_self_s": ("simulation.run_scenario", "self_s"),
    "simulation.integrate_s": ("simulation.integrate", "total_s"),
    "simulation.integrate_self_s": ("simulation.integrate", "self_s"),
    "simulation.integrate_calls": ("simulation.integrate", "calls"),
    "simulation.profile_s": ("simulation.profile", "total_s"),
    "simulation.profile_calls": ("simulation.profile", "calls"),
    "machine.rate_calls": ("machine.rate", "calls"),
    "ekf.predict_s": ("ekf.predict", "total_s"),
    "ekf.update_s": ("ekf.update", "total_s"),
    "ekf.step_self_s": ("ekf.step", "self_s"),
    "ekf.step_calls": ("ekf.step", "calls"),
    "control.step_s": ("control.step", "total_s"),
    "control.step_calls": ("control.step", "calls"),
    "control.reference_s": ("control.reference", "total_s"),
    "observability.trajectory_reports_s": ("observability.trajectory_reports", "total_s"),
    "observability.sample_report_s": ("observability.sample_report", "total_s"),
    "observability.sample_report_calls": ("observability.sample_report", "calls"),
    "observability.lie_stack_s": ("observability.lie_stack", "total_s"),
    "observability.lie_stack_calls": ("observability.lie_stack", "calls"),
    "observability.oracle_rate_calls": ("observability.oracle_rate", "calls"),
    "report.write_csv_s": ("report.write_csv", "total_s"),
    "report.summarize_s": ("report.summarize", "total_s"),
    "oracle.batch_s": ("oracle.batch", "total_s"),
    "oracle.batch_self_s": ("oracle.batch", "self_s"),
}
# Self times that partition one traced operation: their sum is
# cli.verb_s + oracle.batch_s (only one of the two is nonzero).
SELF_TERMS = (
    "cli.self_s", "config.parse_s", "simulation.run_scenario_self_s",
    "simulation.integrate_self_s", "simulation.profile_s", "ekf.predict_s",
    "ekf.update_s", "ekf.step_self_s", "control.step_s", "control.reference_s",
    "observability.trajectory_reports_s", "observability.sample_report_s",
    "observability.lie_stack_s", "report.write_csv_s", "report.summarize_s",
    "oracle.batch_self_s",
)
PER_LAYER = {
    **{name: "count" if name.endswith("_calls") else "s" for name in LAYER_FIELDS},
    "report.csv_bytes": "bytes",
    "trace.op_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot measure; no result is printed."""


def tail_percentile(values: list) -> tuple[float, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(values, p))
    return None


def _describe(values: list, unit: str, what: str) -> str:
    tail = tail_percentile(values)
    if tail is None:
        return f"median of {len(values)} {what}; too few for a tail percentile"
    return f"median of {len(values)} {what}; p{tail[0]:g} {tail[1]:.6g} {unit}"


def _env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    return env


SETUP_CODE = """\
import sys
sys.path[:0] = sys.argv[1:3]
from hostclock import HostSampler
with HostSampler() as probe:
    from pmsmlab.cli import main
    code = main(sys.argv[3:])
print(probe.total_s, probe.speed(), file=sys.stderr)
sys.exit(code)
"""


def measure_setup(src: str, argv: list, reps: int) -> tuple[list, list]:
    """Fresh interpreter to resolved config: import pmsmlab + parse_config.

    `pmsmlab <verb> -c CFG --print-config` does exactly that and exits.
    Returns raw and calibrated times, one per measured interpreter.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, src, HERE, *argv, "--print-config"]
    raw, cal = [], []
    for k in range(reps + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        probe_s, speed = map(float, proc.stderr.split()[-2:])
        if k:
            raw.append(dt - probe_s)
            cal.append(calibrated(dt - probe_s, speed))
    return raw, cal


def prepare(workload: str, seed: int, work: str, t_end: float | None, batch) -> dict:
    """Generate the seeded inputs; return the worker spec (without timing fields)."""
    import inputs
    from pmsmlab.config import parse_config

    in_dir = os.path.join(work, "inputs")
    os.makedirs(in_dir)
    if workload == "oracle_points":
        kw = {} if batch is None else {"batch": batch, "batches": 2}
        return {"points": inputs.oracle_points(seed, os.path.join(in_dir, "points.json"), **kw)}
    verb, shipped, pass_seed = SIM_WORKLOADS[workload]
    if shipped is None:
        cfg_path = inputs.analyze_config(ROOT, seed, os.path.join(in_dir, f"{workload}.json"))
    else:
        cfg_path = os.path.join(ROOT, "configs", shipped)
    if t_end is not None:  # shortened copy, for the smoke test only
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        cfg["scenario"]["t_end"] = t_end
        cfg_path = os.path.join(in_dir, f"{workload}.short.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
    argv = [verb, "-c", cfg_path] + (["--seed", str(seed)] if pass_seed else [])
    with open(cfg_path) as fh:
        cfg = parse_config(fh.read())
    return {"argv": argv, "cfg": cfg}


def run_worker(spec: dict, work: str) -> dict:
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w") as fh:
        json.dump({k: v for k, v in spec.items() if k != "cfg"}, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def gate_op(workload: str, op: dict, spec: dict, ref: dict) -> tuple[list, list]:
    import gate

    try:
        if op["error"] or op["exit"] != 0:
            return [f"exit {op['exit']}: {op['error'] or op.get('stderr', '').strip()[-300:]}"], []
        if workload == "oracle_points":
            bad = sum(not p[2] for p in op["points"])
            return [f"{bad} points beyond the oracle bound"] if bad else [], []
        if workload == "study_ipmsm":
            return gate.check_study(op["out_dir"], spec["cfg"], ref["study_ipmsm"])
        if workload == "hfi_sweep":
            return gate.check_sweep(op["out_dir"], spec["cfg"], ref["hfi_sweep"])
        return gate.check_analyze(op["out_dir"], spec["cfg"])
    finally:
        if "out_dir" in op:
            shutil.rmtree(op["out_dir"], ignore_errors=True)


def _median(values: list) -> float:
    return statistics.median(values) if values else math.nan


def layer_metrics(ops: list) -> dict:
    traced = [op for op in ops if op["traced"]]
    per_op = []
    for op in traced:
        layers, counts = op["layers"]["layers"], op["layers"]["counts"]
        m = {name: layers.get(stat, {}).get(field, 0 if field == "calls" else 0.0)
             for name, (stat, field) in LAYER_FIELDS.items()}
        m["report.csv_bytes"] = counts.get("report.csv_bytes", 0)
        m["trace.op_s"] = op["wall_s"]
        m["trace.self_sum_s"] = sum(m[name] for name in SELF_TERMS)
        per_op.append(m)
    # counts are exact: report one of them, not the mean of the middle two
    out = {name: (statistics.median_low if unit in ("count", "bytes") else _median)([m[name] for m in per_op])
           for name, unit in PER_LAYER.items() if name != "trace.overhead_s"}
    out["trace.overhead_s"] = _median([op["wall_s"] for op in traced]) - _median(
        [op["wall_s"] for op in ops if not op["traced"]]
    )
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            t_end: float | None = None, batch=None, setup_reps: int = SETUP_REPS) -> dict:
    """Run one workload; return printable lines and the JSON result."""
    import gate

    src = os.path.join(ROOT, "src")
    work = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    spec = prepare(workload, seed, work, t_end, batch)
    spec.update(workload=workload, src=src, seconds=seconds, trace=trace,
                out=os.path.join(work, "out"), spans=os.path.join(work, "spans.json"))
    setup_raw, setup_cal = measure_setup(src, spec.get("argv", []), setup_reps)
    result = run_worker(spec, work)
    ops = result["ops"]

    ref = gate.load_reference()
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  operations {len(ops)}"
             f"  measured {result['measured_s']:.2f} s  inputs {os.path.relpath(work, ROOT)}"]
    failed = 0
    observations: dict[str, int] = {}  # message -> operations it was seen in
    for k, op in enumerate(ops):
        fails, obs = gate_op(workload, op, spec, ref)
        op["ok"] = not fails
        failed += bool(fails)
        for msg in fails[:5]:
            lines.append(f"FAILED op {k}: {msg}")
        for msg in obs:
            observations[msg] = observations.get(msg, 0) + 1
    for msg, n in observations.items():
        lines.append(f"observation: {msg} (in {n} of {len(ops)} operations)")
    if workload == "oracle_points":
        points = [p for op in ops for p in op["points"]]
        beyond = sum(not p[3] for p in points)
        worst = max((p[4] for p in points if p[0] == 3), default=math.nan)
        lines.append(f"observation: {beyond} of {len(points)} oracle points beyond the plain criterion-2"
                     f" relative bound 1e-3; order-3 worst relative error {worst:.3g}")

    # end-to-end figures come from untraced operations only, at the
    # reference host speed (hostclock.py); raw figures are shown beside them
    ok_ops = [op for op in ops if op["ok"] and not op["traced"]] or [op for op in ops if not op["traced"]]
    raw = [op["wall_s"] for op in ok_ops]
    walls = [calibrated(op["wall_s"], op["speed"]) for op in ok_ops]
    speed = _median([op["speed"] for op in ok_ops])
    values = {
        "setup_s": (_median(setup_cal), _describe(setup_cal, "s", "fresh interpreters")
                    + f"; raw median {_median(setup_raw):.6g} s"),
        "wall_s": (_median(walls), _describe(walls, "s", "untraced operations")
                   + f"; raw median {_median(raw):.6g} s at host speed {speed:.3f}"),
        "peak_rss_mb": (result["peak_rss_mb"], "ru_maxrss of the worker process"),
        "failed_frac": (failed / len(ops), f"{failed} failed of {len(ops)} operations"),
    }
    if workload == "oracle_points":
        ms = [1e3 * calibrated(p[1], op["speed"]) for op in ok_ops for p in op["points"]]
        values["point_ms_p50"] = (float(np.percentile(ms, 50.0)), f"n={len(ms)} points")
        values["point_ms_p99"] = (float(np.percentile(ms, 99.0)),
                                  f"n={len(ms)} points, {int(len(ms) * 0.01)} beyond it")
    else:
        cfg = spec["cfg"]
        n_scen = len(cfg.sweep.values) if workload == "hfi_sweep" else 1
        sim_s = n_scen * cfg.scenario.n_samples * cfg.scenario.T_s
        rtf = [sim_s / w for w in walls]
        values["realtime_factor"] = (_median(rtf), f"{sim_s:g} simulated s per operation, median of n={len(rtf)}")
    units = {**END_TO_END, **REPORTED}
    for name, (value, detail) in values.items():
        lines.append(f"{name:<34} {value:<14.6g} {units[name]:<13} {detail}")

    if trace:
        layer = layer_metrics(ops)
        for name, unit in PER_LAYER.items():
            lines.append(f"{name:<34} {layer[name]:<14.6g} {unit:<13} per traced operation")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "lines": lines,
        "result": {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "pmsmlab", "__init__.py")):
        print(f"perfbench: no pmsmlab sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pmsmlab

    if not os.path.abspath(pmsmlab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: pmsmlab imported from {pmsmlab.__file__}, not from {ROOT}/src", file=sys.stderr)
        return 2
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
