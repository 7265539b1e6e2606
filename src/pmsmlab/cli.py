"""Command-line front end.

Verbs: simulate (full closed-loop run + trajectory CSV), analyze
(observability along a trajectory or at fixed states, no estimator), and
sweep (grid over one named parameter, one summary row per point).

Exit codes: 0 success, 1 validation failure, 2 numerical abort, 3 I/O
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from pmsmlab.config import ConfigError, RunConfig, apply_sweep_value, parse_config, render_config
from pmsmlab.control import InjectionKind
from pmsmlab.observability import hfi_det_y1, sample_report
from pmsmlab.report import SUMMARY_COLUMNS, stream_csv, summarize, write_rows
from pmsmlab.simulation import Scenario, needs_estimator, run_chunks, run_scenario, standstill_study_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

SWEEP_COLUMNS = (
    "value", "final_theta_err", "standstill_max_theta_err",
    "injection_max_theta_err", "injection_mean_theta_err",
    "motion_mean_omega_err", "rank_deficient_fraction", "hfi_det_at_peak",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments by default; 2 is reserved for
    # numerical aborts here, so argument problems map to validation failure.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> _Parser:
    p = _Parser(prog="pmsmlab", description=__doc__.strip().splitlines()[0])
    p.add_argument("--print-config", action="store_true",
                   help="print the fully-resolved default configuration and exit")
    sub = p.add_subparsers(dest="verb", parser_class=_Parser)
    for verb, blurb in (
        ("simulate", "run a scenario and write the trajectory CSV"),
        ("analyze", "observability columns only, without the estimator"),
        ("sweep", "rerun the scenario over a parameter grid"),
    ):
        sp = sub.add_parser(verb, help=blurb)
        sp.add_argument("-c", "--config", required=True, help="path to JSON config")
        sp.add_argument("-o", "--out-dir", default=None, help="output directory override")
        if verb != "sweep":  # a sweep writes sweep.csv and no trajectory
            sp.add_argument("--csv", default=None, help="trajectory CSV name override")
        sp.add_argument("--seed", type=int, default=None, help="measurement-noise seed override")
        sp.add_argument("--print-config", action="store_true",
                        help="print the resolved configuration and exit without running")
    return p


def _load_config(args) -> RunConfig:
    try:
        with open(args.config, encoding="utf-8") as fh:  # RFC 8259: JSON is UTF-8
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    cfg = parse_config(text)
    if args.seed is not None:
        try:
            cfg = replace(cfg, scenario=replace(cfg.scenario, seed=args.seed))
        except ValueError as exc:  # "seed: must be >= 0"
            raise ConfigError([f"scenario.{exc}"]) from exc
    if args.out_dir is not None:
        cfg = replace(cfg, out_dir=args.out_dir)
    if getattr(args, "csv", None) is not None:
        cfg = replace(cfg, csv_name=args.csv)
    return cfg


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _finish_run(cfg: RunConfig, chunks) -> int:
    """Write the run's CSV as its chunks come, then report on it."""
    path = _out_path(cfg, cfg.csv_name)
    log = stream_csv(chunks, path)
    if cfg.write_summary and len(log):
        print(summarize(log))
    print(f"wrote {len(log)} rows to {path}")
    if log.aborted:
        print(
            f"numerical abort at t={log.abort_time:.6g} s: {log.abort_reason}; "
            "partial log written",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    return _finish_run(cfg, run_chunks(cfg.scenario))


def cmd_analyze(cfg: RunConfig) -> int:
    if cfg.analyze_states:
        params = cfg.scenario.params
        print("i_d      i_q      omega    theta    rank  det_y1        det_y2        margin")
        for s in cfg.analyze_states:
            rep = sample_report(
                params, 0.0, (s.i_d, s.i_q), (s.di_d, s.di_q), s.omega, s.omega_dot, s.theta
            )
            print(
                f"{s.i_d:<9.4g}{s.i_q:<9.4g}{s.omega:<9.4g}{s.theta:<9.4g}"
                f"{rep.numeric_rank:<6d}{rep.det_y1:<14.6g}{rep.det_y2:<14.6g}{rep.margin:.6g}"
            )
        return EXIT_OK
    if found := needs_estimator(cfg.scenario):
        raise ConfigError([f"scenario.{key}: {msg}" for key, msg in found])
    return _finish_run(cfg, run_chunks(cfg.scenario, with_ekf=False))


def carrier_peak_det(scn: Scenario) -> float:
    """Order-1 determinant at the carrier peak (cos term = 1), at the speed
    where the injection window opens.

    NaN unless the scenario injects a d-axis voltage carrier on a round
    machine, the case hfi_det_y1 is defined for.
    """
    if scn.injection.kind is not InjectionKind.VOLTAGE_ON_DHAT or scn.params.is_salient:
        return math.nan
    return hfi_det_y1(
        scn.profile.omega(scn.injection.t_start), scn.theta_hat_err0,
        0.0, scn.injection.amplitude, scn.injection.frequency, scn.params,
    )


def run_sweep(cfg: RunConfig, keep=None):
    """Run the scenario once per sweep value; yields (value, scenario, log), the log with the columns keep names.

    parse_config has checked every point, and each run builds its own plant maps.
    """
    for value in cfg.sweep.values:
        scn = apply_sweep_value(cfg.scenario, cfg.sweep.parameter, value)
        yield value, scn, run_scenario(scn, keep=keep)


def cmd_sweep(cfg: RunConfig) -> int:
    """Write one summary row per sweep point to sweep.csv in the output directory.

    No trajectory CSV is written, so output.csv, which names the trajectory CSV of
    simulate and analyze, has no effect here.
    """
    if cfg.sweep is None:
        raise ConfigError(["sweep: config has no sweep block"])
    rows, status = [], EXIT_OK
    for value, scn, log in run_sweep(cfg, SUMMARY_COLUMNS):
        if log.aborted:  # stop here; the finished points' rows are still written
            print(
                f"numerical abort at t={log.abort_time:.6g} s "
                f"({cfg.sweep.parameter}={value!r}): {log.abort_reason}",
                file=sys.stderr,
            )
            status = EXIT_NUMERICAL
            break
        summary = summarize(log)
        stats = {ph.name: ph for ph in summary.phases}
        get = lambda name, attr: getattr(stats[name], attr) if name in stats else math.nan
        rows.append((
            value,
            abs(float(log.theta_err[-1])),
            get("standstill", "max_abs_theta_err"),
            get("injection", "max_abs_theta_err"),
            get("injection", "mean_abs_theta_err"),
            get("motion", "mean_abs_omega_err"),
            float((log.rank < 4).mean()),
            carrier_peak_det(scn),
        ))
    path = _out_path(cfg, "sweep.csv")
    write_rows(path, f"sweep parameter: {cfg.sweep.parameter}", SWEEP_COLUMNS, [np.array(rows, dtype=float).T])
    print(f"wrote {len(rows)} sweep rows to {path}")
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.verb is None:
        if args.print_config:
            print(render_config(RunConfig(scenario=standstill_study_scenario())), end="")
            return EXIT_OK
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION

    try:
        cfg = _load_config(args)
        if args.print_config:
            print(render_config(cfg), end="")
            return EXIT_OK
        if args.verb == "simulate":
            return cmd_simulate(cfg)
        if args.verb == "analyze":
            return cmd_analyze(cfg)
        return cmd_sweep(cfg)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
