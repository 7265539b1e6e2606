"""Output checks, one gate per workload.

Each check returns a list of failure messages (empty when the output is
correct) and a list of observations.  A failed check fails its operation; it
is counted, never retried.  Observations record known defects the benchmark
meets without gating on them.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from pmsmlab.cli import SWEEP_COLUMNS
from pmsmlab.observability import hfi_det_y1
from pmsmlab.report import read_csv

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Reordered arithmetic moves these values by ~1e-9 relative; wrong results
# move them by far more (see README.md).
REL_TOL = 1e-6
ABS_TOL = 1e-12

LOCK_AFTER_S = 0.2  # acceptance criterion 6: first |theta_err| < LOCK_RAD after 0.2 s
LOCK_RAD = 0.05

# Closed form vs finite-difference oracle, acceptance criteria 1 and 2.
ORDER1_REL, ORDER1_NEAR_ZERO, ORDER1_ABS = 1e-4, 1e-3, 1e-6
ORDER23_REL = 1e-3


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


# -- oracle points ----------------------------------------------------------


def oracle_agree(order: int, cf: float, stack_rows: np.ndarray) -> tuple[bool, bool, float]:
    """Compare a closed-form determinant with the oracle's 4x4 row selection.

    Returns (passed, within_criterion_bound, relative error).  Orders 1 and 2
    pass exactly when they meet the criterion bounds.  At order 3 the
    determinant is a small difference of large products (|det| down to 1/600
    of the product of the row norms) and the oracle's relative error reaches
    ~2e-2 on about 1 point in 400.  There the 1e-3 bound is applied to that
    natural scale, |fd - cf| <= 1e-3 * prod(row norms), and a miss of the
    plain relative bound is returned for the caller to report.
    """
    fd = float(np.linalg.det(stack_rows))
    err = abs(fd - cf)
    rel = err / abs(cf) if cf != 0.0 else math.inf
    if order == 1:
        ok = err < ORDER1_ABS if abs(cf) < ORDER1_NEAR_ZERO else rel < ORDER1_REL
        return ok, ok, rel
    within = rel < ORDER23_REL
    if order == 2:
        return within, within, rel
    scale = float(np.prod(np.linalg.norm(stack_rows, axis=1)))
    return within or err <= ORDER23_REL * scale, within, rel


# -- trajectory CSVs --------------------------------------------------------


def phase_summary(cols: dict, cfg) -> dict:
    """Per-phase statistics of a trajectory CSV.

    Phases come from the config, not from the log: motion where the true
    speed is nonzero, injection inside the injection window, standstill
    elsewhere.  Values that are all-NaN in a phase are reported as None.
    """
    t = cols["t"]
    inj = cfg.scenario.injection
    motion = cols["omega_true"] != 0.0
    injection = (t >= inj.t_start) & (t < inj.t_end) & ~motion
    standstill = ~motion & ~injection
    out = {}
    for name, mask in (("standstill", standstill), ("injection", injection), ("motion", motion)):
        if not np.any(mask):
            continue
        th = np.abs(cols["theta_err"][mask])
        w = np.abs(cols["omega_hat"][mask] - cols["omega_true"][mask])
        margin = np.abs(cols["margin"][mask])
        stats = {
            "n": int(mask.sum()),
            "max_abs_theta_err": float(np.max(th)),
            "mean_abs_theta_err": float(np.mean(th)),
            "mean_abs_omega_err": float(np.mean(w)),
            "rank_deficient_fraction": float(np.mean(cols["rank"][mask] < 4)),
            "min_abs_margin": float(np.nanmin(margin)) if np.any(np.isfinite(margin)) else math.nan,
        }
        out[name] = {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in stats.items()}
    return out


def first_lock(cols: dict) -> float | None:
    idx = np.flatnonzero((cols["t"] >= LOCK_AFTER_S) & (np.abs(cols["theta_err"]) < LOCK_RAD))
    return float(cols["t"][idx[0]]) if idx.size else None


def _read_trajectory(out_dir: str, cfg, fails: list) -> dict | None:
    path = os.path.join(out_dir, cfg.csv_name)
    try:
        cols = read_csv(path)  # checks the schema line and the header
    except (OSError, ValueError) as exc:
        fails.append(f"trajectory CSV unreadable: {exc}")
        return None
    n = len(cols["t"])
    if n != cfg.scenario.n_samples:
        fails.append(f"{n} rows, expected n_samples = {cfg.scenario.n_samples}")
    return cols


def check_study(out_dir: str, cfg, ref: dict) -> tuple[list, list]:
    fails: list[str] = []
    cols = _read_trajectory(out_dir, cfg, fails)
    if cols is None:
        return fails, []
    t_lock = first_lock(cols)
    if t_lock is None or abs(t_lock - ref["t_lock"]) > cfg.scenario.T_s * (1.0 + 1e-9):
        fails.append(f"first lock at {t_lock} s, reference {ref['t_lock']} s")
    got = phase_summary(cols, cfg)
    for phase, stats in ref["phases"].items():
        for key, want in stats.items():
            have = got.get(phase, {}).get(key)
            if want is None or have is None:
                if want != have:
                    fails.append(f"{phase}.{key} = {have}, reference {want}")
            elif not _close(have, want):
                fails.append(f"{phase}.{key} = {have!r}, reference {want!r}")
    return fails, []


def check_analyze(out_dir: str, cfg) -> tuple[list, list]:
    fails: list[str] = []
    cols = _read_trajectory(out_dir, cfg, fails)
    if cols is None:
        return fails, []
    for name in ("omega_hat", "theta_hat", "theta_err"):
        if not np.all(np.isnan(cols[name])):
            fails.append(f"estimate column {name} is not NaN throughout")
    det, margin = cols["det_y1"], cols["margin"]
    both = np.isfinite(margin) & (det != 0.0) & (margin != 0.0)
    n_bad = int(np.sum(np.sign(det[both]) != np.sign(margin[both])))
    if n_bad:
        fails.append(f"sign(det_y1) != sign(margin) at {n_bad} samples (criterion 9)")
    still = cols["omega_true"] == 0.0
    n_full = int(np.sum(cols["rank"][still] >= 4))
    if n_full:
        fails.append(f"rank 4 at {n_full} standstill samples")
    return fails, []


def read_sweep(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# sweep parameter:"):
            raise ValueError(f"missing sweep comment line in {path}")
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != SWEEP_COLUMNS:
            raise ValueError(f"unexpected sweep columns {header}")
        return [dict(zip(header, map(float, row))) for row in reader]


def check_sweep(out_dir: str, cfg, ref: dict) -> tuple[list, list]:
    fails: list[str] = []
    try:
        rows = read_sweep(os.path.join(out_dir, "sweep.csv"))
    except (OSError, ValueError, StopIteration) as exc:
        return [f"sweep.csv unreadable: {exc!r}"], []
    values = list(cfg.sweep.values)
    if [r["value"] for r in rows] != values:
        return [f"sweep rows {[r['value'] for r in rows]}, expected {values}"], []
    scn = cfg.scenario
    inj = scn.injection
    for row, want in zip(rows, ref["rows"]):
        peak = hfi_det_y1(scn.profile.omega(inj.t_start), scn.theta_hat_err0, 0.0, row["value"],
                          inj.frequency, scn.params)
        if not math.isclose(row["hfi_det_at_peak"], peak, rel_tol=1e-12):
            fails.append(f"value {row['value']}: hfi_det_at_peak {row['hfi_det_at_peak']!r} != closed form {peak!r}")
        if row["rank_deficient_fraction"] != 1.0:
            fails.append(f"value {row['value']}: rank_deficient_fraction {row['rank_deficient_fraction']} != 1.0")
        # columns NaN at the reference are defects (ROADMAP item 5) or undefined
        # for this profile: observed below, not gated
        for key, w in want.items():
            if w is not None and not _close(row[key], w):
                fails.append(f"value {row['value']}: {key} = {row[key]!r}, reference {w!r}")
    nan_cols = {key: sum(math.isnan(r[key]) for r in rows) for key in SWEEP_COLUMNS}
    obs = [f"sweep.csv NaN cells: {key} {n}/{len(rows)}" for key, n in nan_cols.items() if n]
    return fails, obs
