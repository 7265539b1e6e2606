"""Trajectory CSV emission and per-phase summary statistics.

The CSV layout is a versioned contract: a comment line carrying the schema
tag, a header row, then one row per control sample.  Floats are written with
repr (shortest round-trip), so identical runs produce byte-identical files.
The v1 columns are TrajectoryLog's columns without those marked v1=False.
A run's chunks are written as the run hands them on (stream_csv), so the file
grows while the run goes and only the summary columns are kept.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from pmsmlab.simulation import COLUMNS, Collector, TrajectoryLog

SCHEMA_TAG = "pmsmlab.trajectory.v1"
_ROW_BLOCK = 64  # CSV rows write_rows formats at a time

_V1 = tuple(f for f in COLUMNS if f.metadata.get("v1", True))  # the log's columns that v1 holds, in order
CSV_COLUMNS = tuple(f.name for f in _V1)
_WHOLE = [j for j, f in enumerate(_V1) if f.metadata.get("dtype") is int]  # places of the integer columns
# the columns summarize reads (a sweep row reads two of them too): all a streamed run keeps
SUMMARY_COLUMNS = ("iq_ref", "omega_true", "omega_hat", "theta_err", "rank", "margin")


def write_rows(path, comment: str, header, chunks) -> None:
    """Write "# comment", the header, then one line per row of each chunk's column arrays: repr of each tolist() value.

    A chunk is a list of columns, written as it comes from the iterable.  Rows are formatted _ROW_BLOCK at a
    time, each block written as one string; a chunk without columns has no rows.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n" + ",".join(header) + "\n")
        for columns in chunks:
            for k0 in range(0, min(map(len, columns), default=0), _ROW_BLOCK):
                cells = [map(repr, col[k0:k0 + _ROW_BLOCK].tolist()) for col in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _csv_chunk(log: TrajectoryLog) -> list:
    return [getattr(log, name) for name in CSV_COLUMNS]


def write_csv(log: TrajectoryLog, path) -> None:
    write_rows(path, f"schema={SCHEMA_TAG}", CSV_COLUMNS, [_csv_chunk(log)])


def stream_csv(chunks, path) -> TrajectoryLog:
    """Write a run's chunks (run_chunks) to the CSV at path as they come; return the run with SUMMARY_COLUMNS kept."""
    kept = Collector(SUMMARY_COLUMNS)

    def written():
        for chunk in chunks:
            yield _csv_chunk(chunk)
            kept.add(chunk)

    write_rows(path, f"schema={SCHEMA_TAG}", CSV_COLUMNS, written())
    return kept.log()


def read_csv(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into column arrays of the log's dtypes (schema-checked)."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#") or SCHEMA_TAG not in first:
            raise ValueError(f"not a {SCHEMA_TAG} file: {path}")
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != CSV_COLUMNS:  # () when the schema line is all there is
            raise ValueError(f"unexpected columns in {path}")
        rows = []
        for row in reader:
            where = f"{path}, line {reader.line_num + 1}"  # the comment line is line 1, not counted by the reader
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{where}: {len(row)} fields, not {len(CSV_COLUMNS)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            for j in _WHOLE:
                if not values[j].is_integer():  # nan and inf included
                    raise ValueError(f"{where}: {CSV_COLUMNS[j]} must be a whole number, not {row[j]!r}")
            rows.append(values)
    data = np.array(rows, dtype=float).reshape(len(rows), len(CSV_COLUMNS))
    return {f.name: data[:, j].astype(f.metadata.get("dtype", float), copy=False) for j, f in enumerate(_V1)}


@dataclass(frozen=True)
class PhaseStats:
    name: str
    n: int
    max_abs_theta_err: float
    mean_abs_theta_err: float
    mean_abs_omega_err: float
    rank_deficient_fraction: float
    min_abs_margin: float


@dataclass(frozen=True)
class RunSummary:
    phases: tuple[PhaseStats, ...]
    notes: tuple[str, ...]
    n_samples: int
    aborted: bool

    def __str__(self) -> str:
        lines = [
            f"samples: {self.n_samples}" + ("  [ABORTED]" if self.aborted else ""),
            f"{'phase':<12}{'n':>7}{'max|th_err|':>13}{'mean|th_err|':>14}"
            f"{'mean|w_err|':>13}{'rank<4':>8}{'min|margin|':>13}",
        ]
        for ph in self.phases:
            lines.append(
                f"{ph.name:<12}{ph.n:>7}{ph.max_abs_theta_err:>13.4g}"
                f"{ph.mean_abs_theta_err:>14.4g}{ph.mean_abs_omega_err:>13.4g}"
                f"{ph.rank_deficient_fraction:>8.3f}{ph.min_abs_margin:>13.4g}"
            )
        lines.extend(self.notes)
        return "\n".join(lines)


def _phase_stats(name: str, log: TrajectoryLog, mask: np.ndarray) -> PhaseStats:
    th = np.abs(log.theta_err[mask])
    w = np.abs(log.omega_hat[mask] - log.omega_true[mask])
    margin = np.abs(log.margin[mask])
    all_nan = not np.any(np.isfinite(margin))
    return PhaseStats(
        name=name,
        n=int(mask.sum()),
        max_abs_theta_err=float(np.max(th)) if th.size else math.nan,
        mean_abs_theta_err=float(np.mean(th)) if th.size else math.nan,
        mean_abs_omega_err=float(np.mean(w)) if w.size else math.nan,
        rank_deficient_fraction=float(np.mean(log.rank[mask] < 4)),
        min_abs_margin=math.nan if all_nan else float(np.nanmin(margin)),
    )


def summarize(log: TrajectoryLog) -> RunSummary:
    """Per-phase statistics: standstill, injection, motion.

    Motion is where the true speed is nonzero.  The injection phase is
    recovered from the q-axis reference column (deviation from its median),
    so voltage-carrier runs, which leave the references untouched, report
    their injection samples as part of standstill.
    """
    if len(log) == 0:
        raise ValueError("empty log")
    motion = log.omega_true != 0.0
    dev = np.abs(log.iq_ref - np.median(log.iq_ref)) > 0.0
    injection = np.zeros_like(motion)
    if np.any(dev):
        lo, hi = np.nonzero(dev)[0][[0, -1]]
        injection[lo : hi + 1] = True
    injection &= ~motion
    standstill = ~motion & ~injection

    phases = []
    notes = []
    for name, mask in (("standstill", standstill), ("injection", injection), ("motion", motion)):
        if not np.any(mask):
            notes.append(f"phase {name}: no samples, omitted")
            continue
        phases.append(_phase_stats(name, log, mask))
    return RunSummary(
        phases=tuple(phases),
        notes=tuple(notes),
        n_samples=len(log),
        aborted=log.aborted,
    )
