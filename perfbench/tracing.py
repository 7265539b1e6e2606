"""Per-layer tracing from outside the program.

The tracer replaces module attributes that pmsmlab looks up at call time
(for example ``pmsmlab.simulation.integrate_electrical``) with wrappers,
and restores them on ``uninstall``.  No program file is changed.

Two kinds of record are kept, both in memory:

* aggregated statistics per layer name: calls, total time and time spent in
  wrapped children, so self time = total - child.  Hot per-substep calls
  (600k profile lookups in one study run) only ever touch these counters.
* spans with parent ids at coarse boundaries: verb, scenario, sweep point,
  CSV write and oracle batch.  They are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time

# (module, attribute, layer name, span name or None).  A missing attribute is
# skipped, so a later refactor that removes a name reads as zero calls.
TIMED = (
    ("pmsmlab.cli", "main", "cli.verb", "verb"),
    ("pmsmlab.cli", "parse_config", "config.parse", None),
    ("pmsmlab.cli", "run_scenario", "simulation.run_scenario", "scenario"),
    ("pmsmlab.cli", "write_csv", "report.write_csv", "csv_write"),
    ("pmsmlab.cli", "summarize", "report.summarize", None),
    ("pmsmlab.simulation", "integrate_electrical", "simulation.integrate", None),
    ("pmsmlab.simulation.SpeedProfile", "omega", "simulation.profile", None),
    ("pmsmlab.simulation.SpeedProfile", "angle", "simulation.profile", None),
    ("pmsmlab.simulation", "controller_step", "control.step", None),
    ("pmsmlab.simulation", "current_reference", "control.reference", None),
    ("pmsmlab.simulation", "ekf_step", "ekf.step", None),
    ("pmsmlab.ekf", "predict", "ekf.predict", None),
    ("pmsmlab.ekf", "gain_and_innovate", "ekf.update", None),
    ("pmsmlab.simulation", "trajectory_reports", "observability.trajectory_reports", None),
    ("pmsmlab.observability", "sample_report", "observability.sample_report", None),
    ("pmsmlab.observability", "lie_gradient_stack", "observability.lie_stack", None),
)

# Count-only wrappers on the current-rate kernel, at each name that imports it.
COUNTED = (
    ("pmsmlab.simulation", "_electrical_rate_ab", "machine.rate"),
    ("pmsmlab.ekf", "_electrical_rate_ab", "machine.rate"),
    ("pmsmlab.observability", "_electrical_rate_ab", "observability.oracle_rate"),
)

# Each call opens the span of the next sweep point, which stays open until
# the following call or the end of the verb.
SWEEP_POINT = ("pmsmlab.cli", "apply_sweep_value")


def _resolve(path: str):
    """Module or class object for a dotted path such as 'pmsmlab.simulation.SpeedProfile'."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.epoch = self.clock()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.counts: dict[str, int] = {}  # extra counters, e.g. CSV bytes
        self.spans: list[dict] = []
        self.op = 0
        self._frames: list[list[float]] = []  # child-time accumulator per active call
        self._open: list[dict] = []  # open spans, innermost last
        self._patched: list[tuple] = []

    # -- statistics -----------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def reset(self, op: int) -> None:
        """Start a new operation: clear the aggregated statistics."""
        self.op = op
        self.stats = {}
        self.counts = {}

    def snapshot(self) -> dict:
        out = {name: {"calls": c, "total_s": t, "self_s": t - ch} for name, (c, t, ch) in self.stats.items()}
        return {"layers": out, "counts": dict(self.counts)}

    # -- spans ----------------------------------------------------------

    def _open_span(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "op": self.op,
            "name": name,
            "start_s": self.clock() - self.epoch,
            "end_s": None,
            **attrs,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def _close_span(self, span: dict) -> None:
        span["end_s"] = self.clock() - self.epoch
        self._open.remove(span)

    def _close_points_above(self, span: dict) -> None:
        while self._open and self._open[-1] is not span and self._open[-1]["name"] == "sweep_point":
            self._close_span(self._open[-1])

    @contextlib.contextmanager
    def layer(self, name: str, span: str | None = None, **attrs):
        """Time a block as one call of layer `name`, optionally as a span."""
        stat = self._stat(name)
        sp = self._open_span(span, **attrs) if span else None
        frame = [0.0]
        self._frames.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            dt = self.clock() - t0
            self._frames.pop()
            stat[0] += 1
            stat[1] += dt
            stat[2] += frame[0]
            if self._frames:
                self._frames[-1][0] += dt
            if sp is not None:
                self._close_points_above(sp)
                self._close_span(sp)

    def dump_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    # -- wrappers -------------------------------------------------------

    def _timed(self, fn, name: str):
        # layer() inlined: a generator-based context manager per call would
        # multiply the overhead on the 600k per-substep calls
        stat = self._stat(name)
        frames = self._frames
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if frames:
                    frames[-1][0] += dt

        return wrapper

    def _spanned(self, fn, name: str, span: str):
        def wrapper(*args, **kwargs):
            with self.layer(name, span):
                result = fn(*args, **kwargs)
            if name == "report.write_csv":
                self.counts["report.csv_bytes"] = self.counts.get("report.csv_bytes", 0) + os.path.getsize(args[1])
            return result

        return wrapper

    def _counted(self, fn, name: str):
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sweep_point(self, fn):
        def wrapper(scn, parameter, value):
            self._close_points_above(None)
            self._open_span("sweep_point", parameter=parameter, value=value)
            return fn(scn, parameter, value)

        return wrapper

    def install(self) -> None:
        def patch(owner_path, attr, make):
            owner = _resolve(owner_path)
            orig = owner.__dict__.get(attr)
            if orig is None:
                return
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, make(orig))

        for owner, attr, name, span in TIMED:
            if span:
                patch(owner, attr, lambda fn, n=name, s=span: self._spanned(fn, n, s))
            else:
                patch(owner, attr, lambda fn, n=name: self._timed(fn, n))
        for owner, attr, name in COUNTED:
            patch(owner, attr, lambda fn, n=name: self._counted(fn, n))
        patch(*SWEEP_POINT, self._sweep_point)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
