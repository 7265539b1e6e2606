"""Host-speed calibration sampled inside the measured operation.

A shared host can change speed by up to 2x for tens of seconds at a time
(measured on a 2-core x86-64 host), and CPU time tracks wall time, so
neither repeating operations nor timing CPU instead of wall removes the
drift.  A
fixed unit of interpreter work, timed every few milliseconds from a SIGALRM
handler on the measuring thread, sees the same host state as the operation
around it.  The host speed during the operation is the mean over probes of
REFERENCE_UNIT_S / probe time: probes come at equal wall-time intervals, so
this weighs each state by the wall time spent in it, and a probe stalled by
preemption counts as time in which no work was done.  A calibrated time is
the operation's wall time (probe time excluded) times that speed: the
seconds the operation would take with the probe at its reference speed.

Signal handlers run between bytecodes, so a long numpy call delays a probe
but is not interrupted by it.  Probes take about 1% of the operation's
wall time, which is subtracted from it.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

INTERVAL_S = 0.01
REFERENCE_UNIT_S = 1e-4  # about the probe's time on an unloaded 2-core x86-64 host, Python 3.11


@dataclass(frozen=True)
class _Sample:
    a: float
    b: float


# Scattered reads from a buffer larger than a core's private caches make the
# probe feel cache contention from neighbours, as the operations do.
_TABLE = bytearray(range(256)) * (1 << 13)  # 2 MiB
_MASK = len(_TABLE) - 1


def _unit() -> float:
    """Interpreter work shaped like the program's: frozen dataclasses, dicts,
    float math and scattered memory reads; no numpy, so that set-up probes do
    not import it ahead of the program."""
    x = 0.0
    idx = 12345
    for k in range(60):
        s = _Sample(x, k * 0.5)
        x = (s.a * 0.9 + s.b * 1e-3) * 0.5 + math.sin(k * 1e-2)
        d = {"a": s.a, "b": s.b}
        x += d["b"] * 1e-6
        idx = (idx * 1103515245 + 12345) & _MASK
        x += _TABLE[idx] * 1e-12
    return x


class HostSampler:
    """Context manager: probe the host every INTERVAL_S while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total_s = 0.0  # time spent inside probes

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _unit()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.total_s += dt

    def __enter__(self) -> "HostSampler":
        self.samples = []
        self.total_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Host speed relative to the reference; NaN if nothing was probed."""
        if not self.samples:
            return math.nan
        return REFERENCE_UNIT_S * sum(1.0 / s for s in self.samples) / len(self.samples)


def calibrated(wall_s: float, speed: float) -> float:
    """Wall time at the reference host speed (raw wall time if never probed)."""
    return wall_s if math.isnan(speed) else wall_s * speed
