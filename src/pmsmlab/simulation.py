"""Scenario engine.

The mechanical trajectory is imposed by a piecewise-linear speed profile
(the rotor is dragged by an external rig), so only the two stator currents
are integrated.  A fixed control clock runs measurement, dq-current PI
control with the true rotor angle, plant integration with RK4 substeps and
one EKF cycle; it records only what it decides or advances, and hands the
record on a chunk of CHUNK_SAMPLES samples at a time.  One vectorized pass per
chunk derives time, wrapped angles, dq currents and observability columns, so
the run is a stream of logs (run_chunks) that a consumer writes as it comes;
what grows with the run is only what the consumer keeps (Collector).

With the motion imposed and the voltage held over a sample, one RK4 substep
maps the currents affinely, and so do a sample's `ode_substeps` substeps
together.  The maps depend only on the plant: one broadcasting RK4
(`_step_maps`) over blocks of steps, composed pairwise into one map per
sample (`_sample_maps`), which `_apply_map` applies; there is no other
integrator.  A run builds them block by block as its loop reaches them
(`_map_blocks`), and a still stretch of the profile, where every sample's
map is the same, once.  The loop walks them as one stream of rows, one per
sample, and the chunk is its only unit: at a chunk's first sample it draws
the chunk's measurement noise with one call, in the order of one
`standard_normal(2)` per sample, and it stores each sample's record in the
chunk's array.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from pmsmlab.control import (
    InjectionKind,
    InjectionSchedule,
    _command_ab,
    _pi_law,
    current_reference,
    default_gains,
)
from pmsmlab.ekf import _diag_upper, _predict, _update
from pmsmlab.machine import (
    TYPE_RULES,
    MachineParams,
    _dq_current_rate,
    _electrical_rate_ab,
    _inductance,
    _rotate,
    raise_violations,
    type_violations,
    wrap_angle,
)
from pmsmlab.observability import trajectory_reports


# most RK4 steps built at a time: whole samples per block, or one sample's chunk.  On the IPMSM study the builder
# peaks at 0.87 MB (tracemalloc; 1.73 MB at 2048), which glibc keeps resident between blocks rather than trimming and
# faulting in again; 512 steps build slower (~53 against ~36 ms CPU)
_BUILD_STEPS = 1024
CHUNK_SAMPLES = 1024  # samples derived and handed on at a time; measured: smaller is slower, larger peaks higher
MAX_SAMPLES = 10**7  # longest run: simulate's peak RSS grows ~0.08 KB a sample (its summary columns), ~0.8 GB here
MAX_RK4_STEPS = 10**8  # most plant steps in a run: MAX_SAMPLES at the default 10 substeps


@dataclass(frozen=True)
class SpeedProfile:
    """Piecewise-linear electrical speed over time.

    Outside the breakpoint range the endpoint speeds are held.  The angle
    method integrates the profile exactly (piecewise quadratic), so rotor
    position accumulates no solver drift.
    """

    times: tuple[float, ...]
    speeds: tuple[float, ...]
    _grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        raise_violations(self.violations(self.times, self.speeds))
        T, W = (np.array(v, dtype=float) for v in (self.times, self.speeds))
        # per-segment span, rise and slope, padded so that one breakpoint has a segment 0
        span, rise = np.diff(T, append=T[-1]), np.diff(W, append=W[-1])
        with np.errstate(over="ignore", invalid="ignore"):  # as in float arithmetic
            A = np.concatenate([[0.0], np.cumsum(0.5 * (W[:-1] + W[1:]) * span[:-1])])
            slope = rise / span
        object.__setattr__(self, "_grid", (T, W, A, span, rise, slope))

    @staticmethod
    def violations(times, speeds) -> list:
        """(field or None, message) for every broken invariant of the breakpoint list."""
        found = type_violations(tuple, times=times, speeds=speeds)
        if found:
            return found
        if len(times) != len(speeds) or not times:
            return [(None, "need matching, non-empty times and speeds")]
        if any(b <= a for a, b in zip(times, times[1:])):
            return [(None, "breakpoint times must be strictly increasing")]
        return []

    @classmethod
    def from_breakpoints(cls, points) -> "SpeedProfile":
        pts = list(points)  # converted by nothing, so the number rule sees each breakpoint as given
        return cls(times=tuple(t for t, _ in pts), speeds=tuple(w for _, w in pts))

    def evaluate(self, t):
        """(omega, omega_dot, angle) at t, elementwise; a scalar t gives floats."""
        T, W, A, span, rise, slope = self._grid
        t_arr = np.asarray(t, dtype=float)
        k = np.searchsorted(T[1:-1], t_arr, side="right")  # T[k] <= t < T[k+1], clamped to a segment
        below, above = t_arr <= T[0], t_arr >= T[-1]
        with np.errstate(all="ignore"):  # as in float arithmetic: overflow gives inf
            dt = t_arr - T[k]
            omega = np.where(below, W[0], np.where(above, W[-1], W[k] + dt / span[k] * rise[k]))
            angle = np.where(
                below, W[0] * (t_arr - T[0]),
                np.where(above, A[-1] + W[-1] * (t_arr - T[-1]), A[k] + W[k] * dt + 0.5 * slope[k] * dt * dt),
            )
        omega_dot = np.where((t_arr < T[0]) | above, 0.0, slope[k])
        if t_arr.ndim == 0:
            return float(omega), float(omega_dot), float(angle)
        return omega, omega_dot, angle

    def omega(self, t):
        return self.evaluate(t)[0]

    def omega_dot(self, t):
        """Right-continuous slope; zero outside the breakpoint range."""
        return self.evaluate(t)[1]

    def angle(self, t):
        """Exact integral of omega from the first breakpoint time to t."""
        return self.evaluate(t)[2]


class MachineKind(enum.Enum):
    IPMSM = "ipmsm"
    SPMSM = "spmsm"


def _config(path: str, default, bound: str | None = None, sweep=()):
    """A field held at path in the config file, with its default, its bound (one of _BOUNDS, on each entry of a
    list) and what a sweep may vary of it: all of it (True) or its parts by name, kept as suffixes of its name."""
    sweep = ("",) if sweep is True else tuple(f".{part}" for part in sweep)
    return field(default=default, metadata={"path": path, "bound": bound, "sweep": sweep})


# each bound a field may state, by its words in the messages
_BOUNDS = {"> 0": lambda v: v > 0.0, ">= 0": lambda v: v >= 0.0, ">= 1": lambda v: v >= 1}


def _sample_ratio(t_end, T_s) -> float:
    """t_end / T_s in floats (inf on overflow): the sample count that its rule and Scenario.n_samples read."""
    return float(t_end) / float(T_s)


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop run, its fields in the config file's order.

    Each field states its rules once: its type and a list's length in its annotation, its config path, default,
    bound and sweepability in its metadata; violations() and the config parser, renderer and sweep list read them
    there.  The defaults are the reference standstill-to-ramp study, so Scenario(params=...) is that study on the
    given machine: standstill until 0.6 s with a 500 Hz q-axis current carrier on [0.2 s, 0.5 s), then a ramp to
    50 rad/s by 0.8 s held to 1.0 s, at set-points (0, 15) A, the estimated angle initialized -pi/4 off.
    """

    params: MachineParams
    profile: SpeedProfile = _config(
        "scenario.profile", SpeedProfile.from_breakpoints([(0.0, 0.0), (0.6, 0.0), (0.8, 50.0), (1.0, 50.0)])
    )
    setpoints: tuple[float, float] = _config("scenario.setpoints", (0.0, 15.0))  # (i_d*, i_q*)
    injection: InjectionSchedule = _config(
        "scenario.injection", InjectionSchedule(InjectionKind.CURRENT_ON_Q, 0.5, 1000.0 * math.pi, 0.2, 0.5),
        sweep=("amplitude", "frequency"),
    )
    t_end: float = _config("scenario.t_end", 1.0, "> 0")
    T_s: float = _config("scenario.T_s", 1e-4, "> 0")
    ode_substeps: int = _config("scenario.ode_substeps", 10, ">= 1")
    theta0: float = _config("scenario.theta0", 0.0)
    theta_hat_err0: float = _config("scenario.theta_hat_err0", -math.pi / 4.0, sweep=True)
    noise_std: float = _config("scenario.noise_std", 0.0, ">= 0", sweep=True)  # measurement noise, both channels
    seed: int = _config("scenario.seed", 0, ">= 0")
    obs_on_estimates: bool = _config("scenario.obs_on_estimates", False)
    q_diag: tuple[float, float, float, float] = _config("estimator.q_diag", (1.0, 1.0, 1e3, 0.1), ">= 0")
    r_diag: tuple[float, float] = _config("estimator.r_diag", (1.0, 1.0), "> 0")
    p0_diag: tuple[float, float, float, float] = _config("estimator.p0_diag", (1.0, 1.0, 1.0, 1.0), ">= 0")
    control_bandwidth: float = _config("control.bandwidth", 2.0 * math.pi * 500.0, "> 0")
    voltage_limit: float = _config("control.voltage_limit", 50.0, "> 0")

    def __post_init__(self) -> None:
        # not vars(self): reading __dict__ slows every later attribute read of the instance
        raise_violations(self.violations(**{f.name: getattr(self, f.name) for f in fields(self)}))

    @staticmethod
    def violations(**values) -> list:
        """(field or None, message) for every broken invariant of the fields given by name.

        The value rules apply once every field has its type: each field's own, then those across fields.
        """
        found = [(key, message) for key, holds, message, _, _ in _FIELD_RULES if not holds(values[key])]
        if found:
            return found
        for key, _, _, length, bound in _FIELD_RULES:
            value = values[key]
            if length is not None and len(value) != length:
                found.append((key, f"must have exactly {length} entries"))
            elif bound is not None and not all(map(_BOUNDS[bound], value if length else (value,))):
                found.append((key, f"entries must be {bound}" if length else f"must be {bound}"))
        samples = 0  # the run length, once its rules hold
        if not {"t_end", "T_s"} & {key for key, _ in found}:
            n = _sample_ratio(values["t_end"], values["T_s"])
            if n <= 0.5:
                found.append(("t_end", "must span at least one sample (round(t_end / T_s) >= 1)"))
            elif n >= MAX_SAMPLES + 0.5:
                found.append((None, f"t_end / T_s must not exceed {MAX_SAMPLES} samples"))
            elif abs(n - round(n)) > 1e-9 * n:  # tolerates 0.6 / 1e-4 = 5999.999999999999
                found.append(("t_end", f"must be a whole number of samples (t_end / T_s = {n:.9g})"))
            else:
                samples = round(n)
        if samples * values["ode_substeps"] > MAX_RK4_STEPS:  # in integers, so no substep count overflows
            found.append((None, f"t_end / T_s * ode_substeps must not exceed {MAX_RK4_STEPS} RK4 steps"))
        if not math.isfinite(float(values["theta0"]) + float(values["theta_hat_err0"])):  # inf on overflow
            found.append((None, "theta0 + theta_hat_err0, the filter's prior angle, must be finite"))
        return found

    @property
    def n_samples(self) -> int:
        return round(_sample_ratio(self.t_end, self.T_s))


def _field_rules(cls):
    """(field, type predicate, type message, length or None, bound or None) for each field of cls.

    The type, and a list's length, come from the annotation: a TYPE_RULES kind, or a class the value is an instance of.
    """
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        kind = typing.get_origin(hints[f.name]) or hints[f.name]
        a = "an" if kind.__name__[0] in "AEIOU" else "a"
        holds, message = TYPE_RULES.get(kind) or (lambda v, k=kind: isinstance(v, k), f"must be {a} {kind.__name__}")
        length = len(typing.get_args(hints[f.name])) if kind is tuple else None
        yield f.name, holds, message, length, f.metadata.get("bound")


_FIELD_RULES = tuple(_field_rules(Scenario))


@dataclass
class TrajectoryLog:
    """Column arrays, one row per control sample, then how the run ended.

    The array fields, in order, are the trajectory columns (COLUMNS); the v1 CSV holds those not marked v1=False.
    A log that a Collector kept only some columns of holds None in the others.
    """

    t: np.ndarray
    i_alpha: np.ndarray
    i_beta: np.ndarray
    i_d: np.ndarray
    i_q: np.ndarray
    id_ref: np.ndarray = field(metadata={"v1": False})
    iq_ref: np.ndarray = field(metadata={"v1": False})
    v_alpha: np.ndarray
    v_beta: np.ndarray
    omega_true: np.ndarray
    theta_true: np.ndarray
    omega_hat: np.ndarray
    theta_hat: np.ndarray
    theta_err: np.ndarray
    det_y1: np.ndarray
    det_y2: np.ndarray
    det_y3: np.ndarray
    rank: np.ndarray = field(metadata={"dtype": int})
    psi_o_d: np.ndarray
    psi_o_q: np.ndarray
    theta_o: np.ndarray
    margin: np.ndarray
    aborted: bool = False
    abort_time: float | None = None
    abort_reason: str = ""

    def __len__(self) -> int:
        return next(len(col) for col in (getattr(self, f.name) for f in COLUMNS) if col is not None)


COLUMNS = tuple(f for f in fields(TrajectoryLog) if f.default is MISSING)  # the array fields, in order


def _step_maps(params: MachineParams, profile: SpeedProfile, t0, dt: float, theta: float) -> np.ndarray:
    """Affine RK4 step maps of the currents, for the steps [t, t+dt] at the start times t0.

    The motion is imposed and the voltage held, so one classical RK4 step
    moves the currents by D e + X i + c, with e = v - R i.  One RK4 over the
    basis columns (e_alpha, e_beta, i_alpha, i_beta, 1) builds every map of
    the block; an i column holds v = R i, so its e is exactly 0.  The
    back-EMF response lands in every column, so the constant column is c and
    is taken off the other four.  The angle starts at theta and runs on as
    (theta - a0) + a2, with a the profile angles at t, t+dt/2 and t+dt.

    Returns one column per step: D_aa, D_ab, X_aa, X_ab, c_a, D_ba, D_bb, X_ba,
    X_bb, c_b, then the speed and the angle at the step's end.
    """
    w, _, a = profile.evaluate(np.stack([t0, t0 + 0.5 * dt, t0 + dt], axis=-1))
    # one sequential sum: each angle is the float chain (theta - a0) + a2, step after step, across blocks too
    th = np.empty(2 * len(t0) + 1)
    th[0], th[1::2], th[2::2] = theta, -a[:, 0], a[:, 2]
    th = np.add.accumulate(th)  # step angles at the even entries, theta - a0 at the odd ones
    c, s = np.cos(th[::2]), np.sin(th[::2])
    cm, sm = np.cos(th[1::2] + a[:, 1]), np.sin(th[1::2] + a[:, 1])
    ind_m = _inductance(params, cm, sm)  # the k2 and k3 stages share the midpoint angle

    e_a, e_b, ia, ib, _ = np.eye(5)[:, :, None]  # the basis columns, as (5, 1) arrays
    va, vb = e_a + params.R * ia, e_b + params.R * ib
    k1a, k1b = _electrical_rate_ab(params, ia, ib, w[:, 0], c[:-1], s[:-1], va, vb)
    k2a, k2b = _electrical_rate_ab(params, ia + 0.5 * dt * k1a, ib + 0.5 * dt * k1b, w[:, 1], cm, sm, va, vb, ind_m)
    k3a, k3b = _electrical_rate_ab(params, ia + 0.5 * dt * k2a, ib + 0.5 * dt * k2b, w[:, 1], cm, sm, va, vb, ind_m)
    k4a, k4b = _electrical_rate_ab(params, ia + dt * k3a, ib + dt * k3b, w[:, 2], c[1:], s[1:], va, vb)
    da = dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    db = dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    da[:4] -= da[4]
    db[:4] -= db[4]
    return np.vstack([da, db, w[:, 2], th[2::2]])


def _compose(a, b, R: float):
    """The map of a, then b, each stacked as (2, 5, ...): per current, its D, X and c entries.

    In increment form a map moves i by D e + X i + c.  After a, b moves it by
    its own increment plus G_b times a's, with G_b = X_b - R D_b, so the
    composite is a + b + G_b a, entry by entry.
    """
    g = b[:, 2:4] - R * b[:, 0:2]
    return a + b + (g[:, 0, None] * a[0] + g[:, 1, None] * a[1])


def _sample_maps(params: MachineParams, profile: SpeedProfile, t, substeps: int, T_s: float,
                 theta: float) -> np.ndarray:
    """One composed map row per sample starting at the times t, in the _step_maps layout.

    Each sample's substeps are composed by pairwise halving, in chunks of at
    most _BUILD_STEPS steps counted from the sample's first step; the partial
    composite carries across chunks.  So a sample's row depends only on its
    own steps, wherever its block starts.  t holds one sample when substeps
    exceeds _BUILD_STEPS.  Returns an (n, 12) array.
    """
    dt = T_s / substeps
    chunk = min(substeps, _BUILD_STEPS)
    done = None
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite maps abort in _apply_map
        for j0 in range(0, substeps, chunk):
            j = np.arange(j0, min(j0 + chunk, substeps))
            # k*T_s + j*dt, as the loop counts time
            steps = _step_maps(params, profile, (t[:, None] + j * dt).ravel(), dt, theta).reshape(12, len(t), len(j))
            theta = steps[11, -1, -1]
            m = steps[:10].reshape(2, 5, len(t), len(j))
            while m.shape[-1] > 1:
                n = m.shape[-1]
                pairs = _compose(m[..., 0:n - 1:2], m[..., 1:n:2], params.R)
                m = pairs if n % 2 == 0 else np.concatenate([pairs, m[..., n - 1:]], axis=-1)
            done = m[..., 0] if done is None else _compose(done, m[..., 0], params.R)
    return np.vstack([done.reshape(10, -1), steps[10:, :, -1]]).T


def _apply_map(row, R: float, ia: float, ib: float, va: float, vb: float, t: float, dt: float):
    """Currents after the step [t, t+dt] whose map row is row."""
    daa, dab, xaa, xab, ca, dba, dbb, xba, xbb, cb, _, _ = row
    ea, eb = va - R * ia, vb - R * ib
    ia, ib = (ia + (daa * ea + dab * eb + xaa * ia + xab * ib + ca),
              ib + (dba * ea + dbb * eb + xba * ia + xbb * ib + cb))
    if not (math.isfinite(ia) and math.isfinite(ib)):
        raise FloatingPointError(f"non-finite currents at t={t + dt:.6g}")
    return ia, ib


def _still_stretches(profile: SpeedProfile, n: int, substeps: int, T_s: float) -> list:
    """Sample ranges [k0, k1) of samples 0..n-1 over which every RK4 stage sees one profile value.

    The profile's pieces, in time order, are (-inf, T0), {T0}, (T0, T1), ...,
    {T_last}, (T_last, inf).  A point has one value, and so does an open piece
    between zero speeds: there every evaluate term that varies with t is a
    product of a zero speed or slope with a finite time difference (breakpoints
    far beyond 1e300 s could overflow it).  Runs of consecutive such pieces with
    bit-identical (omega, angle) are the still stretches.  A sample belongs to
    one when its first and last stage times do; stage times are computed here
    as _sample_maps and _step_maps compute them, k*T_s + j*dt (+ dt), and
    rounding is monotone, so every stage in between does too.
    """
    T, W = profile.times, profile.speeds
    dt = T_s / substeps

    def piece(t: float) -> int:
        i = bisect.bisect_left(T, t)
        return 2 * i + (i < len(T) and T[i] == t)

    probes = [np.nextafter(T[0], -np.inf)] + [x for t in T for x in (t, np.nextafter(t, np.inf))]
    w, _, a = profile.evaluate(np.array(probes))
    ends = [W[0], *W, W[-1]]  # open piece 2i runs from speed ends[i] to ends[i + 1]; the outer ones are held
    # each piece's (omega, angle) as bits, so the sign of zero counts; None where they vary
    bits = [b if p % 2 or ends[p // 2] == ends[p // 2 + 1] == 0.0 else None
            for p, b in enumerate(np.stack([w, a], axis=-1).view(np.int64).tolist())]
    stretches = []
    for b, run in itertools.groupby(range(len(bits)), bits.__getitem__):
        p = list(run)
        if b is not None:
            k0 = bisect.bisect_left(range(n), p[0], key=lambda k: piece(k * T_s))
            k1 = bisect.bisect_right(range(n), p[-1], key=lambda k: piece((k * T_s + (substeps - 1) * dt) + dt))
            if k0 < k1:
                stretches.append((k0, k1))
    return stretches


def _map_blocks(scn: Scenario):
    """scn's map rows in sample order, built as they are consumed: blocks of rows, each row a list, one per sample.

    A built block is a list of _sample_maps rows, no more samples than _BUILD_STEPS RK4 steps (or one sample), as
    many as are built at a time.  A still stretch's first sample is built alone; its steps see one speed and one
    angle A, so when its row ends at the angle it started from, every later sample of the stretch starts there and
    has the same row, bit for bit, which the block repeats.  Otherwise the second sample is built alone too, since
    the chain (theta - A) + A is as a rule fixed from its second pass on; only when that row also moves the angle is
    the rest built in blocks.
    """
    params, profile, n, substeps, T_s = scn.params, scn.profile, scn.n_samples, scn.ode_substeps, scn.T_s
    per = max(1, _BUILD_STEPS // substeps)  # samples per block; a longer sample is built alone, in chunks
    theta = scn.theta0

    def blocks(k0: int, k1: int):
        nonlocal theta
        for j in range(k0, k1, per):
            rows = _sample_maps(params, profile, np.arange(j, min(j + per, k1)) * T_s, substeps, T_s, theta)
            theta = rows[-1, 11]
            yield rows.tolist()

    k = 0
    for k0, k1 in _still_stretches(profile, n, substeps, T_s):
        yield from blocks(k, k0)
        k = k0
        while k < min(k1, k0 + 2):  # the first two samples alone
            start = np.float64(theta).tobytes()
            (row,), = blocks(k, k + 1)
            k_end = k1 if theta.tobytes() == start else k + 1  # the angle chain (theta - A) + A returned theta
            yield itertools.repeat(row, k_end - k)
            k = k_end
    yield from blocks(k, n)


def needs_estimator(scn: Scenario) -> list:
    """(field, message) for each setting that uses the estimates, so a run without the estimator rejects it."""
    # obs_on_estimates takes the frame of the estimates; a voltage_on_dhat carrier follows the estimated axis
    uses = (("obs_on_estimates", scn.obs_on_estimates, "must be false"),
            ("injection.kind", scn.injection.kind is InjectionKind.VOLTAGE_ON_DHAT, "must not be voltage_on_dhat"))
    return [(key, f"{msg} for analyze, which runs no estimator") for key, used, msg in uses if used]


def _records(scn: Scenario, with_ekf: bool):
    """The control loop: what it decides or advances per sample, one chunk of CHUNK_SAMPLES samples at a time.

    Yields (record, abort) pairs, record an (m, 10) array of rows (i_alpha, i_beta, id_ref, iq_ref, v_alpha,
    v_beta, omega, theta, omega_hat, theta_hat), where the angles are not wrapped.  abort is None, or on the
    last chunk of an aborted run (time, reason); that chunk is empty when the abort comes at its first sample.

    Only a run that draws noise (noise_std > 0) makes the seeded generator.  Its first call imports numpy.random,
    ~6 MB resident and ~10 ms, so a noise-free run never loads it; a noisy one draws the same floats in order.
    """
    params, R = scn.params, scn.params.R
    n, T_s = scn.n_samples, scn.T_s
    rng = np.random.default_rng(scn.seed) if scn.noise_std > 0.0 else None

    # the run begins with the current loops already settled at the base
    # set-points: plant currents at the reference and PI integrators holding
    # the equilibrium voltage.  A cold zero-current start would slew the
    # currents at ~1e5 A/s, and that transient makes T_s * |df/dx| exceed 1,
    # where the Euler-form covariance prediction loses positive definiteness.
    i_d0, i_q0 = scn.setpoints
    w0 = scn.profile.omega(0.0)
    ia, ib = _rotate(float(i_d0), float(i_q0), math.cos(scn.theta0), math.sin(scn.theta0))
    omega, theta = w0, scn.theta0
    v_d0 = params.R * i_d0 - w0 * params.Lq * i_q0
    v_q0 = params.R * i_q0 + w0 * (params.Ld * i_d0 + params.psi_r)
    limit = scn.voltage_limit
    kp_d, kp_q, ki = default_gains(params, scn.control_bandwidth)
    integ_d, integ_q = (min(max(v, -limit), limit) for v in (v_d0, v_q0))
    # the filter runs on floats: x_hat, with the prior angle unwrapped, P's 10 distinct entries, Q's and R's diagonals
    q, r, P = tuple(map(float, scn.q_diag)), tuple(map(float, scn.r_diag)), _diag_upper(scn.p0_diag)
    x_hat = (ia, ib, 0.0, float(scn.theta0 + scn.theta_hat_err0))
    omega_hat, theta_hat = x_hat[2:] if with_ekf else (math.nan, math.nan)  # analyze has no estimates

    abort = None
    noise_std, schedule, setpoints = scn.noise_std, scn.injection, scn.setpoints

    for k, row in enumerate(itertools.chain.from_iterable(_map_blocks(scn))):
        j = k % CHUNK_SAMPLES  # the sample's row in its chunk
        if j == 0:  # a chunk's first sample: hand on the chunk before it
            if k:
                yield rec, None
            rec = np.empty((min(n - k, CHUNK_SAMPLES), 10))
            if noise_std > 0.0:  # the chunk's draws, in the order of one standard_normal(2) per sample
                noise = rng.standard_normal(2 * len(rec)).tolist()
        t_k = k * T_s
        ya, yb = ia, ib
        if noise_std > 0.0:
            ya, yb = ia + noise_std * noise[2 * j], ib + noise_std * noise[2 * j + 1]

        # PI control in the rotor frame of the true angle, on plain floats
        c, s = math.cos(theta), math.sin(theta)
        refs = current_reference(t_k, schedule, setpoints)
        i_d_meas, i_q_meas = _rotate(ya, yb, c, -s)
        v_d, integ_d = _pi_law(kp_d, ki, integ_d, limit, refs[0] - i_d_meas, T_s)
        v_q, integ_q = _pi_law(kp_q, ki, integ_q, limit, refs[1] - i_q_meas, T_s)
        va, vb = _command_ab(v_d, v_q, c, s, t_k, schedule, theta_hat)

        try:
            ia_new, ib_new = _apply_map(row, R, ia, ib, va, vb, t_k, T_s)
            if with_ekf:
                x_hat, P = _predict(params, T_s, q, x_hat, P, va, vb)
                x_hat, P = _update(r, x_hat, P, ya, yb)
                _, _, omega_hat, theta_hat = x_hat
        except FloatingPointError as exc:
            abort = (t_k, str(exc))
            break

        rec[j] = (ia, ib, *refs, va, vb, omega, theta, omega_hat, theta_hat)
        ia, ib, omega, theta = ia_new, ib_new, row[10], row[11]
    yield (rec if abort is None else rec[:j]), abort  # rows 0..j-1 of an aborted chunk


def _derive(scn: Scenario, k0: int, record: np.ndarray, around: tuple, abort) -> TrajectoryLog:
    """The log of samples k0, k0+1, ... from their loop record, in one vectorized pass.

    around holds the record rows of the sample just before and just after, each where the run has one (else an
    empty array), so obs_on_estimates' centred derivative sees across the chunk's edges as it does inside.
    """
    params, T_s, rows = scn.params, scn.T_s, len(record)
    aborted, (abort_time, abort_reason) = abort is not None, abort or (None, "")
    i_alpha, i_beta, id_ref, iq_ref, v_alpha, v_beta, omega_true, theta, omega_hat, theta_hat = record.T
    t = np.arange(k0, k0 + rows) * T_s
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite matrix raises before the SVD
        theta_err = wrap_angle(theta_hat - theta)
        theta_true, theta_hat = wrap_angle(theta), wrap_angle(theta_hat)
        c, s = np.cos(theta_true), np.sin(theta_true)
        i_d, i_q, di_d, di_q = _dq_current_rate(params, i_alpha, i_beta, omega_true, c, s, v_alpha, v_beta)
        # the observability columns' frame; its current rates are the model's, not differences of the log
        if scn.obs_on_estimates:
            before, after = around
            w = np.concatenate((before, record, after))[:, 8]  # omega_hat, with the samples around the chunk
            omega_dot = np.gradient(w, T_s)[len(before):len(before) + rows] if len(w) > 1 else np.zeros(rows)
            frame = (*_dq_current_rate(params, i_alpha, i_beta, omega_hat, np.cos(theta_hat), np.sin(theta_hat),
                                       v_alpha, v_beta), omega_hat, omega_dot, theta_hat)
        else:
            frame = (i_d, i_q, di_d, di_q, omega_true, scn.profile.omega_dot(t), theta_true)
        try:
            obs = trajectory_reports(params, t, *frame)
        except FloatingPointError as exc:  # the log ends before the first sample whose matrix is not finite
            rows = exc.sample
            aborted, abort_time, abort_reason = True, (k0 + rows) * T_s, str(exc)
            obs = trajectory_reports(params, t[:rows], *(col[:rows] for col in frame))
    cols = dict(t=t, i_alpha=i_alpha, i_beta=i_beta, i_d=i_d, i_q=i_q, id_ref=id_ref, iq_ref=iq_ref, v_alpha=v_alpha,
                v_beta=v_beta, omega_true=omega_true, theta_true=theta_true, omega_hat=omega_hat,
                theta_hat=theta_hat, theta_err=theta_err, **obs)
    return TrajectoryLog(**{f.name: cols[f.name][:rows] for f in COLUMNS},
                         aborted=aborted, abort_time=abort_time, abort_reason=abort_reason)


def run_chunks(scn: Scenario, with_ekf: bool = True):
    """Execute the closed-loop scenario as a stream of logs of consecutive samples, CHUNK_SAMPLES at most each.

    Per sample: measure currents (optional seeded noise), build references,
    PI control with the true angle, the sample's composed RK4 plant map, one
    EKF predict-correct cycle with the same voltage and measurement.  The
    loop walks _map_blocks' rows, built as it reaches them (a still stretch's map once),
    and hands on each chunk it finishes; the observability columns, evaluated on the true
    trajectory, are derived per chunk.  So a run holds a chunk or two, whatever its length,
    and one that aborts early builds and derives little.  Every chunk but the last says
    aborted=False; the last says how the run ended, and is empty when it aborted at a chunk's start.

    with_ekf=False skips the estimator (trajectory analysis only); the estimate columns
    come back NaN, the true trajectory is identical, and needs_estimator's settings raise.
    """
    if not with_ekf:
        raise_violations(needs_estimator(scn))
    records = _records(scn, with_ekf)
    record, abort = next(records)
    k0, before = 0, record[:0]
    for following in itertools.chain(records, [(record[:0], None)]):
        # the chunk is derived once the loop has finished the sample after it, or the run
        chunk = _derive(scn, k0, record, (before, following[0][:1]), abort)
        yield chunk
        if chunk.aborted:
            return
        k0, before, (record, abort) = k0 + len(record), record[-1:], following


class Collector:
    """A run's chunks kept as one log: the columns named in keep (all by default), and None for the others.

    add() appends a chunk's columns in place; each grows by realloc, so no joined copy sits beside its parts.
    log() is the run once its last chunk is added, ended as that chunk says.  A keep that names no column, or a name
    that is not a column, raises ValueError.
    """

    def __init__(self, keep=None):
        names = [f.name for f in COLUMNS]
        keep = names if keep is None else tuple(keep)
        unknown = [name for name in keep if name not in names]
        if unknown or not keep:
            raise ValueError(f"no column named {', '.join(map(repr, unknown))}" if unknown else "keep names no column")
        self.cols = dict.fromkeys(name for name in names if name in keep)
        self.n, self.last = 0, None

    def add(self, chunk: TrajectoryLog) -> None:
        k, self.n, self.last = self.n, self.n + len(chunk), chunk
        for name, col in self.cols.items():
            part = getattr(chunk, name)
            if col is None:
                self.cols[name] = col = np.empty(0, part.dtype)
            col.resize(self.n, refcheck=False)  # no view of col exists before log()
            col[k:] = part

    def log(self) -> TrajectoryLog:
        last = self.last
        return TrajectoryLog(**{f.name: self.cols.get(f.name) for f in COLUMNS},
                             aborted=last.aborted, abort_time=last.abort_time, abort_reason=last.abort_reason)


def run_scenario(scn: Scenario, with_ekf: bool = True, keep=None) -> TrajectoryLog:
    """The run of run_chunks collected into one log, with the columns named in keep (all by default)."""
    into = Collector(keep)
    for chunk in run_chunks(scn, with_ekf):
        into.add(chunk)
    return into.log()


def table_params(kind: MachineKind | str = MachineKind.IPMSM, J: float = 0.02) -> MachineParams:
    """Reference machine constants; the non-salient variant zeroes L2 only.

    kind may be named, in any case ("ipmsm", "SPMSM"); another name raises ValueError.
    Inertia is not part of the published constants; 0.02 kg m^2 keeps the
    estimator's speed-error behaviour comparable between the two machines.
    """
    if isinstance(kind, str):
        kind = MachineKind(kind.lower())
    ipmsm = MachineParams.from_dq(R=0.01, Ld=0.5e-3, Lq=0.8e-3, psi_r=0.0225, p=2, J=J)
    return ipmsm if kind is MachineKind.IPMSM else replace(ipmsm, L2=0.0)


def standstill_study_scenario(kind: MachineKind | str = MachineKind.IPMSM) -> Scenario:
    """Reference standstill-to-ramp study (the Scenario defaults) on the reference machine of the given kind."""
    return Scenario(params=table_params(kind))
