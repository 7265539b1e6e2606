"""Scenario engine.

The mechanical trajectory is imposed by a piecewise-linear speed profile
(the rotor is dragged by an external rig), so only the two stator currents
are integrated.  A fixed control clock runs measurement, dq-current PI
control with the true rotor angle, plant integration with RK4 substeps,
one EKF cycle on the measured currents, and trajectory logging.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from pmsmlab.control import (
    ControllerState,
    InjectionKind,
    InjectionSchedule,
    controller_step,
    current_reference,
    default_gains,
)
from pmsmlab.ekf import ekf_step, make_ekf
from pmsmlab.machine import (
    FrameVec,
    MachineParams,
    MachineState,
    _electrical_rate_ab,
    alphabeta,
    dq,
    inverse_park,
    park,
    wrap_angle,
)
from pmsmlab.observability import trajectory_reports


_PROFILE_BLOCK = 16  # samples per profile evaluation in run_scenario


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
        if len(self.times) != len(self.speeds) or not self.times:
            raise ValueError("need matching, non-empty times and speeds")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("breakpoint times must be strictly increasing")
        if not all(math.isfinite(v) for v in self.times + self.speeds):
            raise ValueError("breakpoints must be finite")
        T, W = (np.array(v, dtype=float) for v in (self.times, self.speeds))
        # per-segment span, rise and slope, padded so that one breakpoint has a segment 0
        span, rise = np.diff(T, append=T[-1]), np.diff(W, append=W[-1])
        with np.errstate(over="ignore", invalid="ignore"):  # as in float arithmetic
            A = np.concatenate([[0.0], np.cumsum(0.5 * (W[:-1] + W[1:]) * span[:-1])])
            slope = rise / span
        object.__setattr__(self, "_grid", (T, W, A, span, rise, slope))

    @classmethod
    def from_breakpoints(cls, points) -> "SpeedProfile":
        pts = [(float(t), float(w)) for t, w in points]
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

    omega_many = omega
    omega_dot_many = omega_dot


class MachineKind(enum.Enum):
    IPMSM = "ipmsm"
    SPMSM = "spmsm"


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop run."""

    params: MachineParams
    profile: SpeedProfile
    setpoints: tuple[float, float] = (0.0, 0.0)  # (i_d*, i_q*)
    injection: InjectionSchedule = InjectionSchedule()
    t_end: float = 1.0
    T_s: float = 1e-4
    ode_substeps: int = 10
    theta0: float = 0.0
    theta_hat_err0: float = -math.pi / 4.0
    q_diag: tuple[float, float, float, float] = (1.0, 1.0, 1e3, 0.1)
    r_diag: tuple[float, float] = (1.0, 1.0)
    p0_diag: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    control_bandwidth: float = 2.0 * math.pi * 500.0
    voltage_limit: float = 50.0
    noise_std: float = 0.0  # measurement noise on both current channels
    seed: int = 0
    obs_on_estimates: bool = False

    def __post_init__(self) -> None:
        if self.t_end <= 0.0:
            raise ValueError("t_end must be > 0")
        if self.T_s <= 0.0:
            raise ValueError("T_s must be > 0")
        if self.t_end / self.T_s <= 0.5:  # n_samples < 1, without overflow
            raise ValueError("t_end must span at least one sample (round(t_end / T_s) >= 1)")
        if self.t_end / self.T_s == math.inf:
            raise ValueError("t_end / T_s must be finite (the sample count overflows)")
        if self.ode_substeps < 1:
            raise ValueError("ode_substeps must be >= 1")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if len(self.q_diag) != 4 or len(self.r_diag) != 2 or len(self.p0_diag) != 4:
            raise ValueError("covariance diagonals must have lengths 4, 2, 4")

    @property
    def n_samples(self) -> int:
        return int(round(self.t_end / self.T_s))


@dataclass
class TrajectoryLog:
    """Column arrays, one row per control sample."""

    t: np.ndarray
    i_alpha: np.ndarray
    i_beta: np.ndarray
    i_d: np.ndarray
    i_q: np.ndarray
    id_ref: np.ndarray
    iq_ref: np.ndarray
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
    rank: np.ndarray
    psi_o_d: np.ndarray
    psi_o_q: np.ndarray
    theta_o: np.ndarray
    margin: np.ndarray
    aborted: bool = False
    abort_time: float | None = None
    abort_reason: str = ""

    def __len__(self) -> int:
        return self.t.shape[0]


def _rk4_step(params: MachineParams, ia, ib, theta, va, vb, t, dt, w, a):
    """One classical RK4 step of the currents over [t, t+dt], on plain floats.

    w and a hold the profile speed and angle at t, t+dt/2 and t+dt; the angle
    is anchored at theta, the voltage held.  Returns (i_alpha, i_beta, theta).
    """
    th_base = theta - a[0]
    thm = th_base + a[1]
    the = th_base + a[2]

    c0, s0 = math.cos(theta), math.sin(theta)
    cm, sm = math.cos(thm), math.sin(thm)
    ce, se = math.cos(the), math.sin(the)
    w0, wm, we = w
    k1a, k1b = _electrical_rate_ab(params, ia, ib, w0, c0, s0, va, vb)
    k2a, k2b = _electrical_rate_ab(params, ia + 0.5 * dt * k1a, ib + 0.5 * dt * k1b, wm, cm, sm, va, vb)
    k3a, k3b = _electrical_rate_ab(params, ia + 0.5 * dt * k2a, ib + 0.5 * dt * k2b, wm, cm, sm, va, vb)
    k4a, k4b = _electrical_rate_ab(params, ia + dt * k3a, ib + dt * k3b, we, ce, se, va, vb)
    ia_new = ia + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    ib_new = ib + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    if not (math.isfinite(ia_new) and math.isfinite(ib_new)):
        raise FloatingPointError(f"non-finite currents at t={t + dt:.6g}")
    return ia_new, ib_new, the


def integrate_electrical(
    state: MachineState,
    v_ab: FrameVec,
    profile: SpeedProfile,
    t: float,
    dt: float,
    params: MachineParams,
) -> MachineState:
    """One classical RK4 step on the currents over [t, t+dt].

    Speed and position inside the stages come from the profile (exact angle
    integral anchored at the state's current theta), voltage is held constant.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    w, _, a = (x.tolist() for x in profile.evaluate((t, t + 0.5 * dt, t + dt)))
    ia, ib, theta = _rk4_step(params, state.i_alpha, state.i_beta, state.theta, v_ab.x, v_ab.y, t, dt, w, a)
    return MachineState(ia, ib, w[2], theta, state.T_l)


def run_scenario(scn: Scenario, with_ekf: bool = True) -> TrajectoryLog:
    """Execute the closed-loop scenario and return the full log.

    Per sample: measure currents (optional seeded noise), build references,
    PI control with the true angle, RK4 plant substeps, one EKF
    predict-correct cycle with the same voltage and measurement, then the
    observability columns evaluated on the true trajectory afterwards.

    with_ekf=False skips the estimator (trajectory analysis only); the
    estimate columns come back NaN.  The true trajectory is identical either
    way since the estimator never feeds back into the control loop.
    """
    params = scn.params
    n = scn.n_samples
    dt = scn.T_s / scn.ode_substeps
    rng = np.random.default_rng(scn.seed)

    # the run begins with the current loops already settled at the base
    # set-points: plant currents at the reference and PI integrators holding
    # the equilibrium voltage.  A cold zero-current start would slew the
    # currents at ~1e5 A/s, and that transient makes T_s * |df/dx| exceed 1,
    # where the Euler-form covariance prediction loses positive definiteness.
    i_d0, i_q0 = scn.setpoints
    w0 = scn.profile.omega(0.0)
    i_ab0 = inverse_park(dq(i_d0, i_q0), scn.theta0)
    ia, ib, omega, theta = i_ab0.x, i_ab0.y, w0, scn.theta0
    v_d0 = params.R * i_d0 - w0 * params.Lq * i_q0
    v_q0 = params.R * i_q0 + w0 * (params.Ld * i_d0 + params.psi_r)
    pi_d, pi_q = default_gains(params, scn.control_bandwidth, scn.voltage_limit)
    clamp = lambda v: min(max(v, -scn.voltage_limit), scn.voltage_limit)
    ctrl = ControllerState(
        pi_d=replace(pi_d, integrator=clamp(v_d0)),
        pi_q=replace(pi_q, integrator=clamp(v_q0)),
    )
    ekf = make_ekf(
        [i_ab0.x, i_ab0.y, 0.0, scn.theta0 + scn.theta_hat_err0],
        scn.T_s,
        Q=np.diag(scn.q_diag),
        R_meas=np.diag(scn.r_diag),
        P0=np.diag(scn.p0_diag),
    )

    cols = {  # NaN stays in the estimate columns when the estimator is skipped
        name: np.full(n, math.nan)
        for name in (
            "t", "i_alpha", "i_beta", "i_d", "i_q", "id_ref", "iq_ref",
            "v_alpha", "v_beta", "omega_true", "theta_true",
            "omega_hat", "theta_hat", "theta_err",
        )
    }
    aborted = False
    abort_time = None
    abort_reason = ""
    rows = 0
    substep_starts = np.arange(scn.ode_substeps) * dt

    for k in range(n):
        b = k % _PROFILE_BLOCK
        if b == 0:
            # profile speed and angle at every RK4 stage time of the block
            t0 = np.arange(k, min(k + _PROFILE_BLOCK, n))[:, None] * scn.T_s + substep_starts
            stage_t = np.stack([t0, t0 + 0.5 * dt, t0 + dt], axis=-1)
            w_blk, _, a_blk = (x.tolist() for x in scn.profile.evaluate(stage_t))
        t_k = k * scn.T_s
        y = np.array([ia, ib])
        if scn.noise_std > 0.0:
            y = y + scn.noise_std * rng.standard_normal(2)

        refs = current_reference(t_k, scn.injection, scn.setpoints)
        i_dq_meas = park(alphabeta(y[0], y[1]), theta)
        theta_hat_prior = ekf.x_hat[3]
        v_ab, ctrl = controller_step(
            ctrl, i_dq_meas, refs, theta, scn.T_s,
            t=t_k, schedule=scn.injection, theta_hat=theta_hat_prior,
        )

        try:
            ia_new, ib_new, theta_new = ia, ib, theta
            for j in range(scn.ode_substeps):
                ia_new, ib_new, theta_new = _rk4_step(
                    params, ia_new, ib_new, theta_new, v_ab.x, v_ab.y,
                    t_k + j * dt, dt, w_blk[b][j], a_blk[b][j],
                )
            if with_ekf:
                ekf = ekf_step(ekf, params, (v_ab.x, v_ab.y), y)
        except FloatingPointError as exc:
            aborted = True
            abort_time = t_k
            abort_reason = str(exc)
            break

        i_dq_true = park(alphabeta(ia, ib), theta)
        c = cols
        c["t"][k] = t_k
        c["i_alpha"][k] = ia
        c["i_beta"][k] = ib
        c["i_d"][k] = i_dq_true.x
        c["i_q"][k] = i_dq_true.y
        c["id_ref"][k] = refs[0]
        c["iq_ref"][k] = refs[1]
        c["v_alpha"][k] = v_ab.x
        c["v_beta"][k] = v_ab.y
        c["omega_true"][k] = omega
        c["theta_true"][k] = wrap_angle(theta)
        if with_ekf:
            c["omega_hat"][k] = ekf.x_hat[2]
            c["theta_hat"][k] = wrap_angle(ekf.x_hat[3])
            c["theta_err"][k] = wrap_angle(ekf.x_hat[3] - theta)
        rows += 1
        ia, ib, omega, theta = ia_new, ib_new, w_blk[b][-1][2], theta_new

    for name in cols:
        cols[name] = cols[name][:rows]

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite matrix raises before the SVD
        obs = _observability_columns(scn, cols)
    del obs["singular_values"]  # not a trajectory column
    return TrajectoryLog(
        **cols,
        **obs,
        aborted=aborted,
        abort_time=abort_time,
        abort_reason=abort_reason,
    )


def _observability_columns(scn: Scenario, cols: dict) -> dict:
    """Vectorized observability evaluation over the logged trajectory.

    Rotor-frame current rates are recomputed from the machine equations at
    the logged states and applied voltages, so the columns are exact values
    of the model, not finite differences of the log.
    """
    t = cols["t"]
    n = t.shape[0]
    if scn.obs_on_estimates:
        theta = cols["theta_hat"]
        omega = cols["omega_hat"]
        omega_dot = np.gradient(omega, scn.T_s) if n > 1 else np.zeros(n)
    else:
        theta = cols["theta_true"]
        omega = cols["omega_true"]
        omega_dot = scn.profile.omega_dot_many(t)

    i_a, i_b = cols["i_alpha"], cols["i_beta"]
    c, s = np.cos(theta), np.sin(theta)
    i_d = c * i_a + s * i_b
    i_q = -s * i_a + c * i_b
    di_a, di_b = _electrical_rate_ab(scn.params, i_a, i_b, omega, c, s, cols["v_alpha"], cols["v_beta"])
    # stator rates to rotor-frame rates, rotation term included
    di_d = c * di_a + s * di_b + omega * i_q
    di_q = -s * di_a + c * di_b - omega * i_d
    return trajectory_reports(scn.params, t, i_d, i_q, di_d, di_q, omega, omega_dot, theta)


def table_params(kind: MachineKind = MachineKind.IPMSM, J: float = 0.02) -> MachineParams:
    """Reference machine constants; the non-salient variant zeroes L2 only.

    Inertia is not part of the published constants; 0.02 kg m^2 keeps the
    estimator's speed-error behaviour comparable between the two machines.
    """
    if kind is MachineKind.IPMSM:
        return MachineParams.from_dq(R=0.01, Ld=0.5e-3, Lq=0.8e-3, psi_r=0.0225, p=2, J=J)
    return MachineParams(R=0.01, L0=0.65e-3, L2=0.0, psi_r=0.0225, p=2, J=J)


def standstill_study_scenario(kind: MachineKind = MachineKind.IPMSM) -> Scenario:
    """Reference standstill-to-ramp study.

    Standstill until 0.6 s with a 500 Hz q-axis current injection active on
    [0.2 s, 0.5 s), then a ramp to 50 rad/s by 0.8 s held to 1.0 s.  Current
    set-points (0, 15) A, estimated position initialized -pi/4 off.
    """
    if isinstance(kind, str):
        kind = MachineKind(kind.lower())
    return Scenario(
        params=table_params(kind),
        profile=SpeedProfile.from_breakpoints(
            [(0.0, 0.0), (0.6, 0.0), (0.8, 50.0), (1.0, 50.0)]
        ),
        setpoints=(0.0, 15.0),
        injection=InjectionSchedule(
            kind=InjectionKind.CURRENT_ON_Q,
            amplitude=0.5,
            frequency=1000.0 * math.pi,
            t_start=0.2,
            t_end=0.5,
        ),
        t_end=1.0,
        T_s=1e-4,
        ode_substeps=10,
        theta0=0.0,
        theta_hat_err0=-math.pi / 4.0,
    )
