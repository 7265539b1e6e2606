"""Extended Kalman filter on the 4-state electromechanical model.

State x_hat = [i_alpha, i_beta, omega, theta].  The output map is the current
pair, so C = [I2 | 0] is constant.  Covariance prediction uses the
continuous-Lyapunov Euler form P + T_s (A P + P A') + Q rather than the
discrete A P A' form; the filter model assumes zero load torque.

All step functions are pure: they take an EkfState and return a new one that
shares its Q, R_meas and T_s.  Each predict evaluates the model and its Jacobian
once, on x_hat as Python floats: the same IEEE results as numpy scalars, but cheaper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pmsmlab.machine import MachineParams, _electrical_rate_ab, _torque
from pmsmlab.observability import _obs_matrix_y1

C_OUT = np.hstack([np.eye(2), np.zeros((2, 2))])


@dataclass(frozen=True)
class EkfState:
    """Estimated state, covariance, and tuning. Arrays are never mutated."""

    x_hat: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    R_meas: np.ndarray
    T_s: float

    def __post_init__(self) -> None:
        # cheap shape checks only: step functions construct a new EkfState
        # every sample, so the symmetry/definiteness validation runs once in
        # make_ekf rather than inside the control loop.
        if self.x_hat.shape != (4,) or self.P.shape != (4, 4):
            raise ValueError("x_hat must be (4,), P must be (4,4)")
        if self.Q.shape != (4, 4) or self.R_meas.shape != (2, 2):
            raise ValueError("Q must be (4,4), R_meas (2,2)")
        if self.T_s <= 0.0:
            raise ValueError(f"T_s must be > 0, got {self.T_s}")


def make_ekf(x0, T_s: float, Q, R_meas, P0) -> EkfState:
    """Build and fully validate an initial filter state."""
    ekf = EkfState(
        x_hat=np.asarray(x0, dtype=float).copy(),
        P=np.asarray(P0, dtype=float).copy(),
        Q=np.asarray(Q, dtype=float).copy(),
        R_meas=np.asarray(R_meas, dtype=float).copy(),
        T_s=float(T_s),
    )
    for name, m in (("P", ekf.P), ("Q", ekf.Q), ("R_meas", ekf.R_meas)):
        if not np.allclose(m, m.T, atol=1e-9):
            raise ValueError(f"{name} must be symmetric")
    # R_meas must be positive definite for the innovation inverse
    np.linalg.cholesky(ekf.R_meas)
    return ekf


def _model(params: MachineParams, x, u) -> tuple[np.ndarray, np.ndarray]:
    """Model rate f (zero load torque) and its Jacobian A = df/dx at (x, u), from one cos/sin and current rate."""
    ia, ib, omega, theta = x
    c, s = math.cos(theta), math.sin(theta)
    di_a, di_b = _electrical_rate_ab(params, ia, ib, omega, c, s, u[0], u[1])
    f = np.array([di_a, di_b, params.p / params.J * _torque(params, ia, ib, c, s), omega])
    # rows 0-1 of the observability matrix are the output gradient; replace
    # them with the current-rate gradients and set the mechanical rows.
    A = _obs_matrix_y1(params, ia, ib, omega, c, s, di_a, di_b)
    A[0:2, :] = A[2:4, :]
    c2 = c * c - s * s
    s2 = 2.0 * s * c
    L2, psi_r = params.L2, params.psi_r
    k = 1.5 * params.p * params.p / params.J
    A[2, 0] = k * (-psi_r * s - L2 * (2.0 * ia * s2 - 2.0 * ib * c2))
    A[2, 1] = k * (psi_r * c - L2 * (-2.0 * ib * s2 - 2.0 * ia * c2))
    A[2, 2] = 0.0
    A[2, 3] = k * (
        -psi_r * (ib * s + ia * c)
        - L2 * (2.0 * (ia * ia - ib * ib) * c2 + 4.0 * ia * ib * s2)
    )
    A[3, :] = (0.0, 0.0, 1.0, 0.0)
    return f, A


def linearize(params: MachineParams, x_hat: np.ndarray, u) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Jacobian A = df/dx at (x_hat, u) and constant output map C."""
    return _model(params, x_hat, u)[1], C_OUT.copy()


def predict(ekf: EkfState, params: MachineParams, u) -> EkfState:
    """Euler state propagation and Lyapunov-form covariance propagation."""
    with np.errstate(over="ignore", invalid="ignore"):
        f, A = _model(params, ekf.x_hat.tolist(), u)
        if not np.isfinite(f).all():
            raise FloatingPointError(f"non-finite filter dynamics at x_hat={ekf.x_hat}")
        x_new = ekf.x_hat + ekf.T_s * f
        # A P + P A' as A P + (A P)': equal bit for bit, because P is kept exactly symmetric
        AP = A @ ekf.P
        P_new = ekf.P + ekf.T_s * (AP + AP.T) + ekf.Q
        P_new = 0.5 * (P_new + P_new.T)
    if not (np.isfinite(x_new).all() and np.isfinite(P_new).all()):
        raise FloatingPointError("non-finite covariance propagation")
    return EkfState(x_new, P_new, ekf.Q, ekf.R_meas, ekf.T_s)


def gain_and_innovate(ekf: EkfState, y_meas) -> EkfState:
    """Kalman gain, measurement update, covariance downdate, symmetrization."""
    y = np.asarray(y_meas, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        (s00, s01), (s10, s11) = (ekf.P[:2, :2] + ekf.R_meas).tolist()
        det = s00 * s11 - s01 * s10
        if det <= 0.0 or s00 <= 0.0:
            raise FloatingPointError("innovation covariance not positive definite")
        K = ekf.P[:, :2] @ (np.array([[s11, -s01], [-s10, s00]]) / det)  # P C' S^-1, closed form
        x_new = ekf.x_hat + K @ (y - ekf.x_hat[:2])
        P_new = ekf.P - K @ ekf.P[:2, :]
        P_new = 0.5 * (P_new + P_new.T)
    if not (np.isfinite(x_new).all() and np.isfinite(P_new).all()):
        raise FloatingPointError("non-finite measurement update")
    return EkfState(x_new, P_new, ekf.Q, ekf.R_meas, ekf.T_s)


def ekf_step(ekf: EkfState, params: MachineParams, u, y_meas) -> EkfState:
    """One full predict-correct cycle."""
    return gain_and_innovate(predict(ekf, params, u), y_meas)
