"""Extended Kalman filter on the 4-state electromechanical model: the filter algebra only.

State x_hat = [i_alpha, i_beta, omega, theta].  The output map is the current
pair, so C = [I2 | 0] is constant.  The model's rate and Jacobian, at zero
load torque, come from machine._filter_model.  Covariance prediction uses the
continuous-Lyapunov Euler form P + T_s (A P + P A') + Q, not A P A'.

One cycle is two kernels on Python floats, `_predict` and `_update`.  They
hold x_hat as 4 floats and the symmetric P as its 10 upper-triangle entries,
row by row (P00, P01, P02, P03, P11, P12, P13, P22, P23, P33).  Q and R_meas
are diagonal: the kernels take their 4 and 2 diagonal entries, as a
Scenario holds them.  Every sum runs in a fixed order without fused
multiply-adds, so the filter's numbers do not depend on the BLAS library or
the CPU it picks kernels for.  The run loop (`simulation._records`,
reached through `run_chunks`) calls the kernels on tuples;
`_diag_upper` lays out its diagonal prior P, and `Scenario.violations`
states the rules that make Q and P semidefinite and R_meas positive definite.
"""

from __future__ import annotations

import math

import numpy as np

from pmsmlab.machine import MachineParams, _filter_model


def _diag_upper(d) -> tuple:
    """The 10 upper-triangle entries, in the kernels' order, of the 4x4 diagonal matrix diag(d)."""
    d0, d1, d2, d3 = map(float, d)
    return (d0, 0.0, 0.0, 0.0, d1, 0.0, 0.0, d2, 0.0, d3)


def _predict(params: MachineParams, T_s: float, q, x, P, va: float, vb: float) -> tuple[tuple, tuple]:
    """Euler state propagation and Lyapunov-form covariance propagation: (x, P) as tuples.

    M = A P is summed over k = 0..3 in order, leaving out A's zero entries;
    the new P is P + T_s (M + M') + diag(q), entry by entry.
    """
    x0, x1, x2, x3 = x
    (f0, f1, f2, f3, a00, a01, a02, a03, a10, a11, a12, a13,
     a20, a21, a23) = _filter_model(params, x0, x1, x2, x3, va, vb)
    if not all(map(math.isfinite, (f0, f1, f2, f3))):
        raise FloatingPointError(f"non-finite filter dynamics at x_hat={np.array(x)}")
    x = (x0 + T_s * f0, x1 + T_s * f1, x2 + T_s * f2, x3 + T_s * f3)

    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = P
    m00 = a00 * p00 + a01 * p01 + a02 * p02 + a03 * p03
    m01 = a00 * p01 + a01 * p11 + a02 * p12 + a03 * p13
    m02 = a00 * p02 + a01 * p12 + a02 * p22 + a03 * p23
    m03 = a00 * p03 + a01 * p13 + a02 * p23 + a03 * p33
    m10 = a10 * p00 + a11 * p01 + a12 * p02 + a13 * p03
    m11 = a10 * p01 + a11 * p11 + a12 * p12 + a13 * p13
    m12 = a10 * p02 + a11 * p12 + a12 * p22 + a13 * p23
    m13 = a10 * p03 + a11 * p13 + a12 * p23 + a13 * p33
    m20 = a20 * p00 + a21 * p01 + a23 * p03
    m21 = a20 * p01 + a21 * p11 + a23 * p13
    m22 = a20 * p02 + a21 * p12 + a23 * p23
    m23 = a20 * p03 + a21 * p13 + a23 * p33
    # row 3 of M is row 2 of P: m30, m31, m32, m33 = p02, p12, p22, p23
    q0, q1, q2, q3 = q
    P = (
        p00 + T_s * (m00 + m00) + q0, p01 + T_s * (m01 + m10),
        p02 + T_s * (m02 + m20), p03 + T_s * (m03 + p02),
        p11 + T_s * (m11 + m11) + q1, p12 + T_s * (m12 + m21), p13 + T_s * (m13 + p12),
        p22 + T_s * (m22 + m22) + q2, p23 + T_s * (m23 + p22),
        p33 + T_s * (p23 + p23) + q3,
    )
    if not all(map(math.isfinite, x + P)):
        raise FloatingPointError("non-finite covariance propagation")
    return x, P


def _update(r, x, P, ya: float, yb: float) -> tuple[tuple, tuple]:
    """Kalman gain, measurement update, covariance downdate, symmetrization: (x, P) as tuples.

    K = P C' S^-1 with the closed-form inverse of the symmetric 2x2 S = P[:2, :2] + diag(r).
    The inverse is taken as f (f S)^-1, f = 2^-e with e >= 0 the exponent of S's larger
    diagonal entry, so the determinant does not overflow; a power of two scales exactly, so
    without subnormals the inverse has the bits of the unscaled closed form.
    The downdate P - K P[:2, :] averages its (i, j) and (j, i) entries.
    """
    x0, x1, x2, x3 = x
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = P
    r0, r1 = r
    s00, s11 = p00 + r0, p11 + r1
    # 0.5 keeps e >= 0: S is only scaled down, so f and the inverse's scaling back stay finite
    f = math.ldexp(1.0, -math.frexp(max(s00, s11, 0.5))[1])
    a, b, c = s00 * f, p01 * f, s11 * f
    det = a * c - b * b
    if det <= 0.0 or s00 <= 0.0:
        raise FloatingPointError("innovation covariance not positive definite")
    i00, i01, i11 = c / det * f, -b / det * f, a / det * f
    k00, k01 = p00 * i00 + p01 * i01, p00 * i01 + p01 * i11
    k10, k11 = p01 * i00 + p11 * i01, p01 * i01 + p11 * i11
    k20, k21 = p02 * i00 + p12 * i01, p02 * i01 + p12 * i11
    k30, k31 = p03 * i00 + p13 * i01, p03 * i01 + p13 * i11
    e0, e1 = ya - x0, yb - x1
    x = (x0 + (k00 * e0 + k01 * e1), x1 + (k10 * e0 + k11 * e1),
         x2 + (k20 * e0 + k21 * e1), x3 + (k30 * e0 + k31 * e1))
    P = (
        p00 - (k00 * p00 + k01 * p01),
        0.5 * ((p01 - (k00 * p01 + k01 * p11)) + (p01 - (k10 * p00 + k11 * p01))),
        0.5 * ((p02 - (k00 * p02 + k01 * p12)) + (p02 - (k20 * p00 + k21 * p01))),
        0.5 * ((p03 - (k00 * p03 + k01 * p13)) + (p03 - (k30 * p00 + k31 * p01))),
        p11 - (k10 * p01 + k11 * p11),
        0.5 * ((p12 - (k10 * p02 + k11 * p12)) + (p12 - (k20 * p01 + k21 * p11))),
        0.5 * ((p13 - (k10 * p03 + k11 * p13)) + (p13 - (k30 * p01 + k31 * p11))),
        p22 - (k20 * p02 + k21 * p12),
        0.5 * ((p23 - (k20 * p03 + k21 * p13)) + (p23 - (k30 * p02 + k31 * p12))),
        p33 - (k30 * p03 + k31 * p13),
    )
    if not all(map(math.isfinite, x + P)):
        raise FloatingPointError("non-finite measurement update")
    return x, P


def linearize(params: MachineParams, x_hat: np.ndarray, u) -> np.ndarray:
    """Analytic Jacobian A = df/dx at (x_hat, u); the output map is the constant C = [I2 | 0]."""
    a = _filter_model(params, *map(float, x_hat), float(u[0]), float(u[1]))[4:]
    return np.array([a[0:4], a[4:8], (a[8], a[9], 0.0, a[10]), (0.0, 0.0, 1.0, 0.0)])
