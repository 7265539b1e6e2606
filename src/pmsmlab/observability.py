"""Local observability analysis of sensorless PMSM models.

State ordering for all 4-state stacks is x = [i_alpha, i_beta, omega, theta]
for the electromechanical model, x = [i_alpha, i_beta, e_alpha, e_beta] for
the back-EMF model, and x = [i_alpha, i_beta, psi_alpha, psi_beta] for the
flux model.  The measured output is always the stator current pair.

Two independent routes are kept side by side on purpose:

* closed-form expressions evaluated directly, and
* a nested central finite-difference ("oracle") construction of the stacked
  Lie-derivative gradients, used to validate every closed form numerically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from pmsmlab.machine import MachineParams, _electrical_rate_ab, state_rate

STATE_DIM = 4
OUT_DIM = 2

# Relative differentiation step used when taking the gradient of the k-th
# Lie derivative.  Level 1 differentiates an exactly evaluated function;
# deeper levels differentiate functions that already carry finite-difference
# noise (amplified roughly by |dI/dt|/h per nesting level with mH-scale
# inductances), so the step grows with depth to trade truncation against
# noise.  A five-point stencil keeps the larger steps from costing accuracy.
DEFAULT_FD_STEPS = {1: 1e-5, 2: 2e-3, 3: 2e-2}

RANK_RTOL = 1e-9
RANK_ABS_FLOOR = 1e-12


class ModelKind(enum.Enum):
    """Which state-space model the observability stack is built for."""

    ELECTROMECHANICAL = "electromechanical"
    BACK_EMF = "back_emf"
    FLUX = "flux"


class DegenerateObservabilityVector(ValueError):
    """The observability vector is zero; its phase is undefined."""


def numeric_rank(matrix: np.ndarray) -> tuple:
    """Rank by singular-value counting.

    Threshold is RANK_RTOL * sigma_max, with an absolute floor when the matrix
    is identically zero.  Returns (rank, singular values in descending order).
    A stack of matrices (leading axes, the matrix in the last two) is ranked
    matrix by matrix: rank is then an integer array of the leading shape and
    the singular values run along the last axis.  A single matrix gives an int.
    """
    sv = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    smax = sv[..., :1]
    tol = np.where(smax > 0.0, RANK_RTOL * smax, RANK_ABS_FLOOR)
    rank = np.sum(sv > tol, axis=-1)
    return (int(rank) if rank.ndim == 0 else rank), sv


# ---------------------------------------------------------------------------
# Model right-hand sides for the finite-difference oracle
# ---------------------------------------------------------------------------


def _emech_rate(params, x, u, T_l, locked_rotor):
    f = state_rate(params, x, u, T_l)
    if locked_rotor:
        # Reduced model for the held-rotor study: speed and position are
        # frozen identically, not just instantaneously zero.
        f[2:] = 0.0
    return f


def _backemf_rate(params, x, u, omega_dot):
    L0 = params.L0
    di_a = (u[0] - params.R * x[0] - x[2]) / L0
    di_b = (u[1] - params.R * x[1] - x[3]) / L0
    if omega_dot == 0.0:
        ratio = 0.0
    else:
        emf_norm = math.hypot(x[2], x[3])
        if emf_norm == 0.0:
            raise ValueError(
                "back-EMF dynamics are singular at zero EMF (standstill); "
                "the amplitude term omega_dot/omega is indeterminate"
            )
        ratio = omega_dot / (emf_norm / params.psi_r)
    omega = math.hypot(x[2], x[3]) / params.psi_r
    de_a = ratio * x[2] - omega * x[3]
    de_b = ratio * x[3] + omega * x[2]
    return np.array([di_a, di_b, de_a, de_b])


def _flux_rate(params, x, u, omega):
    L0 = params.L0
    di_a = (u[0] - params.R * x[0] + omega * x[3]) / L0
    di_b = (u[1] - params.R * x[1] - omega * x[2]) / L0
    return np.array([di_a, di_b, -omega * x[3], omega * x[2]])


# ---------------------------------------------------------------------------
# Nested finite-difference gradient stack
# ---------------------------------------------------------------------------


def _fd_jacobian(g: Callable[[np.ndarray], np.ndarray], x: np.ndarray, hvec: np.ndarray) -> np.ndarray:
    """Five-point central-difference Jacobian with per-component steps.

    The steps are fixed by the caller (frozen at the stack's base point); if
    they were rescaled at every perturbed point, the kinks of the scaling
    rule would contaminate the outer differences of nested evaluations.
    """
    jac = np.empty((OUT_DIM, STATE_DIM))
    for i in range(STATE_DIM):
        h = hvec[i]
        vals = []
        for mult in (2.0, 1.0, -1.0, -2.0):
            xv = x.copy()
            xv[i] += mult * h
            vals.append(g(xv))
        jac[:, i] = (-vals[0] + 8.0 * vals[1] - 8.0 * vals[2] + vals[3]) / (12.0 * h)
    return jac


def lie_gradient_stack(
    model: ModelKind,
    x,
    u,
    orders: int,
    params: MachineParams,
    *,
    T_l: float = 0.0,
    omega_ext: Optional[float] = None,
    omega_dot_ext: float = 0.0,
    locked_rotor: bool = False,
    steps: Optional[dict] = None,
) -> np.ndarray:
    """Stacked gradients of the output Lie derivatives, orders 0..orders.

    Returns a 2*(orders+1) x 4 matrix whose row block k is the numeric state
    gradient of the k-th output derivative.  The input u (and the load torque)
    is held constant during all differentiations.  This is the reference
    implementation every closed-form matrix and determinant is tested against.

    Keyword arguments select model variants: T_l for the electromechanical
    model, omega_ext/omega_dot_ext for the flux and back-EMF models (speed is
    not a state there), locked_rotor for the held-rotor reduced model where
    d(omega)/dt and d(theta)/dt are identically zero.
    """
    if orders < 0 or orders > 3:
        raise ValueError(f"orders must be in 0..3, got {orders}")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (STATE_DIM,):
        raise ValueError(f"state must have shape (4,), got {x.shape}")

    if model is ModelKind.ELECTROMECHANICAL:
        f = lambda xv: _emech_rate(params, xv, u, T_l, locked_rotor)
    elif model is ModelKind.BACK_EMF:
        f = lambda xv: _backemf_rate(params, xv, u, omega_dot_ext)
    elif model is ModelKind.FLUX:
        if omega_ext is None:
            raise ValueError("flux model needs omega_ext (speed is a parameter)")
        f = lambda xv: _flux_rate(params, xv, u, omega_ext)
    else:
        raise ValueError(f"unknown model kind: {model}")

    if not np.all(np.isfinite(f(x))):
        raise ValueError(f"non-finite dynamics at evaluation point x={x}")

    fd_steps = dict(DEFAULT_FD_STEPS)
    if steps:
        fd_steps.update(steps)

    # Step scales are frozen at the base point and shared within a physical
    # kind: the two current components use one scale, and the two components
    # of the second state pair use one scale when they are of the same kind
    # (EMF or flux vectors; speed and position are scaled separately).
    s_cur = max(1.0, abs(x[0]), abs(x[1]))
    if model is ModelKind.ELECTROMECHANICAL:
        scales = np.array([s_cur, s_cur, max(1.0, abs(x[2])), max(1.0, abs(x[3]))])
    else:
        s_pair = max(1.0, abs(x[2]), abs(x[3]))
        scales = np.array([s_cur, s_cur, s_pair, s_pair])
    hvecs = {k: lam * scales for k, lam in fd_steps.items()}

    # lie[k] evaluates the k-th output derivative as a function of the state.
    # Order 0 is the output itself; order 1 is exactly the current rows of f
    # (the output gradient is constant), so finite differencing starts at the
    # gradient of order 1.
    lie: list[Callable[[np.ndarray], np.ndarray]] = [
        lambda xv: xv[:OUT_DIM].copy(),
        lambda xv: f(xv)[:OUT_DIM],
    ]

    def _chain(k: int) -> Callable[[np.ndarray], np.ndarray]:
        prev = lie[k - 1]
        hvec = hvecs[k - 1]
        return lambda xv: _fd_jacobian(prev, xv, hvec) @ f(xv)

    for k in range(2, orders + 1):
        lie.append(_chain(k))

    blocks = [np.hstack([np.eye(OUT_DIM), np.zeros((OUT_DIM, STATE_DIM - OUT_DIM))])]
    for k in range(1, orders + 1):
        blocks.append(_fd_jacobian(lie[k], x, hvecs[k]))
    return np.vstack(blocks)


# ---------------------------------------------------------------------------
# Closed-form matrices and determinants, salient machine
# ---------------------------------------------------------------------------


def _obs_matrix_y1(params: MachineParams, i_a, i_b, omega, c, s, di_a, di_b) -> np.ndarray:
    """Analytic order-1 observability matrix, with c, s = cos(theta), sin(theta).

    Plain arithmetic that broadcasts: float arguments give one 4x4 matrix,
    arrays of N samples an (N, 4, 4) stack.  di is the stator current rate.
    """
    L0, L2, R, psi_r = params.L0, params.L2, params.R, params.psi_r
    c2 = c * c - s * s
    s2 = 2.0 * s * c
    det = L0 * L0 - L2 * L2

    inv_aa = (L0 - L2 * c2) / det
    inv_ab = -L2 * s2 / det
    inv_bb = (L0 + L2 * c2) / det
    d1_aa = -2.0 * L2 * s2
    d1_ab = 2.0 * L2 * c2
    d2_aa = -4.0 * L2 * c2
    d2_ab = -4.0 * L2 * s2

    out = np.zeros(np.shape(c) + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0

    # -Linv (R I + omega L')
    n_aa = R + omega * d1_aa
    n_ab = omega * d1_ab
    n_bb = R - omega * d1_aa
    out[..., 2, 0] = -(inv_aa * n_aa + inv_ab * n_ab)
    out[..., 2, 1] = -(inv_aa * n_ab + inv_ab * n_bb)
    out[..., 3, 0] = -(inv_ab * n_aa + inv_bb * n_ab)
    out[..., 3, 1] = -(inv_ab * n_ab + inv_bb * n_bb)

    # -Linv (L' i + psi_r C')
    g_a = d1_aa * i_a + d1_ab * i_b + psi_r * (-s)
    g_b = d1_ab * i_a - d1_aa * i_b + psi_r * c
    out[..., 2, 2] = -(inv_aa * g_a + inv_ab * g_b)
    out[..., 3, 2] = -(inv_ab * g_a + inv_bb * g_b)

    # (Linv)' L di - Linv (L'' i - psi_r C) omega, with (Linv)' = -Linv L' Linv
    Ldi_a = (L0 + L2 * c2) * di_a + L2 * s2 * di_b
    Ldi_b = L2 * s2 * di_a + (L0 - L2 * c2) * di_b
    t_a = inv_aa * Ldi_a + inv_ab * Ldi_b
    t_b = inv_ab * Ldi_a + inv_bb * Ldi_b
    lp_a = d1_aa * t_a + d1_ab * t_b
    lp_b = d1_ab * t_a - d1_aa * t_b
    m_a = d2_aa * i_a + d2_ab * i_b - psi_r * c
    m_b = d2_ab * i_a - d2_aa * i_b - psi_r * s
    h_a = lp_a + m_a * omega
    h_b = lp_b + m_b * omega
    out[..., 2, 3] = -(inv_aa * h_a + inv_ab * h_b)
    out[..., 3, 3] = -(inv_ab * h_a + inv_bb * h_b)
    return out


def obs_matrix_y1_ipmsm(x, u, params: MachineParams) -> np.ndarray:
    """Analytic 4x4 observability matrix from the output and its first
    derivative, for the salient electromechanical model.

    x = (i_alpha, i_beta, omega, theta), u = (v_alpha, v_beta).
    """
    c, s = math.cos(x[3]), math.sin(x[3])
    di_a, di_b = _electrical_rate_ab(params, x[0], x[1], x[2], c, s, u[0], u[1])
    return _obs_matrix_y1(params, x[0], x[1], x[2], c, s, di_a, di_b)


def det_y1_ipmsm(i_dq, di_dq_dt, omega: float, params: MachineParams) -> float:
    """Closed-form determinant of the order-1 observability matrix.

    Arguments are rotor-frame currents and their time derivative (the true
    derivative of the rotating-frame vector, frame-rotation term included).
    The value is frame-invariant and equals det(obs_matrix_y1_ipmsm).
    """
    i_d, i_q = i_dq[0], i_dq[1]
    di_d, di_q = di_dq_dt[0], di_dq_dt[1]
    ld = params.L_delta
    psi_d = ld * i_d + params.psi_r
    denom = params.Ld * params.Lq
    speed_term = (psi_d * psi_d + ld * ld * i_q * i_q) * omega
    drift_term = ld * (ld * di_d * i_q - psi_d * di_q)
    return (speed_term + drift_term) / denom


class ObsVector(NamedTuple):
    """Observability vector in the rotor frame and its phase."""

    psi_d: float
    psi_q: float
    theta_o: float
    degenerate: bool


def _vector_columns(params: MachineParams, i_d, i_q, di_d, di_q, omega) -> dict:
    """Observability vector, phase and margin columns; NaN phase and margin where the vector is zero."""
    ld = params.L_delta
    psi_d = ld * i_d + params.psi_r
    psi_q = ld * i_q
    norm_sq = psi_d * psi_d + psi_q * psi_q
    with np.errstate(invalid="ignore", divide="ignore"):
        theta_o = np.where(norm_sq > 0.0, np.arctan2(psi_q, psi_d), np.nan)
        rate = ld * (psi_d * di_q - psi_q * di_d) / norm_sq
        margin = np.where(norm_sq > 0.0, omega - rate, np.nan)
    return {"psi_o_d": psi_d, "psi_o_q": psi_q, "theta_o": theta_o, "margin": margin}


def observability_vector(i_dq, params: MachineParams) -> ObsVector:
    """Rotor-frame vector whose rotation rate governs the rank condition.

    The d-component is the active flux L_delta*i_d + psi_r.  When the vector
    is exactly zero its phase is undefined; the result is flagged degenerate
    and theta_o is NaN.
    """
    cols = _vector_columns(params, *np.asarray(i_dq, dtype=float), 0.0, 0.0, 0.0)
    psi_d, psi_q = float(cols["psi_o_d"]), float(cols["psi_o_q"])
    return ObsVector(psi_d, psi_q, float(cols["theta_o"]), psi_d == 0.0 and psi_q == 0.0)


def observability_margin(i_dq, di_dq_dt, omega: float, params: MachineParams) -> float:
    """omega minus the rotation rate of the observability vector.

    The rate d(theta_o)/dt comes from the quotient rule on atan2 components,
    not from differencing phase samples.  Zero margin is exactly the rank
    deficiency of the order-1 stack: margin * |Psi|^2 / (Ld*Lq) = det_y1.
    """
    cols = _vector_columns(params, *np.asarray(i_dq, dtype=float), *np.asarray(di_dq_dt, dtype=float), omega)
    if cols["psi_o_d"] == 0.0 and cols["psi_o_q"] == 0.0:
        raise DegenerateObservabilityVector(
            f"observability vector is zero at i_dq={tuple(i_dq)}"
        )
    return float(cols["margin"])


# ---------------------------------------------------------------------------
# Non-salient machine determinants
# ---------------------------------------------------------------------------


def _require_nonsalient(params: MachineParams, what: str) -> None:
    if params.L2 != 0.0:
        raise ValueError(f"{what} is defined for a non-salient machine (L2=0), got L2={params.L2}")


def spmsm_det_y1(omega: float, params: MachineParams) -> float:
    """Order-1 determinant of the non-salient machine: zero iff standstill."""
    _require_nonsalient(params, "spmsm_det_y1")
    r = params.psi_r / params.L0
    return omega * r * r


def spmsm_det_y2(omega: float, domega_dt: float, i_d: float, params: MachineParams) -> float:
    """Determinant from the output rows of derivative order 2.

    Nonzero acceleration keeps the non-salient machine observable through
    zero-speed crossings.
    """
    _require_nonsalient(params, "spmsm_det_y2")
    L0, R, psi_r = params.L0, params.R, params.psi_r
    bracket = (
        2.0 * omega * omega
        + (R * R) / (L0 * L0)
        + (3.0 * params.p**2 / params.J) * psi_r * i_d
    ) * omega - (R / L0) * domega_dt
    return (psi_r * psi_r) / (L0 * L0) * bracket


def spmsm_det_y3_at_sing(i_d: float, di_q_dt: float, params: MachineParams) -> float:
    """Order-3 determinant evaluated under the order-2 rank-deficiency
    conditions (omega = 0, domega/dt = 0, constant load torque).

    The mechanical jerk under those conditions is d2(omega)/dt2 =
    (3 p^2 / 2J) * psi_r * di_q/dt.
    """
    _require_nonsalient(params, "spmsm_det_y3_at_sing")
    L0, R, psi_r = params.L0, params.R, params.psi_r
    k = 3.0 * params.p**2 / (2.0 * params.J)
    omega_ddot = k * psi_r * di_q_dt
    bracket = (R * R) / (L0 * L0) - k * (L0 * i_d + psi_r) * (psi_r / L0)
    return (psi_r * psi_r) / (L0 * L0) * bracket * omega_ddot


def spmsm_standstill_stack(params: MachineParams, theta: float) -> np.ndarray:
    """Explicit 8x4 gradient stack of the held-rotor non-salient model.

    Row block k carries the factor (-R/L0)^(k-1) relative to block 1 and the
    position column is identically zero: no derivative order adds position
    information at standstill.
    """
    _require_nonsalient(params, "spmsm_standstill_stack")
    a = -params.R / params.L0
    b = params.psi_r / params.L0
    s, c = math.sin(theta), math.cos(theta)
    rows = [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
    for k in range(1, 4):
        cur = a**k
        emf = a ** (k - 1) * b
        rows.append([cur, 0.0, emf * s, 0.0])
        rows.append([0.0, cur, -emf * c, 0.0])
    return np.array(rows)


def spmsm_rank_at_standstill(params: MachineParams, theta: float) -> tuple[np.ndarray, int]:
    """Standstill stack and its numeric rank (3 for any theta when psi_r > 0)."""
    stack = spmsm_standstill_stack(params, theta)
    rank, _ = numeric_rank(stack)
    return stack, rank


def hfi_det_y1(
    omega: float,
    theta_err: float,
    t: float,
    V_hf: float,
    omega_hf: float,
    params: MachineParams,
) -> float:
    """Order-1 determinant with a high-frequency voltage injected on the
    estimated d-axis.

    At standstill the injection restores a nonzero value whenever the
    position-estimate error is away from 0 (mod pi) and the carrier is not at
    a zero crossing.
    """
    _require_nonsalient(params, "hfi_det_y1")
    L0, psi_r = params.L0, params.psi_r
    return (-psi_r * psi_r / (L0 * L0)) * omega + (
        psi_r / (L0 * L0)
    ) * V_hf * math.cos(omega_hf * t) * math.sin(theta_err)


class AugmentedRank(NamedTuple):
    rank: int
    degenerate: bool


def augmented_output_rank(params: MachineParams, theta: float, a: float, b: float) -> AugmentedRank:
    """Rank of the standstill stack augmented with a position-dependent
    measurement a*theta + b.

    The offset b has zero gradient and cannot matter.  a = 0 degenerates to
    the unaugmented rank-3 case and is flagged.
    """
    stack = spmsm_standstill_stack(params, theta)
    extra = np.array([[0.0, 0.0, 0.0, a]])
    rank, _ = numeric_rank(np.vstack([stack, extra]))
    return AugmentedRank(rank, a == 0.0)


# ---------------------------------------------------------------------------
# Back-EMF and flux model determinants
# ---------------------------------------------------------------------------


def emf_model_det(params: MachineParams) -> float:
    """Order-1 determinant of the back-EMF model: constant, speed-independent."""
    return 1.0 / (params.L0 * params.L0)


class EmfEstimate(NamedTuple):
    theta: float
    omega: float
    indeterminate: bool


def emf_position_speed(e_alpha: float, e_beta: float, params: MachineParams) -> EmfEstimate:
    """Position and speed reconstructed from the back-EMF components.

    At zero EMF (standstill) the position is indeterminate: flagged, NaN
    outputs.  The speed sign is taken from the convention e_beta = omega *
    psi_r * cos(theta); the magnitude-only reconstruction cannot separate
    (omega, theta) from (-omega, theta+pi).
    """
    if e_alpha == 0.0 and e_beta == 0.0:
        return EmfEstimate(math.nan, math.nan, True)
    theta = math.atan2(-e_alpha, e_beta)
    omega = math.hypot(e_alpha, e_beta) / params.psi_r
    return EmfEstimate(theta, omega, False)


def flux_model_dets(omega: float, params: MachineParams) -> tuple[float, float, float]:
    """Determinants of the flux model at derivative orders 1..3.

    All three vanish identically at standstill.
    """
    L0, R = params.L0, params.R
    w2 = omega * omega
    d1 = w2 / (L0 * L0)
    d2 = w2 / L0**4 * (R * R + L0 * L0 * w2)
    d3 = w2 / L0**6 * (R**4 + L0**4 * w2 * w2 - R * R * L0 * L0 * w2)
    return d1, d2, d3


# ---------------------------------------------------------------------------
# Per-sample report and vectorized trajectory evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservabilityReport:
    """Observability quantities at one trajectory sample.

    det_y2/det_y3 are NaN where undefined: both require a non-salient
    machine, and det_y3 additionally the zero-speed zero-acceleration
    conditions under which its closed form is valid.
    """

    time: float
    det_y1: float
    det_y2: float
    det_y3: float
    singular_values: tuple
    numeric_rank: int
    psi_o_d: float
    psi_o_q: float
    theta_o: float
    margin: float


def sample_report(
    params: MachineParams,
    t: float,
    i_dq,
    di_dq_dt,
    omega: float,
    omega_dot: float,
    theta: float,
) -> ObservabilityReport:
    """Evaluate all logged observability quantities at one true-state sample.

    This is trajectory_reports on a one-sample trajectory.
    """
    args = (t, i_dq[0], i_dq[1], di_dq_dt[0], di_dq_dt[1], omega, omega_dot, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        cols = trajectory_reports(params, *(np.array([v], dtype=float) for v in args))
    return ObservabilityReport(
        time=t,
        det_y1=float(cols["det_y1"][0]),
        det_y2=float(cols["det_y2"][0]),
        det_y3=float(cols["det_y3"][0]),
        singular_values=tuple(cols["singular_values"][0]),
        numeric_rank=int(cols["rank"][0]),
        psi_o_d=float(cols["psi_o_d"][0]),
        psi_o_q=float(cols["psi_o_q"][0]),
        theta_o=float(cols["theta_o"][0]),
        margin=float(cols["margin"][0]),
    )


def trajectory_reports(
    params: MachineParams,
    t: np.ndarray,
    i_d: np.ndarray,
    i_q: np.ndarray,
    di_d: np.ndarray,
    di_q: np.ndarray,
    omega: np.ndarray,
    omega_dot: np.ndarray,
    theta: np.ndarray,
) -> dict:
    """Observability quantities over a whole trajectory of N samples.

    Returns a dict of length-N column arrays keyed like the CSV schema
    (det_y1, det_y2, det_y3, rank, psi_o_d, psi_o_q, theta_o, margin), plus
    "singular_values", the (N, 4) singular values of each order-1 matrix in
    descending order.  The order-1 matrices are ranked in one batched SVD;
    a non-finite matrix raises FloatingPointError naming its sample time.
    """
    det1 = det_y1_ipmsm((i_d, i_q), (di_d, di_q), omega, params)
    if params.L2 == 0.0:
        det2 = spmsm_det_y2(omega, omega_dot, i_d, params)
        sing = (omega == 0.0) & (omega_dot == 0.0)
        det3 = np.where(sing, spmsm_det_y3_at_sing(i_d, di_q, params), np.nan)
    else:
        det2 = np.full(np.shape(t), np.nan)
        det3 = np.full(np.shape(t), np.nan)

    # rotor-frame rates back to stator frame for the analytic order-1 matrix
    c, s = np.cos(theta), np.sin(theta)
    i_a = c * i_d - s * i_q
    i_b = s * i_d + c * i_q
    di_a_r = di_d - omega * i_q
    di_b_r = di_q + omega * i_d
    di_a = c * di_a_r - s * di_b_r
    di_b = s * di_a_r + c * di_b_r
    m1 = _obs_matrix_y1(params, i_a, i_b, omega, c, s, di_a, di_b)
    bad = ~np.isfinite(m1).all(axis=(-2, -1))
    if bad.any():
        raise FloatingPointError(f"non-finite order-1 observability matrix at t={t[bad][0]:.6g}")
    rank, sv = numeric_rank(m1)
    return {
        "det_y1": det1,
        "det_y2": det2,
        "det_y3": det3,
        "rank": rank,
        **_vector_columns(params, i_d, i_q, di_d, di_q, omega),
        "singular_values": sv,
    }
