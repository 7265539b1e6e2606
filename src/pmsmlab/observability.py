"""Local observability analysis of sensorless PMSM models.

State ordering for all 4-state stacks is x = [i_alpha, i_beta, omega, theta]
for the electromechanical model, x = [i_alpha, i_beta, e_alpha, e_beta] for
the back-EMF model, and x = [i_alpha, i_beta, psi_alpha, psi_beta] for the
flux model.  The measured output is always the stator current pair.  The
electromechanical model and its derivatives come from pmsmlab.machine: the
order-1 matrix's rows 2-3 are the current-rate gradient of its one gradient
kernel, _model_gradients, which also gives the filter's Jacobian.  The
per-sample quantities (order-1 rank and singular values, determinants,
observability vector and margin) come only from trajectory_reports, which
sample_report runs on one state.  numeric_rank decomposes one order-1 matrix
per run of bit-equal consecutive samples.

Two independent routes are kept side by side on purpose:

* closed-form expressions evaluated directly, and
* a nested central finite-difference ("oracle") construction of the stacked
  Lie-derivative gradients, used to validate every closed form numerically.
  It calls only the model's rate, never a closed form, and evaluates each
  nesting level of its stencil as one broadcast rate call on an array of
  states (4,096 states at the deepest level of an order-3 stack).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from pmsmlab.machine import MachineParams, _inductance, _is_integer, _is_num, _model_gradients, _rotate, state_rate

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


class ModelKind(enum.Enum):
    """Which state-space model the observability stack is built for."""

    ELECTROMECHANICAL = "electromechanical"
    BACK_EMF = "back_emf"
    FLUX = "flux"


def numeric_rank(matrix: np.ndarray) -> tuple:
    """Rank by singular-value counting, with the threshold RANK_RTOL * sigma_max.

    Returns (rank, singular values in descending order).  A stack of matrices
    (leading axes, the matrix in the last two) is ranked matrix by matrix: rank
    is then an integer array of the leading shape and the singular values run
    along the last axis.  A single matrix gives an int.

    Only the first matrix of each run of bit-equal consecutive matrices is
    decomposed (-0.0 and +0.0 differ), in one pass over the stack, so its
    temporaries grow with the stack; a run's derive pass hands it one chunk
    (simulation.CHUNK_SAMPLES matrices) at a time.  The values are those of
    np.linalg.svd on each matrix, bit for bit.
    """
    m = np.asarray(matrix, dtype=float)
    *lead, rows, cols = m.shape
    stack = m.reshape(-1, rows, cols)
    keys = stack.reshape(len(stack), rows * cols).view(f"V{m.itemsize * rows * cols}")[:, 0]  # a matrix as one value
    fresh = np.ones(len(stack), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]  # starts a run: differs from the matrix before it
    # each matrix takes the values of its run's first
    sv = np.linalg.svd(stack.compress(fresh, axis=0), compute_uv=False)[fresh.cumsum() - 1]
    rank = (sv > RANK_RTOL * sv[:, :1]).sum(axis=1).reshape(lead)
    return (int(rank) if rank.ndim == 0 else rank), sv.reshape(*lead, sv.shape[1])


# ---------------------------------------------------------------------------
# Model right-hand sides for the finite-difference oracle
# ---------------------------------------------------------------------------


def _emech_rate(params, x, u, T_l, locked_rotor):
    f = state_rate(params, x, u, T_l)
    if locked_rotor:
        # Reduced model for the held-rotor study: speed and position are
        # frozen identically, not just instantaneously zero.
        f[..., 2:] = 0.0
    return f


def _backemf_rate(params, x, u, omega_dot):
    L0 = params.L0
    e_a, e_b = x[..., 2], x[..., 3]
    di_a = (u[0] - params.R * x[..., 0] - e_a) / L0
    di_b = (u[1] - params.R * x[..., 1] - e_b) / L0
    emf_norm = np.hypot(e_a, e_b)
    if omega_dot == 0.0:
        ratio = 0.0
    else:
        if np.any(emf_norm == 0.0):
            raise ValueError(
                "back-EMF dynamics are singular at zero EMF (standstill); "
                "the amplitude term omega_dot/omega is indeterminate"
            )
        ratio = omega_dot / (emf_norm / params.psi_r)
    omega = emf_norm / params.psi_r
    de_a = ratio * e_a - omega * e_b
    de_b = ratio * e_b + omega * e_a
    return np.stack((di_a, di_b, de_a, de_b), axis=-1)


def _flux_rate(params, x, u, omega):
    L0 = params.L0
    psi_a, psi_b = x[..., 2], x[..., 3]
    di_a = (u[0] - params.R * x[..., 0] + omega * psi_b) / L0
    di_b = (u[1] - params.R * x[..., 1] - omega * psi_a) / L0
    return np.stack((di_a, di_b, -omega * psi_b, omega * psi_a), axis=-1)


# ---------------------------------------------------------------------------
# Nested finite-difference gradient stack
# ---------------------------------------------------------------------------


_STENCIL = np.array([2.0, 1.0, -1.0, -2.0])


def _fd_jacobian(g: Callable[[np.ndarray], np.ndarray], X: np.ndarray, hvec: np.ndarray) -> np.ndarray:
    """Five-point central-difference Jacobian with per-component steps, at every state of X.

    X has shape (..., 4).  The whole stencil, shape (..., 4, 4, 4) as direction,
    multiplier (2, 1, -1, -2) and state, goes to g in one call, which broadcasts
    over leading axes; the result has shape (..., 2, 4).

    The steps are fixed by the caller (frozen at the stack's base point); if
    they were rescaled at every perturbed point, the kinks of the scaling
    rule would contaminate the outer differences of nested evaluations.
    """
    pts = np.broadcast_to(X[..., None, None, :], X.shape[:-1] + (STATE_DIM, len(_STENCIL), STATE_DIM)).copy()
    for i in range(STATE_DIM):
        pts[..., i, :, i] += _STENCIL * hvec[i]
    vals = g(pts)  # (..., direction, multiplier, output)
    diff = -vals[..., 0, :] + 8.0 * vals[..., 1, :] - 8.0 * vals[..., 2, :] + vals[..., 3, :]
    return np.swapaxes(diff / (12.0 * hvec[:, None]), -1, -2)


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
    d(omega)/dt and d(theta)/dt are identically zero.  steps overrides
    DEFAULT_FD_STEPS per order (keys 1..3, values finite and > 0).

    Each nesting level of the stencil is one rate call on an array of states,
    so a stack of order K makes 1 + K(K+1)/2 rate calls.  A stack that is not
    finite raises ValueError.
    """
    if not (_is_integer(orders) and 0 <= orders <= 3):
        raise ValueError(f"orders must be an integer in 0..3, got {orders!r}")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (STATE_DIM,):
        raise ValueError(f"state must have shape (4,), got {x.shape}")
    if u.shape != (2,):
        raise ValueError(f"input must have shape (2,), got {u.shape}")
    fd_steps = dict(DEFAULT_FD_STEPS)
    for k, lam in (steps or {}).items():
        if not (_is_integer(k) and k in DEFAULT_FD_STEPS):
            raise ValueError(f"steps keys must be orders in 1..3, got {k!r}")
        if not (_is_num(lam) and lam > 0.0):
            raise ValueError(f"steps[{k}] must be finite and > 0, got {lam!r}")
        fd_steps[k] = lam

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

    # lie[k] evaluates the k-th output derivative at states of shape (..., 4).
    # Order 1 is exactly the current rows of f (the output gradient is
    # constant), so finite differencing starts at the gradient of order 1.
    # Order k is J_{k-1} f, summed over the state in a fixed order so that the
    # result does not depend on which matrix-product kernel runs.
    def _chain(prev, hvec):
        def lie_k(X):
            jac, rate = _fd_jacobian(prev, X, hvec), f(X)
            out = jac[..., 0] * rate[..., None, 0]
            for j in range(1, STATE_DIM):
                out = out + jac[..., j] * rate[..., None, j]
            return out

        return lie_k

    lie = [None, lambda X: f(X)[..., :OUT_DIM]]
    for k in range(2, orders + 1):
        lie.append(_chain(lie[k - 1], hvecs[k - 1]))

    blocks = [np.eye(OUT_DIM, STATE_DIM)]
    with np.errstate(over="ignore", invalid="ignore"):
        blocks += [_fd_jacobian(lie[k], x, hvecs[k]) for k in range(1, orders + 1)]
    stack = np.vstack(blocks)
    if not np.all(np.isfinite(stack)):
        raise ValueError(f"non-finite gradient stack at x={x}")
    return stack


# ---------------------------------------------------------------------------
# Closed-form matrices and determinants, salient machine
# ---------------------------------------------------------------------------


def _obs_matrix_y1(params: MachineParams, i_a, i_b, omega, c, s, di_a, di_b, ind) -> np.ndarray:
    """Analytic order-1 observability matrix, with c, s = cos(theta), sin(theta).

    Float arguments give one 4x4 matrix, arrays of N samples an (N, 4, 4)
    stack.  di is the stator current rate and ind = _inductance(params, c, s).
    """
    out = np.zeros(np.shape(c) + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    for k, entry in enumerate(_model_gradients(params, i_a, i_b, omega, c, s, di_a, di_b, ind)[:8]):
        out[..., 2 + k // 4, k % 4] = entry
    return out


def det_y1_ipmsm(i_dq, di_dq_dt, omega: float, params: MachineParams) -> float:
    """Closed-form determinant of the order-1 observability matrix.

    Arguments are rotor-frame currents and their time derivative (the true
    derivative of the rotating-frame vector, frame-rotation term included).
    The value is frame-invariant and equals the determinant of _obs_matrix_y1.
    """
    i_d, i_q = i_dq[0], i_dq[1]
    di_d, di_q = di_dq_dt[0], di_dq_dt[1]
    ld = params.L_delta
    psi_d = ld * i_d + params.psi_r
    denom = params.Ld * params.Lq
    speed_term = (psi_d * psi_d + ld * ld * i_q * i_q) * omega
    drift_term = ld * (ld * di_d * i_q - psi_d * di_q)
    return (speed_term + drift_term) / denom


def _vector_columns(params: MachineParams, i_d, i_q, di_d, di_q, omega) -> dict:
    """The observability vector Psi = (L_delta i_d + psi_r, L_delta i_q), its phase theta_o and the margin.

    The margin is omega - d(theta_o)/dt, the rate from the quotient rule on the atan2 components.
    margin * |Psi|^2 / (Ld*Lq) = det_y1, so a zero margin is the order-1 rank loss.  Phase and margin
    are NaN where the vector is zero.
    """
    ld = params.L_delta
    psi_d = ld * i_d + params.psi_r
    psi_q = ld * i_q
    norm_sq = psi_d * psi_d + psi_q * psi_q
    with np.errstate(invalid="ignore", divide="ignore"):
        theta_o = np.where(norm_sq > 0.0, np.arctan2(psi_q, psi_d), np.nan)
        rate = ld * (psi_d * di_q - psi_q * di_d) / norm_sq
        margin = np.where(norm_sq > 0.0, omega - rate, np.nan)
    return {"psi_o_d": psi_d, "psi_o_q": psi_q, "theta_o": theta_o, "margin": margin}


# ---------------------------------------------------------------------------
# Non-salient machine determinants
# ---------------------------------------------------------------------------


def _require_nonsalient(params: MachineParams, what: str) -> None:
    if params.is_salient:
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

    Its sign is the opposite of det_y1's: with no carrier (V_hf = 0) it is
    -psi_r^2 * omega / L0^2, the negative of spmsm_det_y1 and of the
    determinant of the order-1 lie_gradient_stack.
    """
    _require_nonsalient(params, "hfi_det_y1")
    L0, psi_r = params.L0, params.psi_r
    return (-psi_r * psi_r / (L0 * L0)) * omega + (
        psi_r / (L0 * L0)
    ) * V_hf * math.cos(omega_hf * t) * math.sin(theta_err)


# ---------------------------------------------------------------------------
# Back-EMF and flux model determinants
# ---------------------------------------------------------------------------


def emf_model_det(params: MachineParams) -> float:
    """Order-1 determinant of the back-EMF model: constant, speed-independent."""
    return 1.0 / (params.L0 * params.L0)


def emf_position_speed(e_alpha: float, e_beta: float, params: MachineParams) -> tuple[float, float]:
    """(theta, omega) reconstructed from the back-EMF components.

    At zero EMF (standstill) the position is indeterminate and both are NaN.
    The speed sign is taken from the convention e_beta = omega * psi_r *
    cos(theta); the magnitude-only reconstruction cannot separate
    (omega, theta) from (-omega, theta+pi).
    """
    if e_alpha == 0.0 and e_beta == 0.0:
        return math.nan, math.nan
    return math.atan2(-e_alpha, e_beta), math.hypot(e_alpha, e_beta) / params.psi_r


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
    """Observability quantities at one trajectory sample: its time, then trajectory_reports' keys in order.

    det_y2/det_y3 are NaN where undefined: both require a non-salient
    machine, and det_y3 additionally the zero-speed zero-acceleration
    conditions under which its closed form is valid.
    """

    time: float
    det_y1: float
    det_y2: float
    det_y3: float
    numeric_rank: int
    psi_o_d: float
    psi_o_q: float
    theta_o: float
    margin: float
    singular_values: list


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

    This is trajectory_reports on a one-sample trajectory, evaluated on numpy
    scalars rather than one-element arrays.
    """
    args = (t, i_dq[0], i_dq[1], di_dq_dt[0], di_dq_dt[1], omega, omega_dot, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        cols = trajectory_reports(params, *(np.float64(v) for v in args))
    return ObservabilityReport(t, *(np.asarray(col).tolist() for col in cols.values()))


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

    Returns length-N arrays keyed by their TrajectoryLog column names (det_y1,
    det_y2, det_y3, rank, psi_o_d, psi_o_q, theta_o, margin), then
    "singular_values", the (N, 4) singular values of each order-1 matrix in
    descending order, which no column holds.  The order-1 matrices are ranked
    by numeric_rank; a non-finite matrix raises FloatingPointError naming
    the first such sample's time, with its index as the error's `sample`.
    Numpy scalar arguments give one sample's values; unlike Python floats,
    they follow numpy's error state.
    """
    det1 = det_y1_ipmsm((i_d, i_q), (di_d, di_q), omega, params)
    if not params.is_salient:
        det2 = spmsm_det_y2(omega, omega_dot, i_d, params)
        sing = (omega == 0.0) & (omega_dot == 0.0)
        det3 = np.where(sing, spmsm_det_y3_at_sing(i_d, di_q, params), np.nan)
    else:
        det2 = np.full(np.shape(t), np.nan)
        det3 = np.full(np.shape(t), np.nan)

    # rotor-frame rates back to stator frame for the analytic order-1 matrix
    c, s = np.cos(theta), np.sin(theta)
    i_a, i_b = _rotate(i_d, i_q, c, s)
    di_a, di_b = _rotate(di_d - omega * i_q, di_q + omega * i_d, c, s)
    m1 = _obs_matrix_y1(params, i_a, i_b, omega, c, s, di_a, di_b, _inductance(params, c, s))
    if not np.isfinite(m1).all():
        k = int(np.isfinite(m1).all(axis=(-2, -1)).argmin())
        exc = FloatingPointError(f"non-finite order-1 observability matrix at t={np.ravel(t)[k]:.6g}")
        exc.sample = k
        raise exc
    rank, sv = numeric_rank(m1)
    return {
        "det_y1": det1,
        "det_y2": det2,
        "det_y3": det3,
        "rank": rank,
        **_vector_columns(params, i_d, i_q, di_d, di_q, omega),
        "singular_values": sv,
    }
