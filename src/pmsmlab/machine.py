"""Continuous-time PMSM model, written in the stator (alpha-beta) frame.

Conventions used throughout the package:

* theta is the electrical rotor position in radians, stored unwrapped so that
  dtheta/dt = omega holds exactly; wrap only at reporting boundaries.
* omega is the electrical speed in rad/s.
* The machine is parameterized by the average inductance L0 and the signed
  differential inductance L2, with Ld = L0 + L2 and Lq = L0 - L2.  A machine
  is non-salient exactly when L2 == 0.

The module owns the model and all its derivatives, each read from one
_inductance evaluation (L, L', L'', adj(L)) per angle.  One gradient kernel,
_model_gradients, gives the gradients of the current rate and of the torque.
The package runs on these kernels; the frame-tagged values (FrameVec,
MachineState) and park, dq_current_rate, dynamics_alphabeta and
torque_alphabeta on them serve callers outside it.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
_WRAP_EXACT = 2.0**23  # rad: wrap_angle subtracts whole turns up to here


def wrap_angle(theta):
    """Wrap angles to (-pi, pi], elementwise, keeping those inside (-0.0 too); a float gives a float.

    Subtracting whole turns loses about 1e-16 |theta| rad (1e-9 at _WRAP_EXACT), so an angle beyond
    _WRAP_EXACT is first reduced to [-pi, pi] through its sine and cosine, whose argument reduction
    keeps full precision.
    """
    far = np.abs(theta) > _WRAP_EXACT
    if np.any(far):
        theta = np.where(far, np.arctan2(np.sin(theta), np.cos(theta)), theta)
    wrapped = theta - TWO_PI * (np.ceil((theta - math.pi) / TWO_PI) + 0.0)  # + 0.0 makes ceil's -0.0 a 0.0
    return float(wrapped) if np.ndim(wrapped) == 0 else wrapped


class Frame(enum.Enum):
    """Reference-frame tag for two-component electrical vectors."""

    ALPHA_BETA = "alpha_beta"
    DQ = "dq"


class FrameError(ValueError):
    """Raised when operands tagged with different reference frames are mixed."""


@dataclass(frozen=True)
class FrameVec:
    """Two-component current or voltage vector tagged with its frame; park and the models check the tag."""

    x: float
    y: float
    frame: Frame


def alphabeta(x: float, y: float) -> FrameVec:
    return FrameVec(float(x), float(y), Frame.ALPHA_BETA)


def raise_violations(found) -> None:
    """Raise one ValueError naming every (field or None, message) violation."""
    if found:
        raise ValueError("; ".join(msg if key is None else f"{key}: {msg}" for key, msg in found))


def _is_num(v) -> bool:
    """The number rule: a finite real, numpy's included, not a bool."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    # an int is compared, not converted, so one past the float range is rejected rather than raising
    return abs(v) <= sys.float_info.max if isinstance(v, int) else math.isfinite(v)


def _is_integer(v) -> bool:
    """The integer rule: a bool is not an integer."""
    return isinstance(v, int) and not isinstance(v, bool)


# The type rule of each kind of field, a predicate and its message in the config parser's words: the dataclasses
# check their fields by it, and the parser each JSON value, so a code-built object and a config file read alike.
TYPE_RULES = {
    float: (_is_num, "must be a finite number"),
    tuple: (lambda v: isinstance(v, (tuple, list)) and all(map(_is_num, v)), "must be a list of finite numbers"),
    int: (_is_integer, "must be an integer"),
    bool: (lambda v: isinstance(v, bool), "must be true or false"),
    str: (lambda v: isinstance(v, str), "must be a string"),
}


def type_violations(kind, **values) -> list:
    """(field, message) for each value that breaks the type rule of kind, the type of its fields."""
    holds, message = TYPE_RULES[kind]
    return [(key, message) for key, v in values.items() if not holds(v)]


def l0_l2(Ld, Lq) -> tuple:
    """(L0, L2) of the (Ld, Lq) parameterization: Ld = L0 + L2, Lq = L0 - L2."""
    return 0.5 * (Ld + Lq), 0.5 * (Ld - Lq)


@dataclass(frozen=True)
class MachineParams:
    """Electrical and mechanical constants of one machine.

    The defaults are the published constants of the salient reference machine, so MachineParams() is that machine
    and MachineParams(L2=0.0) the round reference machine.  The inertia is not a published constant; 0.02 kg*m^2
    keeps the estimator's speed-error behaviour comparable between the two machines.

    Attributes:
        R: stator phase resistance, ohm.
        L0: average inductance, henry.
        L2: differential inductance, henry; signed, zero for a non-salient
            machine.  Negative values are allowed (Lq > Ld).
        psi_r: rotor permanent-magnet flux, V*s/rad.
        p: pole-pair count.
        J: rotor plus load inertia, kg*m^2.
    """

    R: float = 0.01
    L0: float = 0.00065  # L0 and L2 as l0_l2 gives them from Ld = 0.5 mH and Lq = 0.8 mH
    L2: float = -0.00015000000000000001  # not -0.15e-3, which is another float
    psi_r: float = 0.0225
    p: int = 2
    J: float = 0.02

    def __post_init__(self) -> None:
        # not vars(self): reading __dict__ slows every later attribute read of the instance
        raise_violations(self.violations(self.R, self.L0, self.L2, self.psi_r, self.p, self.J))

    @staticmethod
    def violations(R, L0, L2, psi_r, p, J) -> list:
        """(field or None, message) for every broken invariant.

        The value rules apply once every field has its type, and the range rules at the end once the
        others hold; only the first broken range rule is reported.
        """
        found = type_violations(float, R=R, L0=L0, L2=L2, psi_r=psi_r, J=J) + type_violations(int, p=p)
        if found:
            return found
        if R <= 0.0:
            found.append(("R", "must be > 0"))
        if L0 <= 0.0:
            found.append(("L0", "must be > 0 (equivalently Ld + Lq > 0)"))
        elif abs(L2) >= L0:
            # |L2| < L0 keeps the inductance matrix positive definite at all theta.
            found.append((None, "|L2| must be < L0 (both Ld and Lq positive)"))
        if psi_r < 0.0:
            found.append(("psi_r", "must be >= 0"))
        if p < 1:
            found.append(("p", "must be >= 1"))
        if J <= 0.0:
            found.append(("J", "must be > 0"))
        if found:
            return found
        # in floats, as _inductance forms det(L): an int squared may not convert
        if not sys.float_info.min <= float(L0) * float(L0) - float(L2) * float(L2) <= sys.float_info.max:
            return [(None, f"Ld*Lq = L0^2 - L2^2 must be a normal float, got L0={L0}, L2={L2}")]
        if p > sys.float_info.max:
            return [(None, "p must not exceed the float range")]
        return []

    @classmethod
    def from_dq(
        cls, R: float, Ld: float, Lq: float, psi_r: float, p: int, J: float
    ) -> "MachineParams":
        """Build params from the (Ld, Lq) parameterization."""
        L0, L2 = l0_l2(Ld, Lq)
        return cls(R=R, L0=L0, L2=L2, psi_r=psi_r, p=p, J=J)

    @property
    def Ld(self) -> float:
        return self.L0 + self.L2

    @property
    def Lq(self) -> float:
        return self.L0 - self.L2

    @property
    def L_delta(self) -> float:
        """Saliency Ld - Lq = 2*L2."""
        return 2.0 * self.L2

    @property
    def is_salient(self) -> bool:
        return self.L2 != 0.0


@dataclass(frozen=True)
class MachineState:
    """True plant state plus the imposed load torque; theta is unwrapped."""

    i_alpha: float
    i_beta: float
    omega: float
    theta: float
    T_l: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.i_alpha, self.i_beta, self.omega, self.theta, self.T_l)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite machine state: {vals}")

    @property
    def currents(self) -> FrameVec:
        return FrameVec(self.i_alpha, self.i_beta, Frame.ALPHA_BETA)


def _rotate(x, y, c, s):
    """(x, y) rotated by the angle with cosine c, sine s; park is (c, -s), the map back to the stator frame (c, s)."""
    return c * x - s * y, s * x + c * y


def park(vec: FrameVec, theta: float) -> FrameVec:
    """Map an alpha-beta vector into the rotor frame (rotation by -theta)."""
    if vec.frame is not Frame.ALPHA_BETA:
        raise FrameError(f"park expects an alpha-beta vector, got {vec.frame.value}")
    return FrameVec(*_rotate(vec.x, vec.y, math.cos(theta), -math.sin(theta)), Frame.DQ)


def _inductance(params: MachineParams, c, s):
    """Entries of L, L' = [[a, b], [b, -a]], L'' (same form) and adj(L), and det(L), at (cos, sin) = (c, s).

    Broadcasts.  Returns (L_aa, L_ab, L_bb), (a', b'), (a'', b''), (adj_aa, adj_ab, adj_bb), det.
    """
    c2 = c * c - s * s
    s2 = 2.0 * s * c
    L0, L2 = params.L0, params.L2
    L_aa, L_ab, L_bb = L0 + L2 * c2, L2 * s2, L0 - L2 * c2
    return ((L_aa, L_ab, L_bb), (-2.0 * L2 * s2, 2.0 * L2 * c2), (-4.0 * L2 * c2, -4.0 * L2 * s2),
            (L_bb, -L_ab, L_aa), L0 * L0 - L2 * L2)


def _electrical_rate_ab(params: MachineParams, i_a, i_b, omega, c, s, v_a, v_b, ind=None):
    """dI/dt in the stator frame, with c, s = cos(theta), sin(theta).

    Plain arithmetic, so it broadcasts: the plant's step-map builder calls it on basis
    columns against blocks of RK4 steps, the rotor-frame rate on arrays of samples, and
    the filter model and the order-1 matrix on floats.  ind is _inductance(params, c, s)
    when the caller already holds it.
    """
    _, (dL_aa, dL_ab), _, (adj_aa, adj_ab, adj_bb), det = _inductance(params, c, s) if ind is None else ind
    R, psi_r = params.R, params.psi_r

    # u = v - R*i - omega*L'*i - psi_r*C'(theta)*omega, with C' = (-sin, cos)
    u_a = v_a - R * i_a - omega * (dL_aa * i_a + dL_ab * i_b) - psi_r * (-s) * omega
    u_b = v_b - R * i_b - omega * (dL_ab * i_a - dL_aa * i_b) - psi_r * c * omega

    inv_det = 1.0 / det
    di_a = (adj_aa * u_a + adj_ab * u_b) * inv_det
    di_b = (adj_ab * u_a + adj_bb * u_b) * inv_det
    return di_a, di_b


def _model_gradients(params: MachineParams, i_a, i_b, omega, c, s, di_a, di_b, ind) -> tuple:
    """Gradients of the current rate and the torque, from one g = L'i + psi_r C'.

    Plain arithmetic that broadcasts; c, s = cos(theta), sin(theta), di is the
    stator current rate and ind = _inductance(params, c, s).  Returns the current
    rate's gradient in (i_a, i_b, omega, theta), 8 entries row by row: rows 2-3
    of the order-1 matrix and rows 0-1 of the filter's Jacobian.  Then the 3
    entries of T / (1.5 p)'s gradient in (i_a, i_b, theta): g, then
    i'L''i / 2 - psi_r i'C.
    """
    _, (d1_aa, d1_ab), (d2_aa, d2_ab), (adj_aa, adj_ab, adj_bb), det = ind
    inv_aa, inv_ab, inv_bb = adj_aa / det, adj_ab / det, adj_bb / det
    R, psi_r = params.R, params.psi_r

    # -Linv (R I + omega L')
    n_aa = R + omega * d1_aa
    n_ab = omega * d1_ab
    n_bb = R - omega * d1_aa

    # -Linv g
    g_a = d1_aa * i_a + d1_ab * i_b + psi_r * (-s)
    g_b = d1_ab * i_a - d1_aa * i_b + psi_r * c

    # -Linv (L' di + omega (L'' i - psi_r C)), from (Linv)' = -Linv L' Linv and Linv u = di
    m_a = d2_aa * i_a + d2_ab * i_b - psi_r * c
    m_b = d2_ab * i_a - d2_aa * i_b - psi_r * s
    h_a = d1_aa * di_a + d1_ab * di_b + m_a * omega
    h_b = d1_ab * di_a - d1_aa * di_b + m_b * omega
    half_quad = 0.5 * d2_aa * (i_a * i_a - i_b * i_b) + d2_ab * i_a * i_b  # i'L''i / 2
    # + 0.0 makes a zero theta entry +0.0: a round machine's 0 * di would carry the sign of di
    return (-(inv_aa * n_aa + inv_ab * n_ab), -(inv_aa * n_ab + inv_ab * n_bb),
            -(inv_aa * g_a + inv_ab * g_b), -(inv_aa * h_a + inv_ab * h_b) + 0.0,
            -(inv_ab * n_aa + inv_bb * n_ab), -(inv_ab * n_ab + inv_bb * n_bb),
            -(inv_ab * g_a + inv_bb * g_b), -(inv_ab * h_a + inv_bb * h_b) + 0.0,
            g_a, g_b, half_quad - psi_r * (i_a * c + i_b * s))


def _dq_current_rate(params: MachineParams, i_a, i_b, omega, c, s, v_a, v_b):
    """i_d, i_q and d(I_dq)/dt = P(-theta) dI_ab/dt - omega*J2*I_dq from stator-frame values; broadcasts."""
    di_a, di_b = _electrical_rate_ab(params, i_a, i_b, omega, c, s, v_a, v_b)
    i_d, i_q = _rotate(i_a, i_b, c, -s)
    di_d, di_q = _rotate(di_a, di_b, c, -s)
    return i_d, i_q, di_d + omega * i_q, di_q - omega * i_d


def _torque(params: MachineParams, i_a, i_b, c, s, ind):
    """Torque in co-energy form, T = 1.5 p dW'/dtheta = 1.5 p (psi_r i'C' + i'L'i / 2); broadcasts.

    W' = i'L(theta)i / 2 + psi_r i'(cos, sin); c, s = cos(theta), sin(theta) and ind = _inductance(params, c, s).
    """
    d1_aa, d1_ab = ind[1]
    half_quad = 0.5 * d1_aa * (i_a * i_a - i_b * i_b) + d1_ab * i_a * i_b  # i'L'i / 2
    return 1.5 * params.p * (params.psi_r * (i_b * c - i_a * s) + half_quad)


def _filter_model(params: MachineParams, ia, ib, omega, theta, va, vb) -> tuple:
    """The filter's rate f (zero load torque) and the entries of A = df/dx that vary, from one L(theta).

    Returns f0..f3, A's rows 0-1 (8 entries) and A20, A21, A23; A22 = 0 and row 3 is (0, 0, 1, 0).
    """
    c, s = math.cos(theta), math.sin(theta)
    ind = _inductance(params, c, s)
    di_a, di_b = _electrical_rate_ab(params, ia, ib, omega, c, s, va, vb, ind)
    *a_01, g_a, g_b, g_theta = _model_gradients(params, ia, ib, omega, c, s, di_a, di_b, ind)
    k = 1.5 * params.p * params.p / params.J
    return (di_a, di_b, params.p / params.J * _torque(params, ia, ib, c, s, ind), omega, *a_01,
            k * g_a, k * g_b, k * g_theta)


def torque_alphabeta(state: MachineState, params: MachineParams) -> float:
    """Electromagnetic torque from stator-frame currents and position."""
    c, s = math.cos(state.theta), math.sin(state.theta)
    return _torque(params, state.i_alpha, state.i_beta, c, s, _inductance(params, c, s))


def state_rate(params: MachineParams, x, u, T_l: float = 0.0) -> np.ndarray:
    """Derivative of x = (i_alpha, i_beta, omega, theta) under u = (v_alpha, v_beta).

    The mechanical equation is domega/dt = (p/J)*(T_m - T_l) with no friction
    term.  Takes plain sequences, so hot callers skip building a MachineState.
    Broadcasts over the leading axes of x: states of shape (..., 4) give rates
    of shape (..., 4).  One state is evaluated on numpy scalars.
    """
    i_a, i_b, omega, theta = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    c, s = np.cos(theta), np.sin(theta)
    ind = _inductance(params, c, s)
    di_a, di_b = _electrical_rate_ab(params, i_a, i_b, omega, c, s, u[0], u[1], ind)
    domega = params.p / params.J * (_torque(params, i_a, i_b, c, s, ind) - T_l)
    return np.stack((di_a, di_b, domega, omega), axis=-1)


def dynamics_alphabeta(
    state: MachineState, v: FrameVec, params: MachineParams
) -> tuple[np.ndarray, float, float]:
    """Full state derivative in the stator frame.

    Returns (dI/dt as a length-2 array, domega/dt, dtheta/dt).  The mechanical
    equation is domega/dt = (p/J)*(T_m - T_l) with no friction term.
    """
    if v.frame is not Frame.ALPHA_BETA:
        raise FrameError(f"expected alpha-beta voltage, got {v.frame.value}")
    x = (state.i_alpha, state.i_beta, state.omega, state.theta)
    f = state_rate(params, x, (v.x, v.y), state.T_l)
    return f[:2], f[2], state.omega


def dq_current_rate(
    state: MachineState, v: FrameVec, params: MachineParams
) -> np.ndarray:
    """Rotor-frame current derivative along a stator-frame trajectory."""
    if v.frame is not Frame.ALPHA_BETA:
        raise FrameError(f"expected alpha-beta voltage, got {v.frame.value}")
    c, s = math.cos(state.theta), math.sin(state.theta)
    _, _, di_d, di_q = _dq_current_rate(params, state.i_alpha, state.i_beta, state.omega, c, s, v.x, v.y)
    return np.array([di_d, di_q])
