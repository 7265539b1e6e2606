"""Continuous-time PMSM models in the stator (alpha-beta) and rotor (dq) frames.

Conventions used throughout the package:

* theta is the electrical rotor position in radians, stored unwrapped so that
  dtheta/dt = omega holds exactly; wrap only at reporting boundaries.
* omega is the electrical speed in rad/s.
* The machine is parameterized by the average inductance L0 and the signed
  differential inductance L2, with Ld = L0 + L2 and Lq = L0 - L2.  A machine
  is non-salient exactly when L2 == 0.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    return theta - TWO_PI * math.ceil((theta - math.pi) / TWO_PI)


class Frame(enum.Enum):
    """Reference-frame tag for two-component electrical vectors."""

    ALPHA_BETA = "alpha_beta"
    DQ = "dq"


class FrameError(ValueError):
    """Raised when operands tagged with different reference frames are mixed."""


@dataclass(frozen=True)
class FrameVec:
    """Two-component current or voltage vector tagged with its frame.

    Arithmetic between vectors requires matching tags; mixing frames is a
    contract violation and raises FrameError instead of silently rotating.
    """

    x: float
    y: float
    frame: Frame

    def _check(self, other: "FrameVec") -> None:
        if not isinstance(other, FrameVec):
            raise TypeError(f"expected FrameVec, got {type(other).__name__}")
        if other.frame is not self.frame:
            raise FrameError(
                f"frame mismatch: {self.frame.value} vs {other.frame.value}"
            )

    def __add__(self, other: "FrameVec") -> "FrameVec":
        self._check(other)
        return FrameVec(self.x + other.x, self.y + other.y, self.frame)

    def __sub__(self, other: "FrameVec") -> "FrameVec":
        self._check(other)
        return FrameVec(self.x - other.x, self.y - other.y, self.frame)

    def __mul__(self, scale: float) -> "FrameVec":
        return FrameVec(self.x * scale, self.y * scale, self.frame)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def alphabeta(x: float, y: float) -> FrameVec:
    return FrameVec(float(x), float(y), Frame.ALPHA_BETA)


def dq(x: float, y: float) -> FrameVec:
    return FrameVec(float(x), float(y), Frame.DQ)


@dataclass(frozen=True)
class MachineParams:
    """Electrical and mechanical constants of one machine.

    Attributes:
        R: stator phase resistance, ohm.
        L0: average inductance, henry.
        L2: differential inductance, henry; signed, zero for a non-salient
            machine.  Negative values are allowed (Lq > Ld).
        psi_r: rotor permanent-magnet flux, V*s/rad.
        p: pole-pair count.
        J: rotor plus load inertia, kg*m^2.
    """

    R: float
    L0: float
    L2: float
    psi_r: float
    p: int
    J: float

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(v) for v in (self.R, self.L0, self.L2, self.psi_r, self.J)
        ):
            raise ValueError("machine parameters must be finite")
        if self.R <= 0.0:
            raise ValueError(f"R must be > 0, got {self.R}")
        if self.L0 <= 0.0:
            raise ValueError(f"L0 must be > 0, got {self.L0}")
        if abs(self.L2) >= self.L0:
            # |L2| < L0 keeps the inductance matrix positive definite at all theta.
            raise ValueError(f"|L2| must be < L0, got L2={self.L2}, L0={self.L0}")
        if not sys.float_info.min <= self.L0 * self.L0 - self.L2 * self.L2 <= sys.float_info.max:
            raise ValueError(f"Ld*Lq = L0^2 - L2^2 must be a normal float, got L0={self.L0}, L2={self.L2}")
        if self.psi_r < 0.0:
            raise ValueError(f"psi_r must be >= 0, got {self.psi_r}")
        if int(self.p) != self.p or self.p < 1:
            raise ValueError(f"p must be an integer >= 1, got {self.p}")
        if self.p > sys.float_info.max:
            raise ValueError("p must not exceed the float range")
        if self.J <= 0.0:
            raise ValueError(f"J must be > 0, got {self.J}")

    @classmethod
    def from_dq(
        cls, R: float, Ld: float, Lq: float, psi_r: float, p: int, J: float
    ) -> "MachineParams":
        """Build params from the (Ld, Lq) parameterization."""
        return cls(R=R, L0=0.5 * (Ld + Lq), L2=0.5 * (Ld - Lq), psi_r=psi_r, p=p, J=J)

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
    """True plant state plus the imposed load torque.

    theta is unwrapped; use theta_wrapped for reporting.
    """

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
    def theta_wrapped(self) -> float:
        return wrap_angle(self.theta)

    @property
    def currents(self) -> FrameVec:
        return FrameVec(self.i_alpha, self.i_beta, Frame.ALPHA_BETA)


def park(vec: FrameVec, theta: float) -> FrameVec:
    """Map an alpha-beta vector into the rotor frame (rotation by -theta)."""
    if vec.frame is not Frame.ALPHA_BETA:
        raise FrameError(f"park expects an alpha-beta vector, got {vec.frame.value}")
    c, s = math.cos(theta), math.sin(theta)
    return FrameVec(c * vec.x + s * vec.y, -s * vec.x + c * vec.y, Frame.DQ)


def inverse_park(vec: FrameVec, theta: float) -> FrameVec:
    """Map a dq vector back to the stator frame (rotation by +theta)."""
    if vec.frame is not Frame.DQ:
        raise FrameError(f"inverse_park expects a dq vector, got {vec.frame.value}")
    c, s = math.cos(theta), math.sin(theta)
    return FrameVec(c * vec.x - s * vec.y, s * vec.x + c * vec.y, Frame.ALPHA_BETA)


def inductance_matrix(theta: float, params: MachineParams) -> np.ndarray:
    """Stator inductance matrix at electrical position theta.

    Symmetric with constant eigenvalues {Ld, Lq}; reduces to L0*I for a
    non-salient machine.
    """
    c2 = math.cos(2.0 * theta)
    s2 = math.sin(2.0 * theta)
    L0, L2 = params.L0, params.L2
    return np.array([[L0 + L2 * c2, L2 * s2], [L2 * s2, L0 - L2 * c2]])


def inductance_matrix_derivs(
    theta: float, params: MachineParams
) -> tuple[np.ndarray, np.ndarray]:
    """First and second theta-derivatives of the inductance matrix.

    The second derivative satisfies L'' = -4*(L - L0*I).
    """
    c2 = math.cos(2.0 * theta)
    s2 = math.sin(2.0 * theta)
    L2 = params.L2
    d1 = np.array([[-2.0 * L2 * s2, 2.0 * L2 * c2], [2.0 * L2 * c2, 2.0 * L2 * s2]])
    d2 = np.array([[-4.0 * L2 * c2, -4.0 * L2 * s2], [-4.0 * L2 * s2, 4.0 * L2 * c2]])
    return d1, d2


def inductance_matrix_inv(theta: float, params: MachineParams) -> np.ndarray:
    """Inverse inductance matrix; det(L) = L0^2 - L2^2 is theta-independent."""
    c2 = math.cos(2.0 * theta)
    s2 = math.sin(2.0 * theta)
    L0, L2 = params.L0, params.L2
    det = L0 * L0 - L2 * L2
    return np.array([[L0 - L2 * c2, -L2 * s2], [-L2 * s2, L0 + L2 * c2]]) / det


def _electrical_rate_ab(params: MachineParams, i_a, i_b, omega, c, s, v_a, v_b):
    """dI/dt in the stator frame, with c, s = cos(theta), sin(theta).

    Plain arithmetic: the RK4 stage loop calls it on floats without array
    allocation, and whole-trajectory columns call it on arrays of samples.
    """
    c2 = c * c - s * s
    s2 = 2.0 * s * c
    L0, L2, R, psi_r = params.L0, params.L2, params.R, params.psi_r

    # u = v - R*i - omega*L'*i - psi_r*C'(theta)*omega, with C' = (-sin, cos)
    dL_aa = -2.0 * L2 * s2
    dL_ab = 2.0 * L2 * c2
    u_a = v_a - R * i_a - omega * (dL_aa * i_a + dL_ab * i_b) - psi_r * (-s) * omega
    u_b = v_b - R * i_b - omega * (dL_ab * i_a - dL_aa * i_b) - psi_r * c * omega

    inv_det = 1.0 / (L0 * L0 - L2 * L2)
    di_a = ((L0 - L2 * c2) * u_a - L2 * s2 * u_b) * inv_det
    di_b = (-L2 * s2 * u_a + (L0 + L2 * c2) * u_b) * inv_det
    return di_a, di_b


def _torque(params: MachineParams, i_a, i_b, c, s):
    """Electromagnetic torque from stator-frame currents; c, s as above."""
    c2 = c * c - s * s
    s2 = 2.0 * s * c
    pm = params.psi_r * (i_b * c - i_a * s)
    rel = params.L2 * ((i_a * i_a - i_b * i_b) * s2 - 2.0 * i_a * i_b * c2)
    return 1.5 * params.p * (pm - rel)


def torque_alphabeta(state: MachineState, params: MachineParams) -> float:
    """Electromagnetic torque from stator-frame currents and position."""
    return _torque(
        params, state.i_alpha, state.i_beta, math.cos(state.theta), math.sin(state.theta)
    )


def state_rate(params: MachineParams, x, u, T_l: float = 0.0) -> np.ndarray:
    """Derivative of x = (i_alpha, i_beta, omega, theta) under u = (v_alpha, v_beta).

    The mechanical equation is domega/dt = (p/J)*(T_m - T_l) with no friction
    term.  Takes plain sequences, so hot callers skip building a MachineState.
    """
    c, s = math.cos(x[3]), math.sin(x[3])
    di_a, di_b = _electrical_rate_ab(params, x[0], x[1], x[2], c, s, u[0], u[1])
    domega = params.p / params.J * (_torque(params, x[0], x[1], c, s) - T_l)
    return np.array([di_a, di_b, domega, x[2]])


def torque_dq(i_d: float, i_q: float, params: MachineParams) -> float:
    """Electromagnetic torque from rotor-frame currents."""
    return 1.5 * params.p * (params.L_delta * i_d + params.psi_r) * i_q


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


def dynamics_dq(
    i_dq: FrameVec,
    omega: float,
    v_dq: FrameVec,
    T_l: float,
    params: MachineParams,
) -> tuple[np.ndarray, float, float]:
    """Full state derivative in the rotor frame.

    Returns (dI_dq/dt, domega/dt, dtheta/dt) where dI_dq/dt is the derivative
    of the rotor-frame current vector (it includes the -omega*J2*I_dq frame
    rotation term, so it is consistent with the stator-frame derivative under
    the Park map of a rotating trajectory).
    """
    for vec, name in ((i_dq, "current"), (v_dq, "voltage")):
        if vec.frame is not Frame.DQ:
            raise FrameError(f"expected dq {name}, got {vec.frame.value}")
    i_d, i_q = i_dq.x, i_dq.y
    v_d, v_q = v_dq.x, v_dq.y
    Ld, Lq, R, psi_r = params.Ld, params.Lq, params.R, params.psi_r
    di_d = (v_d - R * i_d + omega * Lq * i_q) / Ld
    di_q = (v_q - R * i_q - omega * Ld * i_d - omega * psi_r) / Lq
    T_m = torque_dq(i_d, i_q, params)
    domega = params.p / params.J * (T_m - T_l)
    return np.array([di_d, di_q]), domega, omega


def dq_current_rate(
    state: MachineState, v: FrameVec, params: MachineParams
) -> np.ndarray:
    """Rotor-frame current derivative along a stator-frame trajectory.

    d(I_dq)/dt = P(-theta) dI_ab/dt - omega*J2*I_dq; the second term is the
    frame-rotation contribution from d/dt of the Park matrix.
    """
    di_ab, _, _ = dynamics_alphabeta(state, v, params)
    i_dq = park(state.currents, state.theta)
    di = park(FrameVec(di_ab[0], di_ab[1], Frame.ALPHA_BETA), state.theta)
    return np.array(
        [di.x + state.omega * i_dq.y, di.y - state.omega * i_dq.x]
    )
