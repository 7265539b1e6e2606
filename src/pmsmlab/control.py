"""Rotor-frame current control and test-signal injection.

A pair of PI loops regulates the dq currents; the commanded voltage is
rotated back to the stationary frame with the true rotor angle.  Injection
is either a sinusoidal perturbation added to the q-axis current reference
or a voltage carrier applied on the estimated d-axis.

The float kernels _pi_law and _command_ab hold the PI law and the command
rotation with its carrier; controller_step wraps them in the validated
PiState/ControllerState/FrameVec objects, and run_scenario's loop calls them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from pmsmlab.machine import FrameVec, MachineParams, _rotate, alphabeta, raise_violations


class InjectionKind(enum.Enum):
    NONE = "none"
    CURRENT_ON_Q = "current_on_q"
    VOLTAGE_ON_DHAT = "voltage_on_dhat"


# the members as module globals: the per-sample checks below read a global, not a class attribute
_NO_INJECTION, _CURRENT_ON_Q = InjectionKind.NONE, InjectionKind.CURRENT_ON_Q
_VOLTAGE_ON_DHAT = InjectionKind.VOLTAGE_ON_DHAT


@dataclass(frozen=True)
class InjectionSchedule:
    """Test signal description. Active on [t_start, t_end), closed-open."""

    kind: InjectionKind = InjectionKind.NONE
    amplitude: float = 0.0
    frequency: float = 0.0  # rad/s
    t_start: float = 0.0
    t_end: float = 0.0

    def __post_init__(self) -> None:
        raise_violations(self.violations(self.kind, self.amplitude, self.frequency, self.t_start, self.t_end))

    @staticmethod
    def violations(kind, amplitude, frequency, t_start, t_end) -> list:
        """(field, message) for every broken invariant; an inactive schedule has none."""
        found = []
        if kind is not InjectionKind.NONE:
            if not t_start < t_end:
                found.append(("window", "needs t_start < t_end"))
            if amplitude < 0.0:
                found.append(("amplitude", "must be >= 0"))
            if not math.isfinite(frequency * max(abs(t_start), abs(t_end))):
                found.append(("frequency", "the carrier phase frequency * t must stay finite over the window"))
        return found

    def active(self, t: float) -> bool:
        return self.kind is not _NO_INJECTION and self.t_start <= t < self.t_end

    def carrier(self, t: float) -> float:
        if not self.active(t):
            return 0.0
        if self.kind is _CURRENT_ON_Q:
            return self.amplitude * math.sin(self.frequency * t)
        return self.amplitude * math.cos(self.frequency * t)


def current_reference(t: float, schedule: InjectionSchedule, base: tuple[float, float]) -> tuple[float, float]:
    """dq current setpoints at time t, with any active current injection added."""
    i_d_ref, i_q_ref = base
    if schedule.kind is _CURRENT_ON_Q and schedule.active(t):
        i_q_ref = i_q_ref + schedule.carrier(t)
    return i_d_ref, i_q_ref


@dataclass(frozen=True)
class PiState:
    """PI regulator gains and integrator. limit clamps both integrator and output."""

    kp: float
    ki: float
    integrator: float = 0.0
    limit: float = math.inf

    def __post_init__(self) -> None:
        if self.kp < 0.0 or self.ki < 0.0:
            raise ValueError("gains must be non-negative")
        if self.limit <= 0.0:
            raise ValueError("limit must be positive")


def _pi_law(kp, ki, integrator, limit, error, T_s):
    """One sample of the PI law on floats; returns (saturated output, integrator)."""
    out = kp * error + integrator
    out = min(max(out, -limit), limit)
    integ = integrator + ki * error * T_s
    integ = min(max(integ, -limit), limit)  # anti-windup
    return out, integ


def pi_step(pi: PiState, error: float, T_s: float) -> tuple[float, PiState]:
    """One sample of the PI law; returns (saturated output, advanced state)."""
    out, integ = _pi_law(pi.kp, pi.ki, pi.integrator, pi.limit, error, T_s)
    return out, replace(pi, integrator=integ)


def default_gains(params: MachineParams, bandwidth: float, limit: float) -> tuple[PiState, PiState]:
    """Per-axis PI gains from the loop-shaping rule kp = L w_c, ki = R w_c."""
    return (
        PiState(kp=params.Ld * bandwidth, ki=params.R * bandwidth, limit=limit),
        PiState(kp=params.Lq * bandwidth, ki=params.R * bandwidth, limit=limit),
    )


@dataclass(frozen=True)
class ControllerState:
    pi_d: PiState
    pi_q: PiState


def controller_step(
    ctrl: ControllerState,
    i_dq_meas: FrameVec,
    refs: tuple[float, float],
    theta: float,
    T_s: float,
    t: float = 0.0,
    schedule: InjectionSchedule | None = None,
    theta_hat: float | None = None,
) -> tuple[FrameVec, ControllerState]:
    """Close both current loops and rotate the command to the stationary frame.

    theta is the angle used for the output rotation (the true rotor angle in
    plant simulation).  A voltage-on-d-axis schedule adds its carrier along
    the estimated rotor direction theta_hat.
    """
    v_d, pi_d = pi_step(ctrl.pi_d, refs[0] - i_dq_meas.x, T_s)
    v_q, pi_q = pi_step(ctrl.pi_q, refs[1] - i_dq_meas.y, T_s)
    v_ab = _command_ab(v_d, v_q, math.cos(theta), math.sin(theta), t, schedule, theta_hat)
    return alphabeta(*v_ab), ControllerState(pi_d=pi_d, pi_q=pi_q)


def _command_ab(v_d, v_q, c, s, t, schedule, theta_hat):
    """dq command to stator frame on c, s = cos, sin theta, plus any active d-hat voltage carrier."""
    v_a, v_b = _rotate(v_d, v_q, c, s)
    if schedule is not None and schedule.kind is _VOLTAGE_ON_DHAT and schedule.active(t):
        if theta_hat is None:
            raise ValueError("voltage injection on the estimated axis needs theta_hat")
        carrier = schedule.carrier(t)
        v_a, v_b = v_a + carrier * math.cos(theta_hat), v_b + carrier * math.sin(theta_hat)
    return v_a, v_b
