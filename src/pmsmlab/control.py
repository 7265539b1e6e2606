"""Rotor-frame current control and test-signal injection.

A pair of PI loops regulates the dq currents; the commanded voltage is
rotated back to the stationary frame with the true rotor angle.  An
InjectionSchedule says which test signal is on and when, and each caller
applies its own waveform: current_reference adds amplitude * sin(frequency
* t) to the q-axis current reference, and _command_ab a voltage carrier
amplitude * cos(frequency * t) on the estimated d-axis.

The controller is two float kernels, which the run loop
(simulation._records, reached through run_chunks) calls once per sample:
_pi_law holds the PI law of one axis with its anti-windup clamp, and
_command_ab the command rotation with its carrier.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from pmsmlab.machine import MachineParams, _rotate, raise_violations, type_violations


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
        """(field, message) for every broken invariant; an inactive schedule needs only its kind and finite values."""
        found = type_violations(float, amplitude=amplitude, frequency=frequency)
        found += type_violations(tuple, window=(t_start, t_end))
        if not isinstance(kind, InjectionKind):
            kinds = ", ".join(k.value for k in InjectionKind)
            found.append(("kind", f"must be an InjectionKind ({kinds}), got {kind!r}"))
        if found or kind is InjectionKind.NONE:
            return found
        if not t_start < t_end:
            found.append(("window", "needs t_start < t_end"))
        if amplitude < 0.0:
            found.append(("amplitude", "must be >= 0"))
        if not math.isfinite(float(frequency) * float(max(abs(t_start), abs(t_end)))):  # inf on overflow, also of ints
            found.append(("frequency", "the carrier phase frequency * t must stay finite over the window"))
        return found

    def active(self, t: float) -> bool:
        return self.kind is not _NO_INJECTION and self.t_start <= t < self.t_end


def current_reference(t: float, schedule: InjectionSchedule, base: tuple[float, float]) -> tuple[float, float]:
    """dq current setpoints at time t, with any active current injection added."""
    i_d_ref, i_q_ref = base
    if schedule.kind is _CURRENT_ON_Q and schedule.active(t):
        i_q_ref = i_q_ref + schedule.amplitude * math.sin(schedule.frequency * t)
    return i_d_ref, i_q_ref


def _pi_law(kp, ki, integrator, limit, error, T_s):
    """One sample of the PI law on floats; returns (saturated output, integrator).

    Each clamp is min(max(x, -limit), limit) written as comparisons, which return the same bits for any x
    (NaN, +-inf and +-0.0 included) and any limit >= 0, at a fraction of the two calls' cost.
    """
    out = kp * error + integrator
    out = -limit if out < -limit else limit if out > limit else out
    integ = integrator + ki * error * T_s
    integ = -limit if integ < -limit else limit if integ > limit else integ  # anti-windup
    return out, integ


def default_gains(params: MachineParams, bandwidth: float) -> tuple[float, float, float]:
    """(kp_d, kp_q, ki) from the loop-shaping rule kp = L w_c, ki = R w_c."""
    return params.Ld * bandwidth, params.Lq * bandwidth, params.R * bandwidth


def _command_ab(v_d, v_q, c, s, t, schedule, theta_hat):
    """dq command to stator frame on c, s = cos, sin theta, plus any active d-hat voltage carrier.

    theta_hat, the estimated angle, is read only while a voltage_on_dhat carrier is active.
    """
    v_a, v_b = _rotate(v_d, v_q, c, s)
    if schedule.kind is _VOLTAGE_ON_DHAT and schedule.active(t):
        carrier = schedule.amplitude * math.cos(schedule.frequency * t)
        v_a, v_b = v_a + carrier * math.cos(theta_hat), v_b + carrier * math.sin(theta_hat)
    return v_a, v_b
