"""Injection scheduling, the controller kernels, and the closed current-control loop."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmsmlab.control import (
    InjectionKind,
    InjectionSchedule,
    _command_ab,
    _pi_law,
    current_reference,
    default_gains,
)
from pmsmlab.machine import MachineParams, alphabeta, park
from pmsmlab.simulation import Scenario

T_S = 1e-4


def _spmsm():
    return MachineParams(R=0.01, L0=0.65e-3, L2=0.0, psi_r=0.0225, p=2, J=0.01)


# ---------------------------------------------------------------------------
# injection schedule
# ---------------------------------------------------------------------------


def test_schedule_validation():
    InjectionSchedule()  # inactive default needs no window
    with pytest.raises(ValueError, match="t_start < t_end"):
        InjectionSchedule(InjectionKind.CURRENT_ON_Q, 0.5, 100.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="amplitude: must be >= 0"):
        InjectionSchedule(InjectionKind.CURRENT_ON_Q, -0.5, 100.0, 0.0, 1.0)
    # a kind given by its config name, not as an InjectionKind, would never inject: it is named, not accepted
    kinds = r"\(none, current_on_q, voltage_on_dhat\)"
    for name in ("none", "voltage_on_dhat"):
        with pytest.raises(ValueError, match=rf"^kind: must be an InjectionKind {kinds}, got '{name}'$"):
            InjectionSchedule(name, 2.0, 3000.0, 0.0, 0.001)
    # non-finite numbers are named, as a config file names them, also in an inactive schedule
    for kind in InjectionKind:
        with pytest.raises(ValueError, match="^amplitude: must be a finite number$"):
            InjectionSchedule(kind, math.nan, 100.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="^frequency: must be a finite number$"):
            InjectionSchedule(kind, 0.5, math.inf, 0.0, 1.0)
        with pytest.raises(ValueError, match="^window: must be a list of finite numbers$"):
            InjectionSchedule(kind, 0.5, 100.0, 0.0, math.nan)


def test_schedule_window_is_closed_open():
    sch = InjectionSchedule(InjectionKind.CURRENT_ON_Q, 0.5, 100.0, 0.2, 0.5)
    assert not sch.active(0.199999)
    assert sch.active(0.2)
    assert sch.active(0.499999)
    assert not sch.active(0.5)
    assert not InjectionSchedule().active(0.3)


def test_current_reference_injection():
    sch = InjectionSchedule(InjectionKind.CURRENT_ON_Q, 0.5, 200.0, 0.1, 0.4)
    assert current_reference(0.0, sch, (1.0, 2.0)) == (1.0, 2.0)
    i_d, i_q = current_reference(0.2, sch, (1.0, 2.0))
    assert i_d == 1.0
    assert i_q == pytest.approx(2.0 + 0.5 * math.sin(200.0 * 0.2), rel=1e-15)
    vol = InjectionSchedule(InjectionKind.VOLTAGE_ON_DHAT, 0.5, 200.0, 0.1, 0.4)
    assert current_reference(0.2, vol, (1.0, 2.0)) == (1.0, 2.0)


# ---------------------------------------------------------------------------
# PI regulator
# ---------------------------------------------------------------------------


def test_pi_step_law():
    out, integ = _pi_law(2.0, 10.0, 0.5, math.inf, 3.0, 0.01)
    assert out == pytest.approx(2.0 * 3.0 + 0.5)
    assert integ == pytest.approx(0.5 + 10.0 * 3.0 * 0.01)


def test_pi_anti_windup():
    integ = 0.0
    for _ in range(50):
        out, integ = _pi_law(1.0, 100.0, integ, 2.0, 10.0, 0.01)
        assert abs(out) <= 2.0
        assert abs(integ) <= 2.0
    # integrator pinned at the limit, not wound far beyond it
    assert integ == 2.0
    out, integ = _pi_law(1.0, 100.0, integ, 2.0, -1.0, 0.01)
    assert out == pytest.approx(1.0)  # recovers immediately


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_pi_law_clamps_as_min_max(data):
    # the comparison clamp returns the bits of min(max(x, -limit), limit) for NaN, +-inf, +-0.0 and +-limit too
    limit = data.draw(st.floats(min_value=0.0), label="limit")
    value = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, limit, -limit])
    kp, ki, integrator, error, T_s = (data.draw(st.sampled_from([0.0, 1.0]) | value, label=name)
                                      for name in ("kp", "ki", "integrator", "error", "T_s"))
    want = (min(max(kp * error + integrator, -limit), limit), min(max(integrator + ki * error * T_s, -limit), limit))
    got = _pi_law(kp, ki, integrator, limit, error, T_s)
    assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]


def test_default_gains_rule():
    p = MachineParams.from_dq(R=0.01, Ld=0.5e-3, Lq=0.8e-3, psi_r=0.0225, p=2, J=0.01)
    kp_d, kp_q, ki = default_gains(p, bandwidth=1000.0)
    assert kp_d == pytest.approx(0.5e-3 * 1000.0)
    assert kp_q == pytest.approx(0.8e-3 * 1000.0)
    assert ki == pytest.approx(0.01 * 1000.0)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def _control(params, i_dq, refs, theta, integ=(0.0, 0.0), t=0.0, schedule=InjectionSchedule(), theta_hat=math.nan):
    """One controller sample as run_scenario's loop takes it: ((v_alpha, v_beta), (integ_d, integ_q)).

    theta_hat defaults to NaN, the estimate of a run without the estimator, so a command that read it would be NaN.
    """
    kp_d, kp_q, ki = default_gains(params, Scenario.control_bandwidth)
    limit = Scenario.voltage_limit
    v_d, integ_d = _pi_law(kp_d, ki, integ[0], limit, refs[0] - i_dq[0], T_S)
    v_q, integ_q = _pi_law(kp_q, ki, integ[1], limit, refs[1] - i_dq[1], T_S)
    return _command_ab(v_d, v_q, math.cos(theta), math.sin(theta), t, schedule, theta_hat), (integ_d, integ_q)


def test_controller_zero_error_zero_command():
    p = _spmsm()
    v, _ = _control(p, (1.0, 2.0), (1.0, 2.0), 0.7)
    assert v == (0.0, 0.0)


def test_controller_voltage_injection_term():
    p = _spmsm()
    sch = InjectionSchedule(InjectionKind.VOLTAGE_ON_DHAT, 2.0, 500.0, 0.0, 1.0)
    t, th_hat = 0.003, 0.9
    base, _ = _control(p, (1.0, 2.0), (1.0, 2.0), 0.7)
    v, _ = _control(p, (1.0, 2.0), (1.0, 2.0), 0.7, t=t, schedule=sch, theta_hat=th_hat)
    carrier = 2.0 * math.cos(500.0 * t)
    assert v[0] - base[0] == pytest.approx(carrier * math.cos(th_hat), rel=1e-14)
    assert v[1] - base[1] == pytest.approx(carrier * math.sin(th_hat), rel=1e-14)
    # outside the window the schedule is a no-op and reads no estimate (a NaN one here)
    v2, _ = _control(p, (1.0, 2.0), (1.0, 2.0), 0.7, t=5.0, schedule=sch)
    assert v2 == base


def _run_loop(params, theta, refs, n, substeps=10, omega=0.0):
    """Regulate the real machine at a frozen rotor angle for n samples."""
    from _samplers import sample_step
    from pmsmlab.simulation import SpeedProfile

    profile = SpeedProfile.from_breakpoints([(0.0, omega)])
    state = (0.0, 0.0, omega, theta)
    integ = (0.0, 0.0)
    log = []
    for k in range(n):
        i_dq = park(alphabeta(*state[:2]), state[3])
        log.append((i_dq.x, i_dq.y))
        v, integ = _control(params, (i_dq.x, i_dq.y), refs, state[3], integ, t=k * T_S)
        for j in range(substeps):
            state = sample_step(params, profile, state[0], state[1], state[3], v,
                                k * T_S + j * T_S / substeps, T_S / substeps)
    return np.array(log), state


def test_loop_step_response_settles_fast():
    p = _spmsm()
    hist, _ = _run_loop(p, 0.7, (3.0, 0.0), 200)
    i_d = hist[:, 0]
    # bandwidth 2*pi*500 -> settling within a couple of ms
    assert np.all(np.abs(i_d[50:] - 3.0) < 0.02)
    assert abs(i_d[-1] - 3.0) < 1e-3


def test_loop_axes_are_decoupled_at_standstill():
    p = _spmsm()
    hist, _ = _run_loop(p, 0.7, (3.0, 0.0), 200)
    # a d-axis step must not excite the q axis at standstill
    assert np.max(np.abs(hist[:, 1])) < 1e-9


def test_loop_tracks_at_constant_speed():
    p = MachineParams.from_dq(R=0.01, Ld=0.5e-3, Lq=0.8e-3, psi_r=0.0225, p=2, J=0.01)
    # 0.6 s horizon: the R*w_c integral gain rejects the back-EMF disturbance
    # with the plant time constant L/R = 65 ms, so allow ~9 constants
    hist, _ = _run_loop(p, 0.2, (0.0, 15.0), 6000, substeps=2, omega=20.0)
    assert abs(hist[-1, 0]) < 0.01
    assert abs(hist[-1, 1] - 15.0) / 15.0 < 1e-3
