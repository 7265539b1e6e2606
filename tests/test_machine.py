"""Machine model: frames, parameters, inductances, torque, dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _samplers import rotor_frame_dynamics, rotor_frame_torque
from pmsmlab.machine import (
    Frame,
    FrameError,
    FrameVec,
    MachineParams,
    MachineState,
    _inductance,
    _rotate,
    alphabeta,
    dq_current_rate,
    dynamics_alphabeta,
    park,
    state_rate,
    torque_alphabeta,
    wrap_angle,
)

def _dq(x: float, y: float) -> FrameVec:
    return FrameVec(x, y, Frame.DQ)


def _inductance_matrix(theta: float, params: MachineParams) -> np.ndarray:
    """L(theta) from the kernel's entries."""
    (aa, ab, bb), *_ = _inductance(params, math.cos(theta), math.sin(theta))
    return np.array([[aa, ab], [ab, bb]])


def _inductance_matrix_derivs(theta: float, params: MachineParams) -> tuple:
    """L'(theta) and L''(theta) from the kernel's entries."""
    _, (d1_aa, d1_ab), (d2_aa, d2_ab), _, _ = _inductance(params, math.cos(theta), math.sin(theta))
    return np.array([[d1_aa, d1_ab], [d1_ab, -d1_aa]]), np.array([[d2_aa, d2_ab], [d2_ab, -d2_aa]])


def _inductance_matrix_inv(theta: float, params: MachineParams) -> np.ndarray:
    """L(theta)^-1 from the kernel's adjugate and determinant."""
    *_, (aa, ab, bb), det = _inductance(params, math.cos(theta), math.sin(theta))
    return np.array([[aa, ab], [ab, bb]]) / det


# ---------------------------------------------------------------------------
# angles and frame-tagged vectors
# ---------------------------------------------------------------------------


def test_wrap_angle_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(2.0 * math.pi)) < 1e-15
    assert abs(wrap_angle(3.0 * math.pi) - math.pi) < 1e-9
    assert type(wrap_angle(1.0)) is float
    # an array wraps elementwise, bit for bit as the scalar calls and the scalar formula
    points = [math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi, 1e6, -0.0]
    formula = [p - 2.0 * math.pi * math.ceil((p - math.pi) / (2.0 * math.pi)) for p in points]
    assert wrap_angle(np.array(points)).tobytes() == np.array([wrap_angle(p) for p in points]).tobytes()
    assert wrap_angle(np.array(points)).tobytes() == np.array(formula).tobytes()


def test_wrap_angle_reduces_far_angles_through_sine_and_cosine():
    # subtracting whole turns from 1e17 leaves nothing of the angle; the far ones go through arctan2
    far = [1e17, -1e300, 2.0**23 + 0.5, -(2.0**30), 1e308]
    for theta in far:
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert abs(math.cos(w) - np.cos(theta)) < 1e-12 and abs(math.sin(w) - np.sin(theta)) < 1e-12
    # in a mixed array the near angles keep the subtraction's bits
    near = [0.5, -3.0 * math.pi, 2.0**23, -(2.0**23)]
    mixed = wrap_angle(np.array(far + near))
    assert mixed.tobytes() == np.array([wrap_angle(p) for p in far + near]).tobytes()
    formula = [p - 2.0 * math.pi * math.ceil((p - math.pi) / (2.0 * math.pi)) for p in near]
    assert mixed[len(far):].tobytes() == np.array(formula).tobytes()


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_wrap_angle_range_and_direction(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-8)
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-8)


def test_park_requires_matching_frames():
    with pytest.raises(FrameError):
        park(_dq(1.0, 0.0), 0.3)
    # the model functions check the frame of what they are given
    state, p = MachineState(1.0, 2.0, 30.0, 0.3), MachineParams()
    for model in (dynamics_alphabeta, dq_current_rate):
        with pytest.raises(FrameError, match="expected alpha-beta voltage, got dq"):
            model(state, _dq(1.0, 0.0), p)


def test_park_examples():
    out = park(alphabeta(1.0, 0.0), 0.0)
    assert (out.x, out.y, out.frame) == (1.0, 0.0, Frame.DQ)
    out = park(alphabeta(0.0, 1.0), math.pi / 2.0)
    assert out.x == pytest.approx(1.0, abs=1e-15)
    assert out.y == pytest.approx(0.0, abs=1e-15)


@given(
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-10, max_value=10),
)
def test_park_roundtrip_and_norm(x, y, theta):
    v = alphabeta(x, y)
    out = park(v, theta)
    back = _rotate(out.x, out.y, math.cos(theta), math.sin(theta))
    assert abs(back[0] - x) < 1e-13 and abs(back[1] - y) < 1e-13
    assert math.isclose(math.hypot(out.x, out.y), math.hypot(v.x, v.y), abs_tol=1e-12)


# ---------------------------------------------------------------------------
# parameters and state
# ---------------------------------------------------------------------------


def test_params_derived_quantities():
    p = MachineParams()
    assert p.L0 == pytest.approx(0.65e-3)
    assert p.L2 == pytest.approx(-0.15e-3)
    assert p.Ld == pytest.approx(0.5e-3)
    assert p.Lq == pytest.approx(0.8e-3)
    assert p.L_delta == pytest.approx(-0.3e-3)
    assert p.is_salient
    assert not MachineParams(R=1.0, L0=1e-3, L2=0.0, psi_r=0.1, p=1, J=1.0).is_salient


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(R=0.0),
        dict(R=-1.0),
        dict(L0=0.0),
        dict(L2=0.65e-3),  # |L2| == L0
        dict(L2=1e-3),
        dict(psi_r=-0.1),
        dict(p=0),
        dict(p=True),
        dict(p=2.0),
        dict(J=0.0),
        dict(R=math.nan),
    ],
)
def test_params_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        MachineParams(**kwargs)


def test_state_rejects_non_finite():
    with pytest.raises(ValueError):
        MachineState(0.0, math.inf, 0.0, 0.0)


# ---------------------------------------------------------------------------
# inductance matrices
# ---------------------------------------------------------------------------


def test_inductance_matrix_table_values_at_zero():
    ind = _inductance_matrix(0.0, MachineParams())
    assert np.allclose(ind, [[0.5e-3, 0.0], [0.0, 0.8e-3]], atol=1e-19)


def test_inductance_matrix_nonsalient_is_scaled_identity():
    p = MachineParams(L2=0.0)
    for theta in (0.0, 0.4, 2.0, -1.3):
        assert np.array_equal(_inductance_matrix(theta, p), 0.65e-3 * np.eye(2))


def test_inductance_matrix_quarter_turn():
    p = MachineParams(R=1.0, L0=1.0, L2=0.1, psi_r=0.0, p=1, J=1.0)
    assert np.allclose(_inductance_matrix(math.pi / 4.0, p), [[1.0, 0.1], [0.1, 1.0]], atol=1e-15)


def test_inductance_eigenvalues_constant():
    p = MachineParams()
    for theta in np.linspace(-math.pi, math.pi, 17):
        ind = _inductance_matrix(theta, p)
        assert np.allclose(ind, ind.T)
        ev = np.sort(np.linalg.eigvalsh(ind))
        assert np.allclose(ev, sorted([p.Ld, p.Lq]), rtol=1e-12)


def test_inductance_derivs_special_cases():
    flat = MachineParams(L2=0.0)
    d1, d2 = _inductance_matrix_derivs(1.1, flat)
    assert not d1.any() and not d2.any()
    p = MachineParams(R=1.0, L0=1.0, L2=0.1, psi_r=0.0, p=1, J=1.0)
    d1, _ = _inductance_matrix_derivs(0.0, p)
    assert np.allclose(d1, [[0.0, 0.2], [0.2, 0.0]], atol=1e-15)


def test_inductance_second_deriv_identity():
    p = MachineParams()
    for theta in np.linspace(-3.0, 3.0, 11):
        _, d2 = _inductance_matrix_derivs(theta, p)
        ind = _inductance_matrix(theta, p)
        assert np.allclose(d2, -4.0 * (ind - p.L0 * np.eye(2)), atol=1e-18)


def test_inductance_derivs_match_finite_difference():
    p = MachineParams()
    h = 1e-6
    rng = np.random.default_rng(2)
    for theta in rng.uniform(-math.pi, math.pi, 10):
        d1, d2 = _inductance_matrix_derivs(theta, p)
        fd1 = (_inductance_matrix(theta + h, p) - _inductance_matrix(theta - h, p)) / (2 * h)
        fd2 = (
            _inductance_matrix(theta + h, p)
            - 2 * _inductance_matrix(theta, p)
            + _inductance_matrix(theta - h, p)
        ) / (h * h)
        scale = 2.0 * abs(p.L2)
        assert np.max(np.abs(d1 - fd1)) / scale < 1e-8
        assert np.max(np.abs(d2 - fd2)) / (4.0 * abs(p.L2)) < 1e-3  # second FD loses digits


def test_inductance_inverse():
    p = MachineParams()
    for theta in np.linspace(-3.0, 3.0, 9):
        prod = _inductance_matrix_inv(theta, p) @ _inductance_matrix(theta, p)
        assert np.allclose(prod, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# torque
# ---------------------------------------------------------------------------


def test_torque_zero_current():
    assert torque_alphabeta(MachineState(0.0, 0.0, 0.0, 1.0), MachineParams()) == 0.0
    assert rotor_frame_torque(5.0, 0.0, MachineParams()) == 0.0


def test_torque_pm_alignment_case():
    p = MachineParams(L2=0.0)
    t = torque_alphabeta(MachineState(0.0, 7.0, 0.0, 0.0), p)
    assert t == pytest.approx(1.5 * 2 * 0.0225 * 7.0, rel=1e-14)


def test_torque_table_setpoint_value():
    assert rotor_frame_torque(0.0, 15.0, MachineParams()) == pytest.approx(1.0125, rel=1e-12)


def test_torque_frame_equivalence_random():
    p = MachineParams()
    rng = np.random.default_rng(3)
    for _ in range(100):
        st_ = MachineState(*rng.uniform(-20, 20, 2), 0.0, rng.uniform(-math.pi, math.pi))
        i_dq = park(st_.currents, st_.theta)
        t_ab = torque_alphabeta(st_, p)
        t_dq = rotor_frame_torque(i_dq.x, i_dq.y, p)
        assert abs(t_ab - t_dq) <= 1e-10 * max(1.0, abs(t_ab))


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def test_resistive_balance_is_equilibrium():
    p = MachineParams(L2=0.0)
    st_ = MachineState(3.0, -2.0, 0.0, 0.9)
    v = alphabeta(p.R * 3.0, p.R * -2.0)
    di, _, dth = dynamics_alphabeta(st_, v, p)
    assert di[0] == 0.0 and di[1] == 0.0
    assert dth == 0.0


def test_dq_resistive_balance_and_single_term():
    p = MachineParams()
    di, _, _ = rotor_frame_dynamics(4.0, -1.0, 0.0, p.R * 4.0, p.R * -1.0, 0.0, p)
    assert di[0] == 0.0 and di[1] == 0.0
    di, _, _ = rotor_frame_dynamics(0.0, 0.0, 0.0, 0.0, 1.0, 0.0, p)
    assert di[0] == 0.0
    assert di[1] == pytest.approx(1.0 / p.Lq, rel=1e-15)


def test_torque_balance_freezes_speed():
    p = MachineParams()
    st_ = MachineState(2.0, 5.0, 30.0, 0.7)
    T_m = torque_alphabeta(st_, p)
    _, domega, _ = dynamics_alphabeta(
        MachineState(2.0, 5.0, 30.0, 0.7, T_l=T_m), alphabeta(0.0, 0.0), p
    )
    assert domega == 0.0


def test_zero_current_rate_is_pure_back_emf():
    # with i = 0 and v = 0 the only drive left is -L^-1 psi_r C'(theta) omega
    p = MachineParams()
    omega, theta = 40.0, 1.1
    di, _, _ = dynamics_alphabeta(MachineState(0.0, 0.0, omega, theta), alphabeta(0.0, 0.0), p)
    expect = _inductance_matrix_inv(theta, p) @ (
        -p.psi_r * omega * np.array([-math.sin(theta), math.cos(theta)])
    )
    assert np.allclose(di, expect, rtol=1e-12)
    di0, _, _ = dynamics_alphabeta(MachineState(0.0, 0.0, 0.0, theta), alphabeta(0.0, 0.0), p)
    assert not di0.any()


def test_state_rate_of_one_state_is_row_zero_of_a_stack():
    rng = np.random.default_rng(47)
    for p in (MachineParams(), MachineParams(L2=0.0)):
        for _ in range(50):
            x, u, T_l = rng.uniform(-50.0, 50.0, 4), rng.uniform(-20.0, 20.0, 2), rng.uniform(-1.0, 1.0)
            one = state_rate(p, x, u, T_l)
            assert type(one) is np.ndarray and one.shape == (4,)
            assert one.tobytes() == state_rate(p, x[None, :], u, T_l)[0].tobytes()
            assert one.tobytes() == state_rate(p, tuple(x.tolist()), tuple(u.tolist()), T_l).tobytes()


def test_frame_equivalence_dynamics():
    p = MachineParams()
    rng = np.random.default_rng(4)
    for _ in range(100):
        st_ = MachineState(
            *rng.uniform(-20, 20, 2), rng.uniform(-100, 100), rng.uniform(-math.pi, math.pi),
            T_l=rng.uniform(-2, 2),
        )
        v_ab = alphabeta(*rng.uniform(-40, 40, 2))
        i_dq = park(st_.currents, st_.theta)
        v_dq = park(v_ab, st_.theta)
        di_dq_a = dq_current_rate(st_, v_ab, p)
        di_dq_b, dom_b, dth_b = rotor_frame_dynamics(i_dq.x, i_dq.y, st_.omega, v_dq.x, v_dq.y, st_.T_l, p)
        _, dom_a, dth_a = dynamics_alphabeta(st_, v_ab, p)
        scale = max(1.0, np.max(np.abs(di_dq_b)))
        assert np.max(np.abs(di_dq_a - di_dq_b)) / scale < 1e-10
        assert abs(dom_a - dom_b) <= 1e-10 * max(1.0, abs(dom_b))
        assert dth_a == dth_b
