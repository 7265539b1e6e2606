"""Linearization and the predict/correct invariants of the filter kernels."""

import math

import numpy as np
import pytest

from pmsmlab.ekf import _diag_upper, _predict, _update, linearize
from pmsmlab.machine import MachineState, alphabeta, dynamics_alphabeta
from pmsmlab.simulation import Scenario

T_S = 1e-4
# the reference tuning, whose one home is Scenario
Q, R, P0 = (np.diag(d) for d in (Scenario.q_diag, Scenario.r_diag, Scenario.p0_diag))
_IU = np.triu_indices(4)  # the kernels' 10 entries of a symmetric 4x4 matrix, row by row


def _upper(M) -> tuple:
    """The kernels' 10 entries of the symmetric 4x4 matrix M."""
    return tuple(np.asarray(M, dtype=float)[_IU].tolist())


def _full(P) -> np.ndarray:
    """The symmetric 4x4 matrix of the kernels' 10 entries P."""
    M = np.empty((4, 4))
    M[_IU] = P
    M.T[_IU] = P
    return M


def _floats(v) -> tuple:
    return tuple(map(float, v))


QD, RD, P0U = _floats(Scenario.q_diag), _floats(Scenario.r_diag), _upper(P0)  # the kernels take Q's and R's diagonals


def _rate(params, x, u):
    # reference model rate through the public dynamics, zero load torque
    st = MachineState(x[0], x[1], x[2], x[3])
    di, dom, dth = dynamics_alphabeta(st, alphabeta(u[0], u[1]), params)
    return np.array([di[0], di[1], dom, dth])


def test_diag_upper_lays_out_the_diagonal_matrix():
    # Python floats equal to the upper triangle of np.diag(d), signed zeros included
    for d in (Scenario.q_diag, Scenario.p0_diag, (1, 2.5, 0, -0.0)):
        got, ref = _diag_upper(d), _upper(np.diag(np.array(d, dtype=float)))
        assert [(type(v), math.copysign(1.0, v), v) for v in got] == [(float, math.copysign(1.0, v), v) for v in ref]


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------


def test_one_inductance_evaluation_per_angle(monkeypatch, ip_params):
    # the filter's rate and Jacobian share L(theta); so do the plant's k2 and k3 RK4 stages, state_rate's
    # current rate and torque, and the one-state report's order-1 matrix and gradient
    import sys

    import pmsmlab.machine
    from pmsmlab.machine import state_rate
    from pmsmlab.observability import sample_report
    from pmsmlab.simulation import SpeedProfile, _sample_maps

    calls, inductance = [], pmsmlab.machine._inductance
    lookups = [m for name, m in sys.modules.items() if name.startswith("pmsmlab") and hasattr(m, "_inductance")]
    assert sorted(m.__name__ for m in lookups) == ["pmsmlab.machine", "pmsmlab.observability", "pmsmlab.simulation"]
    for module in lookups:
        monkeypatch.setattr(module, "_inductance", lambda *a: calls.append(1) or inductance(*a))
    _predict(ip_params, T_S, QD, (0.5, -0.5, 5.0, 0.2), P0U, 1.0, -2.0)
    assert len(calls) == 1
    prof = SpeedProfile.from_breakpoints([(0.0, 5.0), (1.0, 20.0)])
    _sample_maps(ip_params, prof, np.array([0.0]), 1, T_S, 0.2)  # one sample of one RK4 step
    assert len(calls) == 1 + 3  # the k1, shared k2/k3 and k4 angles
    state_rate(ip_params, (0.5, -0.5, 5.0, 0.2), (1.0, -2.0))
    assert len(calls) == 1 + 3 + 1
    sample_report(ip_params, 0.0, (0.5, -0.5), (1.0, -2.0), 5.0, 0.0, 0.2)
    assert len(calls) == 1 + 3 + 1 + 1


@pytest.mark.parametrize("machine", ["ip", "sp"])
def test_filter_jacobian_is_the_order1_matrix(machine, ip_params, sp_params):
    # A's current-rate rows and the order-1 matrix's rows 2-3 come from one gradient kernel, so they agree bit for bit
    from _samplers import ipmsm_free_states, order1_matrix

    params = ip_params if machine == "ip" else sp_params
    for x, u in ipmsm_free_states(42, 100):  # criterion 1's states
        assert np.array_equal(linearize(params, x, u)[:2], order1_matrix(x, u, params)[2:])


@pytest.mark.parametrize("machine", ["ip", "sp"])
def test_linearize_matches_finite_difference(machine, ip_params, sp_params):
    params = ip_params if machine == "ip" else sp_params
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        x = np.array(
            [
                rng.uniform(-20, 20),
                rng.uniform(-20, 20),
                rng.uniform(-80, 80),
                rng.uniform(-math.pi, math.pi),
            ]
        )
        u = rng.uniform(-30, 30, 2)
        A = linearize(params, x, u)
        fd = np.empty((4, 4))
        for i in range(4):
            h = 1e-6 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[:, i] = (_rate(params, xp, u) - _rate(params, xm, u)) / (2.0 * h)
        scale = max(1.0, np.max(np.abs(A)))
        worst = max(worst, np.max(np.abs(A - fd)) / scale)
    assert worst < 1e-5


def test_linearize_standstill_position_blindness(sp_params):
    # non-salient, zero speed, zero current: position column vanishes
    A = linearize(sp_params, np.array([0.0, 0.0, 0.0, 1.2]), (3.0, -4.0))
    assert not A[:, 3].any()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_euler_forms(ip_params):
    x0 = np.array([2.0, -1.0, 30.0, 0.5])
    u = (4.0, -2.0)
    x, P = _predict(ip_params, T_S, QD, _floats(x0), P0U, *u)
    P = _full(P)
    A = linearize(ip_params, x0, u)
    p_ref = np.eye(4) + T_S * (A + A.T) + Q
    assert np.array_equal(x, x0 + T_S * _rate(ip_params, x0, u))
    assert np.allclose(P, 0.5 * (p_ref + p_ref.T), rtol=1e-12)
    assert np.array_equal(P, P.T)


def test_predict_fixed_point(ip_params):
    # zero state, zero input, zero covariance and noise: nothing moves
    x0, zero = (0.0, 0.0, 0.0, 0.4), (0.0,) * 10
    x, P = _predict(ip_params, T_S, (0.0,) * 4, x0, zero, 0.0, 0.0)
    assert x == x0
    assert P == zero


def test_predict_rejects_non_finite_dynamics(ip_params):
    # currents large enough that the torque products overflow
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite"):
            _predict(ip_params, T_S, QD, (1e300, 0.0, 0.0, 0.0), P0U, 0.0, 0.0)


# ---------------------------------------------------------------------------
# measurement update
# ---------------------------------------------------------------------------


def test_innovate_consistent_measurement_keeps_state():
    x0 = (1.0, -2.0, 10.0, 0.3)
    x, P = _update(RD, x0, P0U, 1.0, -2.0)
    assert x == x0
    # covariance still shrinks on the measured channels
    assert _full(P)[0, 0] < P0[0, 0] and _full(P)[1, 1] < P0[1, 1]


def test_innovate_zero_covariance_ignores_measurement():
    x0 = (1.0, -2.0, 10.0, 0.3)
    x, P = _update(RD, x0, (0.0,) * 10, 50.0, 50.0)
    assert x == x0
    assert np.array_equal(_full(P), np.zeros((4, 4)))


def test_innovate_never_increases_trace():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.standard_normal((4, 4))
        p0 = m @ m.T + 1e-6 * np.eye(4)
        x0 = _floats(rng.standard_normal(4))
        _, P = _update(RD, x0, _upper(p0), *_floats(rng.standard_normal(2)))
        P = _full(P)
        assert np.trace(P) <= np.trace(p0) + 1e-12
        assert np.array_equal(P, P.T)


# ---------------------------------------------------------------------------
# closed-loop filter behaviour
# ---------------------------------------------------------------------------


def test_perfect_model_tracking(ip_params):
    # truth propagated by the same Euler model, zero Q and zero P0: the filter
    # reproduces the trajectory without correction
    x_true = np.array([1.0, 0.5, 20.0, 0.1])
    x, P, zero = _floats(x_true), (0.0,) * 10, (0.0,) * 4
    worst = 0.0
    for k in range(1000):
        t = k * T_S
        u = (5.0 * math.sin(50.0 * t), 5.0 * math.cos(70.0 * t))
        x_true = x_true + T_S * _rate(ip_params, x_true, u)
        x, P = _update(RD, *_predict(ip_params, T_S, zero, x, P, *u), *_floats(x_true[:2]))
        worst = max(worst, float(np.max(np.abs(np.array(x) - x_true))))
    assert worst < 1e-9


def test_long_run_covariance_hygiene(ip_params):
    # noisy measurements and a wandering input for 1e5 steps: the covariance
    # must stay exactly symmetric with non-negative diagonal throughout
    rng = np.random.default_rng(123)
    x, P = (0.0, 0.0, 0.0, 0.0), P0U
    for _ in range(100_000):
        u = rng.uniform(-2.0, 2.0, 2)
        y = np.array(x[:2]) + 0.1 * rng.standard_normal(2)
        x, P = _update(RD, *_predict(ip_params, T_S, QD, x, P, *_floats(u)), *_floats(y))
        Pf = _full(P)
        assert np.array_equal(Pf, Pf.T)
        assert np.min(np.diag(Pf)) >= 0.0
    assert np.all(np.isfinite(P))


def test_steps_are_deterministic(ip_params):
    def run():
        x, P = (0.5, -0.5, 5.0, 0.2), P0U
        rng = np.random.default_rng(99)
        for _ in range(100):
            u = rng.uniform(-3.0, 3.0, 2)
            y = rng.uniform(-1.0, 1.0, 2)
            x, P = _update(RD, *_predict(ip_params, T_S, QD, x, P, *_floats(u)), *_floats(y))
        return x, P

    (xa, Pa), (xb, Pb) = run(), run()
    assert xa == xb
    assert Pa == Pb


# ---------------------------------------------------------------------------
# the covariance form
# ---------------------------------------------------------------------------


def test_predict_covariance_is_the_lyapunov_form_bit_for_bit(ip_params):
    # the reference is the written formula P + T_s ((A P) + (A P)') + Q in plain
    # float arithmetic, k summed 0..3 in order; numpy's @ would go through BLAS
    # kernels chosen at run time, some with fused multiply-adds
    rng = np.random.default_rng(5)
    q = Q.tolist()
    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0, 4) * (1.0, 1.0, 50.0, 1.0)
        u = rng.uniform(-3.0, 3.0, 2)
        B = rng.standard_normal((4, 4))
        P = 0.5 * (B @ B.T + (B @ B.T).T)
        assert np.array_equal(P, P.T)
        A = linearize(ip_params, x, u)
        a, p = A.tolist(), P.tolist()
        AP = [[sum(a[i][k] * p[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        M = [[p[i][j] + T_S * (AP[i][j] + AP[j][i]) + q[i][j] for j in range(4)] for i in range(4)]
        _, out = _predict(ip_params, T_S, QD, _floats(x), _upper(P), *_floats(u))
        assert np.array_equal(_full(out), np.array(M))


# ---------------------------------------------------------------------------
# the gain
# ---------------------------------------------------------------------------


def test_gain_matches_a_linear_solve():
    # the closed-form inverse of the 2x2 S gives the solver's gain to rounding
    rng = np.random.default_rng(17)
    for _ in range(1000):
        B = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-3.0, 2.0)
        P = 0.5 * (B @ B.T + (B @ B.T).T)
        r = rng.uniform(0.1, 3.0, 2)
        ref = np.linalg.solve((P[:2, :2] + np.diag(r)).T, P[:, :2].T).T
        # from a zero estimate, the measurement e_j moves x_hat by K[:, j] exactly
        K = np.stack([_update(_floats(r), (0.0,) * 4, _upper(P), *y)[0]
                      for y in ((1.0, 0.0), (0.0, 1.0))], axis=1)
        assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("machine", ["ip", "sp"])
def test_kernels_match_a_numpy_statement_of_the_filter(machine, ip_params, sp_params):
    # the float kernels against the matrix form of one cycle: matmul Lyapunov
    # predict, a solved gain and the symmetrised downdate P - K C P
    params = ip_params if machine == "ip" else sp_params
    C = np.hstack([np.eye(2), np.zeros((2, 2))])  # the output is the current pair
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-1.0, 1.0, 4) * (20.0, 20.0, 80.0, math.pi)
        # inputs small enough that T_s |A| < 1, where the Euler predict keeps S positive definite
        u, y = rng.uniform(-3.0, 3.0, 2), rng.uniform(-20.0, 20.0, 2)
        B = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-3.0, 0.0)
        P = 0.5 * (B @ B.T + (B @ B.T).T) + 1e-6 * np.eye(4)
        r = rng.uniform(0.1, 3.0, 2)
        A = linearize(params, x, u)
        x_pred = x + T_S * _rate(params, x, u)
        P_pred = P + T_S * (A @ P + P @ A.T) + Q
        K = np.linalg.solve(C @ P_pred @ C.T + np.diag(r), C @ P_pred).T  # P C' S^-1, S symmetric
        x_upd = x_pred + K @ (y - C @ x_pred)
        P_upd = P_pred - K @ C @ P_pred
        P_upd = 0.5 * (P_upd + P_upd.T)

        pred = _predict(params, T_S, QD, _floats(x), _upper(P), *_floats(u))
        upd = _update(_floats(r), *pred, *_floats(y))
        for got, ref in ((pred[0], x_pred), (_full(pred[1]), P_pred), (upd[0], x_upd), (_full(upd[1]), P_upd)):
            worst = max(worst, np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    assert worst <= 1e-12


def test_update_is_exact_under_power_of_two_scaling():
    # P and R_meas times 2^k leave the gain alone: the updated state is the same bits and P scales
    # exactly, also where det(S) itself would overflow (entries of S beyond ~1e154)
    rng = np.random.default_rng(8)
    for _ in range(200):
        B = rng.standard_normal((4, 4))
        P = _full(_upper(B @ B.T + 1e-3 * np.eye(4)))
        r, x0, y = rng.uniform(0.1, 3.0, 2), _floats(rng.standard_normal(4)), _floats(rng.standard_normal(2))
        x_ref, P_ref = _update(_floats(r), x0, _upper(P), *y)
        for k in (300, 600, 900):
            x, P_k = _update(_floats(np.ldexp(r, k)), x0, _upper(np.ldexp(P, k)), *y)
            assert x == x_ref
            assert P_k == _upper(np.ldexp(_full(P_ref), k))


@pytest.mark.parametrize("p00, r, reason", [
    (math.inf, RD, "non-finite measurement update"),
    (math.nan, RD, "non-finite measurement update"),
    # S = 5e-324 I is not scaled up, and its determinant underflows to 0
    (0.0, (5e-324, 5e-324), "innovation covariance not positive definite"),
])
def test_degenerate_innovation_covariance_is_a_named_abort(p00, r, reason):
    P = (p00,) + (0.0,) * 9
    with pytest.raises(FloatingPointError, match=f"^{reason}$"):
        _update(r, (0.0,) * 4, P, 0.1, -0.2)


@pytest.mark.parametrize("block", [[[-3.0, 0.0], [0.0, 1.0]], [[0.0, 2.0], [2.0, 0.0]]])
def test_non_positive_definite_innovation_covariance_is_a_named_abort(block):
    # S = P[:2, :2] + I: a negative leading entry, then a negative determinant
    P = np.eye(4)
    P[:2, :2] = block
    with pytest.raises(FloatingPointError, match="^innovation covariance not positive definite$"):
        _update(RD, (0.0,) * 4, _upper(P), 0.1, -0.2)
