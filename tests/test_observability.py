"""Observability stacks and closed-form determinants vs the FD oracle."""

import math

import numpy as np
import pytest

from _samplers import ipmsm_free_states, spmsm_moving_points, spmsm_singular_points
from pmsmlab.machine import (
    MachineParams,
    MachineState,
    alphabeta,
    dq,
    dq_current_rate,
    dynamics_alphabeta,
    park,
)
from pmsmlab.observability import (
    DEFAULT_FD_STEPS,
    DegenerateObservabilityVector,
    ModelKind,
    augmented_output_rank,
    det_y1_ipmsm,
    emf_model_det,
    emf_position_speed,
    flux_model_dets,
    hfi_det_y1,
    lie_gradient_stack,
    numeric_rank,
    obs_matrix_y1_ipmsm,
    observability_margin,
    observability_vector,
    sample_report,
    spmsm_det_y1,
    spmsm_det_y2,
    spmsm_det_y3_at_sing,
    spmsm_rank_at_standstill,
    spmsm_standstill_stack,
    trajectory_reports,
)

EM = ModelKind.ELECTROMECHANICAL


# exact binary parameters: L_delta * (-psi_r / L_delta) + psi_r is exactly 0,
# so the degenerate branch can be hit deterministically
EXACT = MachineParams(R=0.25, L0=0.25, L2=-0.0625, psi_r=0.25, p=2, J=1.0)


def _random_dq_points(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        i_dq = rng.uniform(-30.0, 30.0, 2)
        di = rng.uniform(-2e3, 2e3, 2)
        om = rng.uniform(-120.0, 120.0)
        yield i_dq, di, om


# ---------------------------------------------------------------------------
# rank helper
# ---------------------------------------------------------------------------


def test_numeric_rank_basic():
    rank, sv = numeric_rank(np.eye(4))
    assert rank == 4
    assert np.allclose(sv, 1.0)
    rank, _ = numeric_rank(np.zeros((4, 4)))
    assert rank == 0
    rank, _ = numeric_rank(np.ones((3, 3)))
    assert rank == 1
    # relative threshold: a singular value 1e-15 of sigma_max does not count
    rank, _ = numeric_rank(np.diag([1.0, 1e-15]))
    assert rank == 1
    rank, _ = numeric_rank(np.diag([1.0, 1e-6]))
    assert rank == 2


def test_numeric_rank_batch_matches_single_matrices():
    rng = np.random.default_rng(31)
    stack = rng.uniform(-1.0, 1.0, (16, 4, 4))
    stack[3] = 0.0
    stack[8] = rng.uniform(-1.0, 1.0, (4, 3)) @ rng.uniform(-1.0, 1.0, (3, 4))
    stack[11] *= 1e-20  # relative threshold: scale alone does not lower the rank
    ranks, sv = numeric_rank(stack)
    assert ranks.shape == (16,) and sv.shape == (16, 4)
    assert ranks[3] == 0 and ranks[8] == 3 and ranks[11] == 4
    for k in range(16):
        rank_k, sv_k = numeric_rank(stack[k])
        assert type(rank_k) is int and ranks[k] == rank_k
        np.testing.assert_allclose(sv[k], sv_k, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# finite-difference stack construction
# ---------------------------------------------------------------------------


def test_stack_input_validation(ip_params, sp_params):
    x = np.zeros(4)
    u = np.zeros(2)
    with pytest.raises(ValueError, match="orders"):
        lie_gradient_stack(EM, x, u, 4, ip_params)
    with pytest.raises(ValueError, match="orders"):
        lie_gradient_stack(EM, x, u, -1, ip_params)
    with pytest.raises(ValueError, match="shape"):
        lie_gradient_stack(EM, np.zeros(3), u, 1, ip_params)
    with pytest.raises(ValueError, match="omega_ext"):
        lie_gradient_stack(ModelKind.FLUX, x, u, 1, sp_params)
    # inf propagates through the rate evaluation before the guard fires
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        lie_gradient_stack(EM, [math.inf, 0.0, 0.0, 0.0], u, 1, ip_params)


def test_stack_order_zero_block(ip_params):
    stack = lie_gradient_stack(EM, [1.0, -2.0, 30.0, 0.4], [5.0, -5.0], 0, ip_params)
    assert stack.shape == (2, 4)
    assert np.array_equal(stack, [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_stack_shapes_grow_by_output_block(ip_params):
    x = [1.0, -2.0, 30.0, 0.4]
    u = [5.0, -5.0]
    for orders in range(4):
        stack = lie_gradient_stack(EM, x, u, orders, ip_params)
        assert stack.shape == (2 * (orders + 1), 4)


def test_order1_stack_matches_analytic_matrix(ip_params):
    worst = 0.0
    for x, u in ipmsm_free_states(21, 20):
        fd = lie_gradient_stack(EM, x, u, 1, ip_params)
        cf = obs_matrix_y1_ipmsm(x, u, ip_params)
        scale = max(1.0, np.max(np.abs(cf)))
        worst = max(worst, np.max(np.abs(fd - cf)) / scale)
    assert worst < 1e-5


def test_back_emf_stack_rejects_zero_emf_with_acceleration(sp_params):
    with pytest.raises(ValueError, match="singular at zero EMF"):
        lie_gradient_stack(
            ModelKind.BACK_EMF, [1.0, 2.0, 0.0, 0.0], [0.0, 0.0], 1, sp_params,
            omega_dot_ext=5.0,
        )


# ---------------------------------------------------------------------------
# salient-machine order-1 determinant and matrix
# ---------------------------------------------------------------------------


def test_det_y1_hand_value(ip_params):
    # zero current and rate: det = psi_r^2 * omega / (Ld * Lq)
    val = det_y1_ipmsm((0.0, 0.0), (0.0, 0.0), 100.0, ip_params)
    assert val == pytest.approx(126562.5, rel=1e-12)


def test_det_y1_linear_in_omega(ip_params):
    i_dq = (4.0, -7.0)
    base = det_y1_ipmsm(i_dq, (0.0, 0.0), 1.0, ip_params)
    for om in (-50.0, 3.0, 80.0):
        assert det_y1_ipmsm(i_dq, (0.0, 0.0), om, ip_params) == pytest.approx(
            om * base, rel=1e-12
        )


def test_det_y1_reduces_to_spmsm_form(sp_params):
    for i_dq, di, om in _random_dq_points(9, 50):
        full = det_y1_ipmsm(i_dq, di, om, sp_params)
        assert full == pytest.approx(spmsm_det_y1(om, sp_params), rel=1e-12, abs=1e-15)


def test_det_y1_equals_matrix_determinant(ip_params):
    rng = np.random.default_rng(13)
    for _ in range(50):
        st = MachineState(
            rng.uniform(-20, 20), rng.uniform(-20, 20),
            rng.uniform(-100, 100), rng.uniform(-math.pi, math.pi),
        )
        v = alphabeta(*rng.uniform(-40, 40, 2))
        i_dq = park(st.currents, st.theta)
        di_dq = dq_current_rate(st, v, ip_params)
        cf = det_y1_ipmsm((i_dq.x, i_dq.y), di_dq, st.omega, ip_params)
        mat = obs_matrix_y1_ipmsm(
            [st.i_alpha, st.i_beta, st.omega, st.theta], [v.x, v.y], ip_params
        )
        assert np.linalg.det(mat) == pytest.approx(cf, rel=1e-10)


def test_spmsm_standstill_matrix_has_zero_position_column(sp_params):
    for theta in (0.0, 0.7, -2.1):
        mat = obs_matrix_y1_ipmsm([3.0, -1.0, 0.0, theta], [0.5, -0.2], sp_params)
        assert not mat[:, 3].any()
        rank, _ = numeric_rank(mat)
        assert rank == 3


# ---------------------------------------------------------------------------
# observability vector and margin
# ---------------------------------------------------------------------------


def test_observability_vector_table_point(ip_params):
    vec = observability_vector((0.0, 15.0), ip_params)
    assert vec.psi_d == pytest.approx(0.0225, rel=1e-12)
    assert vec.psi_q == pytest.approx(-4.5e-3, rel=1e-12)
    assert vec.theta_o == pytest.approx(math.atan2(-4.5e-3, 0.0225), rel=1e-12)
    assert not vec.degenerate


def test_observability_vector_degenerate_point():
    i_d_star = -EXACT.psi_r / EXACT.L_delta
    vec = observability_vector((i_d_star, 0.0), EXACT)
    assert vec.degenerate
    assert vec.psi_d == 0.0 and vec.psi_q == 0.0
    assert math.isnan(vec.theta_o)


def test_margin_zero_rate_cases(ip_params, sp_params):
    assert observability_margin((1.0, 2.0), (0.0, 0.0), 50.0, ip_params) == 50.0
    # non-salient machine: the vector never rotates, margin is the speed
    assert observability_margin((1.0, 2.0), (900.0, -30.0), 7.0, sp_params) == 7.0


def test_margin_raises_at_degenerate_vector():
    i_d_star = -EXACT.psi_r / EXACT.L_delta
    with pytest.raises(DegenerateObservabilityVector):
        observability_margin((i_d_star, 0.0), (1.0, 1.0), 10.0, EXACT)


def test_margin_determinant_identity(ip_params):
    # margin * |Psi|^2 / (Ld Lq) == det_y1, two independent code paths
    for i_dq, di, om in _random_dq_points(17, 200):
        vec = observability_vector(i_dq, ip_params)
        norm_sq = vec.psi_d**2 + vec.psi_q**2
        m = observability_margin(i_dq, di, om, ip_params)
        lhs = m * norm_sq / (ip_params.Ld * ip_params.Lq)
        rhs = det_y1_ipmsm(i_dq, di, om, ip_params)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)


def test_margin_sign_agrees_with_determinant(ip_params):
    for i_dq, di, om in _random_dq_points(19, 1000):
        m = observability_margin(i_dq, di, om, ip_params)
        d = det_y1_ipmsm(i_dq, di, om, ip_params)
        if abs(m) > 1e-9 and abs(d) > 1e-9:
            assert (m > 0) == (d > 0)


# ---------------------------------------------------------------------------
# non-salient closed forms vs the oracle
# ---------------------------------------------------------------------------


def test_spmsm_helpers_reject_salient_machine(ip_params):
    with pytest.raises(ValueError, match="non-salient"):
        spmsm_det_y1(10.0, ip_params)
    with pytest.raises(ValueError, match="non-salient"):
        spmsm_det_y2(10.0, 0.0, 1.0, ip_params)
    with pytest.raises(ValueError, match="non-salient"):
        spmsm_det_y3_at_sing(1.0, 1.0, ip_params)
    with pytest.raises(ValueError, match="non-salient"):
        spmsm_standstill_stack(ip_params, 0.0)
    with pytest.raises(ValueError, match="non-salient"):
        hfi_det_y1(0.0, 0.5, 0.0, 1.0, 100.0, ip_params)


def test_spmsm_det_values_and_degeneracies(sp_params):
    assert spmsm_det_y1(0.0, sp_params) == 0.0
    assert spmsm_det_y1(100.0, sp_params) == pytest.approx(
        100.0 * (0.0225 / 0.65e-3) ** 2, rel=1e-12
    )
    assert spmsm_det_y2(0.0, 0.0, 5.0, sp_params) == 0.0
    # at standstill only the acceleration term survives, with a -R/L0 factor
    val = spmsm_det_y2(0.0, 10.0, 5.0, sp_params)
    assert val == pytest.approx(
        -(0.0225**2 / 0.65e-3**2) * (0.01 / 0.65e-3) * 10.0, rel=1e-12
    )
    assert spmsm_det_y3_at_sing(2.0, 0.0, sp_params) == 0.0
    one = spmsm_det_y3_at_sing(2.0, 1.0, sp_params)
    assert spmsm_det_y3_at_sing(2.0, 2.0, sp_params) == pytest.approx(2.0 * one, rel=1e-12)


def test_spmsm_det_y2_matches_oracle_sample(sp_params):
    worst = 0.0
    for x, u, T_l in spmsm_moving_points(7, 10, sp_params):
        st = MachineState(x[0], x[1], x[2], x[3], T_l=T_l)
        _, dom, _ = dynamics_alphabeta(st, alphabeta(u[0], u[1]), sp_params)
        i_dq = park(st.currents, st.theta)
        cf = spmsm_det_y2(st.omega, dom, i_dq.x, sp_params)
        stack = lie_gradient_stack(EM, x, u, 2, sp_params, T_l=T_l)
        fd = np.linalg.det(stack[[0, 1, 4, 5]])
        worst = max(worst, abs(fd - cf) / max(abs(cf), 1.0))
    assert worst < 1e-3


def test_spmsm_det_y3_matches_oracle_sample(sp_params):
    worst = 0.0
    for x, u, T_l in spmsm_singular_points(11, 10, sp_params):
        st = MachineState(x[0], x[1], 0.0, x[3], T_l=T_l)
        i_dq = park(st.currents, st.theta)
        di_dq = dq_current_rate(st, alphabeta(u[0], u[1]), sp_params)
        cf = spmsm_det_y3_at_sing(i_dq.x, di_dq[1], sp_params)
        stack = lie_gradient_stack(EM, x, u, 3, sp_params, T_l=T_l)
        fd = np.linalg.det(stack[[0, 1, 6, 7]])
        worst = max(worst, abs(fd - cf) / max(abs(cf), 1.0))
    assert worst < 1e-3


# ---------------------------------------------------------------------------
# standstill stack structure
# ---------------------------------------------------------------------------


def test_standstill_stack_structure(sp_params):
    rng = np.random.default_rng(23)
    a = -sp_params.R / sp_params.L0
    for theta in rng.uniform(-math.pi, math.pi, 20):
        stack, rank = spmsm_rank_at_standstill(sp_params, theta)
        assert stack.shape == (8, 4)
        assert rank == 3
        assert not stack[:, 3].any()
        # each derivative block is the previous one scaled by -R/L0
        for k in (1, 2):
            lo, hi = 2 * k, 2 * k + 2
            assert np.max(np.abs(stack[hi : hi + 2] - a * stack[lo:hi])) < 1e-12 * abs(
                a ** (k + 1)
            )


def test_augmented_measurement_restores_rank(sp_params):
    full = augmented_output_rank(sp_params, 0.8, 1.0, 0.0)
    assert full.rank == 4 and not full.degenerate
    # the offset term has zero gradient; only the slope matters
    assert augmented_output_rank(sp_params, 0.8, 1.0, 123.0).rank == 4
    none = augmented_output_rank(sp_params, 0.8, 0.0, 5.0)
    assert none.rank == 3 and none.degenerate


# ---------------------------------------------------------------------------
# injection, back-EMF and flux models
# ---------------------------------------------------------------------------


def test_hfi_det_pieces(sp_params):
    k = sp_params.psi_r / sp_params.L0**2
    # no carrier: pure speed term with a negative sign convention
    assert hfi_det_y1(10.0, 0.3, 0.0, 0.0, 1000.0, sp_params) == pytest.approx(
        -sp_params.psi_r * k * 10.0, rel=1e-12
    )
    # standstill: injection term alone, vanishing at carrier zero crossings
    t_zero = math.pi / 2.0 / 1000.0
    assert hfi_det_y1(0.0, -0.5, t_zero, 2.0, 1000.0, sp_params) == pytest.approx(
        0.0, abs=1e-10
    )
    val = hfi_det_y1(0.0, -math.pi / 4, 0.0, 2.0, 1000.0, sp_params)
    assert val == pytest.approx(k * 2.0 * math.sin(-math.pi / 4), rel=1e-12)
    # error of 0 or pi: injection blind regardless of amplitude
    assert hfi_det_y1(0.0, 0.0, 0.0, 5.0, 1000.0, sp_params) == 0.0
    assert abs(hfi_det_y1(0.0, math.pi, 0.0, 5.0, 1000.0, sp_params)) < 1e-9


def test_emf_model_det_constant_and_oracle(sp_params):
    cf = emf_model_det(sp_params)
    assert cf == pytest.approx(1.0 / 0.65e-3**2, rel=1e-14)
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = np.concatenate([rng.uniform(-10, 10, 2), rng.uniform(-5, 5, 2)])
        u = rng.uniform(-20, 20, 2)
        stack = lie_gradient_stack(ModelKind.BACK_EMF, x, u, 1, sp_params)
        assert np.linalg.det(stack) == pytest.approx(cf, rel=1e-9)


def test_emf_reconstruction(sp_params):
    for om, th in ((40.0, 0.3), (12.0, -2.0), (5.0, 3.0)):
        e_a = -om * sp_params.psi_r * math.sin(th)
        e_b = om * sp_params.psi_r * math.cos(th)
        est = emf_position_speed(e_a, e_b, sp_params)
        assert not est.indeterminate
        assert est.theta == pytest.approx(th, abs=1e-12)
        assert est.omega == pytest.approx(om, rel=1e-12)
    est = emf_position_speed(0.0, 0.0, sp_params)
    assert est.indeterminate
    assert math.isnan(est.theta) and math.isnan(est.omega)


def test_flux_dets_standstill_and_oracle(sp_params):
    assert flux_model_dets(0.0, sp_params) == (0.0, 0.0, 0.0)
    plus = flux_model_dets(25.0, sp_params)
    minus = flux_model_dets(-25.0, sp_params)
    assert plus == minus  # even in omega: sign of rotation cannot matter
    rng = np.random.default_rng(37)
    bounds = {1: 1e-9, 2: 1e-6, 3: 1e-3}
    # small drives keep the order-3 nested differences out of cancellation
    for om in (12.0, -45.0, 80.0):
        x = np.concatenate([rng.uniform(-2, 2, 2), rng.uniform(-0.05, 0.05, 2)])
        u = rng.uniform(-1, 1, 2)
        stack = lie_gradient_stack(ModelKind.FLUX, x, u, 3, sp_params, omega_ext=om)
        cfs = flux_model_dets(om, sp_params)
        for k in (1, 2, 3):
            fd = np.linalg.det(stack[[0, 1, 2 * k, 2 * k + 1]])
            assert abs(fd - cfs[k - 1]) / abs(cfs[k - 1]) < bounds[k]


# ---------------------------------------------------------------------------
# per-sample report and vectorized trajectory columns
# ---------------------------------------------------------------------------


def test_sample_report_nan_semantics(ip_params, sp_params):
    rep = sample_report(ip_params, 0.0, (1.0, 2.0), (0.0, 0.0), 10.0, 0.0, 0.5)
    assert math.isnan(rep.det_y2) and math.isnan(rep.det_y3)
    assert rep.numeric_rank == 4
    rep = sample_report(sp_params, 0.0, (1.0, 2.0), (0.0, 0.0), 10.0, 0.5, 0.5)
    assert not math.isnan(rep.det_y2)
    assert math.isnan(rep.det_y3)  # closed form only valid on the singular set
    rep = sample_report(sp_params, 0.0, (1.0, 2.0), (0.0, 4.0), 0.0, 0.0, 0.5)
    assert not math.isnan(rep.det_y3)
    assert rep.det_y1 == 0.0 and rep.numeric_rank == 3


def test_sample_report_degenerate_margin():
    i_d_star = -EXACT.psi_r / EXACT.L_delta
    rep = sample_report(EXACT, 0.0, (i_d_star, 0.0), (1.0, 1.0), 10.0, 0.0, 0.0)
    assert math.isnan(rep.margin)
    assert math.isnan(rep.theta_o)
    assert rep.psi_o_d == 0.0 and rep.psi_o_q == 0.0


@pytest.mark.parametrize("machine", ["ip", "sp"])
def test_trajectory_reports_match_scalar_path(machine, ip_params, sp_params):
    params = ip_params if machine == "ip" else sp_params
    rng = np.random.default_rng(29)
    n = 40
    t = np.linspace(0.0, 1.0, n)
    i_d = rng.uniform(-10, 10, n)
    i_q = rng.uniform(-10, 10, n)
    di_d = rng.uniform(-500, 500, n)
    di_q = rng.uniform(-500, 500, n)
    omega = rng.uniform(-60, 60, n)
    omega_dot = rng.uniform(-100, 100, n)
    omega[::5] = 0.0  # exercise the standstill branches too
    omega_dot[::5] = 0.0
    theta = rng.uniform(-math.pi, math.pi, n)
    cols = trajectory_reports(params, t, i_d, i_q, di_d, di_q, omega, omega_dot, theta)
    for k in range(n):
        rep = sample_report(
            params, t[k], (i_d[k], i_q[k]), (di_d[k], di_q[k]),
            omega[k], omega_dot[k], theta[k],
        )
        assert cols["det_y1"][k] == pytest.approx(rep.det_y1, rel=1e-12, abs=1e-12)
        for name, val in (("det_y2", rep.det_y2), ("det_y3", rep.det_y3)):
            if math.isnan(val):
                assert math.isnan(cols[name][k])
            else:
                assert cols[name][k] == pytest.approx(val, rel=1e-12, abs=1e-12)
        assert cols["rank"][k] == rep.numeric_rank
        np.testing.assert_allclose(
            cols["singular_values"][k], rep.singular_values, rtol=1e-12, atol=1e-12
        )
        assert cols["psi_o_d"][k] == pytest.approx(rep.psi_o_d, rel=1e-14)
        assert cols["psi_o_q"][k] == pytest.approx(rep.psi_o_q, rel=1e-14)
        assert cols["theta_o"][k] == pytest.approx(rep.theta_o, rel=1e-12)
        assert cols["margin"][k] == pytest.approx(rep.margin, rel=1e-12, abs=1e-12)


def test_vector_and_margin_are_the_trajectory_columns_at_one_sample(ip_params):
    for i_dq, di, om in _random_dq_points(31, 50):
        cols = trajectory_reports(
            ip_params, *(np.array([v]) for v in (0.0, *i_dq, *di, om, 0.0, 0.0))
        )
        vec = observability_vector(i_dq, ip_params)
        margin = observability_margin(i_dq, di, om, ip_params)
        assert (vec.psi_d, vec.psi_q, vec.theta_o) == (
            cols["psi_o_d"][0], cols["psi_o_q"][0], cols["theta_o"][0]
        )
        assert margin == cols["margin"][0]
        assert type(margin) is float and type(vec.theta_o) is float and not vec.degenerate


def test_non_finite_order1_matrix_raises_before_the_svd(ip_params):
    t = np.array([0.0, 1e-4, 2e-4])
    ones = np.ones(3)
    omega = np.array([1.0, 1e300, 1.0])
    with pytest.raises(FloatingPointError, match="t=0.0001"):
        with np.errstate(over="ignore", invalid="ignore"):
            trajectory_reports(ip_params, t, ones, 1e10 * ones, ones, ones, omega, 0.0 * ones, ones)
