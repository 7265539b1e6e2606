"""Observability stacks and closed-form determinants vs the FD oracle."""

import functools
import math
import pathlib
from dataclasses import fields, replace

import numpy as np
import pytest

from _samplers import ipmsm_free_states, order1_matrix, spmsm_moving_points, spmsm_singular_points
from pmsmlab.ekf import linearize
from pmsmlab.machine import (
    MachineParams,
    MachineState,
    alphabeta,
    dq_current_rate,
    dynamics_alphabeta,
    park,
    torque_alphabeta,
)
from pmsmlab.observability import (
    DEFAULT_FD_STEPS,
    RANK_RTOL,
    _backemf_rate,
    _emech_rate,
    _flux_rate,
    ModelKind,
    ObservabilityReport,
    det_y1_ipmsm,
    emf_model_det,
    emf_position_speed,
    flux_model_dets,
    hfi_det_y1,
    lie_gradient_stack,
    numeric_rank,
    sample_report,
    spmsm_det_y1,
    spmsm_det_y2,
    spmsm_det_y3_at_sing,
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


def _report(params, i_dq, di=(0.0, 0.0), om=0.0):
    """The one-state report at theta = 0 and zero acceleration: the vector and margin columns at one sample."""
    return sample_report(params, 0.0, i_dq, di, om, 0.0, 0.0)


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


def _assert_plain_rank(matrix):
    """numeric_rank equals one np.linalg.svd per matrix, bit for bit, and the RANK_RTOL count on its values."""
    rank, sv = numeric_rank(matrix)
    want_sv = np.linalg.svd(matrix, compute_uv=False)
    want_rank = (want_sv > RANK_RTOL * want_sv[..., :1]).sum(axis=-1)
    assert sv.shape == want_sv.shape and np.array_equal(sv.view(np.int64), want_sv.view(np.int64))
    if np.ndim(want_rank) == 0:
        assert type(rank) is int and rank == want_rank
    else:
        assert rank.shape == want_rank.shape and np.array_equal(rank, want_rank)


def test_numeric_rank_reuses_runs_bit_for_bit(monkeypatch, ip_params):
    import pmsmlab.observability as observability

    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1.0, 1.0, (2, 4, 4))
    # three runs each, of lengths around and beyond a run's chunk
    runs = [np.repeat(np.stack([a, b, a]), [2048 + k, 1024, 3], axis=0) for k in (-1, 0, 1, 2)]
    signed = np.zeros((6, 4, 4))
    signed[:, 0, 0] = signed[:, 1, 1] = 1.0
    signed[3, 2, 3] = -0.0  # equal as a number, not bit for bit: it starts a run of its own
    assert math.copysign(1.0, signed[3, 2, 3]) == -1.0
    svd_rows = []
    plain_svd = np.linalg.svd
    monkeypatch.setattr(observability.np.linalg, "svd",
                        lambda m, **kw: svd_rows.append(len(m)) or plain_svd(m, **kw))
    for m in runs + [signed]:
        svd_rows.clear()
        numeric_rank(m)
        assert svd_rows == [3]  # one matrix per run, in one call
    monkeypatch.undo()
    fd = lie_gradient_stack(EM, [1.0, -2.0, 30.0, 0.4], [5.0, -5.0], 3, ip_params)
    for m in runs + [signed, np.zeros((0, 4, 4)), a, fd, np.stack([fd, fd, 2.0 * fd]), np.vstack([fd, fd[:4]]),
                     np.stack([np.vstack([fd, fd[:4]])] * 3)]:
        _assert_plain_rank(m)


def test_numeric_rank_of_the_benchmark_runs_is_plain(monkeypatch):
    # the order-1 stacks of the benchmarked simulate, sweep and noisy analyze runs
    import pmsmlab.observability as observability
    from pmsmlab.config import apply_sweep_value, parse_config
    from pmsmlab.simulation import CHUNK_SAMPLES, run_scenario

    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    stacks = []
    monkeypatch.setattr(observability, "numeric_rank", lambda m: stacks.append(m) or numeric_rank(m))
    run_scenario(parse_config((configs / "standstill_ipmsm.json").read_text()).scenario)
    cfg = parse_config((configs / "hfi_voltage_sweep.json").read_text())
    for value in cfg.sweep.values:
        run_scenario(apply_sweep_value(cfg.scenario, cfg.sweep.parameter, value))
    noisy = replace(parse_config((configs / "standstill_spmsm.json").read_text()).scenario, noise_std=0.05, seed=4)
    run_scenario(noisy, with_ekf=False)
    monkeypatch.undo()
    # every sample's matrix, ranked a run's chunk at a time
    assert sum(map(len, stacks)) == 10000 + 6000 * len(cfg.sweep.values) + 10000
    assert max(map(len, stacks)) == CHUNK_SAMPLES
    for m in stacks:
        _assert_plain_rank(m)


# ---------------------------------------------------------------------------
# finite-difference stack construction
# ---------------------------------------------------------------------------


def test_stack_input_validation(ip_params, sp_params):
    x = np.zeros(4)
    u = np.zeros(2)
    with pytest.raises(ValueError, match="orders"):
        lie_gradient_stack(EM, x, u, 4, ip_params)
    for orders in (-1, 2.0, True):
        with pytest.raises(ValueError, match="orders"):
            lie_gradient_stack(EM, x, u, orders, ip_params)
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
        cf = order1_matrix(x, u, ip_params)
        scale = max(1.0, np.max(np.abs(cf)))
        worst = max(worst, np.max(np.abs(fd - cf)) / scale)
    assert worst < 1e-5


def test_back_emf_stack_rejects_zero_emf_with_acceleration(sp_params):
    with pytest.raises(ValueError, match="singular at zero EMF"):
        lie_gradient_stack(
            ModelKind.BACK_EMF, [1.0, 2.0, 0.0, 0.0], [0.0, 0.0], 1, sp_params,
            omega_dot_ext=5.0,
        )


@pytest.mark.parametrize("u", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]], ids=["one", "three", "row"])
def test_stack_rejects_input_of_wrong_shape(ip_params, u):
    with pytest.raises(ValueError, match=r"input must have shape \(2,\)"):
        lie_gradient_stack(EM, [1.0, -2.0, 30.0, 0.4], u, 1, ip_params)


@pytest.mark.parametrize(
    "steps, match",
    [
        ({1: 0.0}, "finite and > 0"),
        ({2: -1e-3}, "finite and > 0"),
        ({1: math.nan}, "finite and > 0"),
        ({3: math.inf}, "finite and > 0"),
        ({5: 1.0}, "orders in 1..3"),
        ({0: 1e-5}, "orders in 1..3"),
        # a step is held to the number rule and an order to the integer rule of every field
        ({1: "x"}, "finite and > 0"),
        ({1: 10**400}, "finite and > 0"),
        ({1: True}, "finite and > 0"),
        ({True: 1e-5}, "orders in 1..3"),
        ({1.0: 1e-5}, "orders in 1..3"),
    ],
    ids=["zero", "negative", "nan", "inf", "order-5", "order-0", "string", "int-past-float", "bool", "bool-order",
         "float-order"],
)
def test_stack_rejects_bad_steps(ip_params, steps, match):
    with pytest.raises(ValueError, match=match):
        lie_gradient_stack(EM, [1.0, -2.0, 30.0, 0.4], [5.0, -5.0], 1, ip_params, steps=steps)


def test_stack_raises_when_not_finite(sp_params):
    # the rate is finite at x, but the nested differences around it overflow
    x, u = [1e150, 1e150, 0.0, 0.3], [0.0, 0.0]
    assert np.all(np.isfinite(dynamics_alphabeta(MachineState(*x), alphabeta(*u), sp_params)[0]))
    with pytest.raises(ValueError, match="non-finite gradient stack"):
        lie_gradient_stack(EM, x, u, 3, sp_params)


@pytest.mark.parametrize("orders, calls", [(0, 1), (1, 2), (2, 4), (3, 7)])
def test_stack_makes_one_rate_call_per_nesting_level(monkeypatch, sp_params, orders, calls):
    # 1 + K(K+1)/2 calls for order K; looping over stencil points makes 17, 289 and 4657
    import pmsmlab.observability as obs

    seen = []
    rate = obs.state_rate
    monkeypatch.setattr(obs, "state_rate", lambda *args: seen.append(1) or rate(*args))
    lie_gradient_stack(EM, [1.0, -2.0, 0.0, 0.4], [0.1, 0.2], orders, sp_params)
    assert len(seen) == calls


def _pointwise_stack(rate, x, orders, scales):
    """The oracle's nested five-point stencil as a plain loop, one rate call per state."""
    hvecs = {k: lam * scales for k, lam in DEFAULT_FD_STEPS.items()}

    def jac(g, xv, h):
        out = np.empty((2, 4))
        for i in range(4):
            vals = []
            for mult in (2.0, 1.0, -1.0, -2.0):
                xp = xv.copy()
                xp[i] += mult * h[i]
                vals.append(g(xp))
            out[:, i] = (-vals[0] + 8.0 * vals[1] - 8.0 * vals[2] + vals[3]) / (12.0 * h[i])
        return out

    def chained(prev, h):
        # J f summed over the state in the oracle's fixed order, not by a BLAS product,
        # so that only the stencil's layout is compared
        def lie_k(xv):
            jk, fv = jac(prev, xv, h), rate(xv)
            return sum((jk[:, j] * fv[j] for j in range(1, 4)), jk[:, 0] * fv[0])

        return lie_k

    lie = [None, lambda xv: rate(xv)[:2]]
    for k in range(2, orders + 1):
        lie.append(chained(lie[k - 1], hvecs[k - 1]))
    return np.vstack([np.eye(2, 4)] + [jac(lie[k], np.array(x, dtype=float), hvecs[k]) for k in range(1, orders + 1)])


def _oracle_cases():
    ip = MachineParams(J=0.01)
    sp = MachineParams(L2=0.0, J=0.01)

    def emech(name, params, x, u, T_l=0.0, locked=False):
        scales = np.array([max(1.0, abs(x[0]), abs(x[1]))] * 2 + [max(1.0, abs(x[2])), max(1.0, abs(x[3]))])
        rate = lambda xv: _emech_rate(params, xv, u, T_l, locked)
        return pytest.param(EM, x, u, 3, params, {"T_l": T_l, "locked_rotor": locked}, rate, scales, id=name)

    def pair_scales(x):
        return np.array([max(1.0, abs(x[0]), abs(x[1]))] * 2 + [max(1.0, abs(x[2]), abs(x[3]))] * 2)

    cases = []
    for k, (x, u) in enumerate(ipmsm_free_states(5, 3)):
        cases.append(emech(f"free-salient-{k}", ip, x, u))
    for k, (x, u, T_l) in enumerate(spmsm_moving_points(5, 3, sp)):
        cases.append(emech(f"moving-round-{k}", sp, x, u, T_l))
    for k, (x, u, T_l) in enumerate(spmsm_singular_points(5, 3, sp)):
        cases.append(emech(f"singular-round-{k}", sp, x, u, T_l))
        cases.append(emech(f"locked-rotor-{k}", sp, x, u, T_l, locked=True))
    rng = np.random.default_rng(41)
    for k in range(3):
        x = np.concatenate([rng.uniform(-10, 10, 2), rng.uniform(-5, 5, 2)])
        u = rng.uniform(-20, 20, 2)
        rate = lambda xv, u=u: _backemf_rate(sp, xv, u, 5.0)
        cases.append(pytest.param(ModelKind.BACK_EMF, x, u, 1, sp, {"omega_dot_ext": 5.0}, rate, pair_scales(x),
                                  id=f"back-emf-{k}"))
    for k, om in enumerate((12.0, -45.0, 80.0)):
        x = np.concatenate([rng.uniform(-2, 2, 2), rng.uniform(-0.05, 0.05, 2)])
        u = rng.uniform(-1, 1, 2)
        rate = lambda xv, u=u, om=om: _flux_rate(sp, xv, u, om)
        cases.append(pytest.param(ModelKind.FLUX, x, u, 3, sp, {"omega_ext": om}, rate, pair_scales(x),
                                  id=f"flux-{k}"))
    return cases


@pytest.mark.parametrize("model, x, u, orders, params, kwargs, rate, scales", _oracle_cases())
def test_broadcast_stencil_matches_pointwise_loop(model, x, u, orders, params, kwargs, rate, scales):
    stack = lie_gradient_stack(model, x, u, orders, params, **kwargs)
    ref = _pointwise_stack(rate, x, orders, scales)
    rel = np.max(np.abs(stack - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert np.all(rel <= 1e-9)


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
        mat = order1_matrix([st.i_alpha, st.i_beta, st.omega, st.theta], [v.x, v.y], ip_params)
        assert np.linalg.det(mat) == pytest.approx(cf, rel=1e-10)


@functools.lru_cache(maxsize=None)
def _exact_model():
    """The salient model and its derivatives, derived in sympy.

    The model is written from the flux law, v = R i + d/dt (L(theta) i +
    psi_r (cos theta, sin theta)) with d theta/dt = omega, and from the
    co-energy W' = i'L(theta)i / 2 + psi_r i'(cos theta, sin theta), whose
    theta-derivative gives the torque T = 1.5 p dW'/dtheta and domega/dt =
    (p/J) T at zero load torque; not from the program's kernels.  Returns
    the order-1 observability matrix, its determinant, the Jacobian A of
    f = (di/dt, domega/dt, omega) and T, as mpmath functions of (i_a, i_b,
    omega, theta, v_a, v_b, R, L0, L2, psi_r, p, J).
    """
    import sympy

    ia, ib, w, th, va, vb, R, L0, L2, psi, p, J = sympy.symbols(
        "i_a i_b omega theta v_a v_b R L_0 L_2 psi_r p J", real=True)
    L = sympy.Matrix([[L0 + L2 * sympy.cos(2 * th), L2 * sympy.sin(2 * th)],
                      [L2 * sympy.sin(2 * th), L0 - L2 * sympy.cos(2 * th)]])
    i = sympy.Matrix([ia, ib])
    rotor = sympy.Matrix([sympy.cos(th), sympy.sin(th)])
    di = L.inv() * (sympy.Matrix([va, vb]) - R * i - w * (L.diff(th) * i + psi * rotor.diff(th)))
    coenergy = (i.T * L * i)[0] / 2 + psi * (i.T * rotor)[0]
    torque = sympy.Rational(3, 2) * p * coenergy.diff(th)
    x = sympy.Matrix([ia, ib, w, th])
    O = sympy.Matrix.vstack(i.jacobian(x), di.jacobian(x))  # gradients of y and of dy/dt
    A = sympy.Matrix.vstack(di, sympy.Matrix([p / J * torque, w])).jacobian(x)
    args = (ia, ib, w, th, va, vb, R, L0, L2, psi, p, J)
    return tuple(sympy.lambdify(args, expr, "mpmath") for expr in (O, O.det(), A, torque))


def _exact_args(x, u, params):
    import mpmath

    return [mpmath.mpf(float(v)) for v in (*x, *u, params.R, params.L0, params.L2, params.psi_r, params.p, params.J)]


def _worst_row_error(value, exact) -> float:
    """Largest error of a matrix, relative to the largest magnitude of the exact matrix's row."""
    exact = np.array(exact.tolist(), dtype=float)
    return float(np.max(np.abs(value - exact) / np.max(np.abs(exact), axis=1, keepdims=True)))


def test_order1_closed_forms_match_the_exact_symbolic_matrix(ip_params):
    # the exact route for the order-1 closed forms; the FD oracle checks stay as the independent numerical route
    import mpmath

    matrix, det, _, _ = _exact_model()
    worst_det = worst_row = 0.0
    with mpmath.workdps(40):
        for x, u in ipmsm_free_states(42, 100):  # criterion 1's states and machine
            args = _exact_args(x, u, ip_params)
            exact = det(*args)
            state = MachineState(*x)
            i_dq = park(state.currents, x[3])
            cf = det_y1_ipmsm((i_dq.x, i_dq.y), dq_current_rate(state, alphabeta(*u), ip_params), x[2], ip_params)
            worst_det = max(worst_det, float(abs(cf - exact) / abs(exact)))
            worst_row = max(worst_row, _worst_row_error(order1_matrix(x, u, ip_params), matrix(*args)))
    assert worst_det < 1e-12
    assert worst_row < 1e-12


@pytest.mark.parametrize("machine", ["ip", "sp"])
def test_torque_and_filter_jacobian_match_the_exact_symbolic_model(machine, ip_params, sp_params):
    # the exact route for the co-energy torque and all 16 entries of the filter's A, row 2 included
    import mpmath

    params = ip_params if machine == "ip" else sp_params
    _, _, jacobian, torque = _exact_model()
    worst_torque = worst_row = 0.0
    with mpmath.workdps(40):
        for x, u in ipmsm_free_states(42, 100):
            args = _exact_args(x, u, params)
            exact = torque(*args)
            worst_torque = max(worst_torque, float(abs(torque_alphabeta(MachineState(*x), params) - exact) / abs(exact)))
            worst_row = max(worst_row, _worst_row_error(linearize(params, x, u), jacobian(*args)))
    assert worst_torque < 1e-12
    assert worst_row < 1e-12


def test_spmsm_standstill_matrix_has_zero_position_column(sp_params):
    for theta in (0.0, 0.7, -2.1):
        mat = order1_matrix([3.0, -1.0, 0.0, theta], [0.5, -0.2], sp_params)
        assert not mat[:, 3].any()
        rank, _ = numeric_rank(mat)
        assert rank == 3


def test_round_machine_theta_column_zeros_are_positive(monkeypatch, sp_params):
    # at omega = 0 the round machine's current-rate gradient has zero theta entries (3 and 7); they are
    # +0.0 whatever the sign of the current rate, so numerically equal order-1 matrices are equal bit for bit
    import pathlib

    import pmsmlab.observability as observability
    from pmsmlab.config import parse_config
    from pmsmlab.machine import _inductance, _model_gradients
    from pmsmlab.simulation import run_scenario

    c, s = math.cos(0.7), math.sin(0.7)
    for di in (250.0, -250.0):
        grad = _model_gradients(sp_params, 3.0, -1.0, 0.0, c, s, di, -0.5 * di, _inductance(sp_params, c, s))
        for k in (3, 7):
            assert grad[k] == 0.0 and math.copysign(1.0, grad[k]) == 1.0

    # the shipped HFI sweep's 2 V point: a voltage carrier at standstill on the round machine
    stacks = []
    monkeypatch.setattr(observability, "numeric_rank", lambda m: stacks.append(m) or numeric_rank(m))
    config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "hfi_voltage_sweep.json"
    scn = parse_config(config.read_text()).scenario
    assert scn.injection.amplitude == 2.0 and scn.params.L2 == 0.0
    log = run_scenario(scn)
    m1 = np.concatenate(stacks)  # the run's matrices, ranked a chunk at a time
    assert not log.aborted and len(m1) == len(log) == 6000
    bits = m1.reshape(len(m1), -1).view(np.int64)
    assert (bits[1:] == bits[:-1]).all()


# ---------------------------------------------------------------------------
# observability vector and margin
# ---------------------------------------------------------------------------


def test_observability_vector_table_point(ip_params):
    rep = _report(ip_params, (0.0, 15.0))
    assert rep.psi_o_d == pytest.approx(0.0225, rel=1e-12)
    assert rep.psi_o_q == pytest.approx(-4.5e-3, rel=1e-12)
    assert rep.theta_o == pytest.approx(math.atan2(-4.5e-3, 0.0225), rel=1e-12)
    assert (rep.psi_o_d, rep.psi_o_q) != (0.0, 0.0)


def test_observability_vector_degenerate_point():
    # a zero vector has no phase and no rotation rate: both columns are NaN, and nothing raises
    i_d_star = -EXACT.psi_r / EXACT.L_delta
    rep = _report(EXACT, (i_d_star, 0.0), (1.0, 1.0), 10.0)
    assert rep.psi_o_d == 0.0 and rep.psi_o_q == 0.0
    assert math.isnan(rep.theta_o)
    assert math.isnan(rep.margin)


def test_margin_zero_rate_cases(ip_params, sp_params):
    assert _report(ip_params, (1.0, 2.0), (0.0, 0.0), 50.0).margin == 50.0
    # non-salient machine: the vector never rotates, margin is the speed
    assert _report(sp_params, (1.0, 2.0), (900.0, -30.0), 7.0).margin == 7.0


def test_margin_determinant_identity(ip_params):
    # margin * |Psi|^2 / (Ld Lq) == det_y1, two independent code paths
    for i_dq, di, om in _random_dq_points(17, 200):
        rep = _report(ip_params, i_dq, di, om)
        norm_sq = rep.psi_o_d**2 + rep.psi_o_q**2
        m = rep.margin
        lhs = m * norm_sq / (ip_params.Ld * ip_params.Lq)
        rhs = det_y1_ipmsm(i_dq, di, om, ip_params)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)


def test_margin_sign_agrees_with_determinant(ip_params):
    for i_dq, di, om in _random_dq_points(19, 1000):
        m = _report(ip_params, i_dq, di, om).margin
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
        stack = spmsm_standstill_stack(sp_params, theta)
        assert stack.shape == (8, 4)
        assert numeric_rank(stack)[0] == 3
        assert not stack[:, 3].any()
        # each derivative block is the previous one scaled by -R/L0
        for k in (1, 2):
            lo, hi = 2 * k, 2 * k + 2
            assert np.max(np.abs(stack[hi : hi + 2] - a * stack[lo:hi])) < 1e-12 * abs(
                a ** (k + 1)
            )


def test_augmented_measurement_restores_rank(sp_params):
    # a measurement a*theta + b adds the gradient row [0, 0, 0, a]: the offset b drops out, only the slope matters
    stack = spmsm_standstill_stack(sp_params, 0.8)
    for a, rank in ((1.0, 4), (-0.25, 4), (0.0, 3)):
        assert numeric_rank(np.vstack([stack, [[0.0, 0.0, 0.0, a]]]))[0] == rank


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


def test_hfi_det_sign_is_opposite_to_the_oracle_determinant(sp_params):
    # at zero carrier amplitude hfi_det_y1 is the negative of the order-1 determinant, whatever the estimate error,
    # the carrier phase, the currents, the angle and the input: -11982.25 against +11982.25 at omega = 10
    rng = np.random.default_rng(41)
    for _ in range(5):
        x = [*rng.uniform(-20, 20, 2), 10.0, rng.uniform(-math.pi, math.pi)]
        fd = np.linalg.det(lie_gradient_stack(EM, x, rng.uniform(-40, 40, 2), 1, sp_params))
        hfi = hfi_det_y1(10.0, rng.uniform(-math.pi, math.pi), rng.uniform(0, 1), 0.0, 1000.0, sp_params)
        assert fd == pytest.approx(11982.25, rel=1e-6)
        assert hfi == pytest.approx(-fd, rel=1e-6)


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
        theta, omega = emf_position_speed(e_a, e_b, sp_params)
        assert theta == pytest.approx(th, abs=1e-12)
        assert omega == pytest.approx(om, rel=1e-12)
    # zero EMF (standstill): the position is indeterminate and both outputs are NaN
    assert all(map(math.isnan, emf_position_speed(0.0, 0.0, sp_params)))


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


def _one_sample_points():
    rng = np.random.default_rng(43)
    for _ in range(20):
        i_dq, di, om = rng.uniform(-30.0, 30.0, 2), rng.uniform(-2e3, 2e3, 2), rng.uniform(-120.0, 120.0)
        yield rng.uniform(0.0, 1.0), i_dq, di, om, rng.uniform(-100.0, 100.0), rng.uniform(-math.pi, math.pi)
    yield 0.5, (3.0, -2.0), (-40.0, 0.0), 0.0, 0.0, 1.25  # singular standstill point
    yield 0.0, (-0.0, 0.0), (0.0, -0.0), -0.0, 0.0, -0.0  # signed zeros


@pytest.mark.parametrize("machine", ["ip", "sp"])
def test_sample_report_is_a_one_sample_trajectory(machine, ip_params, sp_params):
    params = ip_params if machine == "ip" else sp_params
    for t, i_dq, di, om, om_dot, theta in _one_sample_points():
        rep = sample_report(params, t, i_dq, di, om, om_dot, theta)
        cols = trajectory_reports(params, *(np.array([v]) for v in (t, *i_dq, *di, om, om_dot, theta)))
        assert repr(rep.time) == repr(t)
        for name, col in zip(fields(ObservabilityReport)[1:], cols.values()):
            assert repr(getattr(rep, name.name)) == repr(col[0].tolist())
        assert type(rep.numeric_rank) is int
        assert type(rep.singular_values) is list and len(rep.singular_values) == 4
        assert all(type(v) is float for v in rep.singular_values)


def test_sample_report_non_finite_matrix_names_the_sample(ip_params):
    with pytest.raises(FloatingPointError, match=r"^non-finite order-1 observability matrix at t=0$") as info:
        sample_report(ip_params, 0.0, (1e300, 1e300), (1e300, 0.0), 1e300, 0.0, 0.0)
    assert info.value.sample == 0


def test_vector_and_margin_are_the_trajectory_columns_at_one_sample(ip_params):
    for i_dq, di, om in _random_dq_points(31, 50):
        cols = trajectory_reports(
            ip_params, *(np.array([v]) for v in (0.0, *i_dq, *di, om, 0.0, 0.0))
        )
        rep = _report(ip_params, i_dq, di, om)
        assert (rep.psi_o_d, rep.psi_o_q, rep.theta_o) == (
            cols["psi_o_d"][0], cols["psi_o_q"][0], cols["theta_o"][0]
        )
        assert rep.margin == cols["margin"][0]
        assert type(rep.margin) is float and type(rep.theta_o) is float and (rep.psi_o_d, rep.psi_o_q) != (0.0, 0.0)


def test_non_finite_order1_matrix_raises_before_the_svd(ip_params):
    t = np.array([0.0, 1e-4, 2e-4])
    ones = np.ones(3)
    omega = np.array([1.0, 1e300, 1.0])
    with pytest.raises(FloatingPointError, match="t=0.0001"):
        with np.errstate(over="ignore", invalid="ignore"):
            trajectory_reports(ip_params, t, ones, 1e10 * ones, ones, ones, omega, 0.0 * ones, ones)
