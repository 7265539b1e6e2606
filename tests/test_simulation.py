"""Speed profile, RK4 integrator, and the closed-loop scenario engine."""

import dataclasses
import math

import numpy as np
import pytest

from pmsmlab.machine import MachineState, dq, inverse_park, park
from pmsmlab.observability import sample_report
from pmsmlab.simulation import (
    MachineKind,
    Scenario,
    SpeedProfile,
    integrate_electrical,
    run_scenario,
    standstill_study_scenario,
    table_params,
)

STUDY_POINTS = [(0.0, 0.0), (0.6, 0.0), (0.8, 50.0), (1.0, 50.0)]


def _study_profile():
    return SpeedProfile.from_breakpoints(STUDY_POINTS)


def _tiny(kind=MachineKind.SPMSM, **over):
    scn = standstill_study_scenario(kind)
    over.setdefault("t_end", 0.02)
    return dataclasses.replace(scn, **over)


# ---------------------------------------------------------------------------
# speed profile
# ---------------------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError, match="non-empty"):
        SpeedProfile(times=(), speeds=())
    with pytest.raises(ValueError, match="non-empty"):
        SpeedProfile(times=(0.0, 1.0), speeds=(0.0,))
    with pytest.raises(ValueError, match="increasing"):
        SpeedProfile(times=(0.0, 0.0), speeds=(1.0, 2.0))
    with pytest.raises(ValueError, match="finite"):
        SpeedProfile(times=(0.0, math.inf), speeds=(1.0, 2.0))


def test_profile_interpolation_and_clamping():
    prof = _study_profile()
    assert prof.omega(0.3) == 0.0
    assert prof.omega(0.7) == pytest.approx(25.0)
    assert prof.omega(0.9) == 50.0
    assert prof.omega(-5.0) == 0.0  # held outside the range
    assert prof.omega(5.0) == 50.0
    flat = SpeedProfile.from_breakpoints([(0.0, 30.0)])
    assert flat.omega(-1.0) == flat.omega(0.0) == flat.omega(9.0) == 30.0


def test_profile_slope_right_continuous():
    prof = _study_profile()
    assert prof.omega_dot(0.599999) == 0.0
    assert prof.omega_dot(0.6) == pytest.approx(250.0)
    assert prof.omega_dot(0.799999) == pytest.approx(250.0)
    assert prof.omega_dot(0.8) == 0.0
    assert prof.omega_dot(-1.0) == 0.0
    assert prof.omega_dot(1.0) == 0.0  # zero at and beyond the last breakpoint
    assert SpeedProfile.from_breakpoints([(0.0, 30.0)]).omega_dot(0.0) == 0.0


def test_profile_angle_exact_values():
    prof = _study_profile()
    assert prof.angle(0.6) == 0.0
    assert prof.angle(0.8) == pytest.approx(5.0, rel=1e-14)  # triangle under the ramp
    assert prof.angle(1.0) == pytest.approx(15.0, rel=1e-14)
    assert prof.angle(1.2) == pytest.approx(25.0, rel=1e-14)  # held speed extends linearly
    assert prof.angle(-0.1) == 0.0


def test_profile_angle_matches_trapezoid_sum():
    prof = _study_profile()
    t = np.linspace(0.0, 1.0, 10001)
    w = prof.omega_many(t)
    dt = t[1] - t[0]
    # breakpoints land on grid nodes, so the trapezoid sum is exact too
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dt)])
    worst = max(abs(prof.angle(ti) - ci) for ti, ci in zip(t[::100], cum[::100]))
    assert worst < 1e-9


def test_profile_vector_forms_match_scalars():
    prof = _study_profile()
    t = np.linspace(-0.1, 1.1, 241)
    assert np.allclose(prof.omega_many(t), [prof.omega(ti) for ti in t], atol=1e-12)
    assert np.array_equal(prof.omega_dot_many(t), [prof.omega_dot(ti) for ti in t])


# ---------------------------------------------------------------------------
# scenario container
# ---------------------------------------------------------------------------


def test_scenario_validation():
    base = standstill_study_scenario()
    for bad in (
        dict(t_end=0.0),
        dict(T_s=-1e-4),
        dict(ode_substeps=0),
        dict(noise_std=-0.1),
        dict(q_diag=(1.0, 1.0)),
        dict(r_diag=(1.0,)),
        dict(p0_diag=(1.0, 1.0, 1.0)),
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(base, **bad)


def test_scenario_sample_count():
    assert standstill_study_scenario().n_samples == 10000
    assert _tiny().n_samples == 200


def test_study_scenario_contents():
    scn = standstill_study_scenario("ipmsm")
    assert scn.params.is_salient
    assert standstill_study_scenario("SPMSM").params.L2 == 0.0
    assert scn.profile.times == (0.0, 0.6, 0.8, 1.0)
    assert scn.profile.speeds == (0.0, 0.0, 50.0, 50.0)
    assert scn.setpoints == (0.0, 15.0)
    inj = scn.injection
    assert inj.kind.value == "current_on_q"
    assert (inj.amplitude, inj.frequency) == (0.5, 1000.0 * math.pi)
    assert (inj.t_start, inj.t_end) == (0.2, 0.5)
    assert scn.theta_hat_err0 == -math.pi / 4.0


def test_table_params():
    ip = table_params(MachineKind.IPMSM)
    assert ip.Ld == pytest.approx(0.5e-3, rel=1e-14)
    assert ip.Lq == pytest.approx(0.8e-3, rel=1e-14)
    assert (ip.R, ip.psi_r, ip.p, ip.J) == (0.01, 0.0225, 2, 0.02)
    sp = table_params(MachineKind.SPMSM, J=0.05)
    assert (sp.L0, sp.L2, sp.J) == (0.65e-3, 0.0, 0.05)


# ---------------------------------------------------------------------------
# electrical integrator
# ---------------------------------------------------------------------------


def test_integrator_rejects_bad_step():
    st = MachineState(0.0, 0.0, 0.0, 0.0)
    prof = SpeedProfile.from_breakpoints([(0.0, 0.0)])
    with pytest.raises(ValueError, match="dt"):
        integrate_electrical(st, inverse_park(dq(0, 0), 0.0), prof, 0.0, 0.0, table_params())


def test_integrator_resistive_equilibrium_is_exact():
    from pmsmlab.machine import alphabeta

    params = table_params()
    prof = SpeedProfile.from_breakpoints([(0.0, 0.0)])
    st = MachineState(3.0, -2.0, 0.0, 0.4)
    v = alphabeta(params.R * 3.0, params.R * -2.0)
    out = st
    for k in range(10):
        out = integrate_electrical(out, v, prof, k * 1e-4, 1e-4, params)
    assert out.i_alpha == 3.0 and out.i_beta == -2.0
    assert out.theta == 0.4 and out.omega == 0.0


def test_integrator_is_fourth_order():
    params = table_params()
    prof = SpeedProfile.from_breakpoints([(0.0, 40.0)])
    st0 = MachineState(1.0, -2.0, 40.0, 0.2)
    v = inverse_park(dq(0.5, 0.8), 0.2)
    dt = 1e-4

    def advance(state, n):
        h = dt / n
        for j in range(n):
            state = integrate_electrical(state, v, prof, j * h, h, params)
        return np.array([state.i_alpha, state.i_beta])

    ref = advance(st0, 64)
    e1 = np.linalg.norm(advance(st0, 1) - ref)
    e2 = np.linalg.norm(advance(st0, 2) - ref)
    assert 12.0 < e1 / e2 < 20.0  # halving the step cuts the error ~2^4


def test_integrator_standstill_steady_state():
    # constant voltage at locked rotor settles to i = v/R
    params = table_params()
    prof = SpeedProfile.from_breakpoints([(0.0, 0.0)])
    st = MachineState(0.0, 0.0, 0.0, 0.3)
    v = inverse_park(dq(0.2, -0.1), 0.3)
    n = 13000  # 1.3 s = 20 L/R time constants
    for k in range(n):
        st = integrate_electrical(st, v, prof, k * 1e-4, 1e-4, params)
    expect = np.array([v.x, v.y]) / params.R
    err = np.linalg.norm([st.i_alpha, st.i_beta] - expect) / np.linalg.norm(expect)
    assert err < 1e-6


def test_integrator_rotating_steady_state():
    # equilibrium dq voltage rotated once per step (zero-order hold): the
    # tracking error is bounded by the hold, about omega*dt/2 relative
    params = table_params()
    omega = 20.0
    prof = SpeedProfile.from_breakpoints([(0.0, omega)])
    i_ref = dq(0.0, 15.0)
    v_dq = dq(
        params.R * i_ref.x - omega * params.Lq * i_ref.y,
        params.R * i_ref.y + omega * (params.Ld * i_ref.x + params.psi_r),
    )
    i_ab0 = inverse_park(i_ref, 0.0)
    st = MachineState(i_ab0.x, i_ab0.y, omega, 0.0)
    dt = 2e-5
    for k in range(65000):  # 1.3 s
        st = integrate_electrical(st, inverse_park(v_dq, st.theta), prof, k * dt, dt, params)
    i_dq = park(st.currents, st.theta)
    assert abs(i_dq.y - 15.0) / 15.0 < 1.5e-3
    assert abs(i_dq.x) < 0.05


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------


def test_run_single_sample():
    log = run_scenario(_tiny(t_end=1e-4))
    assert len(log) == 1
    assert log.t[0] == 0.0
    assert not log.aborted


def test_run_noise_depends_only_on_seed():
    a = run_scenario(_tiny(noise_std=0.01, seed=4))
    b = run_scenario(_tiny(noise_std=0.01, seed=4))
    c = run_scenario(_tiny(noise_std=0.01, seed=5))
    assert np.array_equal(a.omega_hat, b.omega_hat)
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert not np.array_equal(a.omega_hat, c.omega_hat)


def test_run_frame_consistency():
    log = run_scenario(_tiny())
    c, s = np.cos(log.theta_true), np.sin(log.theta_true)
    i_d = c * log.i_alpha + s * log.i_beta
    i_q = -s * log.i_alpha + c * log.i_beta
    assert np.max(np.abs(i_d - log.i_d)) < 1e-12
    assert np.max(np.abs(i_q - log.i_q)) < 1e-12


def test_spmsm_standstill_rank_deficiency(spmsm_log):
    still = spmsm_log.t < 0.6
    assert np.all(spmsm_log.det_y1[still] == 0.0)
    assert np.all(spmsm_log.rank[still] == 3)
    moving = spmsm_log.t >= 0.62
    assert np.all(spmsm_log.rank[moving] == 4)
    assert np.all(spmsm_log.det_y1[moving] > 0.0)


def test_ipmsm_injection_restores_determinant(ipmsm_log):
    inj = (ipmsm_log.t >= 0.2) & (ipmsm_log.t < 0.5)
    assert np.mean(np.abs(ipmsm_log.det_y1[inj])) > 1e3
    # the very first window sample still sits at the settled equilibrium
    # (the carrier is sin(1000*pi*t), exactly zero at t = 0.2)
    assert ipmsm_log.rank[inj][0] == 3
    assert np.all(ipmsm_log.rank[inj][1:] == 4)


def test_run_without_estimator_matches_plant():
    scn = _tiny()
    full = run_scenario(scn)
    bare = run_scenario(scn, with_ekf=False)
    assert np.all(np.isnan(bare.omega_hat))
    assert np.all(np.isnan(bare.theta_hat))
    assert np.all(np.isnan(bare.theta_err))
    # the estimator never feeds back: the true trajectory is unchanged
    for name in ("i_alpha", "i_beta", "v_alpha", "v_beta", "theta_true", "det_y1"):
        assert np.array_equal(getattr(full, name), getattr(bare, name))


def test_run_aborts_cleanly_on_divergence():
    scn = dataclasses.replace(
        _tiny(),
        profile=SpeedProfile.from_breakpoints([(0.0, 1e9)]),
        t_end=0.01,
    )
    log = run_scenario(scn)
    assert log.aborted
    assert log.abort_reason != ""
    assert 0.0 < log.abort_time < 0.01
    assert 0 < len(log) < scn.n_samples
    assert np.all(np.isfinite(log.i_alpha))  # partial rows are real samples
    assert len(log.det_y1) == len(log)


def test_abort_in_first_sample_gives_empty_columns():
    # 1e200 A set-points overflow the filter dynamics in the first EKF cycle
    with np.errstate(over="ignore", invalid="ignore"):
        log = run_scenario(_tiny(setpoints=(0.0, 1e200)))
    assert log.aborted and log.abort_time == 0.0
    assert len(log) == 0
    for f in dataclasses.fields(log):
        if isinstance(getattr(log, f.name), np.ndarray):
            assert getattr(log, f.name).shape == (0,), f.name


def test_run_observability_on_estimates_smoke():
    scn = _tiny(obs_on_estimates=True)
    est = run_scenario(scn)
    true = run_scenario(_tiny())
    assert np.all(np.isfinite(est.det_y1))
    # estimated angle starts -pi/4 off, so the columns must differ
    assert not np.allclose(est.det_y1, true.det_y1)


def test_log_row_matches_sample_report(ipmsm_log):
    from pmsmlab.machine import alphabeta, dq_current_rate

    params = table_params(MachineKind.IPMSM)
    prof = _study_profile()
    for k in (700, 3100, 7321, 9500):
        st = MachineState(
            ipmsm_log.i_alpha[k], ipmsm_log.i_beta[k],
            ipmsm_log.omega_true[k], ipmsm_log.theta_true[k],
        )
        di_dq = dq_current_rate(
            st, alphabeta(ipmsm_log.v_alpha[k], ipmsm_log.v_beta[k]), params
        )
        rep = sample_report(
            params, ipmsm_log.t[k], (ipmsm_log.i_d[k], ipmsm_log.i_q[k]), di_dq,
            ipmsm_log.omega_true[k], prof.omega_dot(ipmsm_log.t[k]), ipmsm_log.theta_true[k],
        )
        assert ipmsm_log.det_y1[k] == pytest.approx(rep.det_y1, rel=1e-9, abs=1e-9)
        assert ipmsm_log.rank[k] == rep.numeric_rank
        assert ipmsm_log.psi_o_d[k] == pytest.approx(rep.psi_o_d, rel=1e-12)
        assert ipmsm_log.psi_o_q[k] == pytest.approx(rep.psi_o_q, rel=1e-12)
        assert ipmsm_log.margin[k] == pytest.approx(rep.margin, rel=1e-9, abs=1e-9)


def _reference_profile(points, t):
    """(omega, omega_dot, angle) at one time, by the per-segment formulas in plain floats."""
    import bisect

    T, W = [p[0] for p in points], [p[1] for p in points]
    cum = [0.0]
    for k in range(len(T) - 1):
        cum.append(cum[-1] + 0.5 * (W[k] + W[k + 1]) * (T[k + 1] - T[k]))
    k = min(max(bisect.bisect_right(T, t) - 1, 0), max(len(T) - 2, 0))
    if t <= T[0]:
        omega, angle = W[0], W[0] * (t - T[0])
    elif t >= T[-1]:
        omega, angle = W[-1], cum[-1] + W[-1] * (t - T[-1])
    else:
        dt = t - T[k]
        slope = (W[k + 1] - W[k]) / (T[k + 1] - T[k])
        omega = W[k] + dt / (T[k + 1] - T[k]) * (W[k + 1] - W[k])
        angle = cum[k] + W[k] * dt + 0.5 * slope * dt * dt
    if t < T[0] or t >= T[-1]:
        return omega, 0.0, angle
    return omega, (W[k + 1] - W[k]) / (T[k + 1] - T[k]), angle


def test_profile_arrays_match_scalar_calls_exactly():
    for points in (STUDY_POINTS, [(0.5, -7.0)], [(-1.0, 3.0), (0.25, -2.0), (2.0, 4.0)]):
        prof = SpeedProfile.from_breakpoints(points)
        bps = np.array([t for t, _ in points])
        t = np.concatenate(
            [bps, np.nextafter(bps, -np.inf), np.nextafter(bps, np.inf), [-5.0, 9.0], np.linspace(-1.5, 2.5, 75)]
        )
        t = np.stack([t, t[::-1]])  # 2-D
        ref = np.array([[_reference_profile(points, float(ti)) for ti in row] for row in t])
        for j, method in enumerate((prof.omega, prof.omega_dot, prof.angle)):
            scalars = np.array([[method(float(ti)) for ti in row] for row in t])
            assert np.array_equal(method(t), scalars)
            assert np.array_equal(scalars, ref[..., j])
        assert np.array_equal(prof.omega_many(t), prof.omega(t))
        assert np.array_equal(prof.omega_dot_many(t), prof.omega_dot(t))


def test_profile_scalar_calls_return_float():
    for prof in (_study_profile(), SpeedProfile(times=(0, 1), speeds=(0, 5))):
        for t in (-1, 0.0, 0.5, 1, 2.0):
            assert type(prof.omega(t)) is float
            assert type(prof.omega_dot(t)) is float
            assert type(prof.angle(t)) is float
            assert prof.evaluate(t) == (prof.omega(t), prof.omega_dot(t), prof.angle(t))


def test_run_replays_through_the_single_step_integrator():
    # one integrator: the logged voltages, stepped through integrate_electrical
    # substep by substep, reproduce the logged currents bit for bit
    from pmsmlab.machine import alphabeta

    prof = SpeedProfile.from_breakpoints([(0.0, 0.0), (0.004, 0.0), (0.015, 40.0)])
    scn = _tiny(MachineKind.IPMSM, profile=prof, theta0=0.3)
    log = run_scenario(scn, with_ekf=False)
    dt = scn.T_s / scn.ode_substeps
    st = MachineState(log.i_alpha[0], log.i_beta[0], prof.omega(0.0), scn.theta0)
    for k in range(len(log) - 1):
        v = alphabeta(log.v_alpha[k], log.v_beta[k])
        for j in range(scn.ode_substeps):
            st = integrate_electrical(st, v, prof, k * scn.T_s + j * dt, dt, scn.params)
        assert (st.i_alpha, st.i_beta) == (log.i_alpha[k + 1], log.i_beta[k + 1])
        assert (st.omega, st.theta_wrapped) == (log.omega_true[k + 1], log.theta_true[k + 1])
