"""Speed profile, RK4 integrator, and the closed-loop scenario engine."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import pmsmlab
from _samplers import sample_step
from pmsmlab.control import (
    InjectionKind,
    InjectionSchedule,
    _command_ab,
    _pi_law,
    current_reference,
    default_gains,
)
from pmsmlab.ekf import _diag_upper, _predict, _update
from pmsmlab.machine import MachineState, _rotate, alphabeta, dynamics_alphabeta, park, wrap_angle
from pmsmlab.observability import sample_report
from pmsmlab.simulation import (
    COLUMNS,
    MachineKind,
    Scenario,
    SpeedProfile,
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
    # a breakpoint is held to the number rule: a string, a bool or an int past the float range is named
    for times, speeds, field in (((0.0, "1"), (1.0, 2.0), "times"), ((0.0, True), (1.0, 2.0), "times"),
                                 ((0.0, 1.0), (1.0, 10**400), "speeds"), ("ab", (1.0, 2.0), "times")):
        with pytest.raises(ValueError, match=f"^{field}: must be a list of finite numbers$"):
            SpeedProfile(times=times, speeds=speeds)
    # and from_breakpoints converts nothing before the rule runs: no bool is read as 1.0, no int overflows float()
    for points in ([(0.0, 0.0), (1.0, True)], [(0.0, 0.0), (1.0, 10**400)]):
        with pytest.raises(ValueError, match="^speeds: must be a list of finite numbers$"):
            SpeedProfile.from_breakpoints(points)


def test_int_breakpoints_run_as_their_floats():
    # the profile keeps the ints as given: the still stretch up to 1 s and the ramp after it read them directly
    points = [(0, 0), (1, 0), (2, 100)]
    assert all(type(t) is int for t in SpeedProfile.from_breakpoints(points).times)
    logs = [run_scenario(_tiny(profile=SpeedProfile.from_breakpoints(pts), t_end=1.2, T_s=1e-3,
                               control_bandwidth=2.0 * math.pi * 50.0))
            for pts in (points, [(float(t), float(w)) for t, w in points])]
    assert not logs[0].aborted and len(logs[0]) == 1200
    for col in COLUMNS:
        a, b = (getattr(log, col.name) for log in logs)
        assert a.tobytes() == b.tobytes(), col.name


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
    w = prof.omega(t)
    dt = t[1] - t[0]
    # breakpoints land on grid nodes, so the trapezoid sum is exact too
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dt)])
    worst = max(abs(prof.angle(ti) - ci) for ti, ci in zip(t[::100], cum[::100]))
    assert worst < 1e-9


def test_profile_vector_forms_match_scalars():
    prof = _study_profile()
    t = np.linspace(-0.1, 1.1, 241)
    assert np.allclose(prof.omega(t), [prof.omega(ti) for ti in t], atol=1e-12)
    assert np.array_equal(prof.omega_dot(t), [prof.omega_dot(ti) for ti in t])


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
        dict(theta0=1e308, theta_hat_err0=1e308),  # the filter's prior angle overflows
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(base, **bad)
    # a config file's integers: a float, even a whole one, or a bool is not one
    for field, value in (("ode_substeps", 2.5), ("ode_substeps", 2.0), ("ode_substeps", True),
                         ("seed", 1.5), ("seed", 2.0), ("seed", False)):
        with pytest.raises(ValueError, match=f"^{field}: must be an integer$"):
            dataclasses.replace(base, t_end=0.001, noise_std=0.1, **{field: value})
    # and its booleans: neither a string nor a 0/1 integer is one
    for value in ("no", 0, 1, None):
        with pytest.raises(ValueError, match="^obs_on_estimates: must be true or false$"):
            dataclasses.replace(base, obs_on_estimates=value)
    # a non-finite number is named, as a config file names it, before any rule computes with it
    for field, value in (("noise_std", math.nan), ("voltage_limit", math.nan), ("voltage_limit", math.inf),
                         ("control_bandwidth", math.nan), ("control_bandwidth", math.inf), ("T_s", math.nan),
                         ("t_end", math.inf), ("theta0", -math.inf)):
        with pytest.raises(ValueError, match=f"^{field}: must be a finite number$"):
            dataclasses.replace(base, **{field: value})
    for field, value in (("setpoints", (math.nan, 0.0)), ("q_diag", (1.0, 1.0, math.inf, 0.1)),
                         ("q_diag", (math.nan, 1.0, 1e3, 0.1)), ("r_diag", (1.0, math.inf)),
                         ("p0_diag", (1.0, 1.0, math.nan, 1.0))):
        with pytest.raises(ValueError, match=f"^{field}: must be a list of finite numbers$"):
            dataclasses.replace(base, **{field: value})


@pytest.mark.parametrize("field, kind", [("params", "a MachineParams"), ("profile", "a SpeedProfile"),
                                         ("injection", "an InjectionSchedule")])
def test_code_built_scenario_names_a_part_of_the_wrong_type(field, kind):
    # a config file can only fill these with their types; in code, None or a stand-in is named, not run
    base = standstill_study_scenario()
    for value in (None, dataclasses.asdict(getattr(base, field))):
        with pytest.raises(ValueError, match=f"^{field}: must be {kind}$"):
            dataclasses.replace(base, t_end=0.001, **{field: value})


def test_code_built_scenario_takes_numpy_real_scalars():
    base = standstill_study_scenario()
    for value in (np.float64(0.5), np.float32(0.5), np.int64(1), np.int32(1)):
        dataclasses.replace(base, theta0=value, noise_std=value, q_diag=(value, 1.0, 1e3, 0.1))
    for value in (np.float32(np.inf), np.float64(np.nan), 10**400):
        with pytest.raises(ValueError, match="^noise_std: must be a finite number$"):
            dataclasses.replace(base, noise_std=value)


def test_scenario_sample_count():
    assert standstill_study_scenario().n_samples == 10000
    assert _tiny().n_samples == 200
    # a float32 t_end / T_s would overflow in float32; the rule divides in floats and names only the cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^t_end / T_s must not exceed 10000000 samples$"):
            dataclasses.replace(standstill_study_scenario(), t_end=np.float32(3e38))
        scn = dataclasses.replace(standstill_study_scenario(), t_end=np.float32(0.5))
    assert scn.n_samples == 5000


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
    # the round machine is the salient one with L2 zeroed, and its L0 is 0.65e-3 bit for bit
    assert table_params("spmsm") == dataclasses.replace(table_params(), L2=0.0)


def test_table_params_takes_a_kind_name():
    assert table_params("ipmsm") == table_params(MachineKind.IPMSM)
    assert table_params("SPMSM") == table_params(MachineKind.SPMSM)
    with pytest.raises(ValueError, match="nonsense"):
        table_params("nonsense")


# ---------------------------------------------------------------------------
# electrical integrator
# ---------------------------------------------------------------------------


def test_integrator_resistive_equilibrium_is_exact():
    params = table_params()
    prof = SpeedProfile.from_breakpoints([(0.0, 0.0)])
    v = (params.R * 3.0, params.R * -2.0)
    out = (3.0, -2.0, 0.0, 0.4)
    for k in range(10):
        out = sample_step(params, prof, out[0], out[1], out[3], v, k * 1e-4, 1e-4)
    i_alpha, i_beta, omega, theta = out
    assert i_alpha == 3.0 and i_beta == -2.0
    assert theta == 0.4 and omega == 0.0


def test_integrator_is_fourth_order():
    params = table_params()
    prof = SpeedProfile.from_breakpoints([(0.0, 40.0)])
    st0 = (1.0, -2.0, 40.0, 0.2)
    v = _rotate(0.5, 0.8, math.cos(0.2), math.sin(0.2))
    dt = 1e-4

    def advance(state, n):
        h = dt / n
        for j in range(n):
            state = sample_step(params, prof, state[0], state[1], state[3], v, j * h, h)
        return np.array(state[:2])

    ref = advance(st0, 64)
    e1 = np.linalg.norm(advance(st0, 1) - ref)
    e2 = np.linalg.norm(advance(st0, 2) - ref)
    assert 12.0 < e1 / e2 < 20.0  # halving the step cuts the error ~2^4


def _held_voltage_steps(params, prof, state, voltage, dt, n, prefix=1000):
    """(i_alpha, i_beta, theta) after n RK4 steps of dt from state = (i_alpha, i_beta, omega, theta).

    voltage(theta) gives (v_alpha, v_beta), held over each step.  The steps
    are a run's map rows at one substep per sample, applied as the run
    applies them; the first `prefix` states must equal those of one-sample
    builds (sample_step), bit for bit.
    """
    from pmsmlab.simulation import _apply_map, _map_blocks

    ia, ib, _, theta = state
    scn = Scenario(params=params, profile=prof, t_end=n * dt, T_s=dt, ode_substeps=1, theta0=theta)
    assert scn.n_samples == n
    got, replay = [], [state]
    for k, row in enumerate(itertools.chain.from_iterable(_map_blocks(scn))):
        v = voltage(theta)
        ia, ib = _apply_map(row, params.R, ia, ib, v[0], v[1], k * dt, dt)
        theta = row[11]
        if k < prefix:
            got.append((ia, ib, row[10], theta))
            st = replay[-1]
            replay.append(sample_step(params, prof, st[0], st[1], st[3], voltage(st[3]), k * dt, dt))
    assert np.array(got).tobytes() == np.array(replay[1:]).tobytes()
    return ia, ib, theta


def test_integrator_standstill_steady_state():
    # constant voltage at locked rotor settles to i = v/R
    params = table_params()
    prof = SpeedProfile.from_breakpoints([(0.0, 0.0)])
    st = (0.0, 0.0, 0.0, 0.3)
    v = _rotate(0.2, -0.1, math.cos(0.3), math.sin(0.3))
    n = 13000  # 1.3 s = 20 L/R time constants
    i_a, i_b, _ = _held_voltage_steps(params, prof, st, lambda theta: v, 1e-4, n)
    expect = np.array(v) / params.R
    err = np.linalg.norm([i_a, i_b] - expect) / np.linalg.norm(expect)
    assert err < 1e-6


def test_integrator_rotating_steady_state():
    # equilibrium dq voltage rotated once per step (zero-order hold): the
    # tracking error is bounded by the hold, about omega*dt/2 relative
    params = table_params()
    omega = 20.0
    prof = SpeedProfile.from_breakpoints([(0.0, omega)])
    i_d, i_q = 0.0, 15.0
    v_d = params.R * i_d - omega * params.Lq * i_q
    v_q = params.R * i_q + omega * (params.Ld * i_d + params.psi_r)
    st = (*_rotate(i_d, i_q, math.cos(0.0), math.sin(0.0)), omega, 0.0)
    dt = 2e-5
    i_a, i_b, theta = _held_voltage_steps(
        params, prof, st, lambda theta: _rotate(v_d, v_q, math.cos(theta), math.sin(theta)), dt, 65000)  # 1.3 s
    i_dq = park(alphabeta(i_a, i_b), theta)
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


_HOT_CARRIER = InjectionSchedule(kind=InjectionKind.VOLTAGE_ON_DHAT, amplitude=2.0, frequency=3000.0,
                                 t_start=0.003, t_end=0.01)
_SPEED_JUMP = SpeedProfile.from_breakpoints([(0.0, 0.0), (0.002, 0.0), (0.0021, 1e307)])  # aborts at sample 19


_DERIVE_ABORT = SpeedProfile.from_breakpoints([(0.0, 0.0), (0.002, 0.0), (0.0021, 1e304)])  # order-1 matrix at 21


@pytest.mark.parametrize("case", ["noisy_without_ekf", "noisy_with_ekf", "noise_aborts", "speed_jump_aborts",
                                  "derive_aborts", "obs_on_estimates"])
def test_run_is_independent_of_the_row_block(case, monkeypatch, tmp_path):
    # the maps are built one _BUILD_STEPS block at a time, and the loop draws the noise and stores its record
    # one CHUNK_SAMPLES chunk at a time, which is derived and written as it comes; neither the log nor the
    # simulate CSV may depend on where the blocks or the chunks start, including a run that aborts inside one, at
    # a chunk's first or last sample, and the estimates' centred speed derivative, which reaches one sample
    # across each chunk edge
    import pmsmlab.simulation as simulation
    from pmsmlab.cli import main
    from pmsmlab.config import RunConfig, render_config
    from pmsmlab.report import write_csv

    scn, with_ekf, aborts_at = {
        # 137 samples, not a multiple of the block
        "noisy_without_ekf": (_tiny(noise_std=0.05, seed=3, t_end=0.0137), False, None),
        "noisy_with_ekf": (_tiny(noise_std=0.05, seed=3, t_end=0.0137, injection=_HOT_CARRIER), True, None),
        "noise_aborts": (_tiny(noise_std=1e300, seed=3, t_end=0.0137), True, 1),
        "speed_jump_aborts": (_tiny(noise_std=0.05, seed=3, t_end=0.0137, profile=_SPEED_JUMP), True, 19),
        "derive_aborts": (_tiny(t_end=0.0137, profile=_DERIVE_ABORT, injection=InjectionSchedule()), True, 21),
        "obs_on_estimates": (_tiny(noise_std=0.05, seed=3, t_end=0.0137, obs_on_estimates=True), True, None),
    }[case]
    config = tmp_path / "run.json"
    config.write_text(render_config(RunConfig(scenario=scn, csv_name="run.csv")))

    def run(name: str):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate" if with_ekf else "analyze", "-c", str(config), "-o", str(tmp_path / name)])
            assert code == (0 if aborts_at is None else 2)
            return run_scenario(scn, with_ekf=with_ekf), (tmp_path / name / "run.csv").read_bytes()

    with monkeypatch.context() as patch:  # the reference: 137 samples in one built block and one chunk
        patch.setattr(simulation, "_BUILD_STEPS", 138 * scn.ode_substeps)
        assert simulation._BUILD_STEPS // scn.ode_substeps > 137 and simulation.CHUNK_SAMPLES > 137
        default, csv = run("default")
    assert len(default) == (137 if aborts_at is None else aborts_at) and default.aborted == (aborts_at is not None)
    write_csv(default, tmp_path / "whole.csv")
    assert csv == (tmp_path / "whole.csv").read_bytes()  # the streamed file is the collected log's
    # chunks of 19 and 20 samples put speed_jump_aborts' abort, at sample 19, at a chunk's first and last
    # sample; a chunk of 137 samples is the whole run, built in blocks of _BUILD_STEPS steps
    for name, size in (("_BUILD_STEPS", 1), ("_BUILD_STEPS", 7), ("CHUNK_SAMPLES", 1), ("CHUNK_SAMPLES", 7),
                       ("CHUNK_SAMPLES", 19), ("CHUNK_SAMPLES", 20), ("CHUNK_SAMPLES", 137)):
        with monkeypatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            if name == "_BUILD_STEPS":  # samples per built block; a still stretch builds one
                patch.setattr(simulation, name, size * scn.ode_substeps)
                built = _count_built_samples(patch)
                list(itertools.chain.from_iterable(simulation._map_blocks(scn)))
                assert max(built) <= size
            else:
                patch.setattr(simulation, name, size)
                assert max(map(len, simulation.run_chunks(scn, with_ekf))) == min(size, len(default))
            log, written = run(f"{name}{size}")
        for f in dataclasses.fields(log):
            a, b = getattr(log, f.name), getattr(default, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, size, f.name)
            else:
                assert a == b, (name, size, f.name)
        assert written == csv, (name, size)
    # numpy fills a chunk's draws in the order of one standard_normal(2) per sample
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    assert rng_a.standard_normal(2 * 137).tobytes() == np.array([rng_b.standard_normal(2) for _ in range(137)]).tobytes()


def test_run_frame_consistency(ipmsm_log):
    # a moving run: i_d, i_q are the stator currents in the frame of the logged angle, bit for bit
    log = ipmsm_log
    c, s = np.cos(log.theta_true), np.sin(log.theta_true)
    i_d = c * log.i_alpha + s * log.i_beta
    i_q = -s * log.i_alpha + c * log.i_beta
    assert np.any(log.omega_true != 0.0)
    assert np.array_equal(i_d, log.i_d)
    assert np.array_equal(i_q, log.i_q)


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


def test_derive_pass_abort_keeps_the_samples_before_it():
    # the loop finishes 22 samples and stops at t = 0.0022; the order-1 matrix of sample 21
    # (t = 0.0021, at 1e304 rad/s) is not finite, so the log ends before it
    profile = SpeedProfile.from_breakpoints([(0.0, 0.0), (0.002, 0.0), (0.0021, 1e304)])
    with np.errstate(over="ignore", invalid="ignore"):
        log = run_scenario(_tiny(profile=profile, t_end=0.0137))
        short = run_scenario(_tiny(profile=profile, t_end=0.0021))
    assert log.aborted and len(log) == 21 and log.abort_time == 21 * 1e-4
    assert log.abort_reason == "non-finite order-1 observability matrix at t=0.0021"
    assert not short.aborted
    for f in dataclasses.fields(log)[:-3]:  # the columns equal those of the run that ends before sample 21
        assert getattr(log, f.name).tobytes() == getattr(short, f.name).tobytes(), f.name


def test_abort_in_first_sample_gives_empty_columns():
    # 1e200 A set-points overflow the filter dynamics in the first EKF cycle
    with np.errstate(over="ignore", invalid="ignore"):
        log = run_scenario(_tiny(setpoints=(0.0, 1e200)))
    assert log.aborted and log.abort_time == 0.0
    assert len(log) == 0
    for f in dataclasses.fields(log):
        if isinstance(getattr(log, f.name), np.ndarray):
            assert getattr(log, f.name).shape == (0,), f.name


def _count_built_samples(monkeypatch) -> list:
    """Wraps _sample_maps; the returned list gets the number of samples of each call."""
    import pmsmlab.simulation as simulation

    built, sample_maps = [], simulation._sample_maps

    def counting(params, profile, t, *args):
        built.append(len(t))
        return sample_maps(params, profile, t, *args)

    monkeypatch.setattr(simulation, "_sample_maps", counting)
    return built


def test_early_abort_builds_at_most_one_block_of_maps(monkeypatch):
    # maps are built as the loop reaches them, so a run that aborts at t = 0 does not pay for the rest
    import pmsmlab.simulation as simulation

    built = _count_built_samples(monkeypatch)
    scn = dataclasses.replace(standstill_study_scenario(MachineKind.IPMSM), setpoints=(1e200, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        log = run_scenario(scn)
    assert log.aborted and log.abort_time == 0.0
    assert 0 < sum(built) <= simulation._BUILD_STEPS // scn.ode_substeps


def test_run_keeps_the_columns_it_is_told_and_rejects_unknown_names():
    scn = _tiny(t_end=0.001)
    log = run_scenario(scn, keep=("theta_err", "t"))
    assert len(log) == 10 and [f.name for f in COLUMNS if getattr(log, f.name) is not None] == ["t", "theta_err"]
    with pytest.raises(ValueError, match="'theta_eror', 'ranks'"):
        run_scenario(scn, keep=("theta_eror", "t", "ranks"))
    with pytest.raises(ValueError, match="no column"):
        run_scenario(scn, keep=())


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


def test_profile_scalar_calls_return_float():
    for prof in (_study_profile(), SpeedProfile(times=(0, 1), speeds=(0, 5))):
        for t in (-1, 0.0, 0.5, 1, 2.0):
            assert type(prof.omega(t)) is float
            assert type(prof.omega_dot(t)) is float
            assert type(prof.angle(t)) is float
            assert prof.evaluate(t) == (prof.omega(t), prof.omega_dot(t), prof.angle(t))


def test_run_replays_through_the_single_step_integrator():
    # one integrator: the logged voltages, stepped one sample at a time through a map row built
    # for that sample alone, with the run's substeps, reproduce the logged currents bit for bit
    prof = SpeedProfile.from_breakpoints([(0.0, 0.0), (0.004, 0.0), (0.015, 40.0)])
    scn = _tiny(MachineKind.IPMSM, profile=prof, theta0=0.3)
    log = run_scenario(scn, with_ekf=False)
    st = (log.i_alpha[0], log.i_beta[0], prof.omega(0.0), scn.theta0)
    for k in range(len(log) - 1):
        v = (log.v_alpha[k], log.v_beta[k])
        st = sample_step(scn.params, prof, st[0], st[1], st[3], v, k * scn.T_s, scn.T_s, scn.ode_substeps)
        assert st[:2] == (log.i_alpha[k + 1], log.i_beta[k + 1])
        assert (st[2], wrap_angle(st[3])) == (log.omega_true[k + 1], log.theta_true[k + 1])


@pytest.mark.parametrize("substeps, t_end", [(3, 0.06), (137, 0.002), (600, 0.0006)])
def test_run_replays_across_map_blocks(substeps, t_end, monkeypatch):
    # the run builds its maps in blocks of whole samples, and a sample of more
    # than _BUILD_STEPS substeps in chunks; the replay through sample_step,
    # which builds one sample per call, must still match bit for bit at every
    # block and chunk edge, whatever the block size
    import pmsmlab.simulation as simulation

    build = 512  # a smaller bound puts more block edges into a short run, and chunks a 600-substep sample
    monkeypatch.setattr(simulation, "_BUILD_STEPS", build)
    # a leading standstill, then standstill after motion, where the held angle is not 0
    for points in ([(0.0, 0.0), (0.25, 0.0), (1.0, 40.0)], [(0.0, 0.0), (0.25, 40.0), (0.5, 0.0)]):
        prof = SpeedProfile.from_breakpoints([(f * t_end, w) for f, w in points])
        scn = _tiny(MachineKind.IPMSM, profile=prof, theta0=0.3, t_end=t_end, ode_substeps=substeps)
        assert scn.n_samples > 3 * max(1, build // substeps)  # at least three block edges
        assert substeps < build or substeps % build != 0  # a short last chunk
        log = run_scenario(scn, with_ekf=False)
        assert len(log) == scn.n_samples
        st = (log.i_alpha[0], log.i_beta[0], prof.omega(0.0), scn.theta0)
        for k in range(len(log) - 1):
            v = (log.v_alpha[k], log.v_beta[k])
            st = sample_step(scn.params, prof, st[0], st[1], st[3], v, k * scn.T_s, scn.T_s, substeps)
            assert st[:2] == (log.i_alpha[k + 1], log.i_beta[k + 1])
            assert (st[2], wrap_angle(st[3])) == (log.omega_true[k + 1], log.theta_true[k + 1])


def _stagewise_rk4(params, prof, i_a, i_b, theta, v, t, dt):
    """Classical RK4 of the currents over [t, t+dt], stage by stage on floats, through the public model.

    The angle is anchored at theta and follows the profile: (theta - a0) + a.
    Returns (i_alpha, i_beta, omega, theta) at t+dt.
    """
    (w0, _, a0), (wm, _, am), (we, _, ae) = (prof.evaluate(x) for x in (t, t + 0.5 * dt, t + dt))
    thm, the = (theta - a0) + am, (theta - a0) + ae

    def rate(x, y, w, th):
        di, _, _ = dynamics_alphabeta(MachineState(x, y, w, th), v, params)
        return di[0], di[1]

    k1 = rate(i_a, i_b, w0, theta)
    k2 = rate(i_a + 0.5 * dt * k1[0], i_b + 0.5 * dt * k1[1], wm, thm)
    k3 = rate(i_a + 0.5 * dt * k2[0], i_b + 0.5 * dt * k2[1], wm, thm)
    k4 = rate(i_a + dt * k3[0], i_b + dt * k3[1], we, the)
    return (
        i_a + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        i_b + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        we,
        the,
    )


@pytest.mark.parametrize("kind", list(MachineKind))
def test_step_map_matches_a_stagewise_rk4(kind):
    # the affine step map is the RK4 step: the currents agree to rounding
    # relative to the step's own increment, the speed and angle exactly
    params = table_params(kind)
    rng = np.random.default_rng(21)
    for _ in range(300):
        # a ramp, so both omega and omega_dot are nonzero inside the step
        prof = SpeedProfile.from_breakpoints([(0.0, rng.uniform(-300.0, -10.0)), (0.05, rng.uniform(10.0, 300.0))])
        t, dt = rng.uniform(0.0, 0.049), 10.0 ** rng.uniform(-6.0, -4.0)
        i_a, i_b = rng.uniform(-20.0, 20.0, 2)
        theta = rng.uniform(-math.pi, math.pi)
        v = alphabeta(*rng.uniform(-40.0, 40.0, 2))
        ref = _stagewise_rk4(params, prof, i_a, i_b, theta, v, t, dt)
        out = sample_step(params, prof, i_a, i_b, theta, (v.x, v.y), t, dt)
        err = math.hypot(out[0] - ref[0], out[1] - ref[1])
        assert err <= 1e-12 * math.hypot(ref[0] - i_a, ref[1] - i_b)
        assert out[2:] == ref[2:]


@pytest.mark.parametrize("substeps, cases", [(1, 60), (3, 60), (10, 40), (137, 10), (600, 4), (2100, 2)])
def test_sample_map_matches_stagewise_rk4_steps(substeps, cases):
    # one composed map per sample is its substeps RK4 steps: the currents
    # agree to rounding relative to the sample's own increment, the speed and
    # angle exactly; 600 substeps are one chunk, 2100 span three chunks of _BUILD_STEPS steps, the last one short
    from pmsmlab.simulation import _BUILD_STEPS

    if substeps >= 600:
        assert -(-substeps // _BUILD_STEPS) == {600: 1, 2100: 3}[substeps]  # chunks of the sample
    rng = np.random.default_rng(substeps)
    for case in range(cases):
        params = table_params(list(MachineKind)[case % 2])
        prof = SpeedProfile.from_breakpoints([(0.0, rng.uniform(-300.0, -10.0)), (0.05, rng.uniform(10.0, 300.0))])
        t, T = rng.uniform(0.0, 0.049), 10.0 ** rng.uniform(-5.0, -3.7)
        i_a, i_b = rng.uniform(-20.0, 20.0, 2)
        theta = rng.uniform(-math.pi, math.pi)
        v = alphabeta(*rng.uniform(-40.0, 40.0, 2))
        dt = T / substeps
        ref = (i_a, i_b, 0.0, theta)
        for j in range(substeps):
            ref = _stagewise_rk4(params, prof, ref[0], ref[1], ref[3], v, t + j * dt, dt)
        out = sample_step(params, prof, i_a, i_b, theta, (v.x, v.y), t, T, substeps)
        err = math.hypot(out[0] - ref[0], out[1] - ref[1])
        assert err <= 1e-12 * math.hypot(ref[0] - i_a, ref[1] - i_b)
        assert out[2:] == ref[2:]


def _unshared_table(scn):
    """Every sample's map row built from its own steps, chaining the angle, as blocks of whole samples."""
    from pmsmlab.simulation import _BUILD_STEPS, _sample_maps

    per = 50 if scn.ode_substeps <= _BUILD_STEPS else 1  # _sample_maps takes one sample of more substeps
    rows, theta = [], scn.theta0
    for k0 in range(0, scn.n_samples, per):
        t = np.arange(k0, min(k0 + per, scn.n_samples)) * scn.T_s
        rows.append(_sample_maps(scn.params, scn.profile, t, scn.ode_substeps, scn.T_s, theta))
        theta = rows[-1][-1, 11]
    return np.vstack(rows)


def _hfi_config_scenario():
    from pmsmlab.config import parse_config

    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "hfi_voltage_sweep.json")
    with open(path) as fh:
        return parse_config(fh.read()).scenario


_MOVED_BEFORE_T0 = SpeedProfile.from_breakpoints([(-0.002, 0.0), (-0.001, 40.0), (0.0, 0.0)])  # held at A = 0.04


_MAP_CASES = {  # scenarios for the _map_blocks tests, built when a test asks for them
    "study": lambda: standstill_study_scenario(MachineKind.IPMSM),
    "hfi_config": _hfi_config_scenario,
    "standstill_after_motion": lambda: _tiny(
        MachineKind.IPMSM, profile=SpeedProfile.from_breakpoints([(0.0, 0.0), (0.002, 40.0), (0.004, 0.0)]),
        theta0=0.3, t_end=0.01),
    # the whole run is held at A != 0, from a theta0 that the chain (theta0 - A) + A does not return
    "theta_off_the_chain": lambda: _tiny(MachineKind.IPMSM, profile=_MOVED_BEFORE_T0, theta0=-0.49, t_end=0.005),
    # (-0.0 - 0.0) + 0.0 is +0.0
    "negative_zero_theta0": lambda: _tiny(theta0=-0.0, t_end=0.005),
    "holds_before_and_after_the_breakpoints": lambda: _tiny(
        profile=SpeedProfile.from_breakpoints([(0.003, 0.0), (0.005, 30.0), (0.007, 0.0)]), theta0=0.3, t_end=0.01),
    "edge_inside_a_sample": lambda: _tiny(
        MachineKind.IPMSM,
        profile=SpeedProfile.from_breakpoints([(0.0, 0.0), (0.00305, 0.0), (0.00505, 30.0), (0.00705, 0.0)]),
        theta0=1.0, t_end=0.01),
    # three samples per block, short of _BUILD_STEPS steps
    "300_substeps": lambda: _tiny(
        profile=SpeedProfile.from_breakpoints([(0.0, 0.0), (3e-4, 0.0), (6e-4, 40.0), (8e-4, 0.0)]),
        ode_substeps=300, t_end=1.2e-3),
    # more substeps than _BUILD_STEPS: one sample per block, built in three chunks, the last one short
    "2100_substeps": lambda: _tiny(
        profile=SpeedProfile.from_breakpoints([(0.0, 0.0), (3e-4, 0.0), (6e-4, 40.0), (8e-4, 0.0)]),
        ode_substeps=2100, t_end=1.2e-3),
    # held speeds of -0.0: the segment between them evaluates to +0.0, the holds to -0.0
    "negative_zero_speeds": lambda: _tiny(
        profile=SpeedProfile.from_breakpoints([(0.003, -0.0), (0.006, -0.0)]), theta0=0.3, t_end=0.01),
    # too slow to move the angle, yet every sample's speed differs
    "creeping_ramp": lambda: _tiny(profile=SpeedProfile.from_breakpoints([(0.0, 0.0), (0.01, 1e-200)]),
                                   theta0=0.3, t_end=0.01),
}


@pytest.mark.parametrize("case, reused", [
    ("study", True),
    ("hfi_config", True),
    ("standstill_after_motion", True),
    ("theta_off_the_chain", True),
    ("negative_zero_theta0", True),
    ("holds_before_and_after_the_breakpoints", True),
    ("edge_inside_a_sample", True),
    ("300_substeps", True),
    ("2100_substeps", True),
    ("negative_zero_speeds", True),
    ("creeping_ramp", False),
])
def test_map_blocks_equal_an_unshared_build(case, reused, monkeypatch):
    # a still stretch's row is built once and repeated; the rows must still
    # equal every sample built from its own steps, byte for byte (so the sign of zero counts)
    from pmsmlab.simulation import _map_blocks

    scn = _MAP_CASES[case]()
    if case == "theta_off_the_chain":
        A = _MOVED_BEFORE_T0.angle(0.0)
        assert A != 0.0 and (scn.theta0 - A) + A != scn.theta0
    built = _count_built_samples(monkeypatch)
    table = np.array(list(itertools.chain.from_iterable(_map_blocks(scn))))
    monkeypatch.undo()
    assert table.tobytes() == _unshared_table(scn).tobytes()
    if case == "hfi_config":
        assert sum(built) == 1  # the whole run is one still stretch
    elif case in ("theta_off_the_chain", "negative_zero_theta0"):
        assert sum(built) == 2  # the first sample moves the angle onto the chain's fixed point, the second keeps it
    else:
        assert (sum(built) < scn.n_samples) == reused


@pytest.mark.parametrize("case", list(_MAP_CASES))
def test_map_blocks_hold_at_most_one_build_block(case, monkeypatch):
    # the maps are built as the loop reaches them, at most one block of _BUILD_STEPS steps at a time, and a
    # still stretch's row once, however long the stretch
    from pmsmlab.simulation import _BUILD_STEPS, _map_blocks

    scn = _MAP_CASES[case]()
    per = max(1, _BUILD_STEPS // scn.ode_substeps)
    built = _count_built_samples(monkeypatch)
    rows = 0
    for row in itertools.chain.from_iterable(_map_blocks(scn)):
        assert type(row) is list and len(row) == 12
        rows += 1
        assert sum(built) < rows + per  # no block is built before the loop reaches it
    assert rows == scn.n_samples
    assert all(1 <= m <= per for m in built)
    if case == "300_substeps":
        assert per == 3 and max(built) == 3
    elif case == "2100_substeps":
        assert per == 1 and 2 * _BUILD_STEPS < scn.ode_substeps < 3 * _BUILD_STEPS
    elif case == "hfi_config":  # 6,000 still samples, built once
        assert scn.n_samples == 6000 and built == [1]


def test_block_trig_equals_single_element_trig():
    # the replay tests need np.cos/np.sin of an angle not to depend on the
    # array around it: run_scenario takes them over blocks, sample_step over
    # one sample
    from pmsmlab.simulation import _BUILD_STEPS

    x = np.random.default_rng(4).uniform(-300.0, 300.0, _BUILD_STEPS + 1)
    study = _BUILD_STEPS // 10 * 10  # a block of the study's 10-substep samples
    for fn in (np.cos, np.sin):
        single = np.array([fn(x[i:i + 1])[0] for i in range(x.size)])
        for n in (_BUILD_STEPS + 1, _BUILD_STEPS, study + 1, study, 513, 512, 7):
            assert np.array_equal(fn(x[:n]), single[:n]), (
                f"np.{fn.__name__} over {n} elements differs from one element at a time on this host,"
                " so a run and its one-sample replay cannot agree bit for bit"
            )


def test_non_positive_definite_innovation_ends_the_run_as_a_named_abort(monkeypatch):
    import pmsmlab.simulation as simulation

    scn = _tiny()

    def indefinite(d):
        # Scenario rejects a negative p0_diag, so shift the prior P by -5 I after the checks
        return _diag_upper([v - 5.0 for v in d])

    monkeypatch.setattr(simulation, "_diag_upper", indefinite)
    log = run_scenario(scn)
    assert log.aborted and log.abort_time == 0.0 and len(log) == 0
    assert log.abort_reason == "innovation covariance not positive definite"


@pytest.mark.parametrize("case", ["current_on_q", "voltage_on_dhat", "saturated"])
def test_run_replays_through_the_controller_kernels(case):
    # one controller: the logged measured currents, stepped through
    # _pi_law and _command_ab, reproduce the logged voltages bit for bit
    prof = SpeedProfile.from_breakpoints([(0.0, 0.0), (0.004, 0.0), (0.015, 40.0)])
    window = dict(frequency=1000.0 * math.pi, t_start=0.002, t_end=0.008)
    over = {"injection": InjectionSchedule(InjectionKind.CURRENT_ON_Q, amplitude=0.5, **window)}
    if case == "voltage_on_dhat":
        over["injection"] = InjectionSchedule(InjectionKind.VOLTAGE_ON_DHAT, amplitude=2.0, **window)
    elif case == "saturated":
        over["voltage_limit"] = 0.2  # below the back-EMF of the ramp
    scn = _tiny(MachineKind.IPMSM, profile=prof, theta0=0.3, t_end=0.015, **over)
    log = run_scenario(scn)
    assert not log.aborted
    assert np.all(np.abs(log.theta_true) < math.pi)  # so the logged (wrapped) angle is exact

    # the settled start of run_scenario
    p, (i_d0, i_q0), w0, lim = scn.params, scn.setpoints, prof.omega(0.0), scn.voltage_limit
    kp_d, kp_q, ki = default_gains(p, scn.control_bandwidth)
    v0 = (p.R * i_d0 - w0 * p.Lq * i_q0, p.R * i_q0 + w0 * (p.Ld * i_d0 + p.psi_r))
    integ_d, integ_q = (min(max(v, -lim), lim) for v in v0)
    i_ab0 = _rotate(float(i_d0), float(i_q0), math.cos(scn.theta0), math.sin(scn.theta0))
    q, r, P = scn.q_diag, scn.r_diag, _diag_upper(scn.p0_diag)
    x_hat = (*i_ab0, 0.0, scn.theta0 + scn.theta_hat_err0)
    saturated = False
    for k in range(len(log)):
        y = alphabeta(log.i_alpha[k], log.i_beta[k])
        theta, t = log.theta_true[k], log.t[k]
        refs = current_reference(t, scn.injection, scn.setpoints)
        i_dq = park(y, theta)
        v_d, integ_d = _pi_law(kp_d, ki, integ_d, lim, refs[0] - i_dq.x, scn.T_s)
        v_q, integ_q = _pi_law(kp_q, ki, integ_q, lim, refs[1] - i_dq.y, scn.T_s)
        # the filter's prior angle is unwrapped; the log holds it wrapped
        v = _command_ab(v_d, v_q, math.cos(theta), math.sin(theta), t, scn.injection, x_hat[3])
        assert v == (log.v_alpha[k], log.v_beta[k])
        saturated |= abs(integ_q) == lim
        x_hat, P = _update(r, *_predict(p, scn.T_s, q, x_hat, P, *v), float(y.x), float(y.y))
    assert saturated == (case == "saturated")


def test_far_rotor_angle_logs_the_loop_frame():
    # at theta0 = 1e17 the loop regulates i_q in the frame of cos, sin 1e17; the logged
    # angle and the dq currents rotated by it must be that frame, not a wrap of 1e17 to 0
    log = run_scenario(_tiny(theta0=1e17, t_end=0.01))
    assert not log.aborted
    c, s = math.cos(1e17), math.sin(1e17)
    assert np.all(np.abs(log.i_d - (c * log.i_alpha + s * log.i_beta)) < 1e-9)
    assert np.all(np.abs(log.i_q - (c * log.i_beta - s * log.i_alpha)) < 1e-9)
    assert abs(log.i_q[-1] - 15.0) < 1e-9 and abs(log.i_d[-1]) < 1e-9


def test_many_substeps_run_in_bounded_memory():
    # a sample's steps are built and composed a bounded number of RK4 steps
    # at a time, so peak memory does not grow with ode_substeps
    scn = _tiny(t_end=1e-4, ode_substeps=10**4)
    tracemalloc.start()
    try:
        run_scenario(scn, with_ekf=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_map_builder_holds_one_small_block_on_the_study():
    # the builder holds one block of at most _BUILD_STEPS RK4 steps and its temporaries at a time: 0.87 MB on the
    # IPMSM study at 1024 steps (1.73 MB at 2048), small enough that glibc keeps it resident between blocks
    from pmsmlab.simulation import _map_blocks

    scn = standstill_study_scenario(MachineKind.IPMSM)
    tracemalloc.start()
    try:
        for block in _map_blocks(scn):
            for _ in block:
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2e6


@pytest.mark.parametrize(
    "field, value",
    [("r_diag", (1.0, 0.0)), ("control_bandwidth", -1.0), ("voltage_limit", 0.0), ("q_diag", (1.0, -1.0, 1.0, 1.0)),
     # settings that use the estimates: a run without the estimator rejects them before it starts
     ("obs_on_estimates", True),
     ("injection", InjectionSchedule(InjectionKind.VOLTAGE_ON_DHAT, amplitude=2.0, frequency=3000.0, t_start=0.1,
                                     t_end=0.5))],
)
def test_code_built_scenario_rejects_estimator_and_control_values(field, value):
    label = "injection.kind" if field == "injection" else field
    with pytest.raises(ValueError, match=f"^{label}: [^;]*$"):
        run_scenario(dataclasses.replace(standstill_study_scenario(), **{field: value}), with_ekf=False)


def _dynamic_arch_openblas() -> bool:
    """True when numpy's BLAS is an OpenBLAS that picks its kernels for the CPU at run time."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")) and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
def test_loop_columns_do_not_depend_on_the_blas_kernels(tmp_path):
    # OPENBLAS_CORETYPE=Prescott forces OpenBLAS's oldest x86-64 kernels, which
    # use no fused multiply-adds; the run must not notice
    columns = ("i_alpha", "i_beta", "v_alpha", "v_beta", "omega_hat", "theta_hat")
    script = (
        "import dataclasses, sys\n"
        "import numpy as np\n"
        "from pmsmlab.simulation import run_scenario, standstill_study_scenario\n"
        "log = run_scenario(dataclasses.replace(standstill_study_scenario(), t_end=0.3))\n"
        f"np.save(sys.argv[1], np.stack([getattr(log, c) for c in {columns!r}]))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(pmsmlab.__file__)),
                                           os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    runs = []
    for coretype in (None, "Prescott"):
        out = tmp_path / f"{coretype}.npy"
        subprocess.run([sys.executable, "-c", script, str(out)], check=True, timeout=300,
                       env=env if coretype is None else dict(env, OPENBLAS_CORETYPE=coretype))
        runs.append(np.load(out))
    assert runs[0].shape == (len(columns), 3000)
    for name, a, b in zip(columns, *runs):
        assert np.array_equal(a, b), f"{name} depends on the BLAS kernels"
