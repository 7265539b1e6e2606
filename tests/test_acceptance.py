"""Acceptance gate: nine end-to-end checks, one printed line each.

Each criterion function is self-contained (or takes the shared study logs)
and returns (ok, detail).  The pytest wrappers print the [PASS]/[FAIL] line
even under capture; `python tests/test_acceptance.py` runs the same checks
standalone.
"""

import math

import numpy as np
import pytest

from _samplers import (
    ipmsm_free_states,
    rotor_frame_dynamics,
    rotor_frame_torque,
    spmsm_moving_points,
    spmsm_singular_points,
)
from pmsmlab.ekf import _diag_upper, _predict, _update
from pmsmlab.machine import (
    MachineState,
    _rotate,
    alphabeta,
    dq_current_rate,
    dynamics_alphabeta,
    park,
    torque_alphabeta,
    wrap_angle,
)
from pmsmlab.observability import (
    ModelKind,
    det_y1_ipmsm,
    emf_model_det,
    flux_model_dets,
    hfi_det_y1,
    lie_gradient_stack,
    numeric_rank,
    spmsm_det_y1,
    spmsm_det_y2,
    spmsm_det_y3_at_sing,
    spmsm_standstill_stack,
)
from pmsmlab.simulation import (
    MachineKind,
    TrajectoryLog,
    run_scenario,
    standstill_study_scenario,
    table_params,
)

IP = table_params(MachineKind.IPMSM, J=0.01)
SP = table_params(MachineKind.SPMSM, J=0.01)


def criterion_1() -> tuple[bool, str]:
    """Salient order-1 determinant vs the nested-difference stack, 100 states."""
    worst_rel = worst_abs = 0.0
    n_abs = 0
    for x, u in ipmsm_free_states(42, 100):
        state = MachineState(*x)
        i_dq = park(state.currents, x[3])
        di_dq = dq_current_rate(state, alphabeta(u[0], u[1]), IP)
        cf = det_y1_ipmsm((i_dq.x, i_dq.y), di_dq, x[2], IP)
        stack = lie_gradient_stack(ModelKind.ELECTROMECHANICAL, x, u, 1, IP)
        fd = float(np.linalg.det(stack))
        if abs(cf) < 1e-3:
            n_abs += 1
            worst_abs = max(worst_abs, abs(fd - cf))
        else:
            worst_rel = max(worst_rel, abs(fd - cf) / abs(cf))
    ok = worst_rel < 1e-4 and worst_abs < 1e-6
    return ok, (
        f"worst rel {worst_rel:.3e} over {100 - n_abs} states"
        f" (near-zero branch: {n_abs} states, worst abs {worst_abs:.3e})"
    )


def criterion_2() -> tuple[bool, str]:
    """Non-salient determinants: exact order-1 reduction, oracle orders 2-3."""
    rng = np.random.default_rng(2)
    w_red = 0.0
    for _ in range(50):
        i_dq = rng.uniform(-20.0, 20.0, 2)
        di_dq = rng.uniform(-5e3, 5e3, 2)
        om = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 100.0)
        full = det_y1_ipmsm(i_dq, di_dq, om, SP)
        reduced = spmsm_det_y1(om, SP)
        w_red = max(w_red, abs(full - reduced) / abs(reduced))

    w2 = 0.0
    for x, u, T_l in spmsm_moving_points(7, 100, SP):
        state = MachineState(x[0], x[1], x[2], x[3], T_l)
        _, dom, _ = dynamics_alphabeta(state, alphabeta(u[0], u[1]), SP)
        cf = spmsm_det_y2(x[2], dom, park(state.currents, x[3]).x, SP)
        stack = lie_gradient_stack(ModelKind.ELECTROMECHANICAL, x, u, 2, SP, T_l=T_l)
        w2 = max(w2, abs(float(np.linalg.det(stack[[0, 1, 4, 5]])) - cf) / abs(cf))

    w3 = 0.0
    for x, u, T_l in spmsm_singular_points(11, 40, SP):
        state = MachineState(x[0], x[1], 0.0, x[3])
        i_d = park(state.currents, x[3]).x
        di_q = dq_current_rate(state, alphabeta(u[0], u[1]), SP)[1]
        cf = spmsm_det_y3_at_sing(i_d, di_q, SP)
        stack = lie_gradient_stack(ModelKind.ELECTROMECHANICAL, x, u, 3, SP, T_l=T_l)
        w3 = max(w3, abs(float(np.linalg.det(stack[[0, 1, 6, 7]])) - cf) / abs(cf))

    ok = w_red < 1e-12 and w2 < 1e-3 and w3 < 1e-3
    return ok, f"order-1 reduction {w_red:.3e}; oracle rel: order-2 {w2:.3e}, order-3 {w3:.3e}"


def criterion_3() -> tuple[bool, str]:
    """Held rotor at standstill: rank exactly 3 and the -R/L0 block ratio."""
    a = -SP.R / SP.L0
    n_rank3 = 0
    w_match = w_rec_cf = w_rec_fd = 0.0
    points = spmsm_singular_points(3, 20, SP)
    for x, u, _ in points:
        fd = lie_gradient_stack(
            ModelKind.ELECTROMECHANICAL, x, u, 3, SP,
            locked_rotor=True, steps={2: 2e-2, 3: 2e-1},
        )
        rank, _sv = numeric_rank(fd)
        n_rank3 += rank == 3
        explicit = spmsm_standstill_stack(SP, x[3])
        w_match = max(w_match, np.max(np.abs(fd - explicit)) / np.max(np.abs(explicit)))
        for k in (2, 3):
            blk, prev = fd[2 * k : 2 * k + 2], fd[2 * (k - 1) : 2 * k]
            w_rec_fd = max(w_rec_fd, np.max(np.abs(blk - a * prev)) / np.max(np.abs(blk)))
            eb, ep = explicit[2 * k : 2 * k + 2], explicit[2 * (k - 1) : 2 * k]
            w_rec_cf = max(w_rec_cf, np.max(np.abs(eb - a * ep)) / np.max(np.abs(eb)))
    # the ratio is certified on the closed-form stack (which builds each block
    # independently from powers); the difference stack corroborates it at its
    # own noise floor and ties the closed form to the numeric oracle
    ok = (
        n_rank3 == len(points)
        and w_match < 1e-5
        and w_rec_cf < 1e-6
        and w_rec_fd < 1e-4
    )
    return ok, (
        f"rank 3 at {n_rank3}/{len(points)} angles; block ratio -R/L0 to {w_rec_cf:.3e}"
        f" (difference stack: match {w_match:.3e}, ratio {w_rec_fd:.3e})"
    )


def criterion_4() -> tuple[bool, str]:
    """d-axis carrier injection restores the order-1 determinant at standstill."""
    V_hf, w_hf = 2.0, 1000.0 * math.pi
    theta_err = -math.pi / 4.0
    period = 2.0 * math.pi / w_hf
    gain = SP.psi_r / (SP.L0 * SP.L0)
    worst = 0.0
    for j in range(10):
        t = (j + 0.05) * period / 10.0
        det = hfi_det_y1(0.0, theta_err, t, V_hf, w_hf, SP)
        expect = gain * V_hf * math.cos(w_hf * t) * math.sin(theta_err)
        if det == 0.0:
            return False, f"determinant vanished at carrier phase t={t:.6g}"
        if math.copysign(1.0, det) != math.copysign(
            1.0, math.sin(theta_err) * math.cos(w_hf * t)
        ):
            return False, f"sign mismatch at t={t:.6g}"
        worst = max(worst, abs(det - expect) / abs(expect))
    ok = worst < 1e-10
    return ok, (
        f"worst rel {worst:.3e} at 10 carrier phases;"
        " nonzero with sign of sin(err)*cos(w t) throughout"
    )


def criterion_5() -> tuple[bool, str]:
    """Back-EMF det constant at 1/L0^2; flux dets match the matrix route."""
    cf_emf = emf_model_det(SP)
    if cf_emf != 1.0 / (SP.L0 * SP.L0):
        return False, "closed-form back-EMF determinant is not 1/L0^2"
    rng = np.random.default_rng(31)
    w_emf = 0.0
    for _ in range(5):
        x = np.concatenate([rng.uniform(-20.0, 20.0, 2), rng.uniform(-3.0, 3.0, 2)])
        u = rng.uniform(-40.0, 40.0, 2)
        stack = lie_gradient_stack(ModelKind.BACK_EMF, x, u, 1, SP, omega_dot_ext=0.0)
        w_emf = max(w_emf, abs(float(np.linalg.det(stack)) - cf_emf) / cf_emf)
    if w_emf >= 1e-9:
        return False, f"back-EMF determinant drifts with the state: {w_emf:.3e}"

    # dual route for the flux model: it is linear at fixed speed, so the
    # derivative-order blocks are exact matrix powers
    def matrix_route(omega: float, order: int) -> float:
        R, L0 = SP.R, SP.L0
        A = np.array(
            [
                [-R / L0, 0.0, 0.0, omega / L0],
                [0.0, -R / L0, -omega / L0, 0.0],
                [0.0, 0.0, 0.0, -omega],
                [0.0, 0.0, omega, 0.0],
            ]
        )
        C = np.hstack([np.eye(2), np.zeros((2, 2))])
        rows = np.vstack([C, C @ np.linalg.matrix_power(A, order)])
        return float(np.linalg.det(rows))

    if flux_model_dets(0.0, SP) != (0.0, 0.0, 0.0):
        return False, "flux determinants are not identically zero at standstill"
    if any(matrix_route(0.0, k) != 0.0 for k in (1, 2, 3)):
        return False, "matrix route is nonzero at standstill"

    rng = np.random.default_rng(19)
    w_flux = 0.0
    for _ in range(50):
        om = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 150.0)
        cfs = flux_model_dets(om, SP)
        for k in (1, 2, 3):
            num = matrix_route(om, k)
            w_flux = max(w_flux, abs(num - cfs[k - 1]) / abs(cfs[k - 1]))
    ok = w_flux < 1e-12
    return ok, (
        f"emf det 1/L0^2 (state drift {w_emf:.3e});"
        f" flux dets zero at standstill, matrix-route rel {w_flux:.3e} at 50 speeds"
    )


def criterion_6(ip_log: TrajectoryLog, sp_log: TrajectoryLog) -> tuple[bool, str]:
    """Study behaviour: injection rescues the salient machine, not the round one."""
    scn = standstill_study_scenario(MachineKind.IPMSM)
    inj_t0, inj_t1 = scn.injection.t_start, scn.injection.t_end
    ramp_t = 0.6

    err_ip = np.abs(ip_log.theta_err)
    idx = np.flatnonzero((ip_log.t >= inj_t0) & (err_ip < 0.05))
    if idx.size == 0:
        return False, "salient estimate never converged under injection"
    t_lock_ip = float(ip_log.t[idx[0]])
    hold = float(np.max(err_ip[(ip_log.t >= t_lock_ip) & (ip_log.t < ramp_t)]))
    a_ok = t_lock_ip <= inj_t0 + 0.3 and hold < 0.05

    err_sp = np.abs(sp_log.theta_err)
    in_win = (sp_log.t >= inj_t0) & (sp_log.t < inj_t1)
    blind = float(np.min(err_sp[in_win]))
    idx = np.flatnonzero((sp_log.t >= ramp_t) & (err_sp < 0.05))
    if idx.size == 0:
        return False, "round-machine estimate never converged after the ramp"
    t_lock_sp = float(sp_log.t[idx[0]])
    b_ok = blind > 0.3 and t_lock_sp <= ramp_t + 0.2

    def motion_rms(log: TrajectoryLog) -> float:
        m = log.omega_true != 0.0
        return math.sqrt(float(np.mean((log.omega_hat[m] - log.omega_true[m]) ** 2)))

    rms_ip, rms_sp = motion_rms(ip_log), motion_rms(sp_log)
    spread = abs(rms_ip - rms_sp) / ((rms_ip + rms_sp) / 2.0)
    c_ok = spread < 0.20

    ok = a_ok and b_ok and c_ok
    return ok, (
        f"ipmsm locks at {t_lock_ip:.4g} s (hold max {hold:.4g});"
        f" spmsm blind in window (min {blind:.4g}), locks at {t_lock_sp:.4g} s;"
        f" motion speed rms {rms_ip:.4g}/{rms_sp:.4g} (spread {spread:.1%})"
    )


def criterion_7() -> tuple[bool, str]:
    """Stator and rotor frames agree on dynamics and torque; Park round trip."""
    rng = np.random.default_rng(21)
    machines = (IP, SP)
    w_dyn = w_park = 0.0

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    for trial in range(1000):
        params = machines[trial % 2]
        i_a, i_b = rng.uniform(-20.0, 20.0, 2)
        om = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 150.0)
        th = rng.uniform(-math.pi, math.pi)
        T_l = rng.uniform(-5.0, 5.0)
        v_ab = alphabeta(*rng.uniform(-40.0, 40.0, 2))
        state = MachineState(i_a, i_b, om, th, T_l)
        di_ab, dom_ab, dth_ab = dynamics_alphabeta(state, v_ab, params)
        i_dq, v_dq = park(state.currents, th), park(v_ab, th)
        di_dq, dom_dq, dth_dq = rotor_frame_dynamics(i_dq.x, i_dq.y, om, v_dq.x, v_dq.y, T_l, params)
        di_dq_from_ab = dq_current_rate(state, v_ab, params)
        w_dyn = max(
            w_dyn,
            rel(di_dq_from_ab[0], di_dq[0]),
            rel(di_dq_from_ab[1], di_dq[1]),
            rel(dom_ab, dom_dq),
            rel(dth_ab, dth_dq),
            rel(torque_alphabeta(state, params), rotor_frame_torque(i_dq.x, i_dq.y, params)),
        )
        vec = alphabeta(*rng.uniform(-50.0, 50.0, 2))
        out = park(vec, th)
        back = _rotate(out.x, out.y, math.cos(th), math.sin(th))
        w_park = max(w_park, rel(back[0], vec.x), rel(back[1], vec.y))
    ok = w_dyn < 1e-10 and w_park < 1e-14
    return ok, f"frame mismatch {w_dyn:.3e} over 1000 states; round trip {w_park:.3e}"


def criterion_8(ip_log: TrajectoryLog, sp_log: TrajectoryLog) -> tuple[bool, str]:
    """Covariance hygiene over the full study and bit-identical reruns."""
    scn = standstill_study_scenario(MachineKind.IPMSM)
    assert scn.noise_std == 0.0  # logged currents are the filter measurements
    i_d0, i_q0 = scn.setpoints
    # the filter kernels on the logged stream: x_hat as 4 floats, P as its 10 upper-triangle entries
    x_hat = (*_rotate(float(i_d0), float(i_q0), math.cos(scn.theta0), math.sin(scn.theta0)), 0.0,
             scn.theta0 + scn.theta_hat_err0)
    q, r, P = scn.q_diag, scn.r_diag, _diag_upper(scn.p0_diag)
    upper = np.triu_indices(4)
    P_full = np.empty((4, 4))
    worst_asym = 0.0
    min_diag = math.inf
    replay_ok = True
    for k in range(len(ip_log)):
        u = (float(ip_log.v_alpha[k]), float(ip_log.v_beta[k]))
        x_hat, P = _predict(scn.params, scn.T_s, q, x_hat, P, *u)
        x_hat, P = _update(r, x_hat, P, float(ip_log.i_alpha[k]), float(ip_log.i_beta[k]))
        P_full[upper] = P
        P_full.T[upper] = P
        worst_asym = max(worst_asym, float(np.max(np.abs(P_full - P_full.T))))
        min_diag = min(min_diag, float(np.min(np.diag(P_full))))
        replay_ok &= x_hat[2] == ip_log.omega_hat[k]
        replay_ok &= wrap_angle(x_hat[3]) == ip_log.theta_hat[k]

    def identical(a: TrajectoryLog, b: TrajectoryLog) -> bool:
        for name in a.__dataclass_fields__:
            va, vb = getattr(a, name), getattr(b, name)
            if isinstance(va, np.ndarray):
                if not np.array_equal(va, vb, equal_nan=True):
                    return False
            elif va != vb:
                return False
        return True

    rerun_ok = identical(
        ip_log, run_scenario(standstill_study_scenario(MachineKind.IPMSM))
    ) and identical(sp_log, run_scenario(standstill_study_scenario(MachineKind.SPMSM)))

    ok = worst_asym <= 1e-12 and min_diag >= 0.0 and replay_ok and rerun_ok
    return ok, (
        f"P asymmetry {worst_asym:.3e}, min diagonal {min_diag:.3e} over"
        f" {len(ip_log)} steps; replay bit-exact: {replay_ok}; reruns identical: {rerun_ok}"
    )


def criterion_9(ip_log: TrajectoryLog) -> tuple[bool, str]:
    """The margin and the order-1 determinant agree in sign and in zero set."""
    margin, det = ip_log.margin, ip_log.det_y1
    finite = np.isfinite(margin)
    both = finite & (np.abs(margin) > 1e-9) & (np.abs(det) > 1e-9)
    signs_ok = bool(np.all(np.sign(margin[both]) == np.sign(det[both])))
    zeros_m = margin[finite] == 0.0
    zeros_d = det[finite] == 0.0
    zeros_ok = bool(np.array_equal(zeros_m, zeros_d))
    ok = signs_ok and zeros_ok and both.sum() > 0
    return ok, (
        f"signs agree at {int(both.sum())} samples;"
        f" exact zeros co-occur at {int(zeros_m.sum())} samples"
    )


# ---------------------------------------------------------------------------
# pytest wiring: one printed line per criterion, capture or not
# ---------------------------------------------------------------------------


def _report(num: int, result: tuple, capsys) -> None:
    ok, detail = result
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1(capsys):
    _report(1, criterion_1(), capsys)


def test_criterion_2(capsys):
    _report(2, criterion_2(), capsys)


def test_criterion_3(capsys):
    _report(3, criterion_3(), capsys)


def test_criterion_4(capsys):
    _report(4, criterion_4(), capsys)


def test_criterion_5(capsys):
    _report(5, criterion_5(), capsys)


def test_criterion_6(ipmsm_log, spmsm_log, capsys):
    _report(6, criterion_6(ipmsm_log, spmsm_log), capsys)


def test_criterion_7(capsys):
    _report(7, criterion_7(), capsys)


def test_criterion_8(ipmsm_log, spmsm_log, capsys):
    _report(8, criterion_8(ipmsm_log, spmsm_log), capsys)


def test_criterion_9(ipmsm_log, capsys):
    _report(9, criterion_9(ipmsm_log), capsys)


def main() -> int:
    ip_log = run_scenario(standstill_study_scenario(MachineKind.IPMSM))
    sp_log = run_scenario(standstill_study_scenario(MachineKind.SPMSM))
    checks = [
        (1, criterion_1),
        (2, criterion_2),
        (3, criterion_3),
        (4, criterion_4),
        (5, criterion_5),
        (6, lambda: criterion_6(ip_log, sp_log)),
        (7, criterion_7),
        (8, lambda: criterion_8(ip_log, sp_log)),
        (9, lambda: criterion_9(ip_log)),
    ]
    failures = 0
    for num, fn in checks:
        ok, detail = fn()
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
