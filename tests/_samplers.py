"""Shared test helpers: operating-point samplers and reference routes.

The rotor-frame model below is a second, independent implementation of the
current rate and the torque; the tests check the program's stator-frame
kernels against it.  order1_matrix and sample_step are one-call routes
through the program's own kernels, for checks on a single state or sample.

The nested finite-difference stacks lose accuracy when |di/dt| is large
(each nesting level multiplies the noise of the previous one), so the
higher-order checks sample "moderated" points: the applied voltage is a
resistive + back-EMF balance plus a small offset, which keeps current rates
at a few hundred A/s while still sweeping currents, angle and speed freely.
"""

import math

import numpy as np

from pmsmlab.machine import MachineParams, MachineState, _electrical_rate_ab, _inductance, _rotate, torque_alphabeta
from pmsmlab.observability import _obs_matrix_y1
from pmsmlab.simulation import _apply_map, _sample_maps


def rotor_frame_torque(i_d: float, i_q: float, params: MachineParams) -> float:
    """Electromagnetic torque from rotor-frame currents."""
    return 1.5 * params.p * (params.L_delta * i_d + params.psi_r) * i_q


def rotor_frame_dynamics(i_d, i_q, omega, v_d, v_q, T_l, params: MachineParams) -> tuple:
    """Full state derivative in the rotor frame: (dI_dq/dt as a length-2 array, domega/dt, dtheta/dt).

    dI_dq/dt is the derivative of the rotor-frame current vector: it includes
    the -omega*J2*I_dq frame-rotation term, so it is consistent with the
    stator-frame derivative under the Park map of a rotating trajectory.
    """
    Ld, Lq, R, psi_r = params.Ld, params.Lq, params.R, params.psi_r
    di_d = (v_d - R * i_d + omega * Lq * i_q) / Ld
    di_q = (v_q - R * i_q - omega * Ld * i_d - omega * psi_r) / Lq
    domega = params.p / params.J * (rotor_frame_torque(i_d, i_q, params) - T_l)
    return np.array([di_d, di_q]), domega, omega


def order1_matrix(x, u, params: MachineParams) -> np.ndarray:
    """The analytic order-1 observability matrix at x = (i_alpha, i_beta, omega, theta) under u = (v_alpha, v_beta)."""
    c, s = math.cos(x[3]), math.sin(x[3])
    ind = _inductance(params, c, s)
    di_a, di_b = _electrical_rate_ab(params, x[0], x[1], x[2], c, s, u[0], u[1], ind)
    return _obs_matrix_y1(params, x[0], x[1], x[2], c, s, di_a, di_b, ind)


def sample_step(params: MachineParams, profile, i_a, i_b, theta, v, t, dt, substeps=1) -> tuple:
    """(i_alpha, i_beta, omega, theta) after [t, t+dt] in `substeps` RK4 steps, voltage v = (v_alpha, v_beta) held.

    One _sample_maps row applied by _apply_map, so at t = k*T_s, dt = T_s and
    substeps = ode_substeps this is a run's sample k, bit for bit.
    """
    (row,) = _sample_maps(params, profile, np.array([t]), substeps, dt, theta).tolist()
    return (*_apply_map(row, params.R, i_a, i_b, v[0], v[1], t, dt), row[10], row[11])


def ipmsm_free_states(seed: int, n: int) -> list:
    """Unconstrained (x, u) draws for the salient order-1 determinant check."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x = np.array(
            [
                rng.uniform(-20.0, 20.0),
                rng.uniform(-20.0, 20.0),
                rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 100.0),
                rng.uniform(-math.pi, math.pi),
            ]
        )
        u = rng.uniform(-40.0, 40.0, 2)
        out.append((x, u))
    return out


def _moderated_point(rng, params: MachineParams, omega_span) -> tuple:
    i_d = rng.uniform(-8.0, 20.0)
    i_q = rng.uniform(-20.0, 20.0)
    th = rng.uniform(-math.pi, math.pi)
    om = rng.uniform(*omega_span) * rng.choice([-1.0, 1.0])
    i_a, i_b = _rotate(i_d, i_q, math.cos(th), math.sin(th))
    dv = rng.uniform(0.05, 0.25, 2) * rng.choice([-1.0, 1.0], 2)
    s, c = math.sin(th), math.cos(th)
    va = params.R * i_a + params.psi_r * (-s) * om + dv[0]
    vb = params.R * i_b + params.psi_r * c * om + dv[1]
    x = np.array([i_a, i_b, om, th])
    u = np.array([va, vb])
    return x, u


def spmsm_moving_points(seed: int, n: int, params: MachineParams) -> list:
    """(x, u, T_l) draws for the order-2 determinant check, |omega| in 3..60."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x, u = _moderated_point(rng, params, (3.0, 60.0))
        T_l = rng.uniform(-2.0, 2.0)
        out.append((x, u, T_l))
    return out


def spmsm_singular_points(seed: int, n: int, params: MachineParams) -> list:
    """(x, u, T_l) draws on the order-2 singular set: omega = 0 and the load
    torque balanced so that the acceleration is exactly zero."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x, u = _moderated_point(rng, params, (0.0, 0.0))
        state = MachineState(x[0], x[1], 0.0, x[3])
        T_l = torque_alphabeta(state, params)
        out.append((x, u, T_l))
    return out
