"""Seeded input generation.

The workload seed is the only source of randomness: it sets the noise seed
of the generated analyze config and draws the oracle operating points.  The
program receives only the files written here.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from pmsmlab.machine import MachineParams, MachineState, torque_alphabeta

# Oracle machines: the acceptance samplers were tuned against J = 0.01.
SALIENT = {"R": 0.01, "Ld": 0.5e-3, "Lq": 0.8e-3, "psi_r": 0.0225, "p": 2, "J": 0.01}
ROUND = {"R": 0.01, "L0": 0.65e-3, "L2": 0.0, "psi_r": 0.0225, "p": 2, "J": 0.01}

# One oracle batch, in the 5:5:2 ratio of acceptance criteria 1 and 2
# (100 free states, 100 moving points, 40 singular points).  Order 3 costs
# ~36 ms a point and the others under 2 ms, so a batch takes ~0.4 s.
BATCH = (("free", 25), ("moving", 25), ("singular", 10))
ORDER = {"free": 1, "moving": 2, "singular": 3}
POOL_BATCHES = 64  # reused in order if a run outlasts them

NOISE_STD = 0.05  # A, on both current channels; the currents are ~15 A


def analyze_config(root: str, seed: int, path: str) -> str:
    """The shipped round-machine study with measurement noise seeded by `seed`."""
    with open(os.path.join(root, "configs", "standstill_spmsm.json")) as fh:
        cfg = json.load(fh)
    cfg["scenario"]["noise_std"] = NOISE_STD
    cfg["scenario"]["seed"] = seed
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return path


def _free_state(rng) -> tuple:
    # as tests/_samplers.ipmsm_free_states
    x = [
        rng.uniform(-20.0, 20.0),
        rng.uniform(-20.0, 20.0),
        rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 100.0),
        rng.uniform(-math.pi, math.pi),
    ]
    u = rng.uniform(-40.0, 40.0, 2)
    return x, [float(v) for v in u], 0.0


def _moderated(rng, omega_span) -> tuple:
    # as tests/_samplers._moderated_point: voltage balances resistance and
    # back-EMF plus a small offset, keeping current rates at a few hundred A/s
    R, psi_r = ROUND["R"], ROUND["psi_r"]
    i_d = rng.uniform(-8.0, 20.0)
    i_q = rng.uniform(-20.0, 20.0)
    th = rng.uniform(-math.pi, math.pi)
    om = rng.uniform(*omega_span) * rng.choice([-1.0, 1.0])
    s, c = math.sin(th), math.cos(th)
    i_a, i_b = c * i_d - s * i_q, s * i_d + c * i_q
    dv = rng.uniform(0.05, 0.25, 2) * rng.choice([-1.0, 1.0], 2)
    u = [R * i_a - psi_r * s * om + dv[0], R * i_b + psi_r * c * om + dv[1]]
    return [i_a, i_b, om, th], [float(v) for v in u]


def _moving_point(rng) -> tuple:
    x, u = _moderated(rng, (3.0, 60.0))
    return x, u, rng.uniform(-2.0, 2.0)


def _singular_point(rng) -> tuple:
    # omega = 0 and the load torque equal to the electrical torque, so the
    # acceleration is exactly zero: the order-2 singular set.
    x, u = _moderated(rng, (0.0, 0.0))
    return x, u, torque_alphabeta(MachineState(x[0], x[1], 0.0, x[3]), MachineParams(**ROUND))


def oracle_points(seed: int, path: str, batches: int = POOL_BATCHES, batch=BATCH) -> str:
    """Write `batches` batches of (kind, x, u, T_l) points drawn from `seed`."""
    draw = {"free": _free_state, "moving": _moving_point, "singular": _singular_point}
    rngs = {kind: np.random.default_rng([seed, k]) for k, kind in enumerate(draw)}
    pool = []
    for _ in range(batches):
        pts = []
        for kind, n in batch:
            for _ in range(n):
                x, u, T_l = draw[kind](rngs[kind])
                pts.append([kind, [float(v) for v in x], u, float(T_l)])
        pool.append(pts)
    with open(path, "w") as fh:
        json.dump({"seed": seed, "salient": SALIENT, "round": ROUND, "batches": pool}, fh)
    return path
