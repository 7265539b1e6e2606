"""Carrier amplitude sweep for the round machine at standstill.

A voltage carrier on the estimated d-axis makes the order-1 determinant
nonzero whenever the angle error is away from 0 (mod pi), so by the rank
condition the injection restores local observability.  This sweep puts
that side by side with what the filter actually does: the closed-form
determinant at the carrier peak grows linearly with the amplitude, while
the measured angle error over the injection window does not follow suit.
An instantaneous rank statement is not a convergence guarantee.
"""

from pathlib import Path

import numpy as np

from pmsmlab.cli import carrier_peak_det, run_sweep
from pmsmlab.config import parse_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "hfi_voltage_sweep.json"


def main() -> None:
    cfg = parse_config(CONFIG.read_text())
    print(f"sweeping {cfg.sweep.parameter} over {list(cfg.sweep.values)}")
    print(f"{'V_hf':>6} {'det at peak':>13} {'max|err| win':>13} {'mean|err| win':>14} {'final|err|':>11}")
    for value, scn, log in run_sweep(cfg):
        window = (log.t >= scn.injection.t_start) & (log.t < scn.injection.t_end)
        err = np.abs(log.theta_err)
        print(
            f"{value:>6g} {carrier_peak_det(scn):>13.4g} {err[window].max():>13.4f}"
            f" {err[window].mean():>14.4f} {err[-1]:>11.4f}"
        )


if __name__ == "__main__":
    main()
