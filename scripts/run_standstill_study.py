"""Standstill-to-motion study on both machine types.

Runs the same scenario (hold at zero speed with a q-axis carrier window,
then ramp to 50 rad/s) on the salient and the magnetically round machine,
writes both trajectory CSVs and prints the per-phase summaries with the
angle lock-in times.  The salient machine locks during the injection
window; the round one stays blind until the ramp makes the back-EMF
visible.
"""

import argparse
import os

import numpy as np

from pmsmlab.report import summarize, write_csv
from pmsmlab.simulation import MachineKind, run_scenario, standstill_study_scenario

LOCK_TOL = 0.05  # rad


def first_lock(log, t_from: float) -> float:
    idx = np.flatnonzero((log.t >= t_from) & (np.abs(log.theta_err) < LOCK_TOL))
    return float(log.t[idx[0]]) if idx.size else float("nan")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="directory for trajectory CSVs")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    for kind in (MachineKind.IPMSM, MachineKind.SPMSM):
        scn = standstill_study_scenario(kind)
        log = run_scenario(scn)
        path = os.path.join(args.out, f"study_{kind.value}.csv")
        write_csv(log, path)

        print(f"=== {kind.value} ===")
        print(summarize(log))
        print(
            f"lock (|theta_err| < {LOCK_TOL}) after injection start: "
            f"{first_lock(log, scn.injection.t_start):.4g} s"
        )
        print(f"lock after ramp start: {first_lock(log, scn.profile.times[1]):.4g} s")
        print(f"wrote {path}")
        print()


if __name__ == "__main__":
    main()
