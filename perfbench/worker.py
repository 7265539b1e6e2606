"""Run one workload's operations back to back in a fresh interpreter.

    python3 worker.py SPEC.json RESULT.json

SPEC names the workload, the checkout's ``src`` directory, the measuring
time and, for the simulation workloads, the CLI arguments; RESULT receives
one record per operation and the process's peak resident memory.  The loop
is closed: an operation starts when the previous one has returned.  Untraced
operations carry the host-speed probe (hostclock.py).  With tracing on,
untraced and traced operations alternate, so the tracing overhead is
measured under the same host conditions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from hostclock import HostSampler


def _verb_op(cli, argv: list, out_dir: str, probe: HostSampler) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["-o", out_dir])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed operation, not a failed benchmark
        code = None
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0 - probe.total_s
    return {"wall_s": wall, "exit": code, "error": error, "stderr": err.getvalue()[-2000:], "out_dir": out_dir}


def _oracle_op(batch: list, params: dict, probe: HostSampler) -> dict:
    """Closed form, finite-difference stack and their comparison, per point."""
    import numpy as np

    from gate import oracle_agree
    from inputs import ORDER
    from pmsmlab import machine, observability

    points = []
    error = None
    t0 = time.perf_counter()
    try:
        for kind, x, u, T_l in batch:
            tp, probed = time.perf_counter(), probe.total_s
            P = params[kind]
            order = ORDER[kind]
            state = machine.MachineState(x[0], x[1], x[2], x[3], T_l)
            v = machine.alphabeta(u[0], u[1])
            i_dq = machine.park(state.currents, x[3])
            di_dq = machine.dq_current_rate(state, v, P)
            _, omega_dot, _ = machine.dynamics_alphabeta(state, v, P)
            rep = observability.sample_report(P, 0.0, (i_dq.x, i_dq.y), di_dq, x[2], omega_dot, x[3])
            cf = (rep.det_y1, rep.det_y2, rep.det_y3)[order - 1]
            stack = observability.lie_gradient_stack(
                observability.ModelKind.ELECTROMECHANICAL, np.array(x), np.array(u), order, P, T_l=T_l
            )
            ok, within, rel = oracle_agree(order, cf, stack[[0, 1, 2 * order, 2 * order + 1]])
            points.append([order, time.perf_counter() - tp - (probe.total_s - probed), ok, within, rel])
    except Exception:
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0 - probe.total_s
    return {"wall_s": wall, "exit": 0 if error is None else None, "error": error, "points": points}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import pmsmlab
    from pmsmlab import cli
    from pmsmlab.machine import MachineParams

    if not os.path.abspath(pmsmlab.__file__).startswith(spec["src"] + os.sep):
        print(f"pmsmlab imported from {pmsmlab.__file__}, not {spec['src']}", file=sys.stderr)
        return 1

    if spec["workload"] == "oracle_points":
        with open(spec["points"]) as fh:
            pool = json.load(fh)
        params = {
            "free": MachineParams.from_dq(**pool["salient"]),
            "moving": MachineParams(**pool["round"]),
            "singular": MachineParams(**pool["round"]),
        }
        batches = pool["batches"]
        run_op = lambda k, probe: _oracle_op(batches[k % len(batches)], params, probe)
    else:
        run_op = lambda k, probe: _verb_op(cli, spec["argv"], os.path.join(spec["out"], f"op{k}"), probe)

    def untraced(k: int) -> dict:
        with HostSampler() as probe:
            rec = run_op(k, probe)
        return rec | {"speed": probe.speed(), "traced": False}

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()

    def traced(k: int) -> dict:
        tracer.reset(k)
        tracer.install()
        try:
            if spec["workload"] == "oracle_points":
                with tracer.layer("oracle.batch", "oracle_batch"):
                    rec = run_op(k, HostSampler())
            else:
                rec = run_op(k, HostSampler())
        finally:
            tracer.uninstall()
        return rec | {"speed": float("nan"), "traced": True, "layers": tracer.snapshot()}

    ops = []
    t_start = time.perf_counter()
    while not ops or time.perf_counter() - t_start < spec["seconds"]:
        ops.append(untraced(len(ops)))
        if tracer is not None:
            ops.append(traced(len(ops)))

    result = {
        "ops": ops,
        "measured_s": time.perf_counter() - t_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        tracer.dump_spans(spec["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
