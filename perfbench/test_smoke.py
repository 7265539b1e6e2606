"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced with a 20 ms run length
(simulation workloads) or five oracle points per batch.  The test checks
that every named metric is printed with its unit, that the JSON line has
the contract's shape, and that the output gate runs: on a shortened run the
reference comparisons of study_ipmsm and hfi_sweep must fail.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

TINY = {"t_end": 0.02, "batch": (("free", 2), ("moving", 2), ("singular", 1)), "setup_reps": 1}
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _printed(lines: list, name: str, unit: str) -> bool:
    return any(line.split()[:3:2] == [name, unit] for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_metrics_and_gate(workload):
    report = run.measure(workload, 3, 0.01, False, **TINY)
    result, lines = report["result"], report["lines"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0.0
    named = ["setup_s", "wall_s", "peak_rss_mb", "failed_frac"]
    named += ["point_ms_p50", "point_ms_p99"] if workload == "oracle_points" else ["realtime_factor"]
    for name in named:
        assert _printed(lines, name, {**run.END_TO_END, **run.REPORTED}[name]), name
    if workload in ("study_ipmsm", "hfi_sweep"):
        # a 20 ms run cannot match the full-length reference
        assert result["failed"] == result["attempted"] and not result["correct"]
        assert any(line.startswith("FAILED") for line in lines)
    else:
        assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_layers(workload):
    report = run.measure(workload, 3, 0.01, True, **TINY)
    metrics = report["result"]["metrics"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}
    value = {k: v["value"] for k, v in metrics.items()}
    # the self times partition the traced operation
    root = value["cli.verb_s"] + value["oracle.batch_s"]
    assert value["trace.self_sum_s"] == pytest.approx(root, rel=1e-9, abs=1e-9)
    assert root == pytest.approx(value["trace.op_s"], rel=0.01, abs=1e-3)
    if workload == "oracle_points":
        assert value["observability.lie_stack_calls"] == 5
        assert value["observability.sample_report_calls"] == 5
        assert value["simulation.integrate_calls"] == 0
    else:
        steps = 200 * (5 if workload == "hfi_sweep" else 1)
        assert value["simulation.integrate_calls"] == 10 * steps
        assert value["simulation.profile_calls"] >= 60 * steps
        ekf_steps = 0 if workload == "analyze_spmsm_noisy" else steps
        assert value["ekf.step_calls"] == ekf_steps
        assert value["machine.rate_calls"] == 40 * steps + 2 * ekf_steps
    spans = os.path.join(ROOT, ".perfbench", f"{workload}-seed3-trace1", "spans.json")
    with open(spans) as fh:
        names = {s["name"] for s in json.load(fh)}
    assert names >= ({"oracle_batch"} if workload == "oracle_points" else {"verb", "scenario"})


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_ipmsm", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
