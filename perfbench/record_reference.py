"""Record the reference values the output gate compares against.

    python3 perfbench/record_reference.py

Runs the shipped study and sweep once through the CLI and writes the
per-phase summary, the first lock time and the sweep rows to
perfbench/reference.json.  The committed file was recorded at the commit
that introduced the benchmark; re-record only when a change is meant to
alter these results, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
from pmsmlab import cli  # noqa: E402
from pmsmlab.config import parse_config  # noqa: E402
from pmsmlab.report import read_csv  # noqa: E402


def _run(verb: str, config: str, out: str):
    path = os.path.join(ROOT, "configs", config)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([verb, "-c", path, "-o", out])
    if code != 0:
        raise SystemExit(f"{verb} {config} exited {code}")
    with open(path) as fh:
        return parse_config(fh.read())


def main() -> int:
    out = os.path.join(ROOT, ".perfbench", "reference")
    shutil.rmtree(out, ignore_errors=True)
    cfg = _run("simulate", "standstill_ipmsm.json", out)
    cols = read_csv(os.path.join(out, cfg.csv_name))
    study = {"t_lock": gate.first_lock(cols), "phases": gate.phase_summary(cols, cfg)}
    _run("sweep", "hfi_voltage_sweep.json", out)
    rows = gate.read_sweep(os.path.join(out, "sweep.csv"))
    sweep = {"rows": [{k: None if math.isnan(v) else v for k, v in row.items()} for row in rows]}
    shutil.rmtree(out, ignore_errors=True)
    with open(gate.REFERENCE, "w") as fh:
        json.dump({"study_ipmsm": study, "hfi_sweep": sweep}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
