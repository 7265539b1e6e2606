"""The pmsmlab names that the benchmark harness reads must exist.

The harness's worker, inputs, gate, run and record_reference scripts import
pmsmlab by name, module by module.  A program change that deletes or moves
one of those names breaks the benchmark; this test makes that fail in the
tier-1 suite, not only in the harness's own smoke tests.  The output gate
also reads attributes of the objects it is given (a config's scenario, its
profile's omega, its sweep values), which no import shows, so the gate's
three checks run here on short outputs of the shipped configs.
"""

import ast
import importlib
import json
import pathlib
import types

import pytest

from pmsmlab.cli import main
from pmsmlab.config import parse_config

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, name: str):
    """pmsmlab's object for `from module import name`: a submodule or an attribute; None if there is neither."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def _pmsmlab_names(path: pathlib.Path) -> list:
    """(dotted name, resolved object or None) for every pmsmlab name the file imports or reads off a module."""
    tree = ast.parse(path.read_text(), str(path))
    modules, found = {}, []  # local name -> pmsmlab module object
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pmsmlab":
                    obj = importlib.import_module(alias.name)
                    modules[alias.asname or alias.name] = obj
                    found.append((alias.name, obj))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pmsmlab":
            for alias in node.names:
                obj = _resolve(node.module, alias.name)
                if isinstance(obj, types.ModuleType):
                    modules[alias.asname or alias.name] = obj
                found.append((f"{node.module}.{alias.name}", obj))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            module = modules[node.value.id]
            found.append((f"{module.__name__}.{node.attr}", getattr(module, node.attr, None)))
    return found


@pytest.mark.parametrize("name", ["worker.py", "inputs.py", "gate.py", "run.py", "record_reference.py"])
def test_every_pmsmlab_name_the_benchmark_reads_exists(name):
    found = _pmsmlab_names(PERFBENCH / name)
    assert found, f"perfbench/{name} reads no pmsmlab name"
    missing = sorted({dotted for dotted, obj in found if obj is None})
    assert not missing, f"perfbench/{name} reads names that pmsmlab no longer has: {missing}"


def test_the_name_check_sees_attribute_reads_and_missing_names(tmp_path):
    src = tmp_path / "harness.py"
    src.write_text("from pmsmlab import machine\nfrom pmsmlab.machine import park, gone\nmachine.MachineState\nmachine.lost\n")
    found = dict(_pmsmlab_names(src))
    assert {k for k, v in found.items() if v is None} == {"pmsmlab.machine.gone", "pmsmlab.machine.lost"}
    assert {"pmsmlab.machine", "pmsmlab.machine.park", "pmsmlab.machine.MachineState"} <= set(found)


def test_the_output_gate_runs_on_each_verb(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gate = importlib.import_module("gate")
    ref = gate.load_reference()
    checks = {
        "simulate": ("standstill_ipmsm", lambda out, cfg: gate.check_study(out, cfg, ref["study_ipmsm"])),
        "analyze": ("standstill_spmsm", gate.check_analyze),
        "sweep": ("hfi_voltage_sweep", lambda out, cfg: gate.check_sweep(out, cfg, ref["hfi_sweep"])),
    }
    for verb, (name, check) in checks.items():
        doc = json.loads((PERFBENCH.parent / "configs" / f"{name}.json").read_text())
        doc["scenario"]["t_end"] = 0.002  # too short to match the reference: only that each check runs is asserted
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / verb
        assert main([verb, "-c", str(path), "-o", str(out)]) == 0
        fails, observations = check(str(out), parse_config(path.read_text()))
        assert isinstance(fails, list) and isinstance(observations, list)
