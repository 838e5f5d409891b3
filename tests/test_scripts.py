"""The measurement scripts under ``scripts/`` run at their smallest size.

Each script reaches into kraussim by name (``circuit_sweep`` wraps
``circuits`` functions by attribute), so a rename would break it silently.
The scripts are loaded from their files without writing bytecode next to
them.
"""

import importlib.util
import sys
from pathlib import Path

from kraussim import mitigation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_circuit_sweep_smallest_size(monkeypatch):
    sweep = load_script("circuit_sweep", monkeypatch)
    row = sweep.measure(2)
    assert row["oracle_trace_distance"] < sweep.ORACLE_TOL
    assert set(row["shots_layers_s"]) == set(sweep.LAYERS)


def test_fit_sweep_smallest_size(monkeypatch):
    row = load_script("fit_sweep", monkeypatch).measure(2)
    assert row["kkt_residual"] < mitigation.KKT_TOL


def test_oracle_sweep_smallest_size(monkeypatch):
    row = load_script("oracle_sweep", monkeypatch).measure(3)
    assert row["series_gap"] < 1e-9
    assert row["field_gap"] < 1e-9

