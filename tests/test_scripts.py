"""The measurement scripts under ``scripts/`` run at their smallest size, and the output comparison at one seed.

Each script reaches into kraussim by name (the sweeps wrap module functions
by attribute through ``harness.layer_times``), so a rename would break it
silently.  The scripts are imported with ``scripts/`` on ``sys.path``, as
running one puts it there, and without writing bytecode next to them.
"""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from kraussim import mitigation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module(name)


def test_circuit_sweep_smallest_size(monkeypatch):
    sweep = load_script("circuit_sweep", monkeypatch)
    row = sweep.measure(2)
    assert set(row) == {
        "strings", "gammas", "terms", "gates", "infinite_shot_s", "infinite_shot_s_all", "shots_s",
        "shots_s_all", "shot_draw_s", "infinite_shot_layers_s", "shots_layers_s",
        "infinite_shot_tracemalloc_peak_mb", "shots_tracemalloc_peak_mb", "oracle_trace_distance",
    }
    assert row["oracle_trace_distance"] < sweep.ORACLE_TOL
    assert set(row["shots_layers_s"]) == set(sweep.LAYERS)
    # the construction that runs is timed, with its gates shared within each call
    assert row["infinite_shot_layers_s"]["build_kraus_circuit"] > 0
    assert row["shots_layers_s"]["build_kraus_circuit"] > 0
    assert row["gates"] > 0


def test_fit_sweep_smallest_size(monkeypatch):
    row = load_script("fit_sweep", monkeypatch).measure(2)
    assert set(row) == {
        "fit_s", "fit_s_all", "tracemalloc_peak_mb", "iterations", "kkt_residual", "max_eps_error", "warnings"
    }
    assert row["kkt_residual"] < mitigation.KKT_TOL


def test_oracle_sweep_smallest_size(monkeypatch):
    row = load_script("oracle_sweep", monkeypatch).measure(3)
    assert set(row) == {
        "dim", "oracle_s", "oracle_s_all", "oracle_tracemalloc_peak_mb", "oracle_norm_bound", "oracle_applications",
        "series_s", "series_s_all", "series_tracemalloc_peak_mb", "apply_s", "series_gap", "field_build_s",
        "field_build_s_all", "field_build_tracemalloc_peak_mb", "field_step_s", "field_step_s_all",
        "field_step_tracemalloc_peak_mb", "field_gap",
    }
    assert row["oracle_applications"] > 0 and row["oracle_norm_bound"] > 0
    assert row["apply_s"] > 0
    assert row["series_gap"] < 1e-9
    assert row["field_gap"] < 1e-9


def test_layer_times_restores_the_attributes_when_the_call_raises(monkeypatch):
    harness = load_script("harness", monkeypatch)
    module = types.SimpleNamespace(first=lambda: 1, second=lambda: 2)
    originals = (module.first, module.second)

    def failing():
        module.first()
        raise RuntimeError("measured call failed")

    with pytest.raises(RuntimeError, match="measured call failed"):
        harness.layer_times(module, ("first", "second"), failing)
    assert (module.first, module.second) == originals
    spent, out = harness.layer_times(module, ("first", "second"), lambda: module.first() + module.second())
    assert out == 3 and set(spent) == {"first", "second"}


def test_same_outputs_finds_the_checkout_equal_to_itself():
    # every case of one seed runs in fresh processes on both sides, with nothing differing and nothing failing
    src = SCRIPTS.parent / "src"
    done = subprocess.run(
        [sys.executable, "-B", str(SCRIPTS / "same_outputs.py"), str(src), str(src), "--seeds", "1"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"cases": 23, "differ": [], "nonzero_exit": []}


def test_same_outputs_reports_the_largest_gap_of_each_moved_column(monkeypatch, capsys):
    same = load_script("same_outputs", monkeypatch)
    base = b"t,fidelity,entropy\n0.0,1.0,0.5\n1.0,0.9,0.25\n"
    moved = b"t,fidelity,entropy\n0.0,0.99999999999999,0.5\n1.0,0.9000000000001,0.25\n"

    def fake_run(src, argv, config, workdir):
        # the experiment case moves two fidelity values; every other case is the same
        csv_bytes = moved if src.name == "change" and config is not None else base
        return {"code": 0, "stdout": b"", "stderr": b"", "files": {"out/trajectory.csv": csv_bytes}}

    monkeypatch.setattr(same, "run", fake_run)
    summary = same.compare(Path("base"), Path("change"), ["pauli-steps"], range(1))
    assert summary["differ"] == ["pauli-steps/0"]
    assert capsys.readouterr().out.splitlines() == [
        "pauli-steps/0: differs in out/trajectory.csv",
        "pauli-steps/0: out/trajectory.csv largest column gaps: fidelity 1.00e-13",
    ]
    # no gaps are read across different headers or row counts
    assert same.column_gaps(base, moved.replace(b"entropy", b"purity")) == {}
    assert same.column_gaps(base, moved.rsplit(b"1.0,", 1)[0]) == {}
