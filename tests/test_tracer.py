"""The benchmark's span tracer still finds and wraps every function it names.

``perfbench/tracer.py`` looks up each ``TARGETS`` entry by name when it is
installed, so renaming or deleting one of those functions breaks every
traced benchmark run.  The perfbench files are read, never written.
"""

import importlib
import sys
from pathlib import Path

from kraussim import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_a_kraus_circuit_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        argv = ["experiment", "--preset", "pauli-xx-zz", "--method", "kraus-circuit", "--steps", "3"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["cli.run_experiment.calls"] == 4  # one span per next(): three steps, then the end
    assert summary["circuits.execute_series_tomography.calls"] == 3
