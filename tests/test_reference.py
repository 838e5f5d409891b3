"""Seeds 0-3 of the two shot-sampling benchmark workloads against their recorded trajectories.

The benchmark's own gate (``perfbench/check.py``) compares every run of
``pauli-tomo`` and ``qho-fields`` with ``perfbench/reference.json`` within
1e-9; running four seeds here makes a change that moves seeded shot results
fail the unit tests, not only the benchmark.  One ulp moved in one
probability can swap two equal-probability counts of one multinomial draw,
so more seeds catch more such changes.  The perfbench files are read,
never written.
"""

import importlib
import json
from pathlib import Path

import pytest

from kraussim import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workload", ["pauli-tomo", "qho-fields"])
def test_workload_seed_matches_reference(tmp_path, monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    check = importlib.import_module("check")
    config = workloads.make_config(workload, seed)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    outdir = tmp_path / "out"
    code = cli.main(["experiment", "--config", str(path), "--check", "--out", str(outdir)])
    reference = check.load_reference(workload, seed)
    assert reference is not None
    assert check.failure(outdir, code, config["time"]["steps"], reference) is None
