"""Record the reference trajectories that gate the shot-sampling workloads.

    python3 perfbench/record_reference.py --workload qho-fields
    python3 perfbench/record_reference.py --workload pauli-tomo

Runs each of the ``REFERENCE_SEEDS`` input sets of the workload through
``kraussim.cli.main`` as the benchmark does (BLAS on one thread) and stores
the ``trajectory.csv`` values under the workload's key in
``reference.json``.  Re-record only when a change is meant to alter these
results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from check import REFERENCE_PATH, read_trajectory
from workloads import REFERENCE_CHECKED, REFERENCE_SEEDS, make_config

ROOT = Path(__file__).resolve().parent.parent


def record(workload: str) -> dict:
    from kraussim import cli

    table = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for seed in range(REFERENCE_SEEDS):
            config_path = Path(tmp) / f"{seed}.json"
            config_path.write_text(json.dumps(make_config(workload, seed)))
            outdir = Path(tmp) / f"out{seed}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["experiment", "--config", str(config_path), "--check", "--out", str(outdir)])
            if code != 0:
                raise SystemExit(f"{workload} seed {seed}: exit code {code}")
            columns, rows = read_trajectory(outdir / "trajectory.csv")
            table[str(seed)] = {"columns": columns, "rows": rows}
            shutil.rmtree(outdir)
            print(f"{workload} seed {seed} recorded", file=sys.stderr)
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=REFERENCE_CHECKED)
    args = parser.parse_args()
    # Before numpy is first imported, so BLAS starts single-threaded.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, str(ROOT / "src"))
    table = record(args.workload)
    reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    reference[args.workload] = table
    REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
