"""Per-workload correctness gate for one experiment invocation.

Every workload runs with ``--check``.  On ``qho-oracle`` and
``pauli-steps`` that is a real 1e-9 trace-distance bound against the
``exp(tD)`` oracle, so a zero exit code is the gate.  On the shot-sampling
workloads the bound is infinite, so ``trajectory.csv`` is compared with
the values in ``reference.json`` (recorded with ``record_reference.py``;
seeded shot counts are deterministic).  Only ``trajectory.csv`` is read:
the layout of ``fields/`` is free to change.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from workloads import REFERENCE_CHECKED, REFERENCE_SEEDS

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_TOL = 1e-9


def read_trajectory(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        columns = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return columns, rows


def load_reference(workload: str, seed: int) -> dict | None:
    if workload not in REFERENCE_CHECKED:
        return None
    return json.loads(REFERENCE_PATH.read_text())[workload][str(seed % REFERENCE_SEEDS)]


def failure(outdir: Path, exit_code: int, steps: int, reference: dict | None) -> str | None:
    """Why the invocation failed its gate, or None when it passed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    path = outdir / "trajectory.csv"
    if not path.is_file():
        return "no trajectory.csv written"
    columns, rows = read_trajectory(path)
    if len(rows) != steps:
        return f"trajectory has {len(rows)} rows, expected {steps}"
    if reference is None:
        return None
    if columns != reference["columns"] or len(rows) != len(reference["rows"]):
        return "trajectory columns differ from the reference"
    gaps = [
        abs(value - ref) / max(1.0, abs(ref))
        for row, ref_row in zip(rows, reference["rows"])
        for value, ref in zip(row, ref_row)
    ]
    bad = [gap for gap in gaps if not gap <= REFERENCE_TOL]  # NaN counts as bad
    if bad:
        return f"{len(bad)} trajectory values differ from the reference by more than {REFERENCE_TOL:.0e} (first gap {bad[0]:.3e})"
    return None
