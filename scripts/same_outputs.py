"""Check that two ``src`` trees give byte-identical outputs on the benchmark workloads and the export commands.

Run from the root of a checkout, naming the ``src`` directory of each tree:

    python3 scripts/same_outputs.py BASE_SRC CHANGE_SRC [--seeds 0-3] [--workload NAME ...]

Each case runs once against each tree, in a fresh interpreter with ``PYTHONPATH`` on that ``src``,
no bytecode cache and BLAS on one thread, inside its own empty directory with relative paths, and
the ``src`` path in what it prints (a warning names its module's file) reads ``<src>``, so that
nothing a run prints names the tree it ran.  The cases are:

* ``kraussim experiment --config cfg.json --check --out out`` for each workload and seed, with the
  config that ``perfbench/workloads.py`` generates (imported here, never written to);
* ``kraussim experiment --preset P --check --out out`` for each of the four presets, which runs the
  ``twirl-qdc`` mitigation and the truncated ``schwinger-jz`` series that no workload runs, and for
  ``pauli-xx-zz`` with ``--method exact``, ``trotter`` and ``kraus-circuit`` and with ``--series
  factored`` under ``kraus`` and ``kraus-circuit``; two of them span several blocks of grid points:
  ``pauli-xx-zz --steps 60 --mitigation pauli-fit`` and ``qho-cat --steps 130`` (``twirl-qdc``);
* ``kraussim check`` for each registry model;
* ``kraussim circuit --time 0.5`` for ``pauli-xx-zz`` (term circuits and ``--group``),
  ``qho-damped --scheme gray`` and ``schwinger-jz --order 2``.

A case is the same when both runs give the same exit code, the same standard output and error,
and the same set of output files with the same bytes.  Each differing case is printed.  When both
runs wrote a ``trajectory.csv`` under one header and with as many rows, a second line gives the
largest absolute gap of each column that moved, so a change that moves columns by rounding shows
by how much.  The last line is one JSON object: the case count, the names of the cases that differ
and of those whose base run exited nonzero.  The exit code is 1 when any case differs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # perfbench/ is imported, and nothing is written under it
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import GENERATORS  # noqa: E402

MODEL_KEYS = ("pauli-xx-zz", "schwinger-jz", "qho-damped", "qho-cat")
PRESET_ARGS = (
    *(("--preset", key) for key in MODEL_KEYS),  # each preset is named after its model
    ("--preset", "pauli-xx-zz", "--method", "exact"),
    ("--preset", "pauli-xx-zz", "--method", "trotter"),
    ("--preset", "pauli-xx-zz", "--method", "kraus-circuit"),
    ("--preset", "pauli-xx-zz", "--series", "factored", "--method", "kraus"),
    ("--preset", "pauli-xx-zz", "--series", "factored", "--method", "kraus-circuit"),
    # grids that the series evaluates in several blocks of points (see cli.BLOCK_BYTES)
    ("--preset", "pauli-xx-zz", "--steps", "60", "--mitigation", "pauli-fit"),
    ("--preset", "qho-cat", "--steps", "130"),
)
CIRCUIT_ARGS = (
    ("--model", "pauli-xx-zz"),
    ("--model", "pauli-xx-zz", "--group"),
    ("--model", "qho-damped", "--scheme", "gray"),
    ("--model", "schwinger-jz", "--order", "2"),
)


def seed_range(text: str) -> range:
    """``"3"`` or an inclusive range ``"0-63"``."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def cases(workloads, seeds) -> dict[str, tuple[list[str], dict | None]]:
    """Case name -> (command-line arguments, config written to ``cfg.json`` or None)."""
    out: dict[str, tuple[list[str], dict | None]] = {}
    for name in workloads:
        for seed in seeds:
            argv = ["experiment", "--config", "cfg.json", "--check", "--out", "out"]
            out[f"{name}/{seed}"] = (argv, GENERATORS[name](seed))
    for args in PRESET_ARGS:
        out["experiment/" + " ".join(args[1:])] = (["experiment", *args, "--check", "--out", "out"], None)
    for key in MODEL_KEYS:
        out[f"check/{key}"] = (["check", "--model", key], None)
    for args in CIRCUIT_ARGS:
        out["circuit/" + " ".join(args[1:])] = (["circuit", "--time", "0.5", *args], None)
    return out


def run(src: Path, argv: list[str], config: dict | None, workdir: Path) -> dict:
    """Exit code, printed text (``src`` read ``<src>``) and output files (relative path -> bytes) of one
    fresh-process run."""
    workdir.mkdir()
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config))
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "PYTHONDONTWRITEBYTECODE": "1",
        **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
    }
    done = subprocess.run(
        [sys.executable, "-B", "-m", "kraussim.cli", *argv], cwd=workdir, env=env, capture_output=True
    )
    files = {
        str(path.relative_to(workdir)): path.read_bytes()
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.name != "cfg.json"
    }
    stdout, stderr = (text.replace(os.fsencode(src), b"<src>") for text in (done.stdout, done.stderr))
    return {"code": done.returncode, "stdout": stdout, "stderr": stderr, "files": files}


def differences(base: dict, change: dict) -> list[str]:
    """What differs between two runs of one case, empty when they are the same."""
    found = [part for part in ("code", "stdout", "stderr") if base[part] != change[part]]
    names = sorted(set(base["files"]) | set(change["files"]))
    return found + [name for name in names if base["files"].get(name) != change["files"].get(name)]


def column_gaps(base: bytes, change: bytes) -> dict[str, float]:
    """Largest absolute gap of each column whose text differs between two CSV files, in header order;
    empty when their headers or row counts differ."""
    (head, *rows), (other, *moved) = (list(csv.reader(io.StringIO(text.decode()))) for text in (base, change))
    if head != other or len(rows) != len(moved):
        return {}
    gaps = {}
    for j, name in enumerate(head):
        pairs = [(a[j], b[j]) for a, b in zip(rows, moved) if a[j] != b[j]]
        if pairs:
            gaps[name] = max(abs(float(a) - float(b)) for a, b in pairs)
    return gaps


def compare(base_src: Path, change_src: Path, workloads, seeds) -> dict:
    differ, nonzero = [], []
    table = cases(workloads, seeds)
    with tempfile.TemporaryDirectory() as scratch:
        for index, (name, (argv, config)) in enumerate(table.items()):
            base = run(base_src, argv, config, Path(scratch) / f"{index}-base")
            change = run(change_src, argv, config, Path(scratch) / f"{index}-change")
            found = differences(base, change)
            if base["code"] != 0:
                nonzero.append(name)
            if found:
                differ.append(name)
                print(f"{name}: differs in {', '.join(found)}", flush=True)
                csv_name = next((f for f in found if Path(f).name == "trajectory.csv"), None)
                if csv_name in base["files"] and csv_name in change["files"]:
                    gaps = column_gaps(base["files"][csv_name], change["files"][csv_name])
                    if gaps:
                        moved = ", ".join(f"{column} {gap:.2e}" for column, gap in gaps.items())
                        print(f"{name}: {csv_name} largest column gaps: {moved}", flush=True)
    return {"cases": len(table), "differ": differ, "nonzero_exit": nonzero}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=seed_range, default=range(4), help="a seed or an inclusive range, e.g. 0-63")
    parser.add_argument("--workload", action="append", choices=tuple(GENERATORS), help="default: all four")
    args = parser.parse_args(argv)
    summary = compare(args.base_src.resolve(), args.change_src.resolve(), args.workload or tuple(GENERATORS), args.seeds)
    print(json.dumps(summary))
    return 1 if summary["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
