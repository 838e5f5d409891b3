"""kraussim benchmark: four seeded experiment workloads through the public CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qho-fields --seed 1 --seconds 15 --trace 0

Each workload's config is generated from ``--seed`` (``workloads.py``) and
handed to ``kraussim.cli.main(["experiment", "--config", ...])``.  Work
runs in child processes (``child.py``) with BLAS pinned to one thread:
several cold set-up processes, then one process that repeats the
experiment closed-loop for ``--seconds`` and gates every output
(``check.py``).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer self times and exact counts of a traced run (``tracer.py``).
End-to-end times are rescaled by a speed probe timed next to each
measurement (see ``PROBE_EXPONENT``).  The last line of standard output is
one JSON object; the lines before it print every metric by name and unit,
``failed_frac`` and the raw timings.

``python3 perfbench/run.py --write-spec`` regenerates ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH_ROOT = ROOT / ".perfbench_tmp"
RUN_SECONDS = 20
SETUP_REPEATS = 5
DEADLINE_S = 170.0
# Speed normalisation.  A shared 2-core VM slows down by up to 2x for tens of
# seconds under load from outside it, so a run's raw median moves by tens of
# percent between runs of one seed.  Each timing is rescaled by the speed
# probe timed next to it: measured * (PROBE_REF_S / probe) ** PROBE_EXPONENT.
# PROBE_REF_S is the probe's duration on that VM when quiet.  The probe
# slows down more than some workloads do; over three sets of ten seeds per
# workload, the exponent 0.75 gave the smallest worst-case spread of wall_s
# (0.17, against 0.41 unnormalised; 0 to 1 tried in steps of 0.25).  The
# raw medians are printed too.
PROBE_REF_S = 0.06
PROBE_EXPONENT = 0.75

# (name, unit, bound, meaning)
END_TO_END = (
    ("wall_s", "s", 0.25, "one full experiment invocation, outputs included; median, speed-normalised"),
    ("setup_s", "s", 0.25, "cold import kraussim + build_model + check_conditions; median of fresh processes, speed-normalised"),
    ("peak_rss_mb", "MB", 0.1, "peak resident memory of the process running the workload"),
    ("output_mb", "MB", 0.1, "bytes written by one invocation, summed file sizes"),
)

# Exact counts and trace totals reported next to the per-function spans.
_LAYER_TOTALS = {
    "kraus.terms": ("count", "lower"),
    "circuits.gates": ("count", "lower"),
    "circuits.shots": ("count", "lower"),
    "circuits.statevector_bytes": ("B", "lower"),
    "circuits.survival": ("ratio", "higher"),
    "mitigation.fit_iterations": ("count", "lower"),
    "analysis.field_cells": ("count", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}
PER_LAYER = tuple(
    [(f"{name}.self_s", "s", "lower") for name in tracer.SPAN_NAMES]
    + [(f"{name}.calls", "count", "lower") for name in tracer.SPAN_NAMES]
    + [(name, unit, better) for name, (unit, better) in _LAYER_TOTALS.items()]
)


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": f"{why}; dominated by {layer}"}
            for name, (why, layer) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, unit, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER],
    }


def _child(role: str, config_path: Path, extra: list[str], timeout: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), role, "--config", str(config_path), *extra],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _normalised(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] * (PROBE_REF_S / row["probe_s"]) ** PROBE_EXPONENT for row in rows)


def end_to_end(result: dict, setups: list[dict]) -> dict[str, float]:
    return {
        "wall_s": _normalised(result["runs"], "wall_s"),
        "setup_s": _normalised(setups, "setup_s"),
        "peak_rss_mb": result["peak_rss_mb"],
        "output_mb": statistics.median(run["bytes"] for run in result["runs"]) / 1e6,
    }


def per_layer(result: dict) -> tuple[dict[str, float], list[str]]:
    """Median per-layer metrics of the traced invocations, and self-test failures."""
    traced = result["traced"]
    problems = []
    exact = [name for name, unit, _ in PER_LAYER if unit in ("count", "B", "ratio")]
    for name in exact:
        values = {layers[name] for layers in traced}
        if len(values) != 1:
            problems.append(f"count {name} differs between traced runs of one seed: {sorted(values)}")
    metrics = {name: statistics.median(layers[name] for layers in traced) for name in traced[0]}
    metrics.update({name: traced[0][name] for name in exact})
    warm = result["runs"][1:]
    metrics["trace.wall_s"] = statistics.median(run["wall_s"] for run in warm if run["traced"])
    untraced = statistics.median(run["wall_s"] for run in warm if not run["traced"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    return metrics, problems


def _print_report(args, result: dict, metrics: dict, units: dict, setups: list[dict]) -> None:
    env = result["environment"]
    runs = result["runs"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"invocations {len(runs)}, closed loop, one at a time; wall seconds in order:")
    print("  " + " ".join(f"{run['wall_s']:.4f}" for run in runs))
    print(f"speed probe seconds around each invocation ({PROBE_REF_S} s is the reference speed):")
    print("  " + " ".join(f"{run['probe_s']:.4f}" for run in runs))
    notes = {name: meaning for name, _, _, meaning in END_TO_END}
    notes["wall_s"] += f" ({len(runs)} invocations, raw median {statistics.median(r['wall_s'] for r in runs):.4f} s)"
    if setups:
        notes["setup_s"] += f" ({len(setups)} processes, raw median {statistics.median(r['setup_s'] for r in setups):.4f} s)"
    notes["circuits.statevector_bytes"] = "computed: gate applications x 2^n x 16 B x 2, not measured"
    for name, value in metrics.items():
        print(f"  {name:45s} {value!r:>24} {units[name]}  {notes.get(name, '')}")
    failed = sum(run["failure"] is not None for run in runs)
    print(f"  {'failed_frac':45s} {failed / len(runs)!r:>24} ratio  ({failed}/{len(runs)} runs failed)")
    if args.trace:
        wall = metrics["trace.wall_s"]
        spans = sorted(
            ((k[: -len(".self_s")], v) for k, v in metrics.items() if k.endswith(".self_s")),
            key=lambda item: -item[1],
        )
        print("share of traced wall time by self time:")
        for name, value in spans:
            if value > 0:
                print(f"  {name:45s} {100 * value / wall:6.2f} %")
        print(f"  {'(unattributed)':45s} {100 * metrics['trace.unattributed_s'] / wall:6.2f} %")
    for run in runs:
        if run["failure"] is not None:
            print(f"failed run: {run['failure']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    began = time.monotonic()
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH_ROOT))
    try:
        config_path = scratch / "config.json"
        config_path.write_text(json.dumps(make_config(args.workload, args.seed)))
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(_child("setup", config_path, ["--scratch", str(scratch)], timeout=60))
        result = _child(
            "measure",
            config_path,
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--scratch", str(scratch),
            ],
            timeout=DEADLINE_S - (time.monotonic() - began),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH_ROOT.exists() and not any(SCRATCH_ROOT.iterdir()):
            SCRATCH_ROOT.rmdir()

    problems = [run["failure"] for run in result["runs"] if run["failure"] is not None]
    if args.trace:
        metrics, self_test = per_layer(result)
        problems += self_test
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: metrics[name] for name in units}
    else:
        metrics = end_to_end(result, setups)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    _print_report(args, result, metrics, units, setups)
    for problem in problems:
        print(f"correctness: {problem}")
    summary = {
        "correct": not problems,
        "attempted": len(result["runs"]),
        "failed": sum(run["failure"] is not None for run in result["runs"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
