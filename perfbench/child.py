"""Child process of the benchmark: one fresh interpreter per role.

``setup`` times a cold ``import kraussim`` followed by one
``models.build_model`` and ``lindblad.check_conditions`` for the
workload's model.  ``measure`` runs the experiment through
``kraussim.cli.main`` back to back (closed loop) for the given number of
seconds, each time into a fresh directory, gates every invocation and
prints one JSON line.  With ``--trace 1`` a warm-up invocation is followed
by invocations under ``tracer.Tracer`` alternating with untraced ones, the
baseline for the tracing overhead.

The parent starts this script with BLAS pinned to one thread and
``PYTHONPATH`` pointing at the checkout's ``src``.  Modules beyond the few
imported at the top are imported where they are used, so that ``setup``
times a cold import of kraussim and its dependencies.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_SAMPLES = 3
MIN_TRACED = 2


class SpeedProbe:
    """A fixed ~60 ms mix of interpreter loop, small and mid-size complex
    matmuls and a CSV write, the kinds of work the workloads do.

    A shared 2-core VM's speed drifts by up to 2x over tens of seconds with load
    from outside it, and the program's time drifts with it.  Timing this
    probe before and after each measurement gives the machine's speed at
    that moment; ``run.py`` rescales the measurement by it.
    """

    def __init__(self, scratch: Path):
        import numpy as np

        self.path = scratch / "probe.csv"
        rng = np.random.default_rng(0)
        self.small = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))[0]
        self.mid = np.linalg.qr(rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192)))[0]
        self()  # warm-up

    def __call__(self) -> float:
        start = time.perf_counter()
        acc: dict[int, float] = {}
        for i in range(80000):
            acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        for _ in range(3000):
            self.small @ self.small
        for _ in range(16):
            self.mid @ self.mid
        with self.path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            for i in range(4000):
                writer.writerow([repr(i * 0.1), repr(i * 0.2), repr(i * 0.3)])
        self.path.unlink()
        return time.perf_counter() - start


def _require_checkout_package(module) -> None:
    if SRC not in Path(module.__file__).resolve().parents:
        sys.exit(f"kraussim imported from {module.__file__}, not from {SRC}")


def setup(config: dict, scratch: Path) -> dict:
    start = time.perf_counter()
    import kraussim
    from kraussim import lindblad, models

    spec = models.build_model(config["model"], **config.get("model_params", {}))
    lindblad.check_conditions(spec.model)
    elapsed = time.perf_counter() - start
    _require_checkout_package(kraussim)
    return {"setup_s": elapsed, "probe_s": SpeedProbe(scratch)()}


def _environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _invoke(cli, config_path: Path, scratch: Path, steps: int, reference) -> dict:
    """One timed experiment into a fresh directory, gated, then removed."""
    import contextlib
    import io
    import shutil
    import tempfile

    import check

    outdir = Path(tempfile.mkdtemp(dir=scratch)) / "out"
    argv = ["experiment", "--config", str(config_path), "--check", "--out", str(outdir)]
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except Exception as exc:  # a crash of the program is a failed run, not a benchmark error
        code = f"raised {exc!r}"
    wall = time.perf_counter() - start
    written = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file()) if outdir.exists() else 0
    reason = check.failure(outdir, code, steps, reference) if isinstance(code, int) else code
    if reason is not None:
        reason = f"{reason}; program output: {captured.getvalue().strip()[-300:]}"
    shutil.rmtree(outdir.parent)
    return {"wall_s": wall, "bytes": written, "failure": reason}


def measure(args, config: dict) -> dict:
    import resource

    import kraussim
    from kraussim import cli

    import check
    from tracer import Tracer

    _require_checkout_package(kraussim)
    steps = config["time"]["steps"]
    reference = check.load_reference(args.workload, args.seed)
    runs = []
    traced = []

    probe = SpeedProbe(args.scratch)
    probes = [probe()]

    def run_once(tracer=None):
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            run = _invoke(cli, args.config, args.scratch, steps, reference)
        finally:
            if tracer is not None:
                tracer.uninstall()
        probes.append(probe())
        run["traced"] = tracer is not None
        run["probe_s"] = (probes[-2] + probes[-1]) / 2
        runs.append(run)
        return run

    start = time.perf_counter()
    if args.trace:
        # A warm-up, then traced and untraced invocations alternately, so
        # that traced minus untraced wall time is the tracing overhead.
        run_once()
        tracer = Tracer()
        while len(traced) < MIN_TRACED or time.perf_counter() - start < args.seconds:
            run = run_once(tracer)
            layers = tracer.summary()
            layers["cli.bytes_written"] = run["bytes"]
            layers["trace.unattributed_s"] = run["wall_s"] - sum(
                v for k, v in layers.items() if k.endswith(".self_s")
            )
            traced.append(layers)
            run_once()
    else:
        while len(runs) < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
            run_once()
    return {
        "environment": _environment(),
        "runs": runs,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scratch", type=Path)
    args = parser.parse_args()
    config = json.loads(args.config.read_text())
    result = setup(config, args.scratch) if args.role == "setup" else measure(args, config)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
