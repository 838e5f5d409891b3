"""Time and memory of the exact oracle and the Kraus series on ``qho-damped`` from ``n_max`` 3 to 63.

Run from the root of a checkout, with BLAS on one thread as in ``perfbench``:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/oracle_sweep.py

Each size in ``N_MAX`` (dimension ``d = n_max + 1``) evolves a random
full-rank state drawn from ``SEED`` over ``POINTS`` grid points from 0 to
``STOP``.  The oracle is ``lindblad.exact_trajectory``; the series side is
``kraus.prepare``, ``kraus.series_trajectory`` at ``auto`` and order
``n_max`` (the damped mode's series ends there) and ``kraus.apply_series``
at each point.  The last line of standard output is one JSON object
with, per size, the median wall time of ``REPEATS`` runs of each side, the
``tracemalloc`` peak of one more run of each and the largest entry gap
between the series and the oracle.  Point ``PYTHONPATH`` at
another checkout's ``src`` to measure that tree with the same inputs.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc

import numpy as np

from kraussim import kraus, lindblad, models

N_MAX = (3, 7, 11, 15, 23, 31, 39, 47, 63)
POINTS = 9
STOP = 2.0
REPEATS = 3
SEED = 0


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def run_oracle(model, rho0) -> list[np.ndarray]:
    return [state.matrix for state in lindblad.exact_trajectory(model, rho0, 0.0, STOP, POINTS)]


def run_series(model, rho0, n_max: int) -> list[np.ndarray]:
    prep = kraus.prepare(model)
    ts = np.linspace(0.0, STOP, POINTS)
    return [kraus.apply_series(series, rho0).matrix for series in kraus.series_trajectory(prep, ts, "auto", n_max)]


def timed(func, *args) -> tuple[float, list[float], float, list[np.ndarray]]:
    """Median and all wall times of ``REPEATS`` calls, the ``tracemalloc`` peak in MB of one more, and its result."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        out = func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), times, peak / 2**20, out


def measure(n_max: int) -> dict:
    model = models.build_model("qho-damped", n_max=n_max).model
    rho0 = random_density(np.random.default_rng([SEED, n_max]), model.dim)
    oracle_s, oracle_all, oracle_peak, oracle = timed(run_oracle, model, rho0)
    series_s, series_all, series_peak, series = timed(run_series, model, rho0, n_max)
    return {
        "dim": model.dim,
        "oracle_s": oracle_s,
        "oracle_s_all": oracle_all,
        "oracle_tracemalloc_peak_mb": oracle_peak,
        "series_s": series_s,
        "series_s_all": series_all,
        "series_tracemalloc_peak_mb": series_peak,
        "series_gap": max(float(np.abs(a - b).max()) for a, b in zip(series, oracle)),
    }


def main() -> int:
    results = {}
    for n_max in N_MAX:
        results[n_max] = row = measure(n_max)
        print(
            f"n_max {n_max}: oracle {row['oracle_s']:.4f} s ({row['oracle_tracemalloc_peak_mb']:.2f} MB), "
            f"series {row['series_s']:.4f} s ({row['series_tracemalloc_peak_mb']:.2f} MB), "
            f"series gap {row['series_gap']:.1e}",
            flush=True,
        )
    print(json.dumps({"points": POINTS, "stop": STOP, "repeats": REPEATS, "seed": SEED, "sizes": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
