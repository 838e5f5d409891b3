"""Time and memory of ``mitigation.fit_pauli_channel`` over Pauli channels of 2 to 5 qubits.

Run from the root of a checkout, with BLAS on one thread as in ``perfbench``:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/fit_sweep.py

Each size in ``QUBITS`` fits ``PAIRS`` (exact, noisy) pairs: random full-rank
states, and the same states through a random Pauli channel whose identity
weight is ``1 - STRENGTH``, all drawn from ``SEED``.  The last line of
standard output is one JSON object with, per size, the median wall time of
``REPEATS`` fits, the ``tracemalloc`` peak of one more fit, the iteration
count, the KKT residual and the largest error of the fitted probabilities.  Point ``PYTHONPATH`` at
another checkout's ``src`` to measure that tree with the same inputs.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
import warnings

import numpy as np

from kraussim import mitigation

QUBITS = (2, 3, 4, 5)
PAIRS = 3
REPEATS = 3
SEED = 0
STRENGTH = 0.1


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def make_pairs(num_qubits: int):
    rng = np.random.default_rng([SEED, num_qubits])
    eps = STRENGTH * rng.dirichlet(np.ones(4**num_qubits))
    eps[0] += 1.0 - STRENGTH
    channel = mitigation.PauliChannel(num_qubits, eps)
    states = [random_density(rng, 2**num_qubits) for _ in range(PAIRS)]
    return channel, [(rho, mitigation.apply_pauli_channel(channel, rho).matrix) for rho in states]


def measure(num_qubits: int) -> dict:
    channel, pairs = make_pairs(num_qubits)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            fitted, report = mitigation.fit_pauli_channel(pairs)
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            mitigation.fit_pauli_channel(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {
        "fit_s": statistics.median(times),
        "fit_s_all": times,
        "tracemalloc_peak_mb": peak / 2**20,
        "iterations": report.iterations,
        "kkt_residual": report.kkt_residual,
        "max_eps_error": float(np.abs(fitted.epsilons - channel.epsilons).max()),
        "warnings": sorted({str(w.message) for w in caught}),
    }


def main() -> int:
    results = {}
    for n in QUBITS:
        results[n] = measure(n)
        row = results[n]
        print(
            f"{n} qubits: {row['fit_s']:.4f} s, peak {row['tracemalloc_peak_mb']:.2f} MB, "
            f"{row['iterations']} iterations, max eps error {row['max_eps_error']:.2e}",
            flush=True,
        )
    print(json.dumps({"pairs": PAIRS, "repeats": REPEATS, "seed": SEED, "sizes": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
