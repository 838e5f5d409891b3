"""The measurement helpers that every size sweep under ``scripts/`` shares.

A sweep imports this module by name, which works when it runs as
``python3 scripts/<sweep>.py``: Python puts the script's own directory
first on ``sys.path``.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc

import numpy as np

REPEATS = 3


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A full-rank density matrix ``G G† / tr(G G†)`` of a complex Gaussian ``G``."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def timed(func, *args) -> tuple[float, list[float], float, object]:
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


def layer_times(module, names: tuple[str, ...], func, *args) -> tuple[dict[str, float], object]:
    """Seconds spent in each attribute ``names`` of ``module`` over one call of ``func``, and its result.

    The attributes are wrapped for that call only and restored after it, also
    when it raises.  Only calls made through the module attribute are timed.
    """
    spent = dict.fromkeys(names, 0.0)
    originals = {name: getattr(module, name) for name in names}

    def wrap(name, inner):
        def timed_layer(*a, **k):
            start = time.perf_counter()
            try:
                return inner(*a, **k)
            finally:
                spent[name] += time.perf_counter() - start

        return timed_layer

    try:
        for name, inner in originals.items():
            setattr(module, name, wrap(name, inner))
        out = func(*args)
    finally:
        for name, inner in originals.items():
            setattr(module, name, inner)
    return spent, out


def sweep(sizes, measure, progress, **header) -> dict:
    """``measure`` each size, printing ``progress(size, row)`` after each and
    ``{**header, "sizes": rows}`` as the last line of output; returns the rows."""
    rows = {}
    for size in sizes:
        rows[size] = row = measure(size)
        print(progress(size, row), flush=True)
    print(json.dumps({**header, "sizes": rows}))
    return rows
