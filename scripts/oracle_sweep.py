"""Time and memory of the exact oracle, the Kraus series and the Wigner field on ``qho-damped`` from ``n_max`` 3 to 63.

Run from the root of a checkout, with BLAS on one thread as in ``perfbench``:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/oracle_sweep.py

Each size in ``N_MAX`` (dimension ``d = n_max + 1``) evolves a random
full-rank state drawn from ``SEED`` over ``POINTS`` grid points from 0 to
``STOP``.  The oracle is ``lindblad.exact_trajectory``; the series side is
``kraus.prepare``, ``kraus.series_trajectory`` at ``auto`` and order
``n_max`` (the damped mode's series ends there), in the blocks of points
that ``cli.block_points`` gives an experiment, and ``kraus.apply_series``
on each block.  The field side is ``analysis.WignerNodes`` on the
default grid, built once, and one ``analysis.wigner`` step of the random
state.  The last line of standard output is one JSON object with, per
size, the median wall time of ``REPEATS`` runs of each side, the
``tracemalloc`` peak of one more run of each, the norm bound of the
oracle's generator (``oracle_norm_bound``, which sets its Taylor plan) and
the generator applications of one oracle run (``oracle_applications``),
the time spent in
``kraus.apply_series`` over one more series run (``apply_s``: the channel
action apart from the series construction), the largest entry gap
between the series and the oracle, and the largest gap between the field
and its closed form evaluated directly on every grid cell.  Point
``PYTHONPATH`` at another checkout's ``src`` to measure that tree with the
same inputs.
"""

from __future__ import annotations

import numpy as np

from kraussim import analysis, cli, kraus, lindblad, models

from harness import REPEATS, layer_times, random_density, sweep, timed

N_MAX = (3, 7, 11, 15, 23, 31, 39, 47, 63)
POINTS = 9
STOP = 2.0
SEED = 0


def run_oracle(model, rho0) -> list[np.ndarray]:
    return list(lindblad.exact_trajectory(model, rho0, 0.0, STOP, POINTS))


def oracle_plan(model, rho0) -> tuple[float, int]:
    """The norm bound of the generator that one oracle run builds, and how often that run applies it."""
    built, applied = [], []
    build, apply = lindblad._shifted_generator, lindblad._ShiftedGenerator.__call__

    def building(*args):
        built.append(build(*args))
        return built[-1]

    def applying(gen, x):
        applied.append(x.shape[0])
        return apply(gen, x)

    lindblad._shifted_generator, lindblad._ShiftedGenerator.__call__ = building, applying
    try:
        run_oracle(model, rho0)
    finally:
        lindblad._shifted_generator, lindblad._ShiftedGenerator.__call__ = build, apply
    (gen,) = built
    return gen.norm, len(applied)


def run_series(model, rho0, n_max: int) -> list[np.ndarray]:
    prep = kraus.prepare(model)
    ts = np.linspace(0.0, STOP, POINTS)
    blocks = kraus.series_trajectory(prep, ts, "auto", n_max, lambda terms: cli.block_points(terms, model.dim))
    return [state for block in blocks for state in kraus.apply_series(block, rho0)]


def measure(n_max: int) -> dict:
    model = models.build_model("qho-damped", n_max=n_max).model
    rho0 = random_density(np.random.default_rng([SEED, n_max]), model.dim)
    oracle_s, oracle_all, oracle_peak, oracle = timed(run_oracle, model, rho0)
    norm_bound, applications = oracle_plan(model, rho0)
    series_s, series_all, series_peak, series = timed(run_series, model, rho0, n_max)
    series_layers, _ = layer_times(kraus, ("apply_series",), run_series, model, rho0, n_max)
    grid = analysis.default_grid()
    build_s, build_all, build_peak, nodes = timed(analysis.WignerNodes, grid, model.dim)
    step_s, step_all, step_peak, field = timed(analysis.wigner, rho0, grid, nodes)
    return {
        "dim": model.dim,
        "oracle_s": oracle_s,
        "oracle_s_all": oracle_all,
        "oracle_tracemalloc_peak_mb": oracle_peak,
        "oracle_norm_bound": norm_bound,
        "oracle_applications": applications,
        "series_s": series_s,
        "series_s_all": series_all,
        "series_tracemalloc_peak_mb": series_peak,
        "apply_s": series_layers["apply_series"],
        "series_gap": max(float(np.abs(a - b).max()) for a, b in zip(series, oracle)),
        "field_build_s": build_s,
        "field_build_s_all": build_all,
        "field_build_tracemalloc_peak_mb": build_peak,
        "field_step_s": step_s,
        "field_step_s_all": step_all,
        "field_step_tracemalloc_peak_mb": step_peak,
        "field_gap": float(np.abs(field - analysis._wigner_closed_form(rho0, grid.x, grid.p)).max()),
    }


def progress(n_max: int, row: dict) -> str:
    return (
        f"n_max {n_max}: oracle {row['oracle_s']:.4f} s ({row['oracle_tracemalloc_peak_mb']:.2f} MB, bound "
        f"{row['oracle_norm_bound']:.1f}, {row['oracle_applications']} applications), "
        f"series {row['series_s']:.4f} s ({row['series_tracemalloc_peak_mb']:.2f} MB, apply {row['apply_s']:.4f} s), "
        f"series gap {row['series_gap']:.1e}; field build {row['field_build_s'] * 1e3:.2f} ms "
        f"({row['field_build_tracemalloc_peak_mb']:.2f} MB), step {row['field_step_s'] * 1e3:.2f} ms "
        f"({row['field_step_tracemalloc_peak_mb']:.2f} MB), field gap {row['field_gap']:.1e}"
    )


if __name__ == "__main__":
    sweep(N_MAX, measure, progress, points=POINTS, stop=STOP, repeats=REPEATS, seed=SEED)
