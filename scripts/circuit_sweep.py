"""Time and memory of the circuit path on Pauli channels from 2 to 5 qubits.

Run from the root of a checkout, with BLAS on one thread as in ``perfbench``:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/circuit_sweep.py

Each size in ``QUBITS`` draws, from ``SEED`` and the qubit count,
``STRINGS`` distinct non-identity Pauli strings (so the reduced series has
``2**STRINGS`` terms), one damping rate per string from ``GAMMAS`` and a
random pure state.  ``circuits.execute_series_tomography`` runs the
``reduced`` series at ``POINTS`` grid points on [0, ``STOP``], once with
``shots=None`` and once with ``SHOTS`` shots per basis.  The last line of
standard output is one JSON object with, per size:

- the median wall time over ``REPEATS`` runs of the grid in each mode, and
  the shot-draw time, taken as the shot run minus the infinite-shot run;
- the time spent in ``build_kraus_circuit``, ``simulate_statevector``,
  ``_basis_probabilities`` and ``tomography`` over one more run of each
  mode, measured by wrapping those ``circuits`` attributes;
- the term count at each point and the gate count over the grid;
- the ``tracemalloc`` peak of one more run of each mode;
- the largest trace distance between the infinite-shot state and
  ``lindblad.exact_trajectory``, which must stay below ``ORACLE_TOL``
  (the script exits 1 otherwise).

Point ``PYTHONPATH`` at another checkout's ``src`` to measure that tree
with the same inputs.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from kraussim import circuits, kraus, lindblad, models
from kraussim.matkernel import QuantumState, trace_distance

QUBITS = (2, 3, 4, 5)
STRINGS = 6
GAMMAS = (0.1, 1.0)
POINTS = 3
STOP = 1.0
SHOTS = 1024
REPEATS = 3
SEED = 0
ORACLE_TOL = 1e-9
LAYERS = ("build_kraus_circuit", "simulate_statevector", "_basis_probabilities", "tomography")


def draw_inputs(num_qubits: int) -> tuple[list[str], list[float], QuantumState]:
    """The seeded Pauli strings, damping rates and pure state of one size."""
    rng = np.random.default_rng([SEED, num_qubits])
    strings: list[str] = []
    while len(strings) < STRINGS:
        label = "".join(rng.choice(list("IXYZ"), size=num_qubits))
        if set(label) != {"I"} and label not in strings:
            strings.append(label)
    gammas = rng.uniform(*GAMMAS, size=STRINGS).tolist()
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return strings, gammas, QuantumState(amps / np.linalg.norm(amps))


def run_grid(prep, series: list, ts: list[float], psi0: QuantumState, shots: int | None) -> list[np.ndarray]:
    """The tomography estimate at each point, seeded per point as an experiment seeds it."""
    return [
        circuits.execute_series_tomography(prep, s, t, psi0, shots=shots, seed=(SEED, index))[0]
        for index, (t, s) in enumerate(zip(ts, series))
    ]


def layer_times(func, *args) -> tuple[dict[str, float], int]:
    """Seconds spent in each of ``LAYERS`` over one call of ``func``, and the gates built."""
    spent: dict[str, float] = defaultdict(float)
    gates = 0
    originals = {name: getattr(circuits, name) for name in LAYERS}

    def wrap(name, inner):
        def timed_layer(*a, **k):
            nonlocal gates
            start = time.perf_counter()
            try:
                out = inner(*a, **k)
            finally:
                spent[name] += time.perf_counter() - start
            if name == "build_kraus_circuit":
                gates += len(out.gates)
            return out

        return timed_layer

    try:
        for name, inner in originals.items():
            setattr(circuits, name, wrap(name, inner))
        func(*args)
    finally:
        for name, inner in originals.items():
            setattr(circuits, name, inner)
    return {name: spent[name] for name in LAYERS}, gates


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


def measure(num_qubits: int) -> dict:
    strings, gammas, psi0 = draw_inputs(num_qubits)
    model = models.build_model("pauli-xx-zz", pauli_strings=strings, gammas=gammas).model
    prep = kraus.prepare(model)
    ts = np.linspace(0.0, STOP, POINTS).tolist()
    series = list(kraus.series_trajectory(prep, ts, "reduced", 0))
    exact_s, exact_all, exact_peak, states = timed(run_grid, prep, series, ts, psi0, None)
    shots_s, shots_all, shots_peak, _counts = timed(run_grid, prep, series, ts, psi0, SHOTS)
    exact_layers, gates = layer_times(run_grid, prep, series, ts, psi0, None)
    shots_layers, _gates = layer_times(run_grid, prep, series, ts, psi0, SHOTS)
    oracle = lindblad.exact_trajectory(model, psi0.density().matrix, 0.0, STOP, POINTS)
    return {
        "strings": strings,
        "gammas": gammas,
        "terms": [len(s.terms) for s in series],
        "gates": gates,
        "infinite_shot_s": exact_s,
        "infinite_shot_s_all": exact_all,
        "shots_s": shots_s,
        "shots_s_all": shots_all,
        "shot_draw_s": shots_s - exact_s,
        "infinite_shot_layers_s": exact_layers,
        "shots_layers_s": shots_layers,
        "infinite_shot_tracemalloc_peak_mb": exact_peak,
        "shots_tracemalloc_peak_mb": shots_peak,
        "oracle_trace_distance": max(trace_distance(a, b) for a, b in zip(states, oracle)),
    }


def main() -> int:
    results = {}
    for num_qubits in QUBITS:
        results[num_qubits] = row = measure(num_qubits)
        layers = ", ".join(f"{name} {row['shots_layers_s'][name]:.3f} s" for name in LAYERS)
        print(
            f"{num_qubits} qubits: {'/'.join(map(str, row['terms']))} terms, {row['gates']} gates; infinite shots "
            f"{row['infinite_shot_s']:.3f} s, {SHOTS} shots {row['shots_s']:.3f} s (draws "
            f"{row['shot_draw_s']:.3f} s, peak {row['shots_tracemalloc_peak_mb']:.2f} MB); {layers}; "
            f"oracle gap {row['oracle_trace_distance']:.1e}",
            flush=True,
        )
    print(
        json.dumps(
            {"points": POINTS, "stop": STOP, "shots": SHOTS, "repeats": REPEATS, "seed": SEED, "sizes": results}
        )
    )
    return 0 if all(row["oracle_trace_distance"] < ORACLE_TOL for row in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
