"""Seeded experiment configs for the four benchmark workloads.

Every random input (states, gammas, Pauli strings, noise, shot seed) is
drawn from ``random.Random`` seeded with the workload seed, so one seed
always gives one config.  The program under test only ever sees the
generated config JSON.

The two shot-sampling workloads (``qho-fields``, ``pauli-tomo``) cannot be
checked against the oracle by ``--check`` (their bound is infinite), so
their trajectories are compared with values recorded in
``reference.json``.  References exist for ``REFERENCE_SEEDS`` input sets;
those workloads draw their inputs from ``seed % REFERENCE_SEEDS``.
"""

from __future__ import annotations

import math
import random

REFERENCE_SEEDS = 64

# name -> (why it is in the benchmark, layer predicted to dominate it)
WORKLOADS = {
    "qho-fields": (
        "qho-damped preset, d=4, 19 steps, 1024 shots, quadratures and all three fields, ~46 MB out",
        "output writing and field evaluation (cli.emit_report ~91%, analysis ~4%)",
    ),
    "qho-oracle": (
        "qho-damped at d=24, truncated series of order 23, seeded state, 9 steps, quadratures only",
        "dense exp(tD) oracle (lindblad.exact_evolve ~98%)",
    ),
    "pauli-tomo": (
        "4-qubit Pauli channel, 6 seeded jump strings, 1024 shots, seeded Pauli noise, pauli-fit mitigation",
        "circuits, tomography and mitigation (circuits ~85%, mitigation ~6%)",
    ),
    "pauli-steps": (
        "pauli-xx-zz preset over 400 short steps with a seeded state and gammas",
        "per-step model-invariant series work (kraus + check_conditions ~62%)",
    ),
}

# Workloads gated by recorded trajectories; the others by a real 1e-9 --check.
REFERENCE_CHECKED = ("qho-fields", "pauli-tomo")


def _random_state(rng: random.Random, dim: int) -> list[list[float]]:
    amps = [(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
    norm = math.sqrt(sum(re * re + im * im for re, im in amps))
    return [[re / norm, im / norm] for re, im in amps]


def _pauli_noise(rng: random.Random, num_qubits: int, strength: float) -> list[float]:
    """Identity with weight 1 - strength, the rest spread over all strings."""
    others = [rng.random() for _ in range(4**num_qubits - 1)]
    total = sum(others)
    eps = [1.0 - strength] + [strength * v / total for v in others]
    # Put the rounding residue on the identity so the sum is 1 to 1e-15.
    eps[0] = 1.0 - sum(eps[1:])
    return eps


def qho_fields(seed: int) -> dict:
    rng = random.Random(f"qho-fields/{seed % REFERENCE_SEEDS}")
    return {
        "model": "qho-damped",
        "model_params": {"gamma": rng.uniform(0.5, 1.5)},
        "state": _random_state(rng, 4),
        "time": {"start": 0.0, "stop": 3.0, "steps": 19},
        "method": "kraus-circuit-shots",
        "order": 3,
        "shots": 1024,
        "seed": rng.randrange(2**31),
        "outputs": ["quadratures", "position-density", "momentum-density", "wigner"],
    }


def qho_oracle(seed: int) -> dict:
    rng = random.Random(f"qho-oracle/{seed}")
    return {
        "model": "qho-damped",
        "model_params": {"n_max": 23},
        "state": _random_state(rng, 24),
        "time": {"start": 0.0, "stop": 3.0, "steps": 9},
        "method": "kraus",
        "series": "truncated",
        "order": 23,
        "outputs": ["quadratures"],
    }


def pauli_tomo(seed: int) -> dict:
    rng = random.Random(f"pauli-tomo/{seed % REFERENCE_SEEDS}")
    labels = ["".join(rng.choice("IXYZ") for _ in range(4)) for _ in range(64)]
    strings = [s for i, s in enumerate(labels) if s != "IIII" and s not in labels[:i]][:6]
    return {
        "model": "pauli-xx-zz",
        "model_params": {
            "pauli_strings": strings,
            "gammas": [rng.uniform(0.1, 1.0) for _ in strings],
        },
        "state": _random_state(rng, 16),
        "time": {"start": 0.0, "stop": 1.0, "steps": 3},
        "method": "kraus-circuit-shots",
        "series": "reduced",
        "shots": 1024,
        "seed": rng.randrange(2**31),
        "noise": {"kind": "pauli", "epsilons": _pauli_noise(rng, 4, 0.05)},
        "mitigation": "pauli-fit",
        "outputs": ["populations"],
    }


def pauli_steps(seed: int) -> dict:
    rng = random.Random(f"pauli-steps/{seed}")
    return {
        "model": "pauli-xx-zz",
        "model_params": {"gammas": [rng.uniform(0.05, 1.5) for _ in range(4)]},
        "state": _random_state(rng, 4),
        "time": {"start": 0.0, "stop": 2.0, "steps": 400},
        "method": "kraus",
        "series": "reduced",
        "outputs": ["populations", "pauli:ZI", "pauli:IZ", "pauli:ZZ"],
    }


GENERATORS = {
    "qho-fields": qho_fields,
    "qho-oracle": qho_oracle,
    "pauli-tomo": pauli_tomo,
    "pauli-steps": pauli_steps,
}


def make_config(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)
