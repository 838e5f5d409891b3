"""Benchmark system constructors: Pauli channels, damped oscillators, spin modes.

Every model is addressable from the CLI through the string-keyed registry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import LindbladModel
from .matkernel import QuantumState, pauli_string_matrix


def annihilation_operator(n_max: int) -> np.ndarray:
    """Truncated lowering operator, <n-1|a|n> = sqrt(n); a^(n_max+1) = 0."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    dim = n_max + 1
    op = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        op[n - 1, n] = np.sqrt(n)
    return op


def pauli_channel_model(pauli_strings: list[str], gammas) -> LindbladModel:
    """Trivial Hamiltonian with Pauli-string jump operators."""
    if not pauli_strings:
        raise ValueError("need at least one Pauli string")
    lengths = {len(s) for s in pauli_strings}
    if len(lengths) != 1:
        raise ValueError("Pauli strings must share one qubit count")
    ops = tuple(pauli_string_matrix(s) for s in pauli_strings)
    dim = ops[0].shape[0]
    return LindbladModel(np.zeros((dim, dim), dtype=complex), ops, tuple(gammas))


def _two_mode_operators(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    a = annihilation_operator(cutoff)
    eye = np.eye(cutoff + 1, dtype=complex)
    return np.kron(a, eye), np.kron(eye, a)


def schwinger_model(omega: float, axis: str, gamma: float, per_mode_cutoff: int = 1) -> LindbladModel:
    """Degenerate two-mode oscillator damped along one angular-momentum axis.

    H = omega (1 + n1 + n2) on the truncated two-mode Fock space; the jump
    operator is the quadratic-form angular momentum J_axis.  The constant
    term is kept so eigenvalue reports match the degenerate-level energy
    2 omega.  Every axis meets the commutation conditions exactly, X and Y
    included: J_axis conserves n1 + n2 on the truncated space (a hop past
    the cutoff gives zero), and the condition residuals are at rounding
    level.
    """
    if per_mode_cutoff < 1:
        raise ValueError("per-mode cutoff must be at least 1")
    a1, a2 = _two_mode_operators(per_mode_cutoff)
    n1 = a1.conj().T @ a1
    n2 = a2.conj().T @ a2
    dim = (per_mode_cutoff + 1) ** 2
    h = omega * (np.eye(dim, dtype=complex) + n1 + n2)
    axis = axis.upper()
    if axis == "X":
        j_op = (a1.conj().T @ a2 + a2.conj().T @ a1) / 2
    elif axis == "Y":
        j_op = (a1.conj().T @ a2 - a2.conj().T @ a1) / 2j
    elif axis == "Z":
        j_op = (n1 - n2) / 2
    else:
        raise ValueError(f"invalid axis {axis!r}")
    return LindbladModel(h, (j_op,), (float(gamma),))


def damped_qho_model(omega: float, gamma: float, n_max: int) -> LindbladModel:
    """Single damped bosonic mode: H = omega a^dag a, L = a (particle loss)."""
    a = annihilation_operator(n_max)
    return LindbladModel(omega * (a.conj().T @ a), (a,), (float(gamma),))


def fock_parity_operator(dim: int) -> np.ndarray:
    """diag((-1)^n) over the Fock truncation."""
    return np.diag([(-1.0) ** n for n in range(dim)]).astype(complex)


def cat_state(alpha: complex, n_max: int) -> QuantumState:
    """Odd two-component superposition of |1> and |3> with coherent weights."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if n_max < 3:
        raise ValueError("need n_max >= 3 for the odd component pair")
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[1] = alpha
    amps[3] = alpha**3 / np.sqrt(6.0)
    return QuantumState(amps / np.linalg.norm(amps))


def benchmark_initial_states() -> dict[str, QuantumState]:
    """Fixed initial states used by the benchmark experiments."""
    return {
        "pauli-xx-zz": QuantumState(np.array([0.0, -0.6, 0.0, -0.8], dtype=complex)),
        "schwinger-jz": QuantumState(np.array([1.0, 1j, 1.0, 0.0], dtype=complex) / np.sqrt(3.0)),
        "qho-oscillating": QuantumState(np.array([0.0, 0.0, 1j, 1.0], dtype=complex) / np.sqrt(2.0)),
        "qho-cat": cat_state(1.2, 3),
    }


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry: model plus the metadata the pipeline needs."""

    key: str
    model: LindbladModel
    mode_ops: tuple[np.ndarray, ...]


def build_model(key: str, **overrides) -> ModelSpec:
    """Instantiate a registry model, optionally overriding its parameters."""
    if key == "pauli-xx-zz":
        strings = overrides.pop("pauli_strings", ["IX", "XI", "ZZ", "XX"])
        gammas = overrides.pop("gammas", [0.1, 0.1, 1.0, 1.0])
        _reject_unknown(overrides)
        return ModelSpec(key, pauli_channel_model(strings, gammas), ())
    if key == "schwinger-jz":
        omega = overrides.pop("omega", 1.0)
        gamma = overrides.pop("gamma", 1.0)
        cutoff = overrides.pop("per_mode_cutoff", 1)
        axis = overrides.pop("axis", "Z")
        _reject_unknown(overrides)
        return ModelSpec(key, schwinger_model(omega, axis, gamma, cutoff), _two_mode_operators(cutoff))
    if key in ("qho-damped", "qho-cat"):
        omega = overrides.pop("omega", 1.0)
        gamma = overrides.pop("gamma", 1.0 if key == "qho-damped" else 0.6)
        n_max = overrides.pop("n_max", 3)
        _reject_unknown(overrides)
        return ModelSpec(key, damped_qho_model(omega, gamma, n_max), (annihilation_operator(n_max),))
    raise KeyError(f"unknown model key {key!r}")


def _reject_unknown(overrides: dict) -> None:
    if overrides:
        raise ValueError(f"unknown model parameters: {sorted(overrides)}")


MODEL_KEYS = ("pauli-xx-zz", "schwinger-jz", "qho-damped", "qho-cat")
