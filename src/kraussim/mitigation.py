"""Pauli-channel and depolarizing-channel noise models and their inversion.

Channels act on density matrices directly or through their superoperator
form on the row-major vectorization.  Fitting goes through nonnegative
least squares for the general channel and a scored line scan for the
depolarizing parameter; inversion output is flagged raw and projected back
to the physical cone separately.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .matkernel import (
    DensityMatrix,
    classify_density,
    fidelity,
    hermiticity_defect,
    pauli_labels,
    pauli_string_matrix,
    pinv,
    project_to_physical,
    _as_matrix,
)

KKT_TOL = 1e-8
LAMBDA_GRID_STEP = 0.01
LAMBDA_REFINE_TOL = 1e-4
STRATEGY_FIDELITY = "fidelity-max"
STRATEGY_FROBENIUS = "frobenius-min"


@dataclass(frozen=True)
class PauliChannel:
    """Probabilistic mixture of Pauli-string conjugations."""

    num_qubits: int
    epsilons: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if eps.size != 4**self.num_qubits:
            raise ValueError("need one coefficient per Pauli string")
        if eps.min() < -1e-12:
            raise ValueError("coefficients must be nonnegative")
        if abs(eps.sum() - 1.0) > 1e-10:
            raise ValueError(f"coefficients sum to {eps.sum()}, expected 1")
        object.__setattr__(self, "epsilons", np.clip(eps, 0.0, None))

    @property
    def labels(self) -> list[str]:
        return pauli_labels(self.num_qubits)


@dataclass(frozen=True)
class DepolarizingChannel:
    """Uniform special case: mix with the maximally mixed state."""

    num_qubits: int
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")


def _carry_raw(source, matrix: np.ndarray) -> DensityMatrix:
    if isinstance(source, DensityMatrix) and source.raw:
        return DensityMatrix(matrix, raw=True)
    return classify_density(matrix)


def apply_pauli_channel(channel: PauliChannel, rho) -> DensityMatrix:
    mat = _as_matrix(rho)
    dim = 2**channel.num_qubits
    if mat.shape != (dim, dim):
        raise ValueError("state dimension does not match the channel")
    out = np.zeros_like(mat)
    for eps, label in zip(channel.epsilons, channel.labels):
        if eps == 0.0:
            continue
        pauli = pauli_string_matrix(label)
        out += eps * (pauli @ mat @ pauli.conj().T)
    return _carry_raw(rho, out)


def apply_qdc(channel: DepolarizingChannel, rho) -> DensityMatrix:
    mat = _as_matrix(rho)
    dim = 2**channel.num_qubits
    if mat.shape != (dim, dim):
        raise ValueError("state dimension does not match the channel")
    out = (1.0 - channel.lam) * mat + channel.lam * np.trace(mat) * np.eye(dim) / dim
    return _carry_raw(rho, out)


def channel_superoperator(channel: PauliChannel) -> np.ndarray:
    """``sum_i eps_i P_i (x) conj(P_i)`` acting on the row-major vec."""
    dim = 2**channel.num_qubits
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for eps, label in zip(channel.epsilons, channel.labels):
        if eps == 0.0:
            continue
        pauli = pauli_string_matrix(label)
        out += eps * np.kron(pauli, pauli.conj())
    return out


def invert_channel(channel, rho_noisy) -> DensityMatrix:
    """Undo a fitted channel; output is raw (possibly negative eigenvalues).

    The depolarizing case uses the closed form
    ``(rho - lam/2^N I) / (1 - lam)``; the general Pauli channel goes
    through the superoperator pseudoinverse.
    """
    mat = _as_matrix(rho_noisy)
    if isinstance(channel, DepolarizingChannel):
        if channel.lam >= 1.0 - 1e-9:
            raise ValueError("depolarizing channel with lambda ~ 1 is not invertible")
        dim = 2**channel.num_qubits
        out = (mat - channel.lam * np.trace(mat) * np.eye(dim) / dim) / (1.0 - channel.lam)
        return DensityMatrix(out, raw=True)
    if isinstance(channel, PauliChannel):
        dim = 2**channel.num_qubits
        a_mat = channel_superoperator(channel)
        singulars = np.linalg.svd(a_mat, compute_uv=False)
        cutoff = 1e-12 * singulars.max()
        if singulars.min() < cutoff:
            rank = int((singulars >= cutoff).sum())
            warnings.warn(
                f"channel superoperator is rank deficient ({rank}/{a_mat.shape[0]}); "
                "inversion returns the minimum-norm solution",
                RuntimeWarning,
            )
        out = pinv(a_mat) @ mat.reshape(-1)
        return DensityMatrix(out.reshape(dim, dim), raw=True)
    raise TypeError(f"unsupported channel type {type(channel)!r}")


@dataclass
class FitReport:
    """Diagnostics of a channel fit."""

    iterations: int = 0
    objective: float = 0.0
    objective_trace: list[float] = field(default_factory=list)
    kkt_residual: float = 0.0
    raw_sum: float = 1.0


def _stack_real(mat: np.ndarray) -> np.ndarray:
    flat = mat.reshape(-1)
    return np.concatenate([flat.real, flat.imag])


def _nnls_projected_gradient(a_mat: np.ndarray, b_vec: np.ndarray, max_iter: int = 50000):
    """Projected gradient with Armijo backtracking for min ||Ax - b||, x >= 0.

    Monotone descent by construction; stops when the projected-gradient
    (KKT) residual drops below ``KKT_TOL``.
    """
    gram = a_mat.T @ a_mat
    rhs = a_mat.T @ b_vec
    lipschitz = float(np.linalg.norm(gram, 2))
    step0 = 1.0 / lipschitz if lipschitz > 0 else 1.0
    x = np.zeros(a_mat.shape[1])

    def objective(v):
        r = a_mat @ v - b_vec
        return float(r @ r)

    obj = objective(x)
    trace = [obj]
    kkt = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = 2.0 * (gram @ x - rhs)
        kkt = float(np.abs(x - np.clip(x - grad, 0.0, None)).max())
        if kkt < KKT_TOL:
            break
        step = step0
        cand = np.clip(x - step * grad, 0.0, None)
        cand_obj = objective(cand)
        while cand_obj > obj + 1e-4 * float(grad @ (cand - x)) and step > 1e-18:
            step *= 0.5
            cand = np.clip(x - step * grad, 0.0, None)
            cand_obj = objective(cand)
        if cand_obj > obj:
            break
        x, obj = cand, cand_obj
        trace.append(obj)
    return x, FitReport(iterations, obj, trace, kkt, float(x.sum()))


def fit_pauli_channel(pairs) -> tuple[PauliChannel, FitReport]:
    """Nonnegative least-squares fit of Pauli-string error probabilities.

    ``pairs`` is a sequence of (exact, noisy) density matrices.  The
    unconstrained-sum problem is solved first; the coefficients are then
    renormalized onto the probability simplex and the raw sum recorded as a
    diagnostic.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (exact, noisy) pair")
    exact0 = _as_matrix(pairs[0][0])
    dim = exact0.shape[0]
    num_qubits = int(round(np.log2(dim)))
    if 2**num_qubits != dim:
        raise ValueError("density matrices must live on qubits")
    labels = pauli_labels(num_qubits)
    paulis = [pauli_string_matrix(label) for label in labels]
    columns = []
    targets = []
    for exact, noisy in pairs:
        e_mat = _as_matrix(exact)
        n_mat = _as_matrix(noisy)
        if e_mat.shape != (dim, dim) or n_mat.shape != (dim, dim):
            raise ValueError("inconsistent pair dimensions")
        columns.append(
            np.stack([_stack_real(p @ e_mat @ p.conj().T) for p in paulis], axis=1)
        )
        targets.append(_stack_real(n_mat))
    a_mat = np.concatenate(columns, axis=0)
    b_vec = np.concatenate(targets)
    eps, report = _nnls_projected_gradient(a_mat, b_vec)
    total = eps.sum()
    if total <= 0.0:
        eps = np.zeros_like(eps)
        eps[0] = 1.0
    else:
        eps = eps / total
    return PauliChannel(num_qubits, eps), report


def _qdc_score(lam: float, pairs, num_qubits: int, strategy: str) -> float:
    channel = DepolarizingChannel(num_qubits, lam)
    scores = []
    for exact, noisy in pairs:
        mitigated = invert_channel(channel, noisy)
        if strategy == STRATEGY_FIDELITY:
            scores.append(fidelity(exact, project_physical(mitigated)))
        else:
            scores.append(-float(np.linalg.norm(_as_matrix(mitigated) - _as_matrix(exact))))
    return float(np.mean(scores))


def fit_qdc_lambda(pairs, strategy: str = STRATEGY_FIDELITY) -> float:
    """Depolarizing parameter by grid scan plus golden-section refinement.

    Plateaus resolve to the smallest maximizing lambda; refinement is only
    accepted on a strict score improvement so the tie-break survives it.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (exact, noisy) pair")
    if strategy not in (STRATEGY_FIDELITY, STRATEGY_FROBENIUS):
        raise ValueError(f"unknown strategy {strategy!r}")
    dim = _as_matrix(pairs[0][0]).shape[0]
    num_qubits = int(round(np.log2(dim)))
    grid = np.arange(0.0, 0.99 + 1e-12, LAMBDA_GRID_STEP)
    scores = [_qdc_score(lam, pairs, num_qubits, strategy) for lam in grid]
    best = max(scores)
    best_idx = next(i for i, s in enumerate(scores) if s >= best - 1e-12)
    lam_best = float(grid[best_idx])
    score_best = scores[best_idx]

    lo = max(0.0, lam_best - LAMBDA_GRID_STEP)
    hi = min(0.99, lam_best + LAMBDA_GRID_STEP)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = _qdc_score(c, pairs, num_qubits, strategy)
    fd = _qdc_score(d, pairs, num_qubits, strategy)
    while b - a > LAMBDA_REFINE_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _qdc_score(c, pairs, num_qubits, strategy)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _qdc_score(d, pairs, num_qubits, strategy)
    lam_refined = float((a + b) / 2)
    if _qdc_score(lam_refined, pairs, num_qubits, strategy) > score_best + 1e-12:
        return lam_refined
    return lam_best


def project_physical(rho) -> DensityMatrix:
    """Clip negative eigenvalues to zero and renormalize the trace."""
    mat = _as_matrix(rho)
    if hermiticity_defect(mat) > 1e-8 * max(1.0, float(np.abs(mat).max())):
        raise ValueError("input is too far from Hermitian to project")
    return DensityMatrix(project_to_physical(mat))


def parity_twirl(rho, parity_op: np.ndarray) -> DensityMatrix:
    """Average with the parity conjugation, projecting onto the even sector.

    The parity operator must be a Hermitian unitary involution; the output
    commutes with it.
    """
    tau = np.asarray(parity_op, dtype=complex)
    if (
        hermiticity_defect(tau) > 1e-10
        or np.abs(tau @ tau - np.eye(tau.shape[0])).max() > 1e-10
    ):
        raise ValueError("parity operator must be Hermitian with tau^2 = I")
    mat = _as_matrix(rho)
    if mat.shape != tau.shape:
        raise ValueError("dimension mismatch")
    out = (mat + tau @ mat @ tau.conj().T) / 2
    raw = isinstance(rho, DensityMatrix) and rho.raw
    return DensityMatrix(out, raw=raw)
