"""Pauli-channel and depolarizing-channel noise models and their inversion.

A Pauli channel is diagonal in the Pauli-string basis: it scales the
coefficient ``Tr(P rho)`` of each string P by its eigenvalue (Pauli
fidelity), so applying and inverting it are elementwise on the coefficient
vector.  Fitting goes through nonnegative least squares for the general
channel and a scored line scan for the depolarizing parameter.  Applying,
inverting and twirling return unvalidated ``DensityMatrix(raw=True)``
outputs; the caller decides physicality once, by projecting back to the
physical cone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .matkernel import (
    DEFAULT_RCOND,
    DensityMatrix,
    fidelity,
    from_pauli_coefficients,
    hermiticity_defect,
    pauli_coefficients,
    project_to_physical,
    qubit_count,
    _as_matrix,
    _numbers,
    _real,
    _require_square,
)

KKT_TOL = 1e-8
FIT_MAX_ITER = 50000
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
        eps = _numbers(self.epsilons, "Pauli channel coefficients")
        if eps.shape != (4**self.num_qubits,):
            raise ValueError(f"need a vector of one coefficient per Pauli string, got shape {eps.shape}")
        if not np.isfinite(eps).all():
            raise ValueError("coefficients must be finite")
        if eps.min() < -1e-12:
            raise ValueError("coefficients must be nonnegative")
        if abs(eps.sum() - 1.0) > 1e-10:
            raise ValueError(f"coefficients sum to {eps.sum()}, expected 1")
        object.__setattr__(self, "epsilons", np.maximum(eps, 0.0))


@dataclass(frozen=True)
class DepolarizingChannel:
    """Uniform special case: mix with the maximally mixed state."""

    num_qubits: int
    lam: float

    def __post_init__(self):
        if not 0.0 <= _real(self.lam, "lambda") <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam!r}")


# Commutation sign s(a, b) of the single-qubit Paulis I, X, Y, Z: +1 when one
# is I or both are equal.  Conjugating by b scales a by s(a, b), and the sign of
# two strings is the product of their per-qubit signs.
COMMUTATION_SIGNS = np.array([[1.0 if 0 in (a, b) or a == b else -1.0 for b in range(4)] for a in range(4)])


def _commutation_transform(x: np.ndarray, num_qubits: int) -> np.ndarray:
    """``S x`` for the n-fold Kronecker power ``S`` (symmetric, ``S^2 = 4^n I``) of ``COMMUTATION_SIGNS``."""
    for _ in range(num_qubits):  # signs on the last qubit axis, which then moves to the front
        x = (x.reshape(-1, 4) @ COMMUTATION_SIGNS).T
    return x.reshape(-1)


def pauli_fidelities(channel: PauliChannel) -> np.ndarray:
    """Eigenvalue ``lambda_P = sum_Q (+-1) eps_Q`` (+ where P and Q commute) of the
    channel on each Pauli string P, in ``pauli_labels`` order."""
    return _commutation_transform(channel.epsilons, channel.num_qubits)


def _channel_input(channel, rho) -> np.ndarray:
    mat = _as_matrix(rho)
    dim = 2**channel.num_qubits
    if mat.shape != (dim, dim):
        raise ValueError(f"state of shape {mat.shape} does not match the {channel.num_qubits}-qubit channel")
    return mat


def apply_pauli_channel(channel: PauliChannel, rho) -> DensityMatrix:
    """The channel applied to ``rho``, unvalidated (``raw=True``)."""
    mat = _channel_input(channel, rho)
    out = from_pauli_coefficients(pauli_fidelities(channel) * pauli_coefficients(mat))
    return DensityMatrix(out, raw=True)


def apply_qdc(channel: DepolarizingChannel, rho) -> DensityMatrix:
    """``(1 - lam) rho + lam Tr(rho) I / d``, unvalidated (``raw=True``) and not symmetrized."""
    mat = _channel_input(channel, rho)
    dim = mat.shape[0]
    out = (1.0 - channel.lam) * mat + channel.lam * np.trace(mat) * np.eye(dim) / dim
    return DensityMatrix(out, raw=True)


def invert_channel(channel, rho_noisy) -> DensityMatrix:
    """Undo a fitted channel; output is raw (possibly negative eigenvalues).

    The depolarizing case uses the closed form
    ``(rho - lam/2^N I) / (1 - lam)``; the general Pauli channel divides each
    Pauli coefficient by its eigenvalue, dropping those with ``|lambda_P| <=
    DEFAULT_RCOND * max |lambda|`` (the minimum-norm, pseudoinverse solution).
    """
    if isinstance(channel, DepolarizingChannel):
        if channel.lam >= 1.0 - 1e-9:
            raise ValueError("depolarizing channel with lambda ~ 1 is not invertible")
        mat = _channel_input(channel, rho_noisy)
        dim = mat.shape[0]
        out = (mat - channel.lam * np.trace(mat) * np.eye(dim) / dim) / (1.0 - channel.lam)
        return DensityMatrix(out, raw=True)
    if isinstance(channel, PauliChannel):
        mat = _channel_input(channel, rho_noisy)
        lam = pauli_fidelities(channel)
        kept = np.abs(lam) > DEFAULT_RCOND * np.abs(lam).max()
        if not kept.all():
            warnings.warn(
                f"Pauli channel is rank deficient ({int(kept.sum())}/{lam.size}); "
                "inversion returns the minimum-norm solution",
                RuntimeWarning,
            )
        inverse = np.divide(1.0, lam, out=np.zeros_like(lam), where=kept)
        out = from_pauli_coefficients(inverse * pauli_coefficients(mat))
        return DensityMatrix(out, raw=True)
    raise TypeError(f"unsupported channel type {type(channel)!r}")


@dataclass
class FitReport:
    """Diagnostics of a channel fit; ``unidentified`` counts the strings no pair constrains."""

    iterations: int = 0
    objective: float = 0.0
    objective_trace: list[float] = field(default_factory=list)
    kkt_residual: float = 0.0
    raw_sum: float = 1.0
    unidentified: int = 0


def _pair_matrices(pairs) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
    """Both fits' one input check: the pairs as near-Hermitian matrices of one qubit dimension, and that count."""
    pairs = [
        (_near_hermitian(exact, f"pair {index}: exact"), _near_hermitian(noisy, f"pair {index}: noisy"))
        for index, (exact, noisy) in enumerate(pairs)
    ]
    if not pairs:
        raise ValueError("need at least one (exact, noisy) pair")
    dim = pairs[0][0].shape[0]
    if any(mat.shape != (dim, dim) for pair in pairs for mat in pair):
        raise ValueError("inconsistent pair dimensions")
    return pairs, qubit_count(dim, "density matrix dimension")


def fit_pauli_channel(pairs) -> tuple[PauliChannel, FitReport]:
    """Nonnegative least-squares fit of Pauli-string error probabilities.

    ``pairs`` is a sequence of (exact, noisy) density matrices.  The
    objective is the Frobenius distance between the channel applied to each
    exact state and its noisy partner, written in Pauli coordinates: the
    strings are orthogonal with norm ``d``, and the channel scales
    ``Tr(Q rho)`` by ``(S eps)_Q``.  The Gram matrix is ``S diag(w) S`` with
    ``w_Q = sum_pairs |Tr(Q rho_exact)|^2 / d``, so the gradient goes through
    the O(n 4^n) transform of :func:`pauli_fidelities`, the step ``1 / (4^n
    max w)`` is exact, and no design matrix is built.  Strings with ``w_Q <=
    DEFAULT_RCOND * max w`` are reported as unidentified.

    Projected gradient with Armijo backtracking, monotone by construction;
    it stops when the projected-gradient (KKT) residual drops below
    ``KKT_TOL`` and warns when it stops short of that.  The unconstrained-sum
    problem is solved first; the coefficients are then renormalized onto the
    probability simplex and the raw sum recorded as a diagnostic.
    """
    pairs, num_qubits = _pair_matrices(pairs)
    scale = np.sqrt(2**num_qubits)  # rows Tr(Q rho) / sqrt(d) of each exact and noisy state, one row per pair
    exact, noisy = (np.array([pauli_coefficients(pair[side]) for pair in pairs]) / scale for side in (0, 1))
    weights = (np.abs(exact) ** 2).sum(axis=0)
    rhs = _commutation_transform((exact.conj() * noisy).real.sum(axis=0), num_qubits)
    lipschitz = 4**num_qubits * float(weights.max())
    step0 = 1.0 / lipschitz if lipschitz > 0 else 1.0
    x = sx = np.zeros(weights.size)  # sx = S x, carried from the accepted candidate

    def candidate(step):  # the current x - step * grad, clipped to x >= 0, with its S x and objective
        cand = np.maximum(x - step * grad, 0.0)
        cand_sx = _commutation_transform(cand, num_qubits)
        return cand, cand_sx, float((np.abs(exact * cand_sx - noisy) ** 2).sum())

    obj = float((np.abs(noisy) ** 2).sum())
    trace = [obj]
    kkt = np.inf
    iterations = 0
    for iterations in range(1, FIT_MAX_ITER + 1):
        grad = 2.0 * (_commutation_transform(weights * sx, num_qubits) - rhs)
        kkt = float(np.abs(x - np.maximum(x - grad, 0.0)).max())
        if kkt < KKT_TOL:
            break
        step = step0
        cand, cand_sx, cand_obj = candidate(step)
        while cand_obj > obj + 1e-4 * float(grad @ (cand - x)) and step > 1e-18:
            step *= 0.5
            cand, cand_sx, cand_obj = candidate(step)
        if cand_obj > obj:
            break
        x, sx, obj = cand, cand_sx, cand_obj
        trace.append(obj)
    if kkt >= KKT_TOL:
        warnings.warn(
            f"Pauli-channel fit stopped after {iterations} iterations with KKT residual "
            f"{kkt:.3g}, above {KKT_TOL:g}; the fit has not converged",
            RuntimeWarning,
        )
    unidentified = int((weights <= DEFAULT_RCOND * weights.max()).sum())
    total = float(x.sum())
    report = FitReport(iterations, obj, trace, kkt, total, unidentified)
    if total <= 0.0:
        eps = np.zeros_like(x)
        eps[0] = 1.0
    else:
        eps = x / total
    return PauliChannel(num_qubits, eps), report


def _qdc_score(lam: float, pairs, num_qubits: int, strategy: str) -> float:
    channel = DepolarizingChannel(num_qubits, lam)
    scores = []
    for exact, noisy in pairs:
        mitigated = invert_channel(channel, noisy).matrix
        if strategy == STRATEGY_FIDELITY:
            scores.append(fidelity(exact, project_to_physical(mitigated)))
        else:
            scores.append(-float(np.linalg.norm(mitigated - exact)))
    return float(np.mean(scores))


def fit_qdc_lambda(pairs, strategy: str = STRATEGY_FIDELITY) -> float:
    """Depolarizing parameter by grid scan plus golden-section refinement.

    Plateaus resolve to the smallest maximizing lambda; refinement is only
    accepted on a strict score improvement so the tie-break survives it.
    The pairs are checked once, so each candidate is projected unvalidated.
    """
    if strategy not in (STRATEGY_FIDELITY, STRATEGY_FROBENIUS):
        raise ValueError(f"unknown strategy {strategy!r}")
    pairs, num_qubits = _pair_matrices(pairs)
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


def _near_hermitian(rho, what: str) -> np.ndarray:
    """``rho`` as a square matrix; refused past a hermiticity defect of 1e-8 times its largest entry (at least 1)."""
    mat = _require_square(_as_matrix(rho), what)
    if hermiticity_defect(mat) > 1e-8 * max(1.0, float(np.abs(mat).max())):
        raise ValueError(f"{what} is too far from Hermitian to project")
    return mat


def project_physical(rho) -> DensityMatrix:
    """Clip negative eigenvalues to zero and renormalize the trace; a validated state."""
    return DensityMatrix(project_to_physical(_near_hermitian(rho, "input")))


def parity_twirl(rho, parity_op: np.ndarray) -> DensityMatrix:
    """Average with the parity conjugation, projecting onto the even sector.

    The parity operator must be a Hermitian unitary involution; the output
    commutes with it and is unvalidated (``raw=True``), whatever the input.
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
    return DensityMatrix((mat + tau @ mat @ tau.conj().T) / 2, raw=True)
