"""Lindblad model definition, commutation-condition checks and exact oracles.

The generator is materialized as a dense superoperator acting on the
row-major vectorized density matrix, ``vec(rho)[i * dim + j] = rho[i, j]``.
All evolution routines here are reference oracles; the production path lives
in :mod:`kraussim.kraus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkernel import (
    DensityMatrix,
    classify_density,
    hermiticity_defect,
    matexp,
    _as_matrix,
    _require_square,
)

COMMUTATOR_TOL = 1e-10
CONSTANT_RESIDUAL_TOL = 1e-8
F_KIND_LINEAR = "linear"
F_KIND_SATURATING = "saturating"
SPLIT_HAMILTONIAN_DISSIPATOR = "hamiltonian-dissipator"
SPLIT_EFFECTIVE_JUMP = "effective-jump"


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian, jump operators and positive damping rates (hbar = 1)."""

    hamiltonian: np.ndarray
    lindblads: tuple[np.ndarray, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        h = _require_square(self.hamiltonian, "hamiltonian")
        defect = hermiticity_defect(h)
        if defect > COMMUTATOR_TOL * max(1.0, float(np.abs(h).max())):
            raise ValueError(f"hamiltonian is not Hermitian (defect {defect})")
        ops = tuple(_require_square(op, "lindblad operator") for op in self.lindblads)
        gammas = tuple(float(g) for g in self.gammas)
        if len(ops) != len(gammas):
            raise ValueError("one damping rate is required per Lindblad operator")
        if any(g <= 0 for g in gammas):
            raise ValueError("damping rates must be positive")
        if any(op.shape != h.shape for op in ops):
            raise ValueError("all operators must share the Hamiltonian dimension")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "lindblads", ops)
        object.__setattr__(self, "gammas", gammas)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the four commutation-condition checks.

    ``nu`` is the energy removed by one jump, extracted from the shared
    eigenoperator relation ``L H - H L = nu L``; ``lambda_const`` comes from
    ``sum_n gamma_n [L_n^dag L_n, L] = lambda L``.  ``alpha`` is the decay
    constant ``2 Im(nu) - Re(lambda)`` that selects the time-weight branch.
    The residual fields flag near-misses of the shared-constant extraction.
    """

    hamiltonian_commutes: bool
    dissipators_commute: bool
    ladder_constant_found: bool
    damping_constant_found: bool
    nu: complex
    lambda_const: complex
    alpha: float
    f_kind: str
    nu_residual: float
    lambda_residual: float

    @property
    def all_satisfied(self) -> bool:
        return (
            self.hamiltonian_commutes
            and self.dissipators_commute
            and self.ladder_constant_found
            and self.damping_constant_found
        )

    def failing(self) -> list[str]:
        names = ("i", "ii", "iii", "iv")
        flags = (
            self.hamiltonian_commutes,
            self.dissipators_commute,
            self.ladder_constant_found,
            self.damping_constant_found,
        )
        return [n for n, ok in zip(names, flags) if not ok]


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _shared_constant(ops: tuple[np.ndarray, ...], images: list[np.ndarray]) -> tuple[complex, float]:
    """Least-squares scalar c minimizing sum_n ||images_n - c ops_n||_F."""
    num = sum(np.vdot(op, img) for op, img in zip(ops, images))
    den = sum(np.vdot(op, op).real for op in ops)
    c = num / den
    residual = 0.0
    for op, img in zip(ops, images):
        scale = np.linalg.norm(op)
        residual = max(residual, float(np.linalg.norm(img - c * op) / scale))
    return complex(c), residual


def check_conditions(model: LindbladModel) -> ConditionReport:
    """Verify the commutation structure required by the Kraus series.

    Checks, in order: (i) ``[H, L^dag L] = 0`` for every operator,
    (ii) pairwise commuting dissipators, (iii) a single shared ladder
    constant ``nu`` with ``Im(nu) >= 0``, and (iv) a single shared damping
    constant ``lambda`` with ``Re(lambda) <= 0``.  Constants are extracted by
    Frobenius projection onto each operator; extraction residuals above
    ``CONSTANT_RESIDUAL_TOL`` mark the condition unsatisfied rather than
    raising.
    """
    h = model.hamiltonian
    ops = model.lindblads
    if not ops:
        raise ValueError("model has no Lindblad operators")
    if any(np.abs(op).max() == 0.0 for op in ops):
        raise ValueError("zero Lindblad operator")

    dissipators = [op.conj().T @ op for op in ops]
    scale_h = max(1.0, float(np.abs(h).max()))

    cond_i = all(
        np.abs(_commutator(h, d)).max() <= COMMUTATOR_TOL * scale_h * max(1.0, float(np.abs(d).max()))
        for d in dissipators
    )
    cond_ii = all(
        np.abs(_commutator(dissipators[a], dissipators[b])).max()
        <= COMMUTATOR_TOL * max(1.0, float(np.abs(dissipators[a]).max() * np.abs(dissipators[b]).max()))
        for a in range(len(ops))
        for b in range(a + 1, len(ops))
    )

    # (iii): nu from L H - H L = nu L, the orientation under which a jump
    # removes energy nu (H L|E> = (E - nu) L|E>).  This reproduces nu = omega
    # for a damped mode with L = a.
    nu, nu_res = _shared_constant(ops, [_commutator(op, h) for op in ops])
    cond_iii = nu_res <= CONSTANT_RESIDUAL_TOL and nu.imag >= -CONSTANT_RESIDUAL_TOL

    weighted = sum(g * d for g, d in zip(model.gammas, dissipators))
    lam, lam_res = _shared_constant(ops, [_commutator(weighted, op) for op in ops])
    cond_iv = lam_res <= CONSTANT_RESIDUAL_TOL and lam.real <= CONSTANT_RESIDUAL_TOL

    alpha = 2.0 * nu.imag - lam.real
    alpha = max(alpha, 0.0) if cond_iii and cond_iv else alpha
    f_kind = F_KIND_LINEAR if abs(alpha) < 1e-12 else F_KIND_SATURATING
    return ConditionReport(
        hamiltonian_commutes=cond_i,
        dissipators_commute=cond_ii,
        ladder_constant_found=cond_iii,
        damping_constant_found=cond_iv,
        nu=nu,
        lambda_const=lam,
        alpha=float(alpha),
        f_kind=f_kind,
        nu_residual=nu_res,
        lambda_residual=lam_res,
    )


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vec, dtype=complex).reshape(dim, dim)


def build_superoperator(model: LindbladModel) -> np.ndarray:
    """Dense dim^2 x dim^2 generator acting on the row-major vectorization."""
    h = model.hamiltonian
    eye = np.eye(model.dim, dtype=complex)
    d = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, g in zip(model.lindblads, model.gammas):
        dd = op.conj().T @ op
        d += g * (
            np.kron(op, op.conj())
            - 0.5 * np.kron(dd, eye)
            - 0.5 * np.kron(eye, dd.T)
        )
    return d


def superoperator_parts(model: LindbladModel, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Split the generator for product-formula integration.

    ``hamiltonian-dissipator`` separates the commutator term from the full
    dissipator.  ``effective-jump`` separates the non-Hermitian effective
    Hamiltonian flow from the jump term ``sum_n gamma_n L rho L^dag``; unlike
    the first split it does not commute with its complement on a damped
    bosonic mode, which makes it the right probe of product-formula error.
    """
    eye = np.eye(model.dim, dtype=complex)
    h = model.hamiltonian
    if split == SPLIT_HAMILTONIAN_DISSIPATOR:
        d1 = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        d2 = build_superoperator(model) - d1
        return d1, d2
    if split == SPLIT_EFFECTIVE_JUMP:
        weighted = np.zeros_like(h)
        d2 = np.zeros((model.dim**2, model.dim**2), dtype=complex)
        for op, g in zip(model.lindblads, model.gammas):
            weighted += g * (op.conj().T @ op)
            d2 += g * np.kron(op, op.conj())
        h_eff = h - 0.5j * weighted
        d1 = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
        return d1, d2
    raise ValueError(f"unknown split {split!r}")


def exact_evolve(model: LindbladModel, rho0, t: float) -> DensityMatrix:
    """Evolve by exponentiating the full superoperator once."""
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    rho = _as_matrix(rho0)
    if rho.shape != (model.dim, model.dim):
        raise ValueError("state dimension does not match the model")
    propagator = matexp(t * build_superoperator(model))
    return classify_density(unvectorize(propagator @ vectorize(rho), model.dim))


def trotter_evolve(
    model: LindbladModel,
    rho0,
    t: float,
    steps: int,
    split: str = SPLIT_HAMILTONIAN_DISSIPATOR,
) -> DensityMatrix:
    """Second-order product-formula reference integrator.

    Applies ``[exp(dt/2 D1) exp(dt D2) exp(dt/2 D1)]^steps`` with
    ``dt = t / steps``.  This is a cross-validation path, not the production
    solver; the output is flagged raw for the non-trace-preserving split.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    rho = _as_matrix(rho0)
    d1, d2 = superoperator_parts(model, split)
    dt = t / steps
    half = matexp((dt / 2) * d1)
    stage = half @ matexp(dt * d2) @ half
    vec = vectorize(rho)
    for _ in range(steps):
        vec = stage @ vec
    out = unvectorize(vec, model.dim)
    if split == SPLIT_HAMILTONIAN_DISSIPATOR:
        return classify_density(out)
    return DensityMatrix(out, raw=True)


def normalize_lindblads(model: LindbladModel) -> LindbladModel:
    """Rescale each L to unit spectral norm, moving the scale into gamma.

    ``L -> L / b`` and ``gamma -> b^2 gamma`` with ``b = ||L||_2`` leaves the
    generator invariant.
    """
    ops = []
    gammas = []
    for op, g in zip(model.lindblads, model.gammas):
        b = float(np.linalg.norm(op, 2))
        if b == 0.0:
            raise ValueError("cannot normalize a zero Lindblad operator")
        ops.append(op / b)
        gammas.append(b * b * g)
    return LindbladModel(model.hamiltonian, tuple(ops), tuple(gammas))
