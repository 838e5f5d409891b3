"""Lindblad model definition, commutation-condition checks and exact oracles.

The generator is materialized as a dense superoperator acting on the
row-major vectorized density matrix, ``vec(rho)[i * dim + j] = rho[i, j]``.
All evolution routines here are reference oracles; the production path lives
in :mod:`kraussim.kraus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .matkernel import (
    DensityMatrix,
    classify_density,
    hermiticity_defect,
    matexp,
    matexp_root,
    _as_matrix,
    _require_square,
)

COMMUTATOR_TOL = 1e-10
CONSTANT_RESIDUAL_TOL = 1e-8
F_KIND_LINEAR = "linear"
F_KIND_SATURATING = "saturating"
SPLIT_HAMILTONIAN_DISSIPATOR = "hamiltonian-dissipator"
SPLIT_EFFECTIVE_JUMP = "effective-jump"
# One N x N complex matmul costs about N / 5 complex N-vector mat-vecs: mat-vecs are memory-bound.
# Measured with OpenBLAS on one thread: 35.6 ms against 0.30 ms at N = 576, 199 ms against 0.90 ms at N = 1024.
MATMUL_COST_IN_MATVECS_PER_N = 0.2


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
        return not self.failing()

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


def effective_hamiltonian(model: LindbladModel) -> np.ndarray:
    """Non-Hermitian generator ``H - (i/2) sum_n gamma_n L_n^dag L_n``."""
    h_eff = model.hamiltonian.astype(complex)
    for op, g in zip(model.lindblads, model.gammas):
        h_eff -= 0.5j * g * (op.conj().T @ op)
    return h_eff


def build_superoperator(model: LindbladModel) -> np.ndarray:
    """Dense dim^2 x dim^2 generator acting on the row-major vectorization."""
    flow, jumps = superoperator_parts(model, SPLIT_EFFECTIVE_JUMP)
    flow += jumps
    return flow


def superoperator_parts(model: LindbladModel, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Split the generator for product-formula integration.

    ``hamiltonian-dissipator`` separates the commutator term from the full
    dissipator.  ``effective-jump`` separates the non-Hermitian effective
    Hamiltonian flow from the jump term ``sum_n gamma_n L rho L^dag``; unlike
    the first split it does not commute with its complement on a damped
    bosonic mode, which makes it the right probe of product-formula error.
    """
    eye = np.eye(model.dim, dtype=complex)
    if split == SPLIT_HAMILTONIAN_DISSIPATOR:
        h = model.hamiltonian
        d1 = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        return d1, build_superoperator(model) - d1
    if split == SPLIT_EFFECTIVE_JUMP:
        h_eff = effective_hamiltonian(model)
        d1 = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
        d2 = np.zeros((model.dim**2, model.dim**2), dtype=complex)
        for op, g in zip(model.lindblads, model.gammas):
            d2 += g * np.kron(op, op.conj())
        return d1, d2
    raise ValueError(f"unknown split {split!r}")


def exact_trajectory(model: LindbladModel, rho0, start: float, stop: float, steps: int) -> Iterator[DensityMatrix]:
    """Yield the exact state at each point of ``np.linspace(start, stop, steps)``.

    ``exp(start D)`` and the step ``exp(dt D)`` come from the Pade-13 scaling
    and squaring of :func:`matexp_root` as ``r^(2^s)``.  Only one vector is
    propagated, so ``r`` is squared (an N x N matmul, N = dim^2) only where
    that saves mat-vecs that cost more than the matmul (see :func:`_propagator`);
    the remaining factors are applied as mat-vecs.  No step is formed for a
    single point.
    """
    if start < 0 or stop < start or steps < 1:
        raise ValueError("need 0 <= start <= stop and steps >= 1")
    rho = _as_matrix(rho0)
    if rho.shape != (model.dim, model.dim):
        raise ValueError("state dimension does not match the model")
    vec = vectorize(rho)
    if start > 0:
        root, factors = _propagator(model, start, 1)
        for _ in range(factors):
            vec = root @ vec
        del root
    if steps > 1:
        root, factors = _propagator(model, (stop - start) / (steps - 1), steps - 1)
    for index in range(steps):
        if index:
            for _ in range(factors):
                vec = root @ vec
        yield classify_density(unvectorize(vec, model.dim))


def _propagator(model: LindbladModel, t: float, uses: int) -> tuple[np.ndarray, int]:
    """``(r, k)`` with ``r^k = exp(t D)``, for a propagator applied ``uses`` times to one vector.

    ``r`` starts as the Pade root ``exp(2^-s t D)`` and is squared while the
    ``uses * 2^(s-1)`` mat-vecs one squaring saves cost more than the squaring,
    about ``MATMUL_COST_IN_MATVECS_PER_N * N`` mat-vecs.
    """
    # D is scaled in place, so no second dim^2 x dim^2 copy is alive while matexp_root runs
    gen = build_superoperator(model)
    gen *= t
    root, s = matexp_root(gen)
    del gen
    while s > 0 and uses * 2 ** (s - 1) > MATMUL_COST_IN_MATVECS_PER_N * root.shape[0]:
        root = root @ root
        s -= 1
    return root, 2**s


def exact_evolve(model: LindbladModel, rho0, t: float) -> DensityMatrix:
    """The exact state at time ``t``: the one-point :func:`exact_trajectory`."""
    return next(exact_trajectory(model, rho0, t, t, 1))


def trotter_trajectory(
    model: LindbladModel, rho0, ts: Iterable[float], steps: int, split: str = SPLIT_HAMILTONIAN_DISSIPATOR
) -> Iterator[DensityMatrix]:
    """Second-order product-formula reference integrator over a time grid.

    Yields, for each ``t`` of ``ts``, ``[exp(dt/2 D1) exp(dt D2) exp(dt/2 D1)]^steps``
    applied to ``rho0`` with ``dt = t / steps``.  The split ``D1, D2`` is built
    once; each point takes its own two exponentials.  This is a
    cross-validation path, not the production solver; the output is flagged
    raw for the non-trace-preserving split.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    vec0 = vectorize(_as_matrix(rho0))
    d1, d2 = superoperator_parts(model, split)
    for t in ts:
        if t < 0:
            raise ValueError("evolution time must be nonnegative")
        dt = t / steps
        half = matexp((dt / 2) * d1)
        stage = half @ matexp(dt * d2) @ half
        vec = vec0
        for _ in range(steps):
            vec = stage @ vec
        out = unvectorize(vec, model.dim)
        yield classify_density(out) if split == SPLIT_HAMILTONIAN_DISSIPATOR else DensityMatrix(out, raw=True)


def trotter_evolve(
    model: LindbladModel, rho0, t: float, steps: int, split: str = SPLIT_HAMILTONIAN_DISSIPATOR
) -> DensityMatrix:
    """The product-formula state at time ``t``: the one-point :func:`trotter_trajectory`."""
    return next(trotter_trajectory(model, rho0, [t], steps, split))


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
