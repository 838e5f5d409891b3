"""Lindblad model definition, commutation-condition checks and reference integrators.

Every evolution here applies a generator of Lindblad form to d x d matrices,
``X -> A X + X A^dag + sum_k J_k X J_k^dag``, and propagates it with one
truncated Taylor series (:func:`_propagate`); no dim^2 x dim^2 superoperator
is formed.  The exact oracle takes ``A = -i H_eff`` and ``J_k = sqrt(gamma_k) L_k``;
the product-formula integrator splits that generator into two of the same
form.  All evolution routines here are reference oracles; the production
path lives in :mod:`kraussim.kraus`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .matkernel import (
    DensityMatrix,
    classify_density,
    hermiticity_defect,
    _as_matrix,
    _onenorm,
    _require_square,
)

COMMUTATOR_TOL = 1e-10
PROPAGATE_NORM_LIMIT = 1e5
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


def effective_hamiltonian(model: LindbladModel) -> np.ndarray:
    """Non-Hermitian generator ``H - (i/2) sum_n gamma_n L_n^dag L_n``."""
    h_eff = model.hamiltonian.astype(complex)
    for op, g in zip(model.lindblads, model.gammas):
        h_eff -= 0.5j * g * (op.conj().T @ op)
    return h_eff


def _weighted_jumps(model: LindbladModel) -> np.ndarray:
    """``J_k = sqrt(gamma_k) L_k`` as a ``(k, dim, dim)`` stack, empty for a model without jumps."""
    jumps = [np.sqrt(g) * op for op, g in zip(model.lindblads, model.gammas)]
    return np.array(jumps, dtype=complex).reshape(-1, model.dim, model.dim)


def exact_trajectory(model: LindbladModel, rho0, start: float, stop: float, steps: int) -> Iterator[DensityMatrix]:
    """Yield the exact state at each point of ``np.linspace(start, stop, steps)``.

    The state is propagated by :func:`_propagate` to ``start`` and then from
    point to point, each step in the form that :func:`_repeated` picks for
    ``steps - 1`` repeats.
    """
    if start < 0 or stop < start or steps < 1:
        raise ValueError("need 0 <= start <= stop and steps >= 1")
    rho = _as_matrix(rho0)
    if rho.shape != (model.dim, model.dim):
        raise ValueError("state dimension does not match the model")
    gen = _shifted_generator(-1j * effective_hamiltonian(model), _weighted_jumps(model))
    state = _propagate(gen, rho[np.newaxis], start)
    dt = (stop - start) / (steps - 1) if steps > 1 else 0.0
    step = _repeated(lambda x: _propagate(gen, x, dt), model.dim, steps - 1)
    for index in range(steps):
        if index:
            state = step(state)
        yield classify_density(state[0])


@dataclass(frozen=True)
class _ShiftedGenerator:
    """``D - shift I`` applied to d x d matrices: ``X -> A X + X A^dag + sum_k J_k X J_k^dag``.

    ``A = a - (shift / 2) I`` for the unshifted part ``a`` of
    :func:`_shifted_generator`.  The shift is the mean eigenvalue
    ``tr(D) / dim^2``, which the Taylor propagation multiplies back in as
    ``exp(shift h)``; ``norm`` bounds ``||D - shift I||_1`` from above.
    """

    a: np.ndarray
    a_dag: np.ndarray
    jumps: np.ndarray
    jumps_dag: np.ndarray
    shift: float
    norm: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The shifted generator applied to each matrix of the stack ``x`` of shape ``(b, d, d)``."""
        out = self.a @ x
        out += x @ self.a_dag
        out += (self.jumps @ x[:, np.newaxis] @ self.jumps_dag).sum(axis=1)
        return out


def _shifted_generator(a: np.ndarray, jumps: np.ndarray) -> _ShiftedGenerator:
    """The :class:`_ShiftedGenerator` of ``D: X -> a X + X a^dag + sum_k J_k X J_k^dag``, built once per grid.

    ``jumps`` is the ``(k, d, d)`` stack of the ``J_k`` and may be empty.
    ``tr(D) = 2 dim Re tr(a) + sum_k |tr J_k|^2``, and
    ``||D - shift I||_1 <= 2 ||A||_1 + sum_k ||J_k||_1^2``, since
    ``||A (x) I||_1 = ||A||_1`` and ``||J (x) J^*||_1 = ||J||_1^2``.
    """
    dim = a.shape[0]
    a = np.array(a, dtype=complex)
    traces = np.trace(jumps, axis1=1, axis2=2)
    shift = 2.0 * float(np.trace(a).real) / dim + float(np.sum(np.abs(traces) ** 2)) / dim**2
    a.flat[:: dim + 1] -= shift / 2
    jump_norms = np.abs(jumps).sum(axis=1).max(axis=1)
    norm = 2.0 * _onenorm(a) + float(np.sum(jump_norms**2))
    return _ShiftedGenerator(a, a.conj().T, jumps, jumps.conj().transpose(0, 2, 1), shift, norm)


def _split_generators(model: LindbladModel, split: str) -> tuple[_ShiftedGenerator, _ShiftedGenerator]:
    """The two parts ``D1, D2`` of the generator for product-formula integration.

    ``hamiltonian-dissipator`` separates the commutator term from the full
    dissipator.  ``effective-jump`` separates the non-Hermitian effective
    Hamiltonian flow from the jump term ``sum_n gamma_n L rho L^dag``; unlike
    the first split it does not commute with its complement on a damped
    bosonic mode, which makes it the right probe of product-formula error.
    """
    jumps = _weighted_jumps(model)
    a = -1j * effective_hamiltonian(model)
    if split == SPLIT_HAMILTONIAN_DISSIPATOR:
        flow = -1j * model.hamiltonian
        return _shifted_generator(flow, jumps[:0]), _shifted_generator(a - flow, jumps)
    if split == SPLIT_EFFECTIVE_JUMP:
        return _shifted_generator(a, jumps[:0]), _shifted_generator(np.zeros_like(a), jumps)
    raise ValueError(f"unknown split {split!r}")


def _repeated(apply: Callable[[np.ndarray], np.ndarray], dim: int, repeats: int) -> Callable[[np.ndarray], np.ndarray]:
    """The linear map ``apply`` on ``(b, dim, dim)`` stacks, in the form to take ``repeats`` times.

    Up to ``dim^2`` repeats that is ``apply`` itself.  Beyond, the dim^2 basis
    matrices go through ``apply`` once as a single batch, which gives its
    matrix, and each repeat is one mat-vec with it.
    """
    n = dim**2
    if repeats <= n:
        return apply
    # row k is vec(apply(E_k)) for the k-th basis matrix E_k, so vec(x) @ matrix = vec(apply(x))
    basis = np.eye(n, dtype=complex).reshape(n, dim, dim)
    matrix = apply(basis).reshape(n, n)
    return lambda x: (x.reshape(-1) @ matrix).reshape(x.shape)


# theta_m of Al-Mohy & Higham, "Computing the action of the matrix exponential", SIAM J. Sci.
# Comput. 33(2), 2011, at unit roundoff 2^-53: a degree-m Taylor step of ||h X||_1 <= theta_m has
# relative backward error at most 2^-53.  m <= 30 from Higham, Functions of Matrices, Table A.3,
# m >= 35 from Table 3.1 of the 2011 paper; the values of scipy's expm_multiply.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.4e-4, 5: 2.4e-3, 6: 9.07e-3, 7: 2.38e-2, 8: 5.0e-2,
    9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.0e-1, 13: 4.0e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22,
    25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5,
    55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53


def _taylor_plan(scaled_norm: float) -> tuple[int, int]:
    """``(m, s)``: ``s`` substeps of degree ``m`` with the least ``m s`` and ``scaled_norm / s <= theta_m``."""
    return min(
        ((m, max(1, math.ceil(scaled_norm / theta))) for m, theta in _TAYLOR_THETA.items()),
        key=lambda plan: plan[0] * plan[1],
    )


def _propagate(gen: _ShiftedGenerator, x: np.ndarray, h: float) -> np.ndarray:
    """``exp(h D)`` applied to each matrix of the stack ``x``, without forming ``D``.

    Algorithm 3.2 of Al-Mohy & Higham (2011) with the 1-norm bound of
    :func:`_shifted_generator` in place of its norm estimates: ``s`` substeps,
    each a degree-``m`` Taylor polynomial of ``exp(h (D - shift I) / s)`` that
    stops once two consecutive terms are below the unit roundoff relative to
    the partial sum, times ``exp(shift h / s)``.  A step whose ``h * gen.norm``
    exceeds ``PROPAGATE_NORM_LIMIT``, which would take over 1e4 substeps, is refused.
    """
    if h == 0.0:
        return x
    if h * gen.norm > PROPAGATE_NORM_LIMIT:
        raise ValueError(
            f"evolution time {h:.6g} is too long for one step: its product {h * gen.norm:.3g} with the "
            f"generator norm bound exceeds {PROPAGATE_NORM_LIMIT:g}; use a shorter time span or more steps"
        )
    m, s = _taylor_plan(h * gen.norm)
    scale = math.exp(gen.shift * h / s)
    for _ in range(s):
        total = x.copy()
        term = x
        previous = float(np.abs(x).max())
        for k in range(1, m + 1):
            term = gen(term)
            term *= h / (s * k)
            current = float(np.abs(term).max())
            total += term
            if previous + current <= _UNIT_ROUNDOFF * float(np.abs(total).max()):
                break
            previous = current
        total *= scale
        x = total
    return x


def exact_evolve(model: LindbladModel, rho0, t: float) -> DensityMatrix:
    """The exact state at time ``t``: the one-point :func:`exact_trajectory`."""
    return next(exact_trajectory(model, rho0, t, t, 1))


def trotter_trajectory(
    model: LindbladModel, rho0, ts: Iterable[float], steps: int, split: str = SPLIT_HAMILTONIAN_DISSIPATOR
) -> Iterator[DensityMatrix]:
    """Second-order product-formula reference integrator over a time grid.

    Yields, for each ``t`` of ``ts``, ``[exp(dt/2 D1) exp(dt D2) exp(dt/2 D1)]^steps``
    applied to ``rho0`` with ``dt = t / steps``.  The split of :func:`_split_generators`
    is built once; each exponential is one :func:`_propagate` call, and each point's
    stage takes the form that :func:`_repeated` picks for ``steps`` repeats.  This is
    a cross-validation path, not the production solver; the output is flagged raw
    for the non-trace-preserving split.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rho = _as_matrix(rho0)[np.newaxis]
    first, second = _split_generators(model, split)
    for t in ts:
        if t < 0:
            raise ValueError("evolution time must be nonnegative")
        dt = t / steps

        def stage(x: np.ndarray) -> np.ndarray:
            x = _propagate(first, x, dt / 2)
            return _propagate(first, _propagate(second, x, dt), dt / 2)

        step = _repeated(stage, model.dim, steps)
        out = rho
        for _ in range(steps):
            out = step(out)
        yield classify_density(out[0]) if split == SPLIT_HAMILTONIAN_DISSIPATOR else DensityMatrix(out[0], raw=True)


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
