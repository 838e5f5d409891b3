"""Time-perturbative Kraus series construction and application.

The channel generated by a Lindblad model whose Hamiltonian and jump
operators satisfy the four commutation conditions factorizes into Kraus
terms ``K = a * T(t) * L_{k_1} ... L_{k_m}`` sharing one contraction
``T(t) = exp(-i t H_eff)``.  Three constructions are provided:

* the general truncated series over all index vectors up to order M,
* the exact finite series for operators with power-law structure
  (``L^l = c I`` or ``L^l = 0`` plus commutativity up to phase),
* the factored channel, one operator at a time, valid for the abelian case.

Everything that does not depend on time (unit-norm operators, the condition
report, the group structure and the shared eigenbasis) is computed once by
:func:`prepare`; every construction accepts a plain model or its
:class:`PreparedModel`.

Weights use the accumulated jump weight ``x_n = gamma_n * f(t)`` where
``f(t) = t`` for the linear branch and ``(1 - exp(-alpha t)) / alpha``
otherwise.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .lindblad import (
    ConditionReport,
    LindbladModel,
    check_conditions,
    normalize_lindblads,
)
from .matkernel import DensityMatrix, classify_density, matexp, _as_matrix

ZERO_OPERATOR_TOL = 1e-14
CONTRACTION_TOL = 1e-10
GROUP_DETECT_TOL = 1e-10


class ConditionFallbackWarning(UserWarning):
    """Emitted when the eigenbasis construction falls back to a dense expm."""


class ConditionError(ValueError):
    """A construction requiring the commutation conditions was refused."""


@dataclass(frozen=True)
class KrausTerm:
    """One term of the series.

    ``indices`` is the application sequence of Lindblad-operator indices
    (leftmost applied last), ``weight`` the nonnegative scalar folded out of
    the operator product, and ``operator`` the materialized
    ``T(t) @ prod(L)`` product over unit-norm operators.  The full Kraus
    matrix is ``weight * operator``.
    """

    order: int
    indices: tuple[int, ...]
    weight: float
    operator: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.weight * self.operator


@dataclass(frozen=True)
class KrausSeries:
    terms: tuple[KrausTerm, ...]
    truncation_order: int
    tail_bound: float
    dim: int


@dataclass(frozen=True)
class GroupStructure:
    """Per-operator power law: ``L^period = c I`` with ``theta = |c|^2``,
    or ``L^period = 0`` with ``theta = 0``."""

    periods: tuple[int, ...]
    thetas: tuple[float, ...]

    @property
    def nilpotent(self) -> tuple[bool, ...]:
        return tuple(th == 0.0 for th in self.thetas)


@dataclass(frozen=True)
class PreparedModel:
    """Time-independent data of a Lindblad model, built once by :func:`prepare`.

    ``normalized`` has unit-norm jump operators and ``report`` is its
    condition report.  ``rescaled`` further polishes every non-nilpotent
    theta to exactly 1 and ``structure`` describes it (thetas 1, or 0 when
    nilpotent); both are None when the operators lack power-law structure.
    ``spectrum`` is the shared eigenbasis ``(u, energies, decays)`` of
    ``normalized``, None when conditions (i) or (ii) fail.
    """

    model: LindbladModel
    normalized: LindbladModel
    report: ConditionReport
    structure: GroupStructure | None
    rescaled: LindbladModel | None
    spectrum: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    @property
    def dim(self) -> int:
        return self.model.dim


def f_of_t(alpha: float, t: float) -> float:
    """Time weight of the series, ``t`` when alpha = 0 else ``(1-e^{-at})/a``.

    Continuous in alpha at 0; a short series is used when ``alpha * t`` is
    tiny so both branches agree to full precision.
    """
    if alpha < 0 or t < 0:
        raise ValueError("alpha and t must be nonnegative")
    if alpha < 1e-12:
        return float(t)
    x = alpha * t
    if x < 1e-8:
        return float(t * (1.0 - x / 2.0 + x * x / 6.0))
    return float(-np.expm1(-x) / alpha)


def effective_hamiltonian(model: LindbladModel) -> np.ndarray:
    """Non-Hermitian generator ``H - (i/2) sum_n gamma_n L_n^dag L_n``."""
    h_eff = model.hamiltonian.astype(complex).copy()
    for op, g in zip(model.lindblads, model.gammas):
        h_eff -= 0.5j * g * (op.conj().T @ op)
    return h_eff


def effective_spectrum(model: LindbladModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneously diagonalize H and the weighted dissipator sum.

    Returns ``(u, energies, decays)`` with ``H = u diag(energies) u^dag`` and
    ``sum_n gamma_n L_n^dag L_n = u diag(decays) u^dag``.  Requires
    conditions (i) and (ii); degenerate H eigenspaces are split by
    diagonalizing the dissipator block inside each cluster.
    """
    h = model.hamiltonian
    weighted = np.zeros_like(h)
    for op, g in zip(model.lindblads, model.gammas):
        weighted += g * (op.conj().T @ op)
    energies, u = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(energies).max()) if energies.size else 1.0)
    decays = np.empty_like(energies)
    start = 0
    for stop in range(1, len(energies) + 1):
        if stop < len(energies) and energies[stop] - energies[start] < 1e-8 * scale:
            continue
        block = u[:, start:stop]
        sub = block.conj().T @ weighted @ block
        w_sub, v_sub = np.linalg.eigh((sub + sub.conj().T) / 2)
        u[:, start:stop] = block @ v_sub
        decays[start:stop] = w_sub
        start = stop
    residual = np.abs(u.conj().T @ weighted @ u - np.diag(decays)).max()
    if residual > 1e-8 * max(1.0, float(np.abs(weighted).max())):
        raise ConditionError(
            f"dissipator sum is not diagonal in the Hamiltonian eigenbasis (residual {residual})"
        )
    return u, energies, np.clip(decays, 0.0, None)


def prepare(model: LindbladModel | PreparedModel) -> PreparedModel:
    """Normalize, check, detect structure and diagonalize a model once.

    A :class:`PreparedModel` is returned unchanged.
    """
    if isinstance(model, PreparedModel):
        return model
    normalized = normalize_lindblads(model)
    report = check_conditions(normalized)
    structure = detect_group_structure(normalized)
    rescaled = None
    if structure is not None:
        scales = [
            1.0 if theta == 0.0 else theta ** (1.0 / (2 * ell))
            for ell, theta in zip(structure.periods, structure.thetas)
        ]
        rescaled = LindbladModel(
            model.hamiltonian,
            tuple(op / b for op, b in zip(normalized.lindblads, scales)),
            tuple(b * b * g for g, b in zip(normalized.gammas, scales)),
        )
        thetas = tuple(0.0 if theta == 0.0 else 1.0 for theta in structure.thetas)
        structure = GroupStructure(structure.periods, thetas)
    spectrum = None
    if report.hamiltonian_commutes and report.dissipators_commute:
        spectrum = effective_spectrum(normalized)
    return PreparedModel(model, normalized, report, structure, rescaled, spectrum)


def effective_evolution(model: LindbladModel | PreparedModel, t: float) -> np.ndarray:
    """Contraction ``T(t) = exp(-i t H_eff)`` built in the shared eigenbasis.

    Falls back to a dense matrix exponential with a warning when conditions
    (i) or (ii) fail.
    """
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    prep = prepare(model)
    if prep.spectrum is None:
        warnings.warn(
            "commutation conditions unmet; using dense expm for T(t)",
            ConditionFallbackWarning,
        )
        return matexp(-1j * t * effective_hamiltonian(prep.model))
    u, energies, decays = prep.spectrum
    diag = np.exp(-1j * energies * t) * np.exp(-0.5 * decays * t)
    t_op = (u * diag) @ u.conj().T
    top = float(np.linalg.norm(t_op, 2))
    if top > 1.0 + CONTRACTION_TOL:
        raise ConditionError(f"T(t) is not a contraction (norm {top})")
    return t_op


def _require_conditions(report: ConditionReport) -> None:
    if not report.all_satisfied:
        raise ConditionError(
            "commutation conditions unsatisfied: " + ", ".join(report.failing())
        )


def _require_structure(prep: PreparedModel) -> None:
    if prep.structure is None:
        raise ConditionError("no finite group or semigroup structure detected")


def _series_tail(x: float, order: int) -> float:
    """Upper bound sum_{m > order} x^m / m! = e^x P(order+1, x)."""
    if x <= 0.0:
        return 0.0
    return float(np.exp(x) * gammainc(order + 1, x))


def build_tp_series(model: LindbladModel | PreparedModel, t: float, order: int) -> KrausSeries:
    """General truncated series over all index vectors of length <= order.

    The model is brought to unit-norm jump operators first (a generator
    invariant).  Terms whose operator vanishes numerically are pruned, so
    nilpotent systems terminate on their own.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    prep = prepare(model)
    _require_conditions(prep.report)
    norm_model = prep.normalized
    t_op = effective_evolution(prep, t)
    f_t = f_of_t(prep.report.alpha, t)
    n_ops = len(norm_model.lindblads)
    sqrt_gammas = [math.sqrt(g) for g in norm_model.gammas]

    terms: list[KrausTerm] = []
    frontier: list[tuple[tuple[int, ...], np.ndarray]] = [((), np.eye(prep.dim, dtype=complex))]
    for m in range(order + 1):
        base = math.sqrt(f_t**m / math.factorial(m))
        if m > 0:
            frontier = [
                (indices + (k,), prod @ norm_model.lindblads[k])
                for indices, prod in frontier
                for k in range(n_ops)
            ]
            frontier = [
                (indices, prod)
                for indices, prod in frontier
                if np.abs(prod).max() >= ZERO_OPERATOR_TOL
            ]
        for indices, prod in frontier:
            weight = base * math.prod(sqrt_gammas[k] for k in indices)
            if weight == 0.0:
                continue
            terms.append(KrausTerm(m, tuple(indices), weight, t_op @ prod))
    # A vanishing frontier terminates the series exactly (every longer
    # product contains a vanishing factor), so no trace weight is discarded.
    next_frontier_zero = all(
        np.abs(prod @ norm_model.lindblads[k]).max() < ZERO_OPERATOR_TOL
        for _indices, prod in frontier
        for k in range(n_ops)
    )
    total_rate = sum(norm_model.gammas)
    tail = 0.0 if next_frontier_zero else _series_tail(f_t * total_rate, order)
    return KrausSeries(
        terms=tuple(terms),
        truncation_order=order,
        tail_bound=tail,
        dim=prep.dim,
    )


def apply_series(series: KrausSeries, rho0, renormalize: bool = False) -> DensityMatrix:
    """Channel action ``sum_k K rho K^dag`` of a materialized series."""
    rho = _as_matrix(rho0)
    if rho.shape != (series.dim, series.dim):
        raise ValueError("state dimension does not match the series")
    out = np.zeros_like(rho)
    for term in series.terms:
        k = term.matrix
        out += k @ rho @ k.conj().T
    if renormalize:
        tr = float(np.trace(out).real)
        if tr <= 0.0:
            raise ValueError("cannot renormalize a trace-zero channel output")
        out = out / tr
    return classify_density(out)


def gen_hyperbolic(ell: int, m: int, theta: float, x: float) -> float:
    """Root-of-unity filtered exponential sum generalizing cosh and sinh.

    ``(1/l) theta^{-m/l} sum_k w^{-mk} exp(w^k theta^{1/l} x)`` with
    ``w = exp(2 pi i / l)``; for ``theta = 0`` the nilpotent convention
    ``x^m / m!`` applies.
    """
    if not 0 <= m < ell:
        raise ValueError("need 0 <= m < ell")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if theta == 0.0:
        return float(x**m / math.factorial(m))
    root = np.exp(2j * np.pi / ell)
    ks = np.arange(ell)
    total = (root ** (-m * ks) * np.exp(root**ks * theta ** (1.0 / ell) * x)).sum()
    value = theta ** (-m / ell) * total / ell
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ArithmeticError(f"imaginary residue {value.imag} in hyperbolic sum")
    return float(value.real)


def detect_group_structure(model: LindbladModel) -> GroupStructure | None:
    """Operator-level power-law detection on a unit-norm model.

    Looks for the smallest ``l <= dim`` with ``L^l`` proportional to the
    identity (theta = |c|^2) or zero (theta = 0), and verifies pairwise
    commutation up to a phase.  Returns None when any operator lacks the
    structure; absence is a valid outcome, not an error.
    """
    norm_model = normalize_lindblads(model)
    dim = norm_model.dim
    periods: list[int] = []
    thetas: list[float] = []
    for op in norm_model.lindblads:
        power = np.eye(dim, dtype=complex)
        found = False
        for ell in range(1, dim + 1):
            power = power @ op
            if np.abs(power).max() < GROUP_DETECT_TOL:
                periods.append(ell)
                thetas.append(0.0)
                found = True
                break
            c = np.trace(power) / dim
            if np.abs(power - c * np.eye(dim)).max() < GROUP_DETECT_TOL and abs(c) > GROUP_DETECT_TOL:
                periods.append(ell)
                thetas.append(float(abs(c) ** 2))
                found = True
                break
        if not found:
            return None
    for a in range(len(norm_model.lindblads)):
        for b in range(a + 1, len(norm_model.lindblads)):
            ab = norm_model.lindblads[a] @ norm_model.lindblads[b]
            ba = norm_model.lindblads[b] @ norm_model.lindblads[a]
            if np.abs(ab).max() < GROUP_DETECT_TOL and np.abs(ba).max() < GROUP_DETECT_TOL:
                continue
            if np.abs(ab).max() < GROUP_DETECT_TOL or np.abs(ba).max() < GROUP_DETECT_TOL:
                return None
            idx = np.unravel_index(np.abs(ba).argmax(), ba.shape)
            phase = ab[idx] / ba[idx]
            if abs(abs(phase) - 1.0) > GROUP_DETECT_TOL:
                return None
            if np.abs(ab - phase * ba).max() > GROUP_DETECT_TOL:
                return None
    return GroupStructure(tuple(periods), tuple(thetas))


def build_reduced_series(model: LindbladModel | PreparedModel, t: float) -> KrausSeries:
    """Exact finite series for power-law structured operator sets.

    One term per power vector ``(m_1 .. m_N)`` with ``m_n < period_n`` and
    weight ``prod_n sqrt(F_{l,m}^theta(gamma_n f(t)))``; the argument is the
    accumulated jump weight, which reduces to ``gamma_n t`` on the linear
    branch.  The tail bound is zero.
    """
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    prep = prepare(model)
    _require_structure(prep)
    _require_conditions(prep.report)
    work, structure = prep.rescaled, prep.structure
    t_op = effective_evolution(prep, t)
    f_t = f_of_t(prep.report.alpha, t)
    # roots[n][m] = sqrt(F_{l_n, m}(gamma_n f(t))), one per (operator, power)
    roots = [
        [math.sqrt(max(gen_hyperbolic(ell, m, theta, g * f_t), 0.0)) for m in range(ell)]
        for ell, theta, g in zip(structure.periods, structure.thetas, work.gammas)
    ]

    terms: list[KrausTerm] = []
    for powers in itertools.product(*(range(ell) for ell in structure.periods)):
        weight = 1.0
        op = t_op
        indices: list[int] = []
        for n, m_n in enumerate(powers):
            weight *= roots[n][m_n]
            for _ in range(m_n):
                op = op @ work.lindblads[n]
            indices.extend([n] * m_n)
        if weight == 0.0 or np.abs(op).max() < ZERO_OPERATOR_TOL:
            continue
        terms.append(KrausTerm(len(indices), tuple(indices), weight, op))
    max_order = sum(ell - 1 for ell in structure.periods)
    return KrausSeries(tuple(terms), max_order, 0.0, prep.dim)


def build_series(
    model: LindbladModel | PreparedModel, t: float, variant: str, order: int
) -> KrausSeries:
    """The series selector: ``reduced``, ``truncated`` at ``order``, or ``auto``.

    ``auto`` picks the exact reduced series exactly when the model has
    power-law structure, and the truncated series otherwise.
    """
    prep = prepare(model)
    if variant == "auto":
        variant = "reduced" if prep.structure is not None else "truncated"
    if variant == "reduced":
        return build_reduced_series(prep, t)
    if variant == "truncated":
        return build_tp_series(prep, t, order)
    raise ValueError(f"unknown series variant {variant!r}; choose auto, reduced or truncated")


def _require_abelian(prep: PreparedModel) -> None:
    """Refuse models whose factored form is not the channel."""
    _require_structure(prep)
    if any(prep.structure.nilpotent):
        raise ConditionError("factored evolution requires every theta > 0")
    _require_conditions(prep.report)
    # Factoring pulls the decay of T(t) out as exp(sum gamma_n t / 2), which
    # requires the weighted dissipator sum to be a uniform multiple of I.
    _, _, decays = prep.spectrum
    total_rate = sum(prep.rescaled.gammas)
    if np.ptp(decays) > 1e-10 * max(1.0, total_rate):
        raise ConditionError("factored evolution requires a uniform dissipator spectrum")


def factor_weights(work_gamma: float, period: int, t: float) -> np.ndarray:
    """Probability weights ``e^{-g t} F_{l,m}(g t)`` of one abelian factor."""
    w = np.array(
        [math.exp(-work_gamma * t) * gen_hyperbolic(period, m, 1.0, work_gamma * t) for m in range(period)]
    )
    return np.clip(w, 0.0, None)


def apply_factored_evolution(model: LindbladModel | PreparedModel, t: float, rho0) -> DensityMatrix:
    """Channel defined by the factored evolution, one factor at a time.

    Each factor acts as the finite Kraus sum ``sum_m w_m L^m rho (L^m)^dag``
    with the hyperbolic weights; composing the factors reproduces the
    reduced series exactly (the per-factor registers of the corresponding
    circuit keep the powers from interfering).
    """
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    prep = prepare(model)
    _require_abelian(prep)
    work = prep.rescaled
    rho = _as_matrix(rho0)
    if rho.shape != (work.dim, work.dim):
        raise ValueError("state dimension does not match the model")
    u, energies, _ = prep.spectrum
    unitary = (u * np.exp(-1j * energies * t)) @ u.conj().T
    out = unitary @ rho @ unitary.conj().T
    for op, g, ell in zip(work.lindblads, work.gammas, prep.structure.periods):
        acc = np.zeros_like(out)
        power = np.eye(work.dim, dtype=complex)
        for m, w in enumerate(factor_weights(g, ell, t)):
            acc += w * (power @ out @ power.conj().T)
            power = power @ op
        out = acc
    return classify_density(out)
