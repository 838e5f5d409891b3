"""Time-perturbative Kraus series construction and application.

The channel generated by a Lindblad model whose Hamiltonian and jump
operators satisfy the four commutation conditions factorizes into Kraus
terms ``K = a * T(t) * L_{k_1} ... L_{k_m}`` sharing one contraction
``T(t) = exp(-i t H_eff)``; only ``a`` and ``T(t)`` depend on time.
:func:`series_trajectory`, the one series builder, finds the operator
products once and yields a time grid of either

* the general truncated series over all index vectors up to order M, or
* the exact finite series for operators with power-law structure
  (``L^l = c I`` with ``|c| = 1``, or ``L^l = 0``, plus commutativity up to phase);

``build_series`` and its two fixed-variant forms are its one-point calls.
The factored channel, one operator at a time, is valid for the abelian case.

Everything that does not depend on time (unit-norm operators, the condition
report, the group structure, the shared eigenbasis and the operator dilations)
is computed once by :func:`prepare`; every construction accepts a plain model
or its :class:`PreparedModel`.

Weights use the accumulated jump weight ``x_n = gamma_n * f(t)`` where
``f(t) = t`` for the linear branch and ``(1 - exp(-alpha t)) / alpha``
otherwise.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .lindblad import ConditionReport, LindbladModel, check_conditions, normalize_lindblads
from .matkernel import sznagy_dilation, _integer, _state, _time

ZERO_OPERATOR_TOL = 1e-14
GROUP_DETECT_TOL = 1e-10
# The most terms a truncated series may hold; a larger table is refused before it is built.
MAX_SERIES_TERMS = 2**16
# The terms of a positive series that one pass of _positive_series adds at each element still summing.
SERIES_CHUNK = 16


class ConditionError(ValueError):
    """A construction requiring the commutation conditions was refused."""


@dataclass(frozen=True)
class KrausTerm:
    """One term of a series, as :attr:`KrausSeries.terms` builds it; its Kraus matrix is ``weight * operator``."""

    order: int
    indices: tuple[int, ...]
    weight: float
    operator: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.weight * self.operator


@dataclass(frozen=True)
class KrausSeries:
    """The series at one time, or at a block of times, over the term table that every point of its run shares.

    ``table`` holds each term's application sequence of Lindblad-operator indices
    (leftmost applied last), whose length is the term's order.  The point keeps the
    table ``rows`` of nonzero weight: ``weights`` are their weights and ``operators``
    their ``(K, d, d)`` stack of ``T(t) @ prod(L)`` over unit-norm operators, so term
    k's Kraus matrix is ``weights[k] * operators[k]``.  A block of ``b`` points that
    keep the same rows has a leading axis of ``b`` on ``weights``, ``operators`` and
    ``tail_bound``; ``terms`` reads a one-point series.
    """

    table: tuple[tuple[int, ...], ...]
    rows: tuple[int, ...]
    weights: np.ndarray
    operators: np.ndarray
    truncation_order: int
    tail_bound: float

    @property
    def terms(self) -> tuple[KrausTerm, ...]:
        """The kept terms as :class:`KrausTerm` objects, built on each read."""
        kept = [self.table[row] for row in self.rows]
        return tuple(KrausTerm(len(ind), ind, w, op) for ind, w, op in zip(kept, self.weights.tolist(), self.operators))


@dataclass(frozen=True)
class GroupStructure:
    """Per-operator power law of unit-norm operators: ``L^period = c I`` with ``|c| = 1``
    and ``theta = 1``, or ``L^period = 0`` with ``theta = 0``."""

    periods: tuple[int, ...]
    thetas: tuple[float, ...]

    @property
    def nilpotent(self) -> tuple[bool, ...]:
        return tuple(th == 0.0 for th in self.thetas)


@dataclass(frozen=True)
class PreparedModel:
    """Time-independent data of a Lindblad model, built once by :func:`prepare`.

    ``normalized``, the model with unit-norm jump operators, is the one
    operator set that every construction reads.  ``report`` is its condition
    report and ``structure`` its power law, None when the operators lack one.
    ``spectrum`` is its shared eigenbasis ``(u, energies, decays)``, None
    when conditions (i) or (ii) fail, and ``dilations`` holds the Sz.-Nagy
    dilation of each of its operators.
    """

    normalized: LindbladModel
    report: ConditionReport
    structure: GroupStructure | None
    spectrum: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    dilations: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.normalized.dim


def f_of_t(alpha: float, t: float) -> float:
    """Time weight of the series, ``t`` when alpha = 0 else ``(1-e^{-at})/a``.

    Continuous in alpha at 0: ``expm1`` keeps the second form exact to
    rounding as ``alpha * t`` goes to 0, where it meets the first.
    """
    t = _time(t)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return float(_time_weight(alpha, t))


def _time_weight(alpha: float, t):
    """:func:`f_of_t` of a checked ``alpha`` at each checked time of ``t``, a float or an array."""
    return t if alpha < 1e-12 else -np.expm1(-alpha * t) / alpha


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
        decays[start:stop] = w_sub
        if stop - start > 1:
            # the rotation may mix vectors of different (near-degenerate) energies, so each
            # rotated vector takes its own energy diag(u^dag H u)
            block = block @ v_sub
            u[:, start:stop] = block
            energies[start:stop] = np.einsum("ij,ij->j", block.conj(), h @ block).real
        start = stop
    residual = np.abs(u.conj().T @ weighted @ u - np.diag(decays)).max()
    if residual > 1e-8 * max(1.0, float(np.abs(weighted).max())):
        raise ConditionError(
            f"dissipator sum is not diagonal in the Hamiltonian eigenbasis (residual {residual})"
        )
    return u, energies, np.clip(decays, 0.0, None)


def prepare(model: LindbladModel | PreparedModel) -> PreparedModel:
    """Normalize, check, detect structure, diagonalize and dilate a model once.

    A :class:`PreparedModel` is returned unchanged.
    """
    if isinstance(model, PreparedModel):
        return model
    normalized = normalize_lindblads(model)
    report = check_conditions(normalized)
    structure = detect_group_structure(normalized, unit_norm=True)
    spectrum = None
    if report.hamiltonian_commutes and report.dissipators_commute:
        spectrum = effective_spectrum(normalized)
    dilations = tuple(sznagy_dilation(op) for op in normalized.lindblads)
    return PreparedModel(normalized, report, structure, spectrum, dilations)


def _require_spectrum(prep: PreparedModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shared eigenbasis ``(u, energies, decays)``; ConditionError when (i) or (ii) fail."""
    if prep.spectrum is None:
        raise ConditionError("H and the dissipators share no eigenbasis; conditions (i)/(ii) unmet")
    return prep.spectrum


def effective_evolution(model: LindbladModel | PreparedModel, t: float) -> np.ndarray:
    """Contraction ``T(t) = exp(-i t H_eff)`` built in the shared eigenbasis.

    ``u`` is unitary and the decays are nonnegative, so the norm of ``T(t)``
    is ``max exp(-decays t / 2) <= 1`` by construction.  Raises
    :class:`ConditionError` when conditions (i) or (ii) fail.
    """
    return _contraction(_require_spectrum(prepare(model)), _time(t))


def _contraction(spectrum: tuple[np.ndarray, np.ndarray, np.ndarray], t) -> np.ndarray:
    """``T(t)`` at each checked time of ``t``, a float or an array, stacked along the shape of ``t``."""
    u, energies, decays = spectrum
    t = np.asarray(t)[..., np.newaxis]
    diag = np.exp(-1j * energies * t) * np.exp(-0.5 * decays * t)
    return (u * diag[..., np.newaxis, :]) @ u.conj().T


def _require_conditions(report: ConditionReport) -> None:
    if not report.all_satisfied:
        raise ConditionError("commutation conditions unsatisfied: " + ", ".join(report.failing()))


def _require_structure(prep: PreparedModel) -> None:
    if prep.structure is None:
        raise ConditionError("no finite group or semigroup structure detected")


def _positive_series(x, first, stride: int = 1, ratio: float = 1.0):
    """``sum_j ratio^j x^(first + j stride) / (first + j stride)!`` for ``x, ratio >= 0``, at each element of
    ``x`` and ``first``, broadcast together.

    Every term is nonnegative, so the sum is taken term by term, without
    cancellation, until a term no longer raises it.  The first term is
    ``1 * x / 1 * x / 2 * ... * x / first`` and each next one the last times
    ``ratio`` and ``stride`` factors ``x / n``.  Each element stops on its
    own and takes the float operations of its lone evaluation in the same
    order: products and sums run along an axis (``cumprod``, ``cumsum``),
    which multiplies and adds one element after the other, ``SERIES_CHUNK``
    terms at a time.  A float ``x`` gives a numpy float.
    """
    x, first = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(first))
    shape, x, first = x.shape, x.ravel(), first.ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range ends at inf, as a float's does
        # x^first / first!: column k of the running products is 1 * x / 1 * ... * x / k
        factors = x[:, np.newaxis] / np.arange(1, int(first.max(initial=0)) + 1)
        term = np.cumprod(np.column_stack([np.ones(x.size), factors]), axis=1)[np.arange(x.size), first]
        total, going = np.zeros(x.size), np.arange(x.size)  # the elements whose terms still raise their sum
        steps = np.arange(1, SERIES_CHUNK * stride + 1).reshape(SERIES_CHUNK, stride)
        for passed in itertools.count(0, SERIES_CHUNK * stride):
            if not going.size:
                break
            # the next terms: each is the last times ratio and the stride factors x / n
            ratios = np.full((going.size, SERIES_CHUNK, 1), ratio)
            factors = np.concatenate([ratios, x[going, None, None] / (first[going, None, None] + passed + steps)], 2)
            products = np.cumprod(np.column_stack([term[going], factors.reshape(going.size, -1)]), axis=1)
            terms = products[:, :: stride + 1]  # the current term and the SERIES_CHUNK after it
            sums = np.cumsum(np.column_stack([total[going], terms[:, :-1]]), axis=1)
            rises = sums[:, 1:] > sums[:, :-1]
            stop = np.where(rises.all(axis=1), SERIES_CHUNK, rises.argmin(axis=1))  # the first term that does not
            rows = np.arange(going.size)
            total[going], term[going] = sums[rows, stop], terms[rows, stop]
            going = going[stop == SERIES_CHUNK]
    return total.reshape(shape)[()]


def _series_tail(x, order: int):
    """Upper bound sum_{m > order} x^m / m!, clipped at 1, the largest trace distance, at each element of ``x``.

    From ``x >= order + 1`` on, the first term alone is at least 1; below,
    :func:`_positive_series` sums terms that fall at the ratio ``x / m < 1``.
    """
    x = np.asarray(x, dtype=float)
    tails = np.where(x <= 0.0, 0.0, 1.0)
    summed = (x > 0.0) & (x < order + 1)
    tails[summed] = np.minimum(_positive_series(x[summed], order + 1), 1.0)
    return tails[()]


def apply_series(series: KrausSeries, rho0) -> np.ndarray:
    """Channel action ``sum_k K rho K^dag`` of a materialized series, as the complex
    ``(dim, dim)`` array of that sum, neither validated nor symmetrized; a block
    gives the ``(b, dim, dim)`` stack of its points, each summed term by term."""
    dim = series.operators.shape[-1]
    rho = _state(rho0, dim, "the series")
    out = np.zeros((*series.weights.shape[:-1], dim, dim), dtype=complex)
    # term first, complex as a float times a complex matrix is taken (w + 0j) * z, so cast once
    weights = series.weights.astype(complex).T[..., np.newaxis, np.newaxis]
    for weight, operator in zip(weights, series.operators.swapaxes(0, -3)):
        kraus = weight * operator
        out += kraus @ rho @ kraus.conj().mT
    return out


def gen_hyperbolic(ell: int, m: int, theta: float, x: float) -> float:
    """Generalized hyperbolic function ``F_{l,m}(x) = sum_j theta^j x^(m + j l) / (m + j l)!``.

    ``l = 2, theta = 1`` gives cosh (m = 0) and sinh (m = 1); ``theta = 0``
    leaves the nilpotent ``x^m / m!``.  It is the positive series of
    :func:`_positive_series`, so every weight is a sum of nonnegative terms.
    """
    if not 0 <= m < ell:
        raise ValueError("need 0 <= m < ell")
    if not theta >= 0:
        raise ValueError("theta must be nonnegative")
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    return float(_positive_series(x, m, ell, theta))


def detect_group_structure(model: LindbladModel, unit_norm: bool = False) -> GroupStructure | None:
    """Operator-level power-law detection on the unit-norm form of a model.

    Looks for the smallest ``l <= dim`` with ``L^l = c I``, ``|c| = 1``
    (theta = 1) or ``L^l = 0`` (theta = 0), and verifies pairwise
    commutation up to a phase.  A unit-norm ``L`` with ``L^l = c I`` has
    ``|c| <= 1``, and alone it fails condition (iv), ``[L^dag L, L] =
    lambda L``, when ``|c| < 1``: ``lambda != 0`` makes ``L`` nilpotent and
    ``lambda = 0`` normal, so such an operator gets no structure.  ``L^l``
    counts as zero only at rounding level: when no entry exceeds
    ``l * dim * eps`` times the smaller of 1 (the norm of the unit-norm
    power) and the largest entry of ``|L|^l`` (the entrywise scale of its
    rounding error).  So a small but exactly formed power, such as the
    63rd of the unit-norm ladder operator at d = 64 (largest entry 9e-14),
    is kept.  Returns None when any operator lacks the structure; absence
    is a valid outcome, not an error.  ``unit_norm=True`` skips
    normalizing operators that already have unit norm.
    """
    norm_model = model if unit_norm else normalize_lindblads(model)
    dim = norm_model.dim
    eps = np.finfo(float).eps
    periods: list[int] = []
    thetas: list[float] = []
    for op in norm_model.lindblads:
        power = np.eye(dim, dtype=complex)
        abs_op, abs_power = np.abs(op), np.eye(dim)  # |L| and |L|^l
        for ell in range(1, dim + 1):
            power = power @ op
            abs_power = abs_power @ abs_op
            if np.abs(power).max() <= ell * dim * eps * min(1.0, abs_power.max()):
                periods.append(ell)
                thetas.append(0.0)
                break
            c = np.trace(power) / dim
            if np.abs(power - c * np.eye(dim)).max() < GROUP_DETECT_TOL and abs(abs(c) - 1.0) < GROUP_DETECT_TOL:
                periods.append(ell)
                thetas.append(1.0)
                break
        else:
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


def series_trajectory(
    model: LindbladModel | PreparedModel,
    ts: Iterable[float],
    variant: str,
    order: int,
    points: Callable[[int], int] | None = None,
) -> Iterator[KrausSeries]:
    """Yield the series at each time of ``ts``: ``reduced``, ``truncated`` at ``order``, or ``auto``.

    ``auto`` picks ``reduced`` exactly when the model has power-law structure.
    The operator products do not depend on time, so the term table and the
    stack of its products are built once, terms whose product vanishes pruned;
    the times only build ``T(t)``, one batched ``T(t) @ stack``, the weights
    and the tail bound.  These run once per block of consecutive times:
    ``points`` maps the table's term count to the times a block takes (at
    least one), and each yielded series covers a block, with a leading axis
    of its points.  A block is split where the kept rows change (``t = 0``
    keeps only the identity), and a point whose weights leave the float range
    ends it: the points before it are yielded, then its refusal raised.
    Without ``points`` each series is one time's, with no leading axis.
    ``reduced`` is the exact finite series, one term per
    power vector ``(m_1 .. m_N)`` with ``m_n < period_n`` and weight
    ``prod_n sqrt(F_{l,m}^theta(gamma_n f(t)))``.  ``truncated`` has one term
    per index vector of length ``<= order`` over the unit-norm operators;
    nilpotent systems terminate on their own.  A negative ``order`` is
    refused whatever the variant.  A truncated table that would
    pass ``MAX_SERIES_TERMS`` is refused with a ``ValueError`` before the
    level that passes it is built.
    """
    if _integer(order, "order") < 0:
        raise ValueError("order must be nonnegative")
    prep = prepare(model)
    if variant == "auto":
        variant = "reduced" if prep.structure is not None else "truncated"
    spectrum = _require_spectrum(prep)
    eye = np.eye(prep.dim, dtype=complex)
    work, structure = prep.normalized, prep.structure
    if variant == "reduced":
        _require_structure(prep)
        _require_conditions(prep.report)
        entries = []  # (indices, product, power vector)
        for powers in itertools.product(*(range(ell) for ell in structure.periods)):
            indices = tuple(n for n, m_n in enumerate(powers) for _ in range(m_n))
            product = functools.reduce(np.matmul, (work.lindblads[n] for n in indices), eye)
            if np.abs(product).max() >= ZERO_OPERATOR_TOL:
                entries.append((indices, product, powers))
        del product
        order = sum(ell - 1 for ell in structure.periods)
        terminates = True
    elif variant == "truncated":
        _require_conditions(prep.report)
        entries, frontier = [], [((), eye)]
        for _ in range(order):
            entries += frontier
            if len(entries) + len(frontier) * len(work.lindblads) > MAX_SERIES_TERMS:
                raise ValueError(
                    f"a truncated series of order {order} over {len(work.lindblads)} operators "
                    f"would exceed {MAX_SERIES_TERMS} terms; lower the order"
                )
            frontier = [
                (indices + (k,), prod @ op) for indices, prod in frontier for k, op in enumerate(work.lindblads)
            ]
            frontier = [(indices, prod) for indices, prod in frontier if np.abs(prod).max() >= ZERO_OPERATOR_TOL]
        # (indices, product, sqrt(prod gamma_k / m!)); the weight is the last times sqrt(f(t)^m)
        entries = [
            (ind, prod, math.sqrt(math.prod(work.gammas[k] for k in ind) / math.factorial(len(ind))))
            for ind, prod in entries + frontier
        ]
        # A vanishing frontier terminates the series exactly (every longer
        # product contains a vanishing factor), so no trace weight is discarded.
        terminates = all(
            np.abs(prod @ op).max() < ZERO_OPERATOR_TOL for _indices, prod in frontier for op in work.lindblads
        )
        del frontier
    else:
        raise ValueError(f"unknown series variant {variant!r}; choose auto, reduced or truncated")
    # the products live on only in the stack, so the run holds one copy of them
    table, products, factors = zip(*entries)
    stack = np.array(products)
    del entries, products, eye

    if variant == "reduced":
        laws = list(zip(structure.periods, structure.thetas))
        exponents = np.array(factors, dtype=int).reshape(len(table), len(laws))  # m_n of each term
    else:
        scales, orders = np.array(factors), np.array([len(indices) for indices in table])
        powers_taken = int(orders.max()) + 1
    total_rate = sum(work.gammas)
    size = 1 if points is None else max(1, points(len(table)))
    times = iter(ts)
    while block := [_time(t) for t in itertools.islice(times, size)]:
        t = np.array(block)
        f = _time_weight(prep.report.alpha, t)
        if variant == "reduced":
            # roots[n][m] = sqrt(F_{l_n, m}(gamma_n f(t))) over the block; the operators of one power law
            # (l, theta) share one sum over their powers m
            x = np.multiply.outer(work.gammas, f)
            roots = [None] * len(laws)
            for ell, theta in set(laws):
                same = [n for n, law in enumerate(laws) if law == (ell, theta)]
                shared = np.sqrt(_positive_series(x[same], np.arange(ell)[:, np.newaxis, np.newaxis], ell, theta))
                for i, n in enumerate(same):
                    roots[n] = shared[:, i]
            # each term's prod_n roots[n][m_n], multiplied in operator order from 1 as math.prod does
            with np.errstate(over="ignore", invalid="ignore"):  # past the float range, as floats do
                weights = math.prod((roots[n][exponents[:, n]] for n in range(len(laws))), start=1).T
        else:
            # each point's f(t) ** m by float arithmetic, for every order m of the table
            powers = np.array([_float_powers(f_t, powers_taken) for f_t in f.tolist()])
            with np.errstate(invalid="ignore"):
                weights = scales * np.sqrt(powers[:, orders])
        # weights is (b, K); the block ends before its first point with a weight past the float range
        finite = np.isfinite(weights).all(axis=-1)
        good = len(block) if finite.all() else int(np.argmin(finite))
        kept = (weights[:good] != 0.0).tolist()
        changes = [index for index in range(1, good) if kept[index] != kept[index - 1]]
        t_ops = _contraction(spectrum, t[:good])
        tails = [0.0] * good if terminates else _series_tail(f[:good] * total_rate, order).tolist()
        for start, stop in itertools.pairwise([0, *changes, good] if good else []):
            rows = [row for row, keep in enumerate(kept[start]) if keep]
            columns = slice(None) if len(rows) == len(table) else rows
            at = start if points is None else slice(start, stop)  # a lone time has no leading axis
            # the operators are built in the yield, so that while a block is out only its caller holds them
            yield KrausSeries(
                table,
                tuple(rows),
                weights[at, columns],
                t_ops[at, np.newaxis] @ stack[columns],
                order,
                tails[start] if points is None else np.array(tails[at]),
            )
        if good < len(block):
            raise _weight_overflow(block[good], max(work.gammas) * f[good])


def _float_powers(x: float, count: int) -> list[float]:
    """``x ** m`` for ``m < count`` as a float computes each (libm's pow, which numpy's array power can
    miss by an ulp); inf past the float range, which for ``x >= 0`` holds every higher power too."""
    powers = []
    try:
        for m in range(count):
            powers.append(x**m)
    except OverflowError:  # a float power overflows with an exception, not with inf
        powers += [math.inf] * (count - len(powers))
    return powers


def build_series(model: LindbladModel | PreparedModel, t: float, variant: str, order: int) -> KrausSeries:
    """The series at one time ``t``: the one-point :func:`series_trajectory`."""
    return next(series_trajectory(model, [t], variant, order))


def build_tp_series(model: LindbladModel | PreparedModel, t: float, order: int) -> KrausSeries:
    """General truncated series over all index vectors of length <= order."""
    return build_series(model, t, "truncated", order)


def build_reduced_series(model: LindbladModel | PreparedModel, t: float) -> KrausSeries:
    """Exact finite series for power-law structured operator sets."""
    return build_series(model, t, "reduced", 0)


def _require_abelian(prep: PreparedModel) -> None:
    """Refuse models whose factored form is not the channel."""
    _require_structure(prep)
    if any(prep.structure.nilpotent):
        raise ConditionError("factored evolution requires every theta > 0")
    _require_conditions(prep.report)
    # Factoring pulls the decay of T(t) out as exp(sum gamma_n t / 2), which
    # requires the weighted dissipator sum to be a uniform multiple of I.
    _, _, decays = prep.spectrum
    total_rate = sum(prep.normalized.gammas)
    if np.ptp(decays) > 1e-10 * max(1.0, total_rate):
        raise ConditionError("factored evolution requires a uniform dissipator spectrum")


def _weight_overflow(t: float, x: float) -> ConditionError:
    """The refusal of a point whose series weights left the float range."""
    return ConditionError(
        f"Kraus weights overflow at t={t:.6g}: gamma*f(t) = {x:.6g} puts exp(gamma*f(t)) beyond the float range"
    )


def factor_weights(gamma: float, period: int, t: float) -> np.ndarray:
    """Probability weights ``e^{-g t} F_{l,m}(g t)`` of one abelian factor.

    Past ``g t`` of about 709, ``F`` overflows to inf while ``e^{-g t}``
    underflows to 0: a :class:`ConditionError` names the point.
    """
    x = gamma * t
    weights = np.array([math.exp(-x) * gen_hyperbolic(period, m, 1.0, x) for m in range(period)])
    if not np.isfinite(weights).all():
        raise _weight_overflow(t, x)
    return weights


def apply_factored_evolution(model: LindbladModel | PreparedModel, t: float, rho0) -> np.ndarray:
    """Channel defined by the factored evolution, one factor at a time, as a complex
    ``(dim, dim)`` array, neither validated nor symmetrized.

    Each factor acts as the finite Kraus sum ``sum_m w_m L^m rho (L^m)^dag``
    with the hyperbolic weights; composing the factors reproduces the
    reduced series exactly (the per-factor registers of the corresponding
    circuit keep the powers from interfering).
    """
    t = _time(t)
    prep = prepare(model)
    _require_abelian(prep)
    work = prep.normalized
    rho = _state(rho0, work.dim, "the model")
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
    return out
