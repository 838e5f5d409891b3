"""Observable reconstruction: quadratures, real-space densities, Wigner fields.

Densities use mass-independent coordinates, x0 = (a^dag + a)/sqrt(2) and
p0 = i(a^dag - a)/sqrt(2), so the ground-state width is 1/sqrt(2) and the
ground-state Wigner peak is 1/pi.  Hermite and Laguerre values come from
their three-term recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matkernel import _as_matrix

POSITION = "position"
MOMENTUM = "momentum"


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform rectangular phase-space grid."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        for name, axis in (("x", x), ("p", p)):
            if axis.ndim != 1 or axis.size < 2 or np.any(np.diff(axis) <= 0):
                raise ValueError(f"{name} grid must be strictly increasing")
            if max(axis.max(), -axis.min()) < 4.0:
                raise ValueError(f"{name} grid must reach at least +-4")
            if np.diff(axis).max() > 0.1 + 1e-12:
                raise ValueError(f"{name} grid step must be <= 0.1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)


def default_grid(extent: float = 5.0, step: float = 0.05) -> PhaseSpaceGrid:
    axis = np.arange(-extent, extent + step / 2, step)
    return PhaseSpaceGrid(axis, axis.copy())


def quadrature_expectations(rho, mode_ops) -> tuple[tuple[float, float], ...]:
    """Per-mode (x0, p0) expectations from the mode lowering operators."""
    mat = _as_matrix(rho)
    out = []
    for a_op in mode_ops:
        a_op = np.asarray(a_op, dtype=complex)
        if a_op.shape != mat.shape:
            raise ValueError("mode operator dimension does not match the state")
        mean_a = complex(np.trace(a_op @ mat))
        x0 = math.sqrt(2.0) * mean_a.real
        p0 = math.sqrt(2.0) * mean_a.imag
        out.append((x0, p0))
    return tuple(out)


def hermite_functions(max_n: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_0 .. psi_max_n on x."""
    x = np.asarray(x, dtype=float)
    psi = np.empty((max_n + 1, x.size))
    psi[0] = np.exp(-x * x / 2) / np.pi**0.25
    if max_n >= 1:
        psi[1] = math.sqrt(2.0) * x * psi[0]
    for n in range(2, max_n + 1):
        psi[n] = math.sqrt(2.0 / n) * x * psi[n - 1] - math.sqrt((n - 1) / n) * psi[n - 2]
    return psi


def position_density(rho, grid: PhaseSpaceGrid, which: str = POSITION) -> np.ndarray:
    """Hermite-Gauss bilinear expansion of the single-mode diagonal density.

    The momentum branch multiplies each eigenfunction by its analytic
    Fourier phase (-i)^n instead of transforming numerically, so no grid
    aliasing enters.
    """
    mat = _as_matrix(rho)
    dim = mat.shape[0]
    lowest = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
    if lowest < -1e-8:
        raise ValueError(f"state has eigenvalue {lowest}; project it before evaluating")
    if which == POSITION:
        axis = grid.x
    elif which == MOMENTUM:
        axis = grid.p
    else:
        raise ValueError(f"unknown density kind {which!r}")
    psi = hermite_functions(dim - 1, axis).astype(complex)
    if which == MOMENTUM:
        phases = (-1j) ** np.arange(dim)
        psi = psi * phases[:, None]
    density = np.einsum("nm,nk,mk->k", mat, psi, psi.conj())
    if np.abs(density.imag).max() > 1e-10:
        raise ArithmeticError("density has a nonreal residue; input not Hermitian?")
    return density.real


def _laguerre_column(n: int, k: int, x: np.ndarray) -> np.ndarray:
    """Generalized Laguerre L_n^(k) by the three-term recurrence."""
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 1.0 + k - x
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1 + k - x) * cur - (j - 1 + k) * prev) / j
    return cur


def wigner(rho, grid: PhaseSpaceGrid) -> np.ndarray:
    """Phase-space quasi-probability field of a single-mode state.

    Evaluates the closed form over the upper triangle of rho,
    ``W = e^{-r^2}/pi sum_{n<=n'} (-1)^n (2 - delta) sqrt(n!/n'!)
    Re(rho_{n n'} (sqrt(2)(x+ip))^{n'-n}) L_n^{n'-n}(2 r^2)``,
    normalized so the grid integral is 1.  Output axes are (x, p).
    """
    mat = _as_matrix(rho)
    dim = mat.shape[0]
    xg, pg = np.meshgrid(grid.x, grid.p, indexing="ij")
    r2 = xg**2 + pg**2
    z = math.sqrt(2.0) * (xg + 1j * pg)
    field = np.zeros_like(r2)
    for n in range(dim):
        for n_prime in range(n, dim):
            entry = mat[n, n_prime]
            if entry == 0:
                continue
            coeff = (-1.0) ** n * (2.0 if n_prime > n else 1.0)
            coeff *= math.sqrt(math.factorial(n) / math.factorial(n_prime))
            radial = _laguerre_column(n, n_prime - n, 2.0 * r2)
            field += coeff * np.real(entry * z ** (n_prime - n)) * radial
    return np.exp(-r2) / np.pi * field


def grid_integral(field: np.ndarray, grid: PhaseSpaceGrid) -> float:
    """Trapezoid integral of a 2-d field over the grid."""
    return float(np.trapezoid(np.trapezoid(field, grid.p, axis=1), grid.x))


def wigner_marginal(field: np.ndarray, grid: PhaseSpaceGrid, which: str = POSITION) -> np.ndarray:
    if which == POSITION:
        return np.trapezoid(field, grid.p, axis=1)
    if which == MOMENTUM:
        return np.trapezoid(field, grid.x, axis=0)
    raise ValueError(f"unknown marginal {which!r}")

