"""Observable reconstruction: quadratures, real-space densities, Wigner fields.

Densities use mass-independent coordinates, x0 = (a^dag + a)/sqrt(2) and
p0 = i(a^dag - a)/sqrt(2), so the ground-state width is 1/sqrt(2) and the
ground-state Wigner peak is 1/pi.  Hermite and Laguerre values come from
their three-term recurrences.  The Wigner field is its closed form on a
Gauss-Hermite node grid, interpolated exactly onto the phase-space grid by
two fixed matrices that ``WignerNodes`` builds once per grid and dimension.
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


def _wigner_closed_form(mat: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The closed form of ``wigner`` on the outer grid of the axes x and p.

    Each diagonal k = n' - n runs one upward Laguerre recurrence
    L_n^k(2 r^2) over n and sums its entries before one multiplication by
    z^k, so the work is O(d^2) field operations.
    """
    dim = mat.shape[0]
    r2 = x[:, None] ** 2 + p[None, :] ** 2
    two_r2 = 2.0 * r2
    z = math.sqrt(2.0) * (x[:, None] + 1j * p[None, :])
    z_power = np.ones_like(z)
    field = np.zeros_like(r2)
    for k in range(dim):
        entries = np.diagonal(mat, k)
        prev, cur = 0.0, np.ones_like(r2)
        total = np.zeros_like(z)
        for n, entry in enumerate(entries):
            if n > 0:
                prev, cur = cur, ((2 * n - 1 + k - two_r2) * cur - (n - 1 + k) * prev) / n
            coeff = (-1.0) ** n * (2.0 if k else 1.0) * math.sqrt(math.factorial(n) / math.factorial(n + k))
            total += (coeff * entry) * cur
        field += np.real(z_power * total)
        z_power *= z
    return np.exp(-r2) / np.pi * field


class WignerNodes:
    """The grid work of ``wigner`` for one phase-space grid and dimension.

    W e^{x^2 + p^2} is a polynomial of degree <= 2(d - 1) in each of x and
    p, so its values on the Gauss-Hermite nodes u_j / sqrt(2) of order
    2d - 1 fix it exactly.  On each axis, ``to_x`` and ``to_p`` map the
    node values to the grid: M[j, k] = sum_a psi_a(u_j) psi_a(sqrt(2) x_k)
    / sum_a psi_a(u_j)^2, where 1 / sum_a psi_a(u_j)^2 is the quadrature
    weight times e^{u_j^2} (Golub & Welsch, Math. Comp. 23, 221, 1969).
    """

    def __init__(self, grid: PhaseSpaceGrid, dim: int):
        from numpy.polynomial.hermite import hermgauss

        roots, _ = hermgauss(2 * dim - 1)
        at_roots = hermite_functions(2 * dim - 2, roots)
        interpolate = (at_roots / (at_roots**2).sum(axis=0)).T
        self.grid = grid
        self.dim = dim
        self.nodes = roots / math.sqrt(2.0)
        self.to_x = interpolate @ hermite_functions(2 * dim - 2, math.sqrt(2.0) * grid.x)
        self.to_p = interpolate @ hermite_functions(2 * dim - 2, math.sqrt(2.0) * grid.p)


def wigner(rho, grid: PhaseSpaceGrid, nodes: WignerNodes | None = None) -> np.ndarray:
    """Phase-space quasi-probability field of a single-mode state.

    The closed form over the upper triangle of rho,
    ``W = e^{-r^2}/pi sum_{n<=n'} (-1)^n (2 - delta) sqrt(n!/n'!)
    Re(rho_{n n'} (sqrt(2)(x+ip))^{n'-n}) L_n^{n'-n}(2 r^2)``,
    is evaluated on the (2d - 1)^2 Gauss-Hermite nodes of ``nodes`` and
    carried to the grid by two matrix products, which is exact up to
    rounding.  ``nodes`` is built for ``grid`` and the dimension of rho when
    not given.  Output axes are (x, p).
    """
    mat = _as_matrix(rho)
    if nodes is None:
        nodes = WignerNodes(grid, mat.shape[0])
    elif nodes.grid is not grid or nodes.dim != mat.shape[0]:
        raise ValueError("Wigner nodes were built for another grid or dimension")
    return nodes.to_x.T @ _wigner_closed_form(mat, nodes.nodes, nodes.nodes) @ nodes.to_p


def grid_integral(field: np.ndarray, grid: PhaseSpaceGrid) -> float:
    """Trapezoid integral of a 2-d field over the grid."""
    return float(np.trapezoid(np.trapezoid(field, grid.p, axis=1), grid.x))


def wigner_marginal(field: np.ndarray, grid: PhaseSpaceGrid, which: str = POSITION) -> np.ndarray:
    if which == POSITION:
        return np.trapezoid(field, grid.p, axis=1)
    if which == MOMENTUM:
        return np.trapezoid(field, grid.x, axis=0)
    raise ValueError(f"unknown marginal {which!r}")

