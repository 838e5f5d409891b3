import numpy as np
import pytest

from kraussim import analysis, circuits, kraus, lindblad as lb, models

from conftest import random_density


@pytest.fixture(scope="module")
def grid():
    return analysis.default_grid()


def test_grid_validation():
    with pytest.raises(ValueError):
        analysis.PhaseSpaceGrid(np.linspace(-2, 2, 50), np.linspace(-5, 5, 100))
    with pytest.raises(ValueError):
        analysis.PhaseSpaceGrid(np.linspace(-5, 5, 20), np.linspace(-5, 5, 300))


def test_quadratures_ground_state(grid):
    a = models.annihilation_operator(3)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    ((x0, p0),) = analysis.quadrature_expectations(rho, [a])
    assert x0 == pytest.approx(0.0, abs=1e-12)
    assert p0 == pytest.approx(0.0, abs=1e-12)


def test_quadratures_superposition():
    a = models.annihilation_operator(3)
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    ((x0, p0),) = analysis.quadrature_expectations(rho, [a])
    assert x0 == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert p0 == pytest.approx(0.0, abs=1e-12)


def test_quadratures_circuit_path_matches_oracle(qho_spec, initial_states):
    # infinite-shot tomography output reproduces the oracle trajectory
    psi = initial_states["qho-oscillating"]
    a = qho_spec.mode_ops[0]
    for t in (0.4, 1.2):
        series = kraus.build_tp_series(qho_spec.model, t, 3)
        rho_circ, _ = circuits.execute_series_tomography(qho_spec.model, series, t, psi)
        oracle = lb.exact_evolve(qho_spec.model, psi.density(), t)
        got = analysis.quadrature_expectations(rho_circ.matrix, [a])[0]
        want = analysis.quadrature_expectations(oracle.matrix, [a])[0]
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)


def test_position_density_ground(grid):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    dens = analysis.position_density(rho, grid)
    mid = np.argmin(np.abs(grid.x))
    assert dens[mid] == pytest.approx(1 / np.sqrt(np.pi), abs=1e-6)
    assert dens[mid] == pytest.approx(0.56419, abs=1e-5)
    assert np.trapezoid(dens, grid.x) == pytest.approx(1.0, abs=1e-4)


def test_position_density_first_excited(grid):
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    dens = analysis.position_density(rho, grid)
    mid = np.argmin(np.abs(grid.x))
    assert dens[mid] == pytest.approx(0.0, abs=1e-12)
    expected = 2 * grid.x**2 * np.exp(-grid.x**2) / np.sqrt(np.pi)
    assert np.abs(dens - expected).max() < 1e-10


def test_position_density_mixed_normalized(grid):
    dens = analysis.position_density(np.eye(4) / 4, grid)
    assert np.trapezoid(dens, grid.x) == pytest.approx(1.0, abs=1e-4)


def test_position_density_rejects_unphysical(grid):
    with pytest.raises(ValueError):
        analysis.position_density(np.diag([1.3, -0.3, 0.0, 0.0]), grid)


def test_momentum_density_analytic_phases(grid):
    # real symmetric coherence: position density shifts, momentum stays even
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    dens_p = analysis.position_density(rho, grid, analysis.MOMENTUM)
    assert np.abs(dens_p - dens_p[::-1]).max() < 1e-10
    assert np.trapezoid(dens_p, grid.p) == pytest.approx(1.0, abs=1e-4)
    # i|0> + |1> coherence moves momentum instead
    psi_i = np.array([1j, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2)
    dens_p = analysis.position_density(np.outer(psi_i, psi_i.conj()), grid, analysis.MOMENTUM)
    mean_p = np.trapezoid(grid.p * dens_p, grid.p)
    a = models.annihilation_operator(3)
    expected = analysis.quadrature_expectations(np.outer(psi_i, psi_i.conj()), [a])[0][1]
    assert mean_p == pytest.approx(expected, abs=1e-4)


def test_wigner_fock_values(grid):
    mid = np.argmin(np.abs(grid.x)), np.argmin(np.abs(grid.p))
    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    w0 = analysis.wigner(ground, grid)
    assert w0[mid] == pytest.approx(1 / np.pi, abs=1e-6)
    assert w0.min() > -1e-12
    one = np.zeros((4, 4), dtype=complex)
    one[1, 1] = 1.0
    w1 = analysis.wigner(one, grid)
    assert w1[mid] == pytest.approx(-1 / np.pi, abs=1e-6)
    for field in (w0, w1):
        assert analysis.grid_integral(field, grid) == pytest.approx(1.0, abs=1e-3)


def test_wigner_matches_defining_integral(grid, rng):
    # quadrature of (1/pi) integral <x+s|rho|x-s> e^{-2ips} ds at sample
    # points; the exponent orientation is pinned by the first-quantization
    # momentum mean (see test_momentum_density_analytic_phases)
    rho = random_density(rng, 4)
    s_axis = np.linspace(-8, 8, 3201)

    def direct(x, p):
        plus = analysis.hermite_functions(3, x + s_axis)
        minus = analysis.hermite_functions(3, x - s_axis)
        kernel = np.einsum("nm,ns,ms->s", rho, plus, minus)
        return float(np.trapezoid(kernel * np.exp(-2j * p * s_axis), s_axis).real / np.pi)

    field = analysis.wigner(rho, grid)
    for x_val, p_val in [(0.0, 0.0), (0.5, -0.25), (-1.0, 0.75)]:
        i = np.argmin(np.abs(grid.x - x_val))
        j = np.argmin(np.abs(grid.p - p_val))
        assert field[i, j] == pytest.approx(direct(grid.x[i], grid.p[j]), abs=1e-6)


def test_wigner_rotational_symmetry_mixed(grid):
    field = analysis.wigner(np.eye(4) / 4, grid)
    assert np.abs(field - field.T).max() < 1e-10
    assert np.abs(field - field[::-1, ::-1]).max() < 1e-10


def test_wigner_marginal_matches_position_density(grid, rng):
    rho = random_density(rng, 4)
    field = analysis.wigner(rho, grid)
    marginal = analysis.wigner_marginal(field, grid, analysis.POSITION)
    dens = analysis.position_density(rho, grid)
    assert np.abs(marginal - dens).max() < 2e-3
    marginal_p = analysis.wigner_marginal(field, grid, analysis.MOMENTUM)
    dens_p = analysis.position_density(rho, grid, analysis.MOMENTUM)
    assert np.abs(marginal_p - dens_p).max() < 2e-3


def test_wigner_parity_covariance(grid, rng):
    rho = random_density(rng, 4)
    tau = models.fock_parity_operator(4)
    flipped = analysis.wigner(tau @ rho @ tau.conj().T, grid)
    field = analysis.wigner(rho, grid)
    assert np.abs(flipped - field[::-1, ::-1]).max() < 1e-10


def test_wigner_linearity(grid, rng):
    rho1 = random_density(rng, 4)
    rho2 = random_density(rng, 4)
    blend = 0.3 * rho1 + 0.7 * rho2
    combo = 0.3 * analysis.wigner(rho1, grid) + 0.7 * analysis.wigner(rho2, grid)
    assert np.abs(analysis.wigner(blend, grid) - combo).max() < 1e-12


def test_twirled_state_has_even_position_density(grid, rng):
    from kraussim import mitigation as mit

    rho = random_density(rng, 4)
    tau = models.fock_parity_operator(4)
    twirled = mit.parity_twirl(rho, tau).matrix
    dens = analysis.position_density(twirled, grid)
    assert np.abs(dens - dens[::-1]).max() < 1e-10

