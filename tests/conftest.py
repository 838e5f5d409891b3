import numpy as np
import pytest

from kraussim import lindblad, models


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


@pytest.fixture
def pauli_spec():
    return models.build_model("pauli-xx-zz")


@pytest.fixture
def qho_spec():
    return models.build_model("qho-damped")


@pytest.fixture
def schwinger_spec():
    return models.build_model("schwinger-jz")


@pytest.fixture
def initial_states():
    return models.benchmark_initial_states()


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def align_phase(u, reference):
    """Rotate u by a global phase (magnitude untouched) to match reference."""
    idx = np.unravel_index(np.abs(reference).argmax(), reference.shape)
    ratio = reference[idx] / u[idx]
    return u * (ratio / abs(ratio))


def dense_lindbladian(model, split=None):
    """The dim^2 x dim^2 generator ``D`` on the row-major ``vec(rho)[i * dim + j] = rho[i, j]``,
    built with ``np.kron``; with a split name, its two product-formula parts ``(D1, D2)`` instead."""
    eye = np.eye(model.dim)

    def flow(a):  # X -> a X + X a^dag
        return np.kron(a, eye) + np.kron(eye, a.conj())

    effective = flow(-1j * lindblad.effective_hamiltonian(model))
    jumps = np.zeros_like(effective)
    for op, g in zip(model.lindblads, model.gammas):
        jumps += g * np.kron(op, op.conj())
    if split is None:
        return effective + jumps
    if split == lindblad.SPLIT_HAMILTONIAN_DISSIPATOR:
        hamiltonian = flow(-1j * model.hamiltonian)
        return hamiltonian, effective - hamiltonian + jumps
    if split == lindblad.SPLIT_EFFECTIVE_JUMP:
        return effective, jumps
    raise ValueError(f"unknown split {split!r}")
