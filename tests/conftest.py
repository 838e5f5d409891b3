import dataclasses
import json

import numpy as np
import pytest

from kraussim import lindblad, models
from kraussim.matkernel import from_doc, to_doc


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


def haar_unitary(rng, dim):
    """A Haar-random unitary: QR of a complex Gaussian matrix, R's diagonal phases moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def haar_rotated(model, rng):
    """``model`` with H and every L_k conjugated by one Haar-random unitary drawn from ``rng``.

    The rotation leaves the spectra and the group structure as they were but
    gives the operators a dense shared eigenbasis and dense singular vectors.
    """
    u = haar_unitary(rng, model.dim)
    ops = [u @ a @ u.conj().T for a in (model.hamiltonian, *model.lindblads)]
    return lindblad.LindbladModel(ops[0], tuple(ops[1:]), model.gammas)


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


def assert_json_round_trip(value, kind=None):
    """``from_doc`` rebuilds ``value`` from the JSON text of ``to_doc(value)`` field by field, each
    array with its dtype and ``np.array_equal`` entries; ``kind`` defaults to ``type(value)``."""
    _assert_same(from_doc(kind or type(value), json.loads(json.dumps(to_doc(value)))), value)


def _assert_same(got, want):
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        for f in dataclasses.fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype and np.array_equal(got, want)
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same(a, b)
    else:
        assert got == want
