import math
import re

import numpy as np
import pytest

from kraussim import matkernel as mk

from conftest import assert_json_round_trip, random_density, random_state


@pytest.mark.parametrize(
    "label,expected",
    [("Z", [-1.0, 1.0]), ("X", [-1.0, 1.0])],
)
def test_herm_eig_paulis(label, expected):
    w, u = mk.herm_eig(mk.PAULI[label])
    assert np.allclose(w, expected)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12


def test_herm_eig_pauli_x_eigenvectors():
    w, u = mk.herm_eig(mk.PAULI["X"])
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert min(np.abs(np.vdot(u[:, 1], plus)), np.abs(np.vdot(u[:, 0], minus))) > 1 - 1e-12


def test_herm_eig_reconstruction(rng):
    for dim in (8, 64):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        w, u = mk.herm_eig(h)
        assert np.linalg.norm((u * w) @ u.conj().T - h) < 1e-10 * max(1, np.linalg.norm(h))
        assert np.all(np.diff(w) >= 0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        mk.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_identity_and_diagonal():
    assert np.allclose(mk.psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(mk.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_dilation_complement():
    ladder = np.array([[0.0, 1.0], [0.0, 0.0]])
    comp = np.eye(2) - ladder.conj().T @ ladder
    assert np.allclose(mk.psd_sqrt(comp), np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_sqrt_squares_back(rng):
    a = random_density(rng, 6) * 3
    b = mk.psd_sqrt(a)
    assert np.abs(b @ b - a).max() < 1e-9
    assert mk.hermiticity_defect(b) < 1e-10


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        mk.psd_sqrt(np.diag([1.0, -0.5]))


def test_fidelity_examples():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    mixed = np.eye(2) / 2
    assert mk.fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)
    assert mk.fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    assert mk.fidelity(zero, mixed) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetric_and_pure_overlap(rng):
    for _ in range(5):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        assert mk.fidelity(a, b) == pytest.approx(mk.fidelity(b, a), abs=1e-9)
    psi = random_state(rng, 4)
    phi = random_state(rng, 4)
    f = mk.fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
    assert f == pytest.approx(abs(np.vdot(psi, phi)) ** 2, abs=1e-10)


def test_fidelity_projects_an_input_past_the_hermiticity_tolerance(rng):
    rho, sigma = random_density(rng, 4), random_density(rng, 4)
    skew = rng.normal(size=(4, 4))
    off = rho + 0.5e-8 * (skew - skew.T)  # anti-Hermitian defect of about 1e-8
    assert 1e-9 < mk.hermiticity_defect(off) < 1e-7
    projected = mk.project_to_physical(off)
    assert mk.fidelity(off, sigma) == mk.fidelity(projected, sigma)
    assert mk.fidelity(sigma, off) == mk.fidelity(sigma, projected)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        mk.fidelity(np.eye(2) / 2, np.eye(4) / 4)


def test_entropy_examples():
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    assert mk.von_neumann_entropy(np.outer(psi, psi.conj())) == pytest.approx(0.0, abs=1e-12)
    assert mk.von_neumann_entropy(np.eye(4) / 4) == pytest.approx(np.log(4), abs=1e-12)
    assert mk.von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) == pytest.approx(
        np.log(2), abs=1e-12
    )


def test_trace_distance_examples():
    zero = np.diag([1.0, 0.0])
    one = np.diag([0.0, 1.0])
    assert mk.trace_distance(zero, zero) == 0.0
    assert mk.trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    assert mk.trace_distance(zero, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
def test_trace_distance_of_a_non_finite_input_is_infinite(entry, value):
    rho = np.eye(2, dtype=complex) / 2
    bad = rho.copy()
    bad[entry] = value
    assert mk.trace_distance(rho, bad) == np.inf
    assert mk.trace_distance(bad, rho) == np.inf
    assert mk.trace_distance(bad, bad) == np.inf


def test_trace_distance_triangle(rng):
    for _ in range(8):
        a, b, c = (random_density(rng, 4) for _ in range(3))
        assert mk.trace_distance(a, c) <= mk.trace_distance(a, b) + mk.trace_distance(b, c) + 1e-9


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        mk.DensityMatrix(np.array([[0.6, 0.5], [0.1, 0.4]]))
    with pytest.raises(ValueError):
        mk.DensityMatrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        mk.DensityMatrix(np.diag([1.5, -0.5]))
    raw = mk.DensityMatrix(np.diag([1.5, -0.5]), raw=True)
    assert raw.raw and raw.dim == 2


def test_density_matrix_symmetrizes_within_tolerance():
    mat = np.eye(2) / 2
    mat[0, 1] = 1e-12
    dm = mk.DensityMatrix(mat)
    assert mk.hermiticity_defect(dm.matrix) == 0.0


def test_quantum_state_validation():
    with pytest.raises(ValueError):
        mk.QuantumState(np.array([1.0, 1.0]))
    state = mk.QuantumState(np.array([1.0, 1.0]) / np.sqrt(2))
    assert state.density().matrix.shape == (2, 2)


def test_project_to_physical_degenerate():
    with pytest.raises(ValueError):
        mk.project_to_physical(np.diag([-1.0, -2.0]))


def test_pauli_string_matrix():
    zz = mk.pauli_string_matrix("ZZ")
    assert np.allclose(zz, np.diag([1, -1, -1, 1]))
    with pytest.raises(ValueError):
        mk.pauli_string_matrix("QA")
    assert mk.pauli_labels(1) == ["I", "X", "Y", "Z"]
    assert len(mk.pauli_labels(2)) == 16


def test_pauli_coefficients_round_trip(rng):
    mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    coeffs = mk.pauli_coefficients(mat)
    direct = [np.trace(mk.pauli_string_matrix(label) @ mat) for label in mk.pauli_labels(3)]
    assert np.abs(coeffs - direct).max() < 1e-12
    assert np.abs(mk.from_pauli_coefficients(coeffs) - mat).max() < 1e-12
    with pytest.raises(ValueError, match="must be square"):
        mk.pauli_coefficients(np.ones((2, 4)))


def test_apply_to_axes_matches_kron(rng):
    a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    b = rng.normal(size=(3, 3))
    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    out = mk.apply_to_axes(vec.reshape(2, 3), [(1, b), (0, a)])
    assert out.shape == (4, 3)
    assert np.abs(out.reshape(-1) - np.kron(a, b) @ vec).max() < 1e-12


@pytest.mark.parametrize("ndim, front", [(3, (2, 0)), (4, (1, 3)), (5, (4, 0, 2)), (5, (0, 1, 2, 3, 4)), (6, (3,))])
def test_axis_orders_move_the_front_axes_and_back(ndim, front):
    tensor = np.arange(math.prod(range(2, ndim + 2))).reshape(range(2, ndim + 2))
    to_front, back = mk._axis_orders(ndim, front)
    moved = tensor.transpose(to_front)
    assert np.array_equal(moved, np.moveaxis(tensor, front, range(len(front))))
    assert np.array_equal(moved.transpose(back), tensor)


def test_qubit_count():
    assert [mk.qubit_count(dim, "dim") for dim in (1, 2, 4, 16)] == [0, 1, 2, 4]
    for dim in (0, 3, 6, 12):
        with pytest.raises(ValueError, match=f"dim must be a power of two, got {dim}"):
            mk.qubit_count(dim, "dim")


def test_doc_codec_converts_numpy_values_and_round_trips_exactly():
    doc = mk.to_doc({"w": np.float64(0.5), "n": np.int64(3), "idx": (1, 2), "eps": np.array([0.25, 0.75])})
    assert doc == {"w": 0.5, "n": 3, "idx": [1, 2], "eps": [0.25, 0.75]}
    assert type(doc["w"]) is float and type(doc["n"]) is int
    mat = np.array([[1 / 3, complex(-0.0, 2.0)], [complex(-0.0, -0.0), 1e-300j]])
    pairs = mk.to_doc(mat)
    assert pairs[0][1] == [-0.0, 2.0]
    back = mk.from_doc(np.ndarray, pairs)
    assert back.tobytes() == mat.tobytes()
    assert mk.from_doc(np.ndarray, doc["eps"]).dtype == float


def test_doc_codec_reads_a_complex_array_of_any_rank_as_pairs(rng):
    # one rule for a state vector, a matrix and a stack of matrices: the last axis is [re, im]
    for shape in ((4,), (4, 4), (3, 4, 4)):
        value = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert_json_round_trip(value, np.ndarray)
    with pytest.raises(ValueError, match=re.escape("a complex array must be nested [re, im] pairs, got shape (2, 3)")):
        mk.from_doc(np.ndarray, [[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize(
    "kind, doc, bad",
    [
        (np.ndarray, [True, 0], True),  # np.asarray([True, 0]) is int64, so no dtype test sees the bool
        (np.ndarray, ["0.5", 1], "0.5"),
        (np.ndarray, [[[1, 0], [0, False]]], False),
        (np.ndarray, [[[1, 0], ["0", 0]]], "0"),
        (complex, [True, 0], True),
        (complex, [0, False], False),
    ],
    ids=["bool-among-ints", "string-in-vector", "bool-in-matrix", "string-in-matrix", "bool-real-part", "bool-imaginary-part"],
)
def test_doc_codec_refuses_a_string_or_bool_where_a_number_goes(kind, doc, bad):
    what = "a complex number" if kind is complex else "an array"
    with pytest.raises(ValueError, match=re.escape(f"{what} must hold numbers, got {bad!r}")):
        mk.from_doc(kind, doc)


def test_numbers_refuses_an_int_past_the_float_range():
    assert mk._numbers([1, 2.5, np.int64(3)], "x").tolist() == [1.0, 2.5, 3.0]
    with pytest.raises(ValueError, match="x must hold numbers within the float range"):
        mk._numbers([0, 10**400], "x")
    with pytest.raises(ValueError, match=f"x must be a finite real number, got {10**400}"):
        mk._real(10**400, "x")


@pytest.mark.parametrize(
    "value",
    [complex(-0.0, 2.0), 1e-300j, np.complex128(1 / 3 - 0.5j), np.complex64(0.25 + 0.75j)],
    ids=["python", "tiny-imaginary", "numpy-complex128", "numpy-complex64"],
)
def test_doc_codec_carries_complex_scalars_as_pairs(value):
    pair = mk.to_doc(value)
    assert [type(part) for part in pair] == [float, float]
    assert np.array(pair).tobytes() == np.array([value.real, value.imag], dtype=float).tobytes()
    assert_json_round_trip(value, complex)
    assert type(mk.from_doc(complex, pair)) is complex
    assert mk.from_doc(list[complex], [pair, [1, 0]]) == [value, 1]


@pytest.mark.parametrize("doc", [1, [1, 0, 0], [1], "1+2j", None], ids=["number", "triple", "single", "string", "null"])
def test_doc_codec_refuses_a_complex_number_that_is_not_a_pair(doc):
    with pytest.raises(ValueError, match=re.escape(f"a complex number must be an [re, im] pair, got {doc!r}")):
        mk.from_doc(complex, doc)
