"""Dense complex linear-algebra kernels and state utilities.

Everything here is a pure function of numpy arrays.  Density matrices and
pure states get thin validated containers; validation tolerances are module
constants so that tests can reference them by name.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import types
import typing
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
STATE_NORM_TOL = 1e-12
PSD_REJECT_TOL = -1e-6
DILATION_NORM_TOL = 1e-10
DEFAULT_RCOND = 1e-12
# The most bytes one block of stacked work may take; a block holds at least one item.  The grid's blocks of
# points (``cli.block_points``) and the term circuits' groups and basis passes
# (``circuits.execute_series_tomography``) take their sizes from it.
BLOCK_BYTES = 2**17

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string_matrix(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis; qubit 0 is the leftmost letter."""
    if not label or any(c not in PAULI for c in label):
        raise ValueError(f"invalid Pauli string label {label!r}")
    return functools.reduce(np.kron, [PAULI[c] for c in label], np.ones((1, 1), dtype=complex))


def qubit_count(dim: int, what: str) -> int:
    """Qubits spanning ``dim``; raises naming ``what`` unless ``dim`` is a power of two."""
    n = int(dim).bit_length() - 1
    if dim < 1 or 2**n != dim:
        raise ValueError(f"{what} must be a power of two, got {dim}")
    return n


def pauli_labels(num_qubits: int) -> list[str]:
    """All 4**n Pauli string labels in lexicographic I < X < Y < Z order."""
    return ["".join(p) for p in itertools.product("IXYZ", repeat=num_qubits)]


# Tr(s_a m) of a 2x2 block m read row-major (m[i, j] at 2i + j), rows a = I, X, Y, Z.
_BLOCK_TO_PAULI = np.stack([PAULI[c].T.reshape(-1) for c in "IXYZ"])


def pauli_coefficients(mat) -> np.ndarray:
    """``Tr(P mat)`` for every Pauli string P, in :func:`pauli_labels` order."""
    mat = _require_square(mat)
    n = qubit_count(mat.shape[0], "matrix dimension")
    pairs = [axis for q in range(n) for axis in (q, n + q)]  # row and column index of each qubit
    blocks = mat.reshape([2] * (2 * n)).transpose(pairs).reshape([4] * n)
    return apply_to_axes(blocks, [(q, _BLOCK_TO_PAULI) for q in range(n)]).reshape(-1)


def from_pauli_coefficients(coeffs) -> np.ndarray:
    """Matrix ``2^-n sum_P c_P P``, the inverse of :func:`pauli_coefficients`."""
    n = (len(coeffs).bit_length() - 1) // 2
    blocks = apply_to_axes(np.reshape(coeffs, [4] * n), [(q, _BLOCK_TO_PAULI.conj().T / 2) for q in range(n)])
    rows_then_columns = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return blocks.reshape([2] * (2 * n)).transpose(rows_then_columns).reshape(2**n, 2**n)


def apply_to_axes(tensor: np.ndarray, steps, lead: int = 0) -> np.ndarray:
    """Apply each ``(axis, matrix)`` of ``steps`` in turn to that axis of ``tensor``:
    ``out[..., i, ...] = sum_j matrix[i, j] tensor[..., j, ...]``.  The first ``lead`` axes are a stack: each
    of its items takes one ``(m, M)`` product of its own, so it is bit-identical to that item alone."""
    for axis, matrix in steps:
        to_front, back = _axis_orders(tensor.ndim, (*range(lead), axis))
        moved = tensor.transpose(to_front)
        out = matrix @ moved.reshape(*moved.shape[: lead + 1], -1)
        tensor = out.reshape(*moved.shape[:lead], matrix.shape[0], *moved.shape[lead + 1 :]).transpose(back)
    return tensor


@functools.cache
def _axis_orders(ndim: int, front: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Transposes that move the ``front`` axes, in order, to the front and back again (``np.moveaxis`` without its checks)."""
    to_front = (*front, *(a for a in range(ndim) if a not in front))
    return to_front, tuple(to_front.index(a) for a in range(ndim))


def _as_matrix(value) -> np.ndarray:
    """Accept a DensityMatrix, QuantumState (as projector) or a plain array."""
    if isinstance(value, DensityMatrix):
        return value.matrix
    if isinstance(value, QuantumState):
        return value.density().matrix
    return np.asarray(value, dtype=complex)


def _integer(value, what: str) -> int:
    """``value`` as an ``int``: an integer as given, never rounded or parsed, and not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _numbers(value, what: str) -> np.ndarray:
    """``value``, a number or nested lists of numbers (integers and floats, numpy's too), as a float array:
    the one rule of what a number is.  Nothing is parsed, so a string or a ``bool`` is refused."""
    leaves = np.asarray(value, dtype=object)
    for leaf in leaves.flat:
        if isinstance(leaf, bool) or not isinstance(leaf, (int, float, np.integer, np.floating)):
            raise ValueError(f"{what} must hold numbers, got {leaf!r}")
    try:
        return leaves.astype(float)
    except OverflowError:
        raise ValueError(f"{what} must hold numbers within the float range, got {value!r}") from None


def _real(value, what: str) -> float:
    """``value`` as a ``float``: one finite number of :func:`_numbers`."""
    try:
        finite = _numbers(value, what).ndim == 0 and math.isfinite(value)
    except ValueError:  # not a number, or an int past the float range
        finite = False
    if not finite:
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def _time(value, what: str = "evolution time") -> float:
    """``value`` as a ``float``: the one rule of an evolution time, a :func:`_real` that is not negative."""
    t = _real(value, what)
    if t < 0:
        raise ValueError(f"{what} must be nonnegative")
    return t


def _state(value, dim: int, what: str) -> np.ndarray:
    """``value`` as the complex matrix of :func:`_as_matrix`: the one rule of a state, whose shape is ``(dim, dim)``."""
    mat = _as_matrix(value)
    if mat.shape != (dim, dim):
        raise ValueError(f"state of shape {mat.shape} does not match {what}")
    return mat


def _require_square(a: np.ndarray, what: str = "matrix", stacked: bool = False) -> np.ndarray:
    """``a`` as a complex square matrix of finite entries, or with ``stacked`` a ``(..., d, d)`` stack of them."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stacked) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():  # a complex entry is finite when both of its parts are
        raise ValueError(f"{what} contains non-finite entries")
    return a


def hermiticity_defect(a: np.ndarray) -> float | np.ndarray:
    """Largest entry of ``|A - A^dag|``, per matrix of a ``(..., d, d)`` stack; 0 for an empty matrix."""
    a = np.asarray(a)
    return np.abs(a - _dagger(a)).max(axis=(-2, -1), initial=0.0)[()]


def _dagger(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a ``(..., d, d)`` stack."""
    return a.conj().mT


@dataclass(frozen=True)
class QuantumState:
    """Normalized pure state over a dim-dimensional Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(amp.real)) or not np.all(np.isfinite(amp.imag)):
            raise ValueError("state amplitudes contain non-finite entries")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {STATE_NORM_TOL}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace PSD matrix.

    ``raw=True`` means unvalidated: the physicality checks are skipped and
    the matrix is kept as given (one-point integrator results, tomography
    output, channel outputs, channel-inverted estimates).  No code outside
    this class reads the flag; a caller that needs a physical state
    projects the matrix with :func:`project_to_physical`.
    """

    matrix: np.ndarray
    raw: bool = False

    def __post_init__(self):
        mat = _require_square(self.matrix, "density matrix")
        if not self.raw:
            defect = hermiticity_defect(mat)
            if defect > HERMITICITY_TOL:
                raise ValueError(f"hermiticity defect {defect} exceeds {HERMITICITY_TOL}")
            mat = (mat + mat.conj().T) / 2
            tr = complex(np.trace(mat))
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
            lo = float(np.linalg.eigvalsh(mat).min())
            if lo < EIGENVALUE_FLOOR:
                raise ValueError(f"eigenvalue {lo} below floor {EIGENVALUE_FLOOR}")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues ``w`` and unitary eigenvectors ``U`` of a Hermitian matrix, ``U diag(w) U^dag``
    its Hermitian part; a hermiticity defect past tolerance is rejected."""
    h = _require_square(h)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL * max(1.0, float(np.abs(h).max())):
        raise ValueError(f"matrix is not Hermitian (defect {defect})")
    return _hermitian_eigh(h)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root; small negative eigenvalues are clipped."""
    w, u = herm_eig(a)
    if w.min() < PSD_REJECT_TOL:
        raise ValueError(f"matrix is not PSD (eigenvalue {w.min()})")
    return _root(w, u)


def _root(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``U diag(sqrt(max(w, 0))) U^dag``, the PSD root of the matrix with eigenpairs ``(w, u)``, per stacked matrix.
    ``np.maximum(w, 0.0)`` is ``np.clip(w, 0.0, None)`` bit for bit, without its Python wrapper."""
    return (u * np.sqrt(np.maximum(w, 0.0))[..., np.newaxis, :]) @ _dagger(u)


def sznagy_dilation(op: np.ndarray) -> np.ndarray:
    """Unitary 2d x 2d dilation with the contraction in the top-left block.

    ``[[L, sqrt(I - L L^dag)], [sqrt(I - L^dag L), -L^dag]]`` for ``||L|| <= 1``
    (the generator-invariant rescaling guarantees it).  Both roots come from
    one SVD ``L = V S W^dag``, as ``V sqrt(1 - S^2) V^dag`` and ``W sqrt(1 - S^2) W^dag``.
    """
    mat = _require_square(op, "dilation input")
    v, sigma, wh = np.linalg.svd(mat)
    if sigma[0] > 1.0 + DILATION_NORM_TOL:
        raise ValueError(f"operator norm {sigma[0]} exceeds 1; rescale first")
    root = np.sqrt(np.clip((1.0 - sigma) * (1.0 + sigma), 0.0, None))  # sigma clipped at 1
    upper, lower = (v * root) @ v.conj().T, (wh.conj().T * root) @ wh
    return np.block([[mat, upper], [lower, -mat.conj().T]])


def project_to_physical(matrix: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize to unit trace, per matrix of a ``(..., d, d)`` stack."""
    return _physical(*_hermitian_eigh(matrix))[0]


# The functions below take one matrix or a (..., d, d) stack of them (eigenvalues a (..., d) stack), do the
# same float operations on each as on a lone one, and give a value per matrix; one matrix has no leading axis.


def _hermitian_eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs ``(w, u)`` of the Hermitian part ``(M + M^dag) / 2`` of each finite square matrix."""
    mat = _require_square(matrix, stacked=True)
    return np.linalg.eigh((mat + _dagger(mat)) / 2)


def _physical(w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The state with eigenvectors ``u`` and eigenvalues ``w`` clipped at 0 to unit trace, and its eigenpairs."""
    w = np.maximum(w, 0.0)  # the clip at 0, as in _root
    total = w.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("projection clipped every eigenvalue; degenerate input")
    w = w / total
    return (u * w[..., np.newaxis, :]) @ _dagger(u), (w, u)


def _suffix_sums(w: np.ndarray, kept: np.ndarray, term: typing.Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Per row of the ascending ``w``, the sum of ``term`` over the entries ``kept`` marks, a suffix of the
    row (the entries above a threshold); each is numpy's sum of ``term`` of that slice, rounded as
    ``term(row[kept]).sum()`` is.  ``term`` sees only kept entries."""
    counts = kept.sum(axis=-1)
    sums = np.empty(counts.shape)
    for count in set(counts.ravel().tolist()):  # np.unique would import numpy.ma
        rows = counts == count
        sums[rows] = term(w[rows][..., w.shape[-1] - count :]).sum(axis=-1)
    return sums[()]


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0, 1].  An input whose hermiticity
    defect exceeds ``HERMITICITY_TOL`` is projected to the physical cone first; any other is taken as a state."""
    a, b = _as_matrix(rho), _as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    a, b = (project_to_physical(m) if hermiticity_defect(m) > HERMITICITY_TOL else m for m in (a, b))
    return _root_fidelity(psd_sqrt(a), b)


def _root_fidelity(root: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """Fidelity of ``sigma`` with the state whose PSD root is ``root``; the fidelity is symmetric, so either may give it."""
    inner = root @ sigma @ root
    w = np.linalg.eigvalsh((inner + _dagger(inner)) / 2)
    # eigenvalues at solver-noise level would pollute the square root; the largest is the last
    sums = _suffix_sums(w, w > np.maximum(w[..., -1:], 0.0) * 1e-13, np.sqrt)
    # squared one by one: a float's ** 2 is libm's pow, which an array's ** 2 (x * x) can miss by an ulp
    squares = [min(max(total**2, 0.0), 1.0) for total in sums.ravel().tolist()]
    return np.array(squares).reshape(sums.shape)[()]


def von_neumann_entropy(rho) -> float:
    """Spectral entropy -sum(w ln w) in nats of the Hermitian part of ``rho``; zero eigenvalues contribute 0."""
    mat = _as_matrix(rho)
    return _entropy(np.linalg.eigvalsh((mat + mat.conj().T) / 2))


def _entropy(w: np.ndarray) -> float | np.ndarray:
    """-sum(w ln w) over the ascending eigenvalues ``w``; zero and negative ones contribute 0."""
    return -_suffix_sums(w, w > 0.0, lambda positive: positive * np.log(positive))


def to_doc(value):
    """JSON-ready form of a value: a dataclass becomes a dict of its fields that
    are not None, a complex number or array ``[re, im]`` pairs, a real array a
    list of floats, a tuple a list and a numpy scalar its Python value's form."""
    # exact types: np.float64 subclasses float but still becomes a Python float
    if type(value) in (float, int, str, bool):
        return value
    if isinstance(value, (list, tuple)):
        return [to_doc(item) for item in value]
    if isinstance(value, dict):
        return {key: to_doc(item) for key, item in value.items()}
    if isinstance(value, np.generic):
        return to_doc(value.item())
    if isinstance(value, (complex, np.ndarray)):
        value = np.asarray(value)
        if np.iscomplexobj(value):
            return np.stack([value.real, value.imag], axis=-1).tolist()
        return value.astype(float).tolist()
    if dataclasses.is_dataclass(value):
        items = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return {name: to_doc(item) for name, item in items.items() if item is not None}
    return value


def from_doc(kind, doc):
    """Inverse of :func:`to_doc` for ``kind``, a dataclass or a type hint.

    Unknown dataclass fields are rejected.  A ``complex`` is an ``[re, im]``
    pair, and an ``np.ndarray`` a real vector or a complex array of any rank,
    nested lists of such pairs; their entries are numbers, never strings or
    booleans.
    """
    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        unknown = set(doc) - {f.name for f in dataclasses.fields(kind)}
        if unknown:
            raise ValueError(f"unknown {kind.__name__} fields: {sorted(unknown)}")
        return kind(**{name: from_doc(hints[name], item) for name, item in doc.items()})
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (types.UnionType, typing.Union):
        (inner,) = [arg for arg in args if arg is not type(None)]
        return None if doc is None else from_doc(inner, doc)
    if origin in (tuple, list):
        return origin(from_doc(args[0], item) for item in doc)
    if kind is complex:
        if not isinstance(doc, list) or len(doc) != 2:
            raise ValueError(f"a complex number must be an [re, im] pair, got {doc!r}")
        if any(isinstance(part, str) for part in doc):
            complex(*doc)  # refuses a string with complex()'s own message
        return complex(*_numbers(doc, "a complex number").tolist())  # and a bool, or an int past the float range
    if kind is np.ndarray:
        arr = _numbers(doc, "an array")
        if arr.ndim == 1:
            return arr
        if arr.shape[-1:] != (2,):
            raise ValueError(f"a complex array must be nested [re, im] pairs, got shape {arr.shape}")
        return arr.view(complex)[..., 0]
    return doc


def trace_distance(rho, sigma) -> float | np.ndarray:
    """Half the trace norm of the difference of two Hermitian matrices, per pair of two ``(..., d, d)``
    stacks; ``inf`` where their difference has a non-finite entry (either has one, or the difference
    overflows), so that no bound accepts it."""
    a, b = _as_matrix(rho), _as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a difference past the float range
        diff = a - b
    bad = ~np.isfinite(diff).all(axis=(-2, -1))
    diff[bad] = 0.0  # decomposed, then given an infinite spectrum
    w = np.linalg.eigvalsh((diff + _dagger(diff)) / 2)
    w[bad] = math.inf
    return 0.5 * np.abs(w).sum(axis=-1)
