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
PSD_SQRT_TOL = 1e-9
PSD_REJECT_TOL = -1e-6
DILATION_NORM_TOL = 1e-10
DEFAULT_RCOND = 1e-12

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
    out = np.array([[1.0]], dtype=complex)
    for c in label:
        out = np.kron(out, PAULI[c])
    return out


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


def apply_to_axes(tensor: np.ndarray, steps) -> np.ndarray:
    """Apply each ``(axis, matrix)`` of ``steps`` in turn to that axis of ``tensor``:
    ``out[..., i, ...] = sum_j matrix[i, j] tensor[..., j, ...]``."""
    for axis, matrix in steps:
        to_front, back = _axis_orders(tensor.ndim, axis)
        moved = tensor.transpose(to_front)
        out = matrix @ moved.reshape(moved.shape[0], -1)
        tensor = out.reshape(matrix.shape[0], *moved.shape[1:]).transpose(back)
    return tensor


@functools.cache
def _axis_orders(ndim: int, axis: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Transposes that move ``axis`` to the front and back again (``np.moveaxis`` without its argument checks)."""
    rest = [a for a in range(ndim) if a != axis]
    return (axis, *rest), (*range(1, axis + 1), 0, *range(axis + 1, ndim))


def _as_matrix(value) -> np.ndarray:
    """Accept a DensityMatrix, QuantumState (as projector) or a plain array."""
    if isinstance(value, DensityMatrix):
        return value.matrix
    if isinstance(value, QuantumState):
        return value.density().matrix
    return np.asarray(value, dtype=complex)


def _require_square(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


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

    ``raw=True`` skips the physicality checks and marks unphysical
    intermediates (tomography output, channel-inverted estimates) that still
    need projection.
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


def classify_density(matrix: np.ndarray) -> DensityMatrix:
    """Wrap a matrix as a DensityMatrix, falling back to raw when unphysical."""
    try:
        return DensityMatrix(matrix)
    except ValueError:
        return DensityMatrix(matrix, raw=True)


def _onenorm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending real eigenvalues and the unitary eigenvector matrix U
    with ``U diag(w) U^dag`` reconstructing the input.  The input is
    symmetrized when its hermiticity defect is within tolerance and rejected
    otherwise.
    """
    h = _require_square(h)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL * max(1.0, float(np.abs(h).max())):
        raise ValueError(f"matrix is not Hermitian (defect {defect})")
    w, u = np.linalg.eigh((h + h.conj().T) / 2)
    return w, u


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root; small negative eigenvalues are clipped."""
    w, u = herm_eig(a)
    if w.min() < PSD_REJECT_TOL:
        raise ValueError(f"matrix is not PSD (eigenvalue {w.min()})")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def sznagy_dilation(op: np.ndarray) -> np.ndarray:
    """Unitary 2d x 2d dilation with the contraction in the top-left block.

    ``[[L, sqrt(I - L L^dag)], [sqrt(I - L^dag L), -L^dag]]``; requires
    ``||L|| <= 1``, which the generator-invariant rescaling guarantees.
    """
    mat = _require_square(op, "dilation input")
    norm = float(np.linalg.norm(mat, 2))
    if norm > 1.0 + DILATION_NORM_TOL:
        raise ValueError(f"operator norm {norm} exceeds 1; rescale first")
    eye = np.eye(mat.shape[0], dtype=complex)
    upper = psd_sqrt(eye - mat @ mat.conj().T)
    lower = psd_sqrt(eye - mat.conj().T @ mat)
    return np.block([[mat, upper], [lower, -mat.conj().T]])


def project_to_physical(matrix: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize to unit trace."""
    mat = _require_square(matrix)
    mat = (mat + mat.conj().T) / 2
    w, u = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise ValueError("projection clipped every eigenvalue; degenerate input")
    return (u * (w / total)) @ u.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0, 1].

    Raw inputs are projected to the physical cone first.
    """
    a = _as_matrix(rho)
    b = _as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    if (isinstance(rho, DensityMatrix) and rho.raw) or hermiticity_defect(a) > HERMITICITY_TOL:
        a = project_to_physical(a)
    if (isinstance(sigma, DensityMatrix) and sigma.raw) or hermiticity_defect(b) > HERMITICITY_TOL:
        b = project_to_physical(b)
    sqrt_a = psd_sqrt(a)
    inner = sqrt_a @ b @ sqrt_a
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    # eigenvalues at solver-noise level would pollute the square root
    floor = max(float(w.max()), 0.0) * 1e-13
    val = float(np.sqrt(w[w > floor]).sum() ** 2)
    return min(max(val, 0.0), 1.0)


def von_neumann_entropy(rho) -> float:
    """Spectral entropy -sum(w ln w) in nats; zero eigenvalues contribute 0."""
    w = np.linalg.eigvalsh(_as_matrix(rho))
    w = np.clip(w, 0.0, None)
    nz = w[w > 0.0]
    return float(-(nz * np.log(nz)).sum())


def to_doc(value):
    """JSON-ready form of a value: a dataclass becomes a dict of its fields that
    are not None, a complex array nested ``[re, im]`` pairs, a real array a list
    of floats, a tuple a list and a numpy scalar a Python number."""
    # exact types: np.float64 subclasses float but still becomes a Python float
    if type(value) in (float, int, str, bool):
        return value
    if isinstance(value, (list, tuple)):
        return [to_doc(item) for item in value]
    if isinstance(value, dict):
        return {key: to_doc(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return np.stack([value.real, value.imag], axis=-1).tolist()
        return value.astype(float).tolist()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value):
        items = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return {name: to_doc(item) for name, item in items.items() if item is not None}
    return value


def from_doc(kind, doc):
    """Inverse of :func:`to_doc` for ``kind``, a dataclass or a type hint.

    Unknown dataclass fields are rejected.  An ``np.ndarray`` is read as a
    real vector or as a complex matrix given in ``[re, im]`` pairs.
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
    if kind is np.ndarray:
        arr = np.ascontiguousarray(doc, dtype=float)
        if arr.ndim == 1:
            return arr
        if arr.ndim != 3 or arr.shape[-1] != 2:
            raise ValueError(f"a matrix must be nested [re, im] pairs, got shape {arr.shape}")
        return arr.view(complex)[..., 0]
    return doc


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference of two Hermitian matrices; ``inf``
    when either has a non-finite entry, so that no bound accepts it."""
    a = _as_matrix(rho)
    b = _as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    diff = a - b
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.abs(w).sum())
