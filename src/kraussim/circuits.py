"""Gate-level realization of Kraus terms, statevector emulation and tomography.

Qubit 0 is the most significant bit of basis labels.  Circuits put system
qubits first (indices ``0 .. S-1``) and ancillas after them.  Non-unitary
blocks enter through unitary dilations and block encodings whose ancillas
are post-selected on reading 0; group-structured factors instead keep their
ancilla registers, which purify the channel mixture.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .kraus import (
    ConditionError,
    KrausSeries,
    KrausTerm,
    PreparedModel,
    factor_weights,
    prepare,
    _require_abelian,
)
from .lindblad import LindbladModel
from .matkernel import DensityMatrix, QuantumState, pauli_labels, pauli_string_matrix, psd_sqrt

DILATION_NORM_TOL = 1e-10
ANGLE_PRUNE_TOL = 1e-12
SCHEME_BINARY = "binary"
SCHEME_GRAY = "gray"
DEFAULT_ANCILLA_BUDGET = 16

_SINGLE_QUBIT = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}


@dataclass(frozen=True)
class Gate:
    """One circuit operation.

    ``kind`` is one of x, y, z, h, phase, rz, ry, unitary.  ``controls``
    carry per-control polarities in ``control_values`` (default all 1).
    ``phase`` multiplies by e^{i angle} when the target and every control
    read 1, which makes multi-controlled phases symmetric in their qubits.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    control_values: tuple[int, ...] = ()
    angle: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        targets = tuple(int(q) for q in self.targets)
        controls = tuple(int(q) for q in self.controls)
        values = tuple(int(v) for v in self.control_values) or (1,) * len(controls)
        if not targets:
            raise ValueError("gate needs at least one target")
        if set(targets) & set(controls):
            raise ValueError("target and control sets must be disjoint")
        if len(values) != len(controls) or any(v not in (0, 1) for v in values):
            raise ValueError("control polarities must match controls")
        if self.kind == "unitary":
            mat = np.asarray(self.matrix, dtype=complex)
            if mat.shape != (2 ** len(targets), 2 ** len(targets)):
                raise ValueError("unitary matrix shape does not match target count")
            defect = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
            if defect > 1e-9:
                raise ValueError(f"matrix is not unitary (defect {defect})")
            object.__setattr__(self, "matrix", mat)
        elif self.kind in ("phase", "rz", "ry"):
            if self.angle is None or not np.isfinite(self.angle):
                raise ValueError(f"{self.kind} gate needs a finite angle")
        elif self.kind not in _SINGLE_QUBIT:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind != "unitary" and len(targets) != 1:
            raise ValueError(f"{self.kind} gate takes exactly one target")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "control_values", values)

    def unitary(self) -> np.ndarray:
        """Dense matrix of the uncontrolled core on the target qubits."""
        if self.kind == "unitary":
            return self.matrix
        if self.kind == "phase":
            return np.diag([1.0, np.exp(1j * self.angle)])
        if self.kind == "rz":
            return np.diag([np.exp(-0.5j * self.angle), np.exp(0.5j * self.angle)])
        if self.kind == "ry":
            c, s = np.cos(self.angle / 2), np.sin(self.angle / 2)
            return np.array([[c, -s], [s, c]], dtype=complex)
        return _SINGLE_QUBIT[self.kind]


def cnot(control: int, target: int) -> Gate:
    return Gate("x", (target,), (control,))


@dataclass(frozen=True)
class Circuit:
    num_system_qubits: int
    num_ancilla_qubits: int
    gates: tuple[Gate, ...]
    postselect: tuple[int, ...] = ()

    def __post_init__(self):
        gates = tuple(self.gates)
        n = self.num_qubits
        for gate in gates:
            used = gate.targets + gate.controls
            if any(q < 0 or q >= n for q in used):
                raise ValueError(f"gate acts on qubit outside the register: {gate}")
        if any(q < 0 or q >= n for q in self.postselect):
            raise ValueError("post-selection index outside the register")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "postselect", tuple(self.postselect))

    @property
    def num_qubits(self) -> int:
        return self.num_system_qubits + self.num_ancilla_qubits


@dataclass(frozen=True)
class ShotResult:
    """Counts (or exact probabilities) of one measurement basis."""

    basis: str
    counts: dict[str, float]
    accepted_fraction: float

    def total(self) -> float:
        return float(sum(self.counts.values()))


def _apply_gate(tensor: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    mat = gate.unitary()
    targets = list(gate.targets)
    controls = list(gate.controls)
    rest = [q for q in range(num_qubits) if q not in targets and q not in controls]
    perm = targets + controls + rest
    moved = tensor.transpose(perm).reshape(
        2 ** len(targets), 2 ** len(controls), -1
    )
    ctrl_index = 0
    for v in gate.control_values:
        ctrl_index = (ctrl_index << 1) | v
    block = moved[:, ctrl_index, :]
    moved = moved.copy()
    moved[:, ctrl_index, :] = mat @ block
    out = moved.reshape([2] * num_qubits).transpose(np.argsort(perm))
    return out


def simulate_statevector(circuit: Circuit, state) -> QuantumState:
    """Exact action of the gate list on a full-register state."""
    amps = state.amplitudes if isinstance(state, QuantumState) else np.asarray(state, dtype=complex)
    n = circuit.num_qubits
    if amps.size != 2**n:
        raise ValueError(f"state dimension {amps.size} does not match {n} qubits")
    tensor = amps.reshape([2] * n) if n else amps
    for gate in circuit.gates:
        tensor = _apply_gate(tensor, gate, n)
    return QuantumState(tensor.reshape(-1))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole register (small circuits only)."""
    dim = 2**circuit.num_qubits
    out = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[j] = 1.0
        out[:, j] = simulate_statevector(circuit, basis).amplitudes
    return out


def embed_state(circuit: Circuit, system_state) -> np.ndarray:
    """Tensor the system state with ancillas initialized to 0."""
    amps = (
        system_state.amplitudes
        if isinstance(system_state, QuantumState)
        else np.asarray(system_state, dtype=complex)
    )
    if amps.size != 2**circuit.num_system_qubits:
        raise ValueError("system state dimension mismatch")
    anc = np.zeros(2**circuit.num_ancilla_qubits, dtype=complex)
    anc[0] = 1.0
    return np.kron(amps, anc)


def postselect(state, ancilla_indices) -> tuple[QuantumState | None, float]:
    """Project the listed qubits onto 0 and renormalize the remainder.

    Returns the reduced state and the survival probability; a vanishing
    branch returns (None, 0.0) so callers can drop the term.
    """
    amps = state.amplitudes if isinstance(state, QuantumState) else np.asarray(state, dtype=complex)
    n = int(round(math.log2(amps.size)))
    if 2**n != amps.size:
        raise ValueError("state dimension is not a power of two")
    ancillas = sorted(set(int(a) for a in ancilla_indices))
    if any(a < 0 or a >= n for a in ancillas):
        raise ValueError("ancilla index out of range")
    if not ancillas:
        return QuantumState(amps), 1.0
    slicer = [slice(None)] * n
    for a in ancillas:
        slicer[a] = 0
    kept = amps.reshape([2] * n)[tuple(slicer)].reshape(-1)
    prob = float(np.vdot(kept, kept).real)
    if prob <= 0.0:
        return None, 0.0
    return QuantumState(kept / np.sqrt(prob)), prob


def trace_out(state, qubit_indices) -> np.ndarray:
    """Reduced density matrix after tracing the listed qubits of a pure state."""
    amps = state.amplitudes if isinstance(state, QuantumState) else np.asarray(state, dtype=complex)
    n = int(round(math.log2(amps.size)))
    traced = sorted(set(int(q) for q in qubit_indices))
    kept = [q for q in range(n) if q not in traced]
    tensor = amps.reshape([2] * n).transpose(kept + traced)
    flat = tensor.reshape(2 ** len(kept), 2 ** len(traced))
    return flat @ flat.conj().T


def sznagy_dilation(op: np.ndarray) -> np.ndarray:
    """Unitary 2d x 2d dilation with the contraction in the top-left block.

    ``[[L, sqrt(I - L L^dag)], [sqrt(I - L^dag L), -L^dag]]``; requires
    ``||L|| <= 1``, which the generator-invariant rescaling guarantees.
    """
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("dilation input must be square")
    norm = float(np.linalg.norm(mat, 2))
    if norm > 1.0 + DILATION_NORM_TOL:
        raise ValueError(f"operator norm {norm} exceeds 1; rescale first")
    eye = np.eye(mat.shape[0], dtype=complex)
    upper = psd_sqrt(eye - mat @ mat.conj().T)
    lower = psd_sqrt(eye - mat.conj().T @ mat)
    return np.block([[mat, upper], [lower, -mat.conj().T]])


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _multiplexed_rotation_gates(kind: str, target: int, controls, angles) -> list[Gate]:
    """Uniformly controlled rotation as a Gray-walk of CNOTs and rotations.

    ``angles`` is indexed by control value with ``controls[0]`` as the most
    significant bit.  All-equal angle vectors collapse to one uncontrolled
    rotation.
    """
    controls = list(controls)
    angles = np.asarray(angles, dtype=float)
    k = len(controls)
    if angles.size != 2**k:
        raise ValueError("need one angle per control value")
    if np.abs(angles).max() < ANGLE_PRUNE_TOL:
        return []
    if k == 0 or np.abs(angles - angles[0]).max() < ANGLE_PRUNE_TOL:
        return [Gate(kind, (target,), angle=float(angles[0]))]
    d = 2**k
    thetas = np.empty(d)
    values = np.arange(d)
    for j in range(d):
        parity = np.bitwise_count(values & _gray(j)).astype(np.int64) & 1
        thetas[j] = float((angles * (1 - 2 * parity)).sum() / d)
    gates: list[Gate] = []
    for j in range(d):
        if abs(thetas[j]) > ANGLE_PRUNE_TOL:
            gates.append(Gate(kind, (target,), angle=thetas[j]))
        flipped = _gray(j) ^ _gray((j + 1) % d)
        bit = flipped.bit_length() - 1
        gates.append(cnot(controls[k - 1 - bit], target))
    return gates


def _binary_phase_gates(phases: np.ndarray, qubits) -> list[Gate]:
    """One multi-controlled phase per nonzero subset-transformed angle."""
    qubits = list(qubits)
    n = len(qubits)
    tilde = np.asarray(phases, dtype=float).copy()
    for bit in range(n):
        step = 1 << bit
        for s in range(2**n):
            if s & step:
                tilde[s] -= tilde[s ^ step]
    gates: list[Gate] = []
    for s in range(1, 2**n):
        if abs(tilde[s]) < ANGLE_PRUNE_TOL:
            continue
        members = [qubits[n - 1 - p] for p in range(n) if s & (1 << p)]
        gates.append(
            Gate("phase", (members[0],), tuple(members[1:]), angle=float(tilde[s]))
        )
    return gates


def _gray_phase_gates(phases: np.ndarray, qubits) -> list[Gate]:
    """Parity-ladder encoding: Walsh-solved Rz angles on recursive halves."""
    qubits = list(qubits)
    phases = np.asarray(phases, dtype=float)
    if len(qubits) == 1:
        delta = float(phases[1] - phases[0])
        if abs(delta) < ANGLE_PRUNE_TOL:
            return []
        return [Gate("rz", (qubits[0],), angle=delta)]
    means = (phases[0::2] + phases[1::2]) / 2
    deltas = phases[1::2] - phases[0::2]
    gates = _gray_phase_gates(means, qubits[:-1])
    gates += _multiplexed_rotation_gates("rz", qubits[-1], qubits[:-1], deltas)
    return gates


def _qubit_count(length: int, what: str) -> int:
    n = int(round(math.log2(length)))
    if 2**n != length or length < 1:
        raise ValueError(f"{what} length must be a power of two, got {length}")
    return n


def encode_diagonal_unitary(phases, scheme: str = SCHEME_BINARY) -> Circuit:
    """Circuit realizing ``diag(exp(i phases))`` up to a global phase.

    The binary scheme emits one multi-controlled phase gate per surviving
    subset angle; the gray scheme solves rotation angles with the
    Walsh-Hadamard transform and emits parity-controlled Rz ladders.
    """
    phases = np.asarray(phases, dtype=float)
    n = _qubit_count(phases.size, "phase vector")
    if scheme == SCHEME_BINARY:
        gates = _binary_phase_gates(phases, range(n))
    elif scheme == SCHEME_GRAY:
        gates = _gray_phase_gates(phases, range(n))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return Circuit(n, 0, tuple(gates))


def encode_diagonal_contraction(decays) -> Circuit:
    """Block encoding of ``diag(decays)`` via one post-selected ancilla.

    A uniformly controlled Ry(2 arccos(decay)) keyed on the system register
    leaves amplitude ``decays[i]`` on the ancilla-0 branch of index i.
    """
    decays = np.asarray(decays, dtype=float)
    n = _qubit_count(decays.size, "decay vector")
    if decays.min() < -1e-12 or decays.max() > 1.0 + 1e-12:
        raise ValueError("decay entries must lie in [0, 1]")
    angles = 2.0 * np.arccos(np.clip(decays, 0.0, 1.0))
    gates = _multiplexed_rotation_gates("ry", n, range(n), angles)
    return Circuit(n, 1, tuple(gates), postselect=(n,))


def _distribution_angles(probs: np.ndarray, level: int, num_qubits: int) -> np.ndarray:
    block = 2 ** (num_qubits - level)
    half = block // 2
    angles = np.empty(2**level)
    for c in range(2**level):
        seg = probs[c * block : (c + 1) * block]
        left = float(seg[:half].sum())
        right = float(seg[half:].sum())
        angles[c] = 2.0 * math.atan2(math.sqrt(right), math.sqrt(left)) if left + right > 0 else 0.0
    return angles


def _distribution_gates(amplitudes: np.ndarray, qubits) -> list[Gate]:
    qubits = list(qubits)
    probs = np.asarray(amplitudes, dtype=float) ** 2
    gates: list[Gate] = []
    for level in range(len(qubits)):
        angles = _distribution_angles(probs, level, len(qubits))
        gates += _multiplexed_rotation_gates("ry", qubits[level], qubits[:level], angles)
    return gates


def prepare_distribution(amplitudes) -> Circuit:
    """Map |0..0> to the nonnegative-amplitude state via an Ry bisection tree."""
    amps = np.asarray(amplitudes, dtype=float)
    n = _qubit_count(amps.size, "amplitude vector")
    if amps.min() < -1e-12:
        raise ValueError("amplitudes must be nonnegative")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"amplitude vector norm {norm} deviates from 1")
    return Circuit(n, 0, tuple(_distribution_gates(amps, range(n))))


def _t_block_gates(
    prep: PreparedModel,
    t: float,
    system_qubits: list[int],
    contraction_ancilla: int | None,
    scheme: str,
) -> list[Gate]:
    """Gates for T(t) = U W(t) Lambda(t) U^dag on the system register.

    W is a diagonal-unitary encoding of the phases, Lambda a post-selected
    diagonal contraction on ``contraction_ancilla`` (skipped when None, in
    which case the decays must be uniform and handled by the caller).
    """
    if prep.spectrum is None:
        raise ConditionError("H and the dissipators share no eigenbasis; conditions (i)/(ii) unmet")
    u, energies, decays = prep.spectrum
    gates: list[Gate] = []
    basis_change = np.abs(u - np.eye(u.shape[0])).max() > 1e-12
    if basis_change:
        gates.append(Gate("unitary", tuple(system_qubits), matrix=u.conj().T))
    phase_vec = -energies * t
    if np.abs(phase_vec - phase_vec[0]).max() > ANGLE_PRUNE_TOL:
        inner = encode_diagonal_unitary(phase_vec, scheme)
        gates += [_shift_gate(g, system_qubits) for g in inner.gates]
    if contraction_ancilla is not None:
        lam = np.exp(-0.5 * decays * t)
        angles = 2.0 * np.arccos(np.clip(lam, 0.0, 1.0))
        gates += _multiplexed_rotation_gates("ry", contraction_ancilla, system_qubits, angles)
    if basis_change:
        gates.append(Gate("unitary", tuple(system_qubits), matrix=u))
    return gates


def _shift_gate(gate: Gate, qubit_map) -> Gate:
    remap = list(qubit_map)
    return Gate(
        gate.kind,
        tuple(remap[q] for q in gate.targets),
        tuple(remap[q] for q in gate.controls),
        gate.control_values,
        gate.angle,
        gate.matrix,
    )


def build_kraus_circuit(
    term: KrausTerm,
    model: LindbladModel | PreparedModel,
    t: float,
    scheme: str = SCHEME_BINARY,
    ancilla_budget: int = DEFAULT_ANCILLA_BUDGET,
) -> Circuit:
    """Circuit for one Kraus term: dilations of each applied operator, then T(t).

    One fresh ancilla per operator application carries the unitary dilation;
    one more carries the diagonal contraction of T.  Post-selecting every
    ancilla on 0 leaves the system in ``T prod(L) |psi>`` normalized, with
    survival probability equal to its squared norm.
    """
    prep = prepare(model)
    n_sys = _qubit_count(prep.dim, "system dimension")
    m = term.order
    total_anc = m + 1
    if n_sys + total_anc > ancilla_budget:
        raise ValueError(
            f"term needs {n_sys + total_anc} qubits, over the budget {ancilla_budget}"
        )
    system = list(range(n_sys))
    gates: list[Gate] = []
    # Rightmost factor in the operator product acts first.
    for slot, op_index in enumerate(reversed(term.indices)):
        dilation = sznagy_dilation(prep.normalized.lindblads[op_index])
        anc = n_sys + slot
        gates.append(Gate("unitary", (anc, *system), matrix=dilation))
    gates += _t_block_gates(prep, t, system, n_sys + m, scheme)
    return Circuit(
        n_sys,
        total_anc,
        tuple(gates),
        postselect=tuple(range(n_sys, n_sys + total_anc)),
    )


def _match_pauli_string(op: np.ndarray, num_qubits: int):
    """Return (label, phase) when op equals phase * Pauli string, else None."""
    dim = 2**num_qubits
    if op.shape != (dim, dim):
        return None
    for label in pauli_labels(num_qubits):
        pauli = pauli_string_matrix(label)
        coeff = np.trace(pauli.conj().T @ op) / dim
        if abs(abs(coeff) - 1.0) < 1e-10 and np.abs(op - coeff * pauli).max() < 1e-10:
            return label, complex(coeff)
    return None


def _controlled_operator_gates(op: np.ndarray, control: int, system: list[int]) -> list[Gate]:
    """Controlled application of op, decomposed per Pauli factor when possible."""
    match = _match_pauli_string(op, len(system))
    if match is None:
        return [Gate("unitary", tuple(system), (control,), matrix=op)]
    label, coeff = match
    gates = []
    phase = float(np.angle(coeff))
    if abs(phase) > ANGLE_PRUNE_TOL:
        gates.append(Gate("phase", (control,), angle=phase))
    for q, letter in zip(system, label):
        if letter != "I":
            gates.append(Gate(letter.lower(), (q,), (control,)))
    return gates


def build_group_circuit(
    model: LindbladModel | PreparedModel, t: float, scheme: str = SCHEME_BINARY
) -> Circuit:
    """Abelian factored-evolution circuit with per-factor ancilla registers.

    Each factor prepares the hyperbolic weight distribution on
    ``ceil(log2 period)`` ancillas, applies binary-weighted controlled powers
    of its operator, and the unitary part of T(t) closes the circuit.  The
    ancillas are traced out, not post-selected; they hold the classical
    mixture over powers, so no trace weight is discarded.
    """
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    prep = prepare(model)
    _require_abelian(prep)
    work = prep.rescaled
    n_sys = _qubit_count(work.dim, "system dimension")
    system = list(range(n_sys))
    gates: list[Gate] = []
    next_anc = n_sys
    for op, g, ell in zip(work.lindblads, work.gammas, prep.structure.periods):
        n_anc = max(1, math.ceil(math.log2(ell)))
        block = list(range(next_anc, next_anc + n_anc))
        next_anc += n_anc
        weights = factor_weights(g, ell, t)
        padded = np.zeros(2**n_anc)
        padded[: weights.size] = np.sqrt(weights)
        norm = float(np.linalg.norm(padded))
        gates += _distribution_gates(padded / norm, block)
        for i, anc in enumerate(block):
            power = 2 ** (n_anc - 1 - i)
            if power >= ell:
                continue
            op_power = np.linalg.matrix_power(op, power)
            gates += _controlled_operator_gates(op_power, anc, system)
    gates += _t_block_gates(prep, t, system, None, scheme)
    return Circuit(n_sys, next_anc - n_sys, tuple(gates))


def apply_group_circuit(circuit: Circuit, system_state) -> np.ndarray:
    """Run the factored circuit and trace out its ancilla registers."""
    final = simulate_statevector(circuit, embed_state(circuit, system_state))
    ancillas = range(circuit.num_system_qubits, circuit.num_qubits)
    return trace_out(final, ancillas)


_BASIS_ROTATIONS = {"Z": (), "X": ("h",), "Y": ("sdg", "h")}


def _measurement_rotation(basis: str, num_qubits: int) -> list[Gate]:
    gates: list[Gate] = []
    if len(basis) != num_qubits:
        raise ValueError("basis length must match the system qubit count")
    for q, letter in enumerate(basis):
        if letter not in _BASIS_ROTATIONS:
            raise ValueError(f"invalid basis letter {letter!r}")
        for step in _BASIS_ROTATIONS[letter]:
            if step == "sdg":
                gates.append(Gate("phase", (q,), angle=-np.pi / 2))
            else:
                gates.append(Gate("h", (q,)))
    return gates


def _basis_probabilities(state: QuantumState, basis: str) -> np.ndarray:
    n = len(basis)
    rotation = Circuit(n, 0, tuple(_measurement_rotation(basis, n)))
    rotated = simulate_statevector(rotation, state)
    return np.abs(rotated.amplitudes) ** 2


def exact_distribution(state: QuantumState, basis: str, accepted_fraction: float = 1.0) -> ShotResult:
    """Infinite-shot measurement: exact outcome probabilities."""
    probs = _basis_probabilities(state, basis)
    n = len(basis)
    counts = {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs) if p > 0.0}
    return ShotResult(basis, counts, accepted_fraction)


def sample_shots(
    state: QuantumState,
    basis: str,
    shots: int,
    seed,
    accepted_fraction: float = 1.0,
) -> ShotResult:
    """Sample measurement outcomes in a Pauli product basis.

    The generator is seeded deterministically; identical seeds reproduce
    identical counts regardless of evaluation order elsewhere.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = _basis_probabilities(state, basis)
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs / probs.sum())
    n = len(basis)
    counts = {format(i, f"0{n}b"): float(c) for i, c in enumerate(draws) if c > 0}
    return ShotResult(basis, counts, accepted_fraction)


@dataclass(frozen=True)
class TermMeasurements:
    """Measurement data of one Kraus-term circuit across all bases."""

    weight_sq: float
    survival: float
    results: dict[str, ShotResult] = field(default_factory=dict)


def _pattern_expectation(result: ShotResult, pattern: str) -> float:
    total = result.total()
    if total <= 0.0:
        return 0.0
    active = [i for i, letter in enumerate(pattern) if letter != "I"]
    acc = 0.0
    for bits, count in result.counts.items():
        sign = 1.0
        for i in active:
            if bits[i] == "1":
                sign = -sign
        acc += sign * count
    return acc / total


def tomography(terms: list[TermMeasurements], num_qubits: int) -> DensityMatrix:
    """Linear-inversion reconstruction of the weighted channel output.

    Pauli expectations of each term are combined as
    ``<P> = sum_t weight^2 * survival * <P>_t`` and inverted through
    ``rho = 2^-N sum_P <P> P``; the identity-string coefficient is the
    accumulated trace weight.  The result may be unphysical and is flagged
    raw.
    """
    labels = pauli_labels(num_qubits)
    bases = ["".join(b) for b in itertools.product("XYZ", repeat=num_qubits)]
    for tm in terms:
        if tm.survival > 0.0:
            missing = [b for b in bases if b not in tm.results]
            if missing:
                raise ValueError(f"incomplete basis coverage, missing {missing[:3]}")
            if any(len(b) != num_qubits for b in tm.results):
                raise ValueError("basis length inconsistent with qubit count")
    dim = 2**num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    trace_weight = sum(tm.weight_sq * tm.survival for tm in terms)
    rho += trace_weight * np.eye(dim) / dim
    for label in labels:
        if label == "I" * num_qubits:
            continue
        covering = [b for b in bases if all(p == "I" or p == bl for p, bl in zip(label, b))]
        value = 0.0
        for tm in terms:
            if tm.survival <= 0.0:
                continue
            est = np.mean([_pattern_expectation(tm.results[b], label) for b in covering])
            value += tm.weight_sq * tm.survival * est
        rho += value * pauli_string_matrix(label) / dim
    return DensityMatrix(rho, raw=True)


def execute_series_tomography(
    model: LindbladModel | PreparedModel,
    series: KrausSeries,
    t: float,
    initial_state: QuantumState,
    shots: int | None = None,
    seed: int | tuple[int, ...] = 0,
    scheme: str = SCHEME_BINARY,
) -> tuple[DensityMatrix, list[dict]]:
    """Full circuit pipeline for a series: simulate, post-select, measure, invert.

    ``shots=None`` runs the infinite-shot mode with exact expectations; a
    shot count samples each (term, basis) job with a deterministic child
    seed, so parallel and serial schedules agree bit for bit.
    """
    prep = prepare(model)
    n_sys = _qubit_count(prep.dim, "system dimension")
    seed_base = (seed,) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)
    bases = ["".join(b) for b in itertools.product("XYZ", repeat=n_sys)]
    measurements: list[TermMeasurements] = []
    diagnostics: list[dict] = []
    for term_index, term in enumerate(series.terms):
        circuit = build_kraus_circuit(term, prep, t, scheme)
        final = simulate_statevector(circuit, embed_state(circuit, initial_state))
        reduced, survival = postselect(final, circuit.postselect)
        results: dict[str, ShotResult] = {}
        if reduced is not None:
            for basis_index, basis in enumerate(bases):
                if shots is None:
                    results[basis] = exact_distribution(reduced, basis, survival)
                else:
                    child = np.random.SeedSequence([*seed_base, term_index, basis_index])
                    results[basis] = sample_shots(reduced, basis, shots, child, survival)
        measurements.append(TermMeasurements(term.weight**2, survival, results))
        diagnostics.append(
            {
                "order": term.order,
                "indices": list(term.indices),
                "weight": term.weight,
                "survival": survival,
            }
        )
    return tomography(measurements, n_sys), diagnostics
