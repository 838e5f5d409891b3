"""Gate-level realization of Kraus terms, statevector emulation and tomography.

Qubit 0 is the most significant bit of basis labels.  Circuits put system
qubits first (indices ``0 .. S-1``) and ancillas after them.  Non-unitary
blocks enter through unitary dilations and block encodings whose ancillas
are post-selected on reading 0; group-structured factors instead keep their
ancilla registers, which purify the channel mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kraus import (
    KrausSeries,
    KrausTerm,
    PreparedModel,
    factor_weights,
    prepare,
    _require_abelian,
    _require_spectrum,
)
from .lindblad import LindbladModel
from .matkernel import PAULI, DensityMatrix, QuantumState, apply_to_axes, qubit_count, sznagy_dilation  # noqa: F401 (re-export)
from .matkernel import from_pauli_coefficients, pauli_coefficients, pauli_labels, pauli_string_matrix

ANGLE_PRUNE_TOL = 1e-12
SCHEME_BINARY = "binary"
SCHEME_GRAY = "gray"
DEFAULT_ANCILLA_BUDGET = 16

_SINGLE_QUBIT = {
    **{letter.lower(): PAULI[letter] for letter in "XYZ"},
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
    n = qubit_count(amps.size, "state dimension")
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
    n = qubit_count(amps.size, "state dimension")
    traced = sorted(set(int(q) for q in qubit_indices))
    kept = [q for q in range(n) if q not in traced]
    tensor = amps.reshape([2] * n).transpose(kept + traced)
    flat = tensor.reshape(2 ** len(kept), 2 ** len(traced))
    return flat @ flat.conj().T


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
    # subset (Moebius) transform, least significant qubit first
    steps = [(axis, np.array([[1.0, 0.0], [-1.0, 1.0]])) for axis in reversed(range(n))]
    tilde = apply_to_axes(np.asarray(phases, dtype=float).reshape([2] * n), steps).reshape(-1)
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


def _diagonal_unitary_gates(phases, qubits, scheme: str) -> list[Gate]:
    """Gates realizing ``diag(exp(i phases))`` on ``qubits`` up to a global phase.

    The binary scheme emits one multi-controlled phase gate per surviving
    subset angle; the gray scheme solves rotation angles with the
    Walsh-Hadamard transform and emits parity-controlled Rz ladders.
    """
    if scheme == SCHEME_BINARY:
        return _binary_phase_gates(phases, qubits)
    if scheme == SCHEME_GRAY:
        return _gray_phase_gates(phases, qubits)
    raise ValueError(f"unknown scheme {scheme!r}")


def encode_diagonal_unitary(phases, scheme: str = SCHEME_BINARY) -> Circuit:
    """Circuit realizing ``diag(exp(i phases))`` up to a global phase."""
    n = qubit_count(np.size(phases), "phase vector length")
    return Circuit(n, 0, tuple(_diagonal_unitary_gates(phases, range(n), scheme)))


def _diagonal_contraction_gates(decays, qubits, ancilla: int) -> list[Gate]:
    """Block encoding of ``diag(decays)`` on ``qubits`` via ``ancilla``, post-selected on 0.

    A uniformly controlled Ry(2 arccos(decay)) keyed on ``qubits`` leaves
    amplitude ``decays[i]`` on the ancilla-0 branch of index i.
    """
    decays = np.asarray(decays, dtype=float)
    if decays.min() < -1e-12 or decays.max() > 1.0 + 1e-12:
        raise ValueError("decay entries must lie in [0, 1]")
    angles = 2.0 * np.arccos(np.clip(decays, 0.0, 1.0))
    return _multiplexed_rotation_gates("ry", ancilla, qubits, angles)


def encode_diagonal_contraction(decays) -> Circuit:
    """Block encoding of ``diag(decays)`` via one post-selected ancilla."""
    n = qubit_count(np.size(decays), "decay vector length")
    return Circuit(n, 1, tuple(_diagonal_contraction_gates(decays, range(n), n)), postselect=(n,))


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
    """Ry bisection tree mapping ``|0..0>`` on ``qubits`` to the unit-norm nonnegative ``amplitudes``."""
    qubits = list(qubits)
    probs = np.asarray(amplitudes, dtype=float) ** 2
    gates: list[Gate] = []
    for level in range(len(qubits)):
        angles = _distribution_angles(probs, level, len(qubits))
        gates += _multiplexed_rotation_gates("ry", qubits[level], qubits[:level], angles)
    return gates


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
    u, energies, decays = _require_spectrum(prep)
    gates: list[Gate] = []
    basis_change = np.abs(u - np.eye(u.shape[0])).max() > 1e-12
    if basis_change:
        gates.append(Gate("unitary", tuple(system_qubits), matrix=u.conj().T))
    phase_vec = -energies * t
    if np.abs(phase_vec - phase_vec[0]).max() > ANGLE_PRUNE_TOL:
        gates += _diagonal_unitary_gates(phase_vec, system_qubits, scheme)
    if contraction_ancilla is not None:
        gates += _diagonal_contraction_gates(np.exp(-0.5 * decays * t), system_qubits, contraction_ancilla)
    if basis_change:
        gates.append(Gate("unitary", tuple(system_qubits), matrix=u))
    return gates


def build_kraus_circuit(
    term: KrausTerm,
    model: LindbladModel | PreparedModel,
    t: float,
    scheme: str = SCHEME_BINARY,
) -> Circuit:
    """Circuit for one Kraus term: dilations of each applied operator, then T(t).

    One fresh ancilla per operator application carries the unitary dilation;
    one more carries the diagonal contraction of T.  Post-selecting every
    ancilla on 0 leaves the system in ``T prod(L) |psi>`` normalized, with
    survival probability equal to its squared norm.
    """
    prep = prepare(model)
    n_sys = qubit_count(prep.dim, "system dimension")
    m = term.order
    total_anc = m + 1
    if n_sys + total_anc > DEFAULT_ANCILLA_BUDGET:
        raise ValueError(f"term needs {n_sys + total_anc} qubits, over the budget {DEFAULT_ANCILLA_BUDGET}")
    system = list(range(n_sys))
    gates: list[Gate] = []
    # Rightmost factor in the operator product acts first.
    for slot, op_index in enumerate(reversed(term.indices)):
        anc = n_sys + slot
        gates.append(Gate("unitary", (anc, *system), matrix=prep.dilations[op_index]))
    gates += _t_block_gates(prep, t, system, n_sys + m, scheme)
    return Circuit(
        n_sys,
        total_anc,
        tuple(gates),
        postselect=tuple(range(n_sys, n_sys + total_anc)),
    )


def _controlled_operator_gates(op: np.ndarray, control: int, system: list[int]) -> list[Gate]:
    """Controlled application of op, decomposed per Pauli factor when op is a phased Pauli string."""
    n = len(system)
    coeffs = pauli_coefficients(op) / 2**n
    k = int(np.abs(coeffs).argmax())
    coeff, label = coeffs[k], pauli_labels(n)[k]
    if abs(abs(coeff) - 1.0) >= 1e-10 or np.abs(op - coeff * pauli_string_matrix(label)).max() >= 1e-10:
        return [Gate("unitary", tuple(system), (control,), matrix=op)]
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
    n_sys = qubit_count(work.dim, "system dimension")
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


# Factors that map each letter's eigenbasis onto Z, applied in turn: H, and
# phase(-pi/2) then H, the gates a device runs before reading out Z.
_H = _SINGLE_QUBIT["h"]
_BASIS_CHANGE = {"X": (_H,), "Y": (np.diag([1.0, np.exp(-0.5j * np.pi)]), _H), "Z": ()}


def _basis_probabilities(state: QuantumState, choices) -> np.ndarray:
    """Outcome probabilities of every basis that picks one letter of ``choices[q]`` for each qubit q.

    ``"ZY"`` is one basis and ``["XYZ"] * n`` all 3^n of them.  Row r of the
    ``(bases, 2^n)`` result is the r-th basis in ``itertools.product(*choices)``
    order.  Each qubit's letters are applied as the separate factors of
    ``_BASIS_CHANGE``, qubit by qubit, so every row is bit-identical to the
    row of its single basis.
    """
    n = len(choices)
    if state.dim != 2**n:
        raise ValueError(f"basis {choices!r} measures {n} qubits, but the state has dimension {state.dim}")
    bad = set("".join(choices)) - set(_BASIS_CHANGE)
    if bad:
        raise ValueError(f"invalid basis letters {sorted(bad)} in {choices!r}")
    # axes: one letter axis per qubit done so far, then the n qubit axes
    stack = state.amplitudes.reshape([2] * n)
    for q, letters in enumerate(choices):
        rotated = [apply_to_axes(stack, [(2 * q, f) for f in _BASIS_CHANGE[c]]) for c in letters]
        stack = np.stack(rotated, axis=q)
    return np.abs(stack.reshape(-1, 2**n)) ** 2


def _shot_result(basis: str, weights: np.ndarray) -> ShotResult:
    """Counts keyed by outcome bitstring (qubit 0 leftmost); zero weights are left out."""
    counts = {format(i, f"0{len(basis)}b"): float(w) for i, w in enumerate(weights) if w > 0}
    return ShotResult(basis, counts)


def sample_shots(state: QuantumState, basis: str, shots: int, seed) -> ShotResult:
    """Sample measurement outcomes in a Pauli product basis.

    The generator is seeded deterministically; identical seeds reproduce
    identical counts regardless of evaluation order elsewhere.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = _basis_probabilities(state, basis)[0]
    rng = np.random.default_rng(seed)
    return _shot_result(basis, rng.multinomial(shots, probs / probs.sum()))


# Readout of one qubit's (letter, outcome) pair, letters X, Y, Z, into the
# Pauli expectations I, X, Y, Z: each letter reads its own expectation as Z
# does, and I is the mean over the three letters, the 3^(n - weight) bases
# that cover a string.
_READOUT = np.vstack([np.full(6, 1 / 3), np.kron(np.eye(3), [1.0, -1.0])])


def tomography(frequencies) -> DensityMatrix:
    """Linear-inversion reconstruction from a ``(3^n, 2^n)`` table of outcome frequencies.

    Row r holds the outcomes of the r-th basis in ``itertools.product("XYZ",
    repeat=n)`` order, summed over the measured terms as
    ``weight^2 * survival * frequency``.  The per-qubit readout turns the
    table into every string's expectation, averaged over the bases that cover
    it, and ``rho = 2^-n sum_P <P> P``; the identity coefficient is the
    accumulated trace weight.  The result may be unphysical and is flagged raw.
    """
    table = np.asarray(frequencies, dtype=float)
    if table.ndim != 2 or table.shape[0] != 3 ** qubit_count(table.shape[1], "outcome count"):
        raise ValueError(f"frequency table must have shape (3^n, 2^n), got {table.shape}")
    n = table.shape[1].bit_length() - 1
    letter_outcome_pairs = [axis for q in range(n) for axis in (q, n + q)]
    per_qubit = table.reshape([3] * n + [2] * n).transpose(letter_outcome_pairs).reshape([6] * n)
    values = apply_to_axes(per_qubit, [(q, _READOUT) for q in range(n)]).reshape(-1)
    return DensityMatrix(from_pauli_coefficients(values), raw=True)


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

    ``shots=None`` runs the infinite-shot mode with exact probabilities; a
    shot count samples each (term, basis) job with a deterministic child
    seed, so parallel and serial schedules agree bit for bit.
    """
    if shots is not None and shots < 1:
        raise ValueError("shots must be >= 1")
    prep = prepare(model)
    n_sys = qubit_count(prep.dim, "system dimension")
    seed_base = (seed,) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)
    frequencies = np.zeros((3**n_sys, 2**n_sys))
    diagnostics: list[dict] = []
    for term_index, term in enumerate(series.terms):
        circuit = build_kraus_circuit(term, prep, t, scheme)
        final = simulate_statevector(circuit, embed_state(circuit, initial_state))
        reduced, survival = postselect(final, circuit.postselect)
        if reduced is not None:
            probs = _basis_probabilities(reduced, ["XYZ"] * n_sys)
            if shots is not None:
                for basis_index, p in enumerate(probs):
                    rng = np.random.default_rng(np.random.SeedSequence([*seed_base, term_index, basis_index]))
                    probs[basis_index] = rng.multinomial(shots, p / p.sum())
            frequencies += term.weight**2 * survival * probs / probs.sum(axis=1, keepdims=True)
        diagnostics.append(
            {
                "order": int(term.order),
                "indices": [int(k) for k in term.indices],
                "weight": float(term.weight),
                "survival": float(survival),
            }
        )
    return tomography(frequencies), diagnostics
