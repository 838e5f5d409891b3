"""Gate-level realization of Kraus terms, statevector emulation and tomography.

Qubit 0 is the most significant bit of basis labels.  Circuits put system qubits first
(indices ``0 .. S-1``) and ancillas after them; a Kraus term puts T(t)'s contraction
ancilla first, so all terms of one :func:`execute_series_tomography` call share one T(t)
block.  Non-unitary blocks enter through unitary dilations and block encodings whose
ancillas are post-selected on reading 0; group-structured factors instead keep their
ancilla registers, which purify the channel mixture.
"""

from __future__ import annotations

import itertools
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
from .matkernel import PAULI, QuantumState, apply_to_axes, from_pauli_coefficients, pauli_coefficients
from .matkernel import pauli_labels, pauli_string_matrix, qubit_count, _axis_orders, _integer, _real, _time
from .matkernel import sznagy_dilation  # noqa: F401 (re-export: acceptance criterion 6 reads circuits.sznagy_dilation)

ANGLE_PRUNE_TOL = 1e-12
SCHEME_BINARY = "binary"
SCHEME_GRAY = "gray"
DEFAULT_ANCILLA_BUDGET = 16
MAX_SHOTS = 2**63 - 1  # numpy draws int64 counts

_SINGLE_QUBIT = {
    **{letter.lower(): PAULI[letter] for letter in "XYZ"},
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}

# kind -> core matrix of an angle, for the kinds that take one
_ROTATIONS = {
    "phase": lambda a: np.diag([1.0, np.exp(1j * a)]),
    "rz": lambda a: np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)]),
    "ry": lambda a: np.array([[np.cos(a / 2), -np.sin(a / 2)], [np.sin(a / 2), np.cos(a / 2)]], dtype=complex),
}


@dataclass(frozen=True)
class Gate:
    """One circuit operation.

    ``kind`` is one of x, y, z, h, phase, rz, ry, unitary, on distinct
    qubits.  ``angle``, a finite real, is set on phase, rz and ry only, and
    ``matrix`` on unitary only.  The core acts where every control reads 1.
    ``phase`` multiplies by e^{i angle} when the target and every control
    read 1, which makes multi-controlled phases symmetric in their qubits.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        targets = tuple(_integer(q, "qubit index") for q in self.targets)
        controls = tuple(_integer(q, "qubit index") for q in self.controls)
        if not targets:
            raise ValueError("gate needs at least one target")
        if len(set(targets + controls)) != len(targets) + len(controls):
            raise ValueError(f"gate qubits must be distinct, got targets {targets} and controls {controls}")
        if self.kind == "unitary":
            core = np.asarray(self.matrix, dtype=complex)
            if core.shape != (2 ** len(targets), 2 ** len(targets)):
                raise ValueError("unitary matrix shape does not match target count")
            defect = np.abs(core.conj().T @ core - np.eye(core.shape[0])).max()
            if defect > 1e-9:
                raise ValueError(f"matrix is not unitary (defect {defect})")
            object.__setattr__(self, "matrix", core)
        elif self.kind in _ROTATIONS:
            object.__setattr__(self, "angle", _real(self.angle, f"{self.kind} gate angle"))
            core = _ROTATIONS[self.kind](self.angle)
        elif (core := _SINGLE_QUBIT.get(self.kind)) is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.angle is not None and self.kind not in _ROTATIONS:
            raise ValueError(f"{self.kind} gate takes no angle")
        if self.matrix is not None and self.kind != "unitary":
            raise ValueError(f"{self.kind} gate takes no matrix")
        if self.kind != "unitary" and len(targets) != 1:
            raise ValueError(f"{self.kind} gate takes exactly one target")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "_core", core)  # not a field: to_doc, from_doc and == never see it

    def unitary(self) -> np.ndarray:
        """Dense matrix of the uncontrolled core on the target qubits, built once per gate."""
        return self._core


def _qubits(indices, n: int, what: str) -> tuple[int, ...]:
    """The one rule of a qubit index: each of ``indices`` read with ``_integer`` and inside the ``n``-qubit register."""
    qubits = tuple([_integer(q, what) for q in indices])
    if outside := [q for q in qubits if not 0 <= q < n]:
        raise ValueError(f"{what} {outside[0]} is outside the {n}-qubit register")
    return qubits


def cnot(control: int, target: int) -> Gate:
    return Gate("x", (target,), (control,))


@dataclass(frozen=True)
class Circuit:
    num_system_qubits: int
    num_ancilla_qubits: int
    gates: tuple[Gate, ...]
    postselect: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("num_system_qubits", "num_ancilla_qubits"):
            size = _integer(getattr(self, name), name)
            if size < 0:
                raise ValueError(f"{name} must be non-negative, got {size}")
            object.__setattr__(self, name, size)
        gates = tuple(self.gates)
        _qubits([q for gate in gates for q in gate.targets + gate.controls], self.num_qubits, "qubit index")
        postselect = _qubits(self.postselect, self.num_qubits, "post-selection index")
        if len(set(postselect)) != len(postselect):
            raise ValueError(f"post-selection indices must be distinct, got {postselect}")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "postselect", postselect)

    @property
    def num_qubits(self) -> int:
        return self.num_system_qubits + self.num_ancilla_qubits


@dataclass(frozen=True)
class ShotResult:
    """Counts (or exact probabilities) of one measurement basis."""

    basis: str
    counts: dict[str, float]


def _apply_gate(tensor: np.ndarray, gate: Gate) -> np.ndarray:
    """``gate`` on one copy of the register, targets then controls first: ``[:, -1]`` is where every control reads 1."""
    to_front, back = _axis_orders(tensor.ndim, gate.targets + gate.controls)
    flat = tensor.transpose(to_front).copy().reshape(2 ** len(gate.targets), 2 ** len(gate.controls), -1)
    flat[:, -1] = gate.unitary() @ flat[:, -1]
    return flat.reshape(tensor.shape).transpose(back)


def _amplitudes(state) -> np.ndarray:
    """The amplitude vector of a :class:`QuantumState`, or of a plain array taken as complex."""
    return state.amplitudes if isinstance(state, QuantumState) else np.asarray(state, dtype=complex)


def simulate_statevector(circuit: Circuit, state) -> QuantumState:
    """Exact action of the gate list on a full-register state."""
    amps = _amplitudes(state)
    n = circuit.num_qubits
    if amps.size != 2**n:
        raise ValueError(f"state dimension {amps.size} does not match {n} qubits")
    tensor = amps.reshape([2] * n) if n else amps
    for gate in circuit.gates:
        tensor = _apply_gate(tensor, gate)
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
    """Tensor the system state with ancillas initialized to 0: the amplitudes fill every ``2^m``-th entry
    of the register (m ancillas) and every other entry is 0."""
    amps = _amplitudes(system_state)
    if amps.size != 2**circuit.num_system_qubits:
        raise ValueError("system state dimension mismatch")
    stride = 2**circuit.num_ancilla_qubits
    out = np.zeros(amps.size * stride, dtype=complex)
    out[::stride] = amps
    return out


def postselect(state, ancilla_indices) -> tuple[QuantumState | None, float]:
    """Project the listed qubits onto 0 and renormalize the remainder.

    Returns the reduced state and the survival probability; a vanishing
    branch returns (None, 0.0) so callers can drop the term.
    """
    amps = _amplitudes(state)
    n = qubit_count(amps.size, "state dimension")
    ancillas = sorted(set(_qubits(ancilla_indices, n, "ancilla index")))
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
    amps = _amplitudes(state)
    n = qubit_count(amps.size, "state dimension")
    traced = sorted(set(_qubits(qubit_indices, n, "qubit index")))
    kept = [q for q in range(n) if q not in traced]
    tensor = amps.reshape([2] * n).transpose(kept + traced)
    flat = tensor.reshape(2 ** len(kept), 2 ** len(traced))
    return flat @ flat.conj().T


def _multiplexed_rotation_gates(kind: str, target: int, controls, angles) -> list[Gate]:
    """Uniformly controlled rotation as a Gray-walk of CNOTs and rotations.

    ``angles`` is indexed by control value with ``controls[0]`` as the most
    significant bit.  All-equal angle vectors collapse to one uncontrolled
    rotation.
    """
    angles = np.asarray(angles, dtype=float)
    k = len(controls)
    if angles.size != 2**k:
        raise ValueError("need one angle per control value")
    if np.abs(angles).max() < ANGLE_PRUNE_TOL:
        return []
    if k == 0 or np.abs(angles - angles[0]).max() < ANGLE_PRUNE_TOL:
        return [Gate(kind, (target,), angle=float(angles[0]))]
    d = 2**k
    values = np.arange(d)
    gray = values ^ (values >> 1)
    # row j: the Walsh signs of Gray code j over every control value
    signs = 1 - 2 * (np.bitwise_count(gray[:, None] & values).astype(np.int64) & 1)
    thetas = (angles * signs).sum(axis=1) / d
    gates: list[Gate] = []
    for j in range(d):
        if abs(thetas[j]) > ANGLE_PRUNE_TOL:
            gates.append(Gate(kind, (target,), angle=thetas[j]))
        bit = int(gray[j] ^ gray[(j + 1) % d]).bit_length() - 1
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
    term: KrausTerm, model: LindbladModel | PreparedModel, t: float, scheme: str = SCHEME_BINARY, *, _shared=None
) -> Circuit:
    """Circuit for one Kraus term: dilations of each applied operator, then T(t).

    Qubits are the system, T's contraction ancilla at ``n_sys``, then one dilation ancilla per operator
    application (slot s at ``n_sys + 1 + s``), so the T(t) block depends on t alone.  Post-selecting
    every ancilla on 0 leaves ``T prod(L) |psi>`` normalized, with survival probability its squared
    norm.  Calls for one (model, t, scheme) that pass one ``_shared`` dict build each dilation gate,
    keyed (slot, operator), and the T(t) block, keyed t, once.
    """
    t = _time(t)
    shared = {} if _shared is None else _shared
    prep = prepare(model)
    n_sys = qubit_count(prep.dim, "system dimension")
    total_anc = term.order + 1
    if n_sys + total_anc > DEFAULT_ANCILLA_BUDGET:
        raise ValueError(f"term needs {n_sys + total_anc} qubits, over the budget {DEFAULT_ANCILLA_BUDGET}")
    system = list(range(n_sys))
    gates: list[Gate] = []
    # Rightmost factor in the operator product acts first.
    for slot, op_index in enumerate(reversed(term.indices)):
        if (slot, op_index) not in shared:
            shared[slot, op_index] = Gate("unitary", (n_sys + 1 + slot, *system), matrix=prep.dilations[op_index])
        gates.append(shared[slot, op_index])
    if t not in shared:
        shared[t] = _t_block_gates(prep, t, system, n_sys, scheme)
    return Circuit(n_sys, total_anc, (*gates, *shared[t]), postselect=tuple(range(n_sys, n_sys + total_anc)))


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
    t = _time(t)
    prep = prepare(model)
    _require_abelian(prep)
    work = prep.normalized
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
_BASIS_CHANGE = {"X": (_H,), "Y": (_ROTATIONS["phase"](-np.pi / 2), _H), "Z": ()}


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


def sample_shots(state: QuantumState, basis: str, shots: int, seed) -> ShotResult:
    """Sample measurement outcomes in a Pauli product basis, keyed by bitstring (qubit 0 leftmost)
    and without the outcomes never drawn: the counts of ``default_rng(seed)``, through :func:`_shot_draws`."""
    counts = _shot_draws(seed, shots, ())(_basis_probabilities(state, basis))[0]
    return ShotResult(basis, {format(i, f"0{len(basis)}b"): float(w) for i, w in enumerate(counts) if w > 0})


# Readout of one qubit's (letter, outcome) pair, letters X, Y, Z, into the
# Pauli expectations I, X, Y, Z: each letter reads its own expectation as Z
# does, and I is the mean over the three letters, the 3^(n - weight) bases
# that cover a string.
_READOUT = np.vstack([np.full(6, 1 / 3), np.kron(np.eye(3), [1.0, -1.0])])


def tomography(frequencies) -> np.ndarray:
    """Linear-inversion reconstruction from a ``(3^n, 2^n)`` table of outcome frequencies.

    Row r holds the outcomes of the r-th basis in ``itertools.product("XYZ",
    repeat=n)`` order, summed over the measured terms as
    ``weight^2 * survival * frequency``.  The per-qubit readout turns the
    table into every string's expectation, averaged over the bases that cover
    it, and ``rho = 2^-n sum_P <P> P``; the identity coefficient is the
    accumulated trace weight.  Returns the complex (d, d) matrix, which may
    be unphysical.
    """
    table = np.asarray(frequencies, dtype=float)
    if table.ndim != 2 or table.shape[0] != 3 ** qubit_count(table.shape[1], "outcome count"):
        raise ValueError(f"frequency table must have shape (3^n, 2^n), got {table.shape}")
    n = table.shape[1].bit_length() - 1
    letter_outcome_pairs = [axis for q in range(n) for axis in (q, n + q)]
    per_qubit = table.reshape([3] * n + [2] * n).transpose(letter_outcome_pairs).reshape([6] * n)
    values = apply_to_axes(per_qubit, [(q, _READOUT) for q in range(n)]).reshape(-1)
    return from_pauli_coefficients(values)


# numpy's SeedSequence hash constants (a pool of four uint32 words) and
# PCG64's 128-bit LCG multiplier, as numpy seeds ``PCG64(SeedSequence(...))``.
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _entropy_words(seed) -> list[int]:
    """The uint32 words ``SeedSequence`` reads from a non-negative int or a sequence of them, low word first."""
    words = []
    for value in seed if np.iterable(seed) else (seed,):
        value = _integer(value, "seed entry")
        if value < 0:
            raise ValueError(f"seed entries must be non-negative integers, got {value}")
        words += [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]
    return words


def _hasher(value: int, mult: int):
    """SeedSequence's hash of uint32 arrays: call i xors with c_i, then multiplies by c_{i+1} = c_i * mult."""

    def hash_(v: np.ndarray) -> np.ndarray:
        nonlocal value
        v = (v ^ np.uint32(value)) * np.uint32(value := value * mult & _MASK32)
        return v ^ v >> 16

    return hash_


def _seed_words(columns) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row, along a last axis.

    ``columns[i]`` holds the i-th uint32 entropy word of every row, broadcast
    to one shape of at least one row.  The hash constants are the same for every
    row, so each step of numpy's pool mixing is one array operation over all rows.
    """
    shape = np.broadcast_shapes(*map(np.shape, columns), (1,))  # no 0-d words, whose products warn on overflow
    words = [np.broadcast_to(np.asarray(c, np.uint32), shape) for c in [*columns, *[0] * (4 - len(columns))]]
    a, b = _hasher(_INIT_A, _MULT_A), _hasher(_INIT_B, _MULT_B)

    def mix(x, y):
        r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return r ^ r >> 16

    pool = [a(words[i]) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], a(pool[src]))
    for src, dst in itertools.product(range(4, len(words)), range(4)):
        pool[dst] = mix(pool[dst], a(words[src]))
    out = np.empty((*shape, 8), np.uint32)
    for i in range(8):
        out[..., i] = b(pool[i % 4])
    return out.astype("<u4", copy=False).view("<u8")


def _pcg64_state(words) -> dict:
    """The ``PCG64.state`` numpy seeds from four ``generate_state`` words."""
    w0, w1, w2, w3 = map(int, words)
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _shot_draws(seed, shots: int, shape: tuple[int, ...]):
    """The one shot draw: ``draw(probs, *index)`` normalises the rows of ``probs`` in one pass, then replaces row r
    by the ``shots`` outcome counts of ``default_rng(SeedSequence([*seed, *index, r]))`` (of ``default_rng(seed)``
    when ``shape=()``), reseeding one generator per row from seed words hashed for all of ``shape`` at once and
    read as Python ints once per call of ``draw``; ``seed`` is non-negative integers."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be >= 1 and <= {MAX_SHOTS}, got {shots}")
    seed_words = _seed_words([*_entropy_words(seed), *np.indices(shape, np.uint32)])
    rng = np.random.Generator(np.random.PCG64(0))

    def draw(probs: np.ndarray, *index: int) -> np.ndarray:
        probs /= probs.sum(axis=1, keepdims=True)
        for p, words in zip(probs, seed_words[index].tolist()):
            rng.bit_generator.state = _pcg64_state(words)
            p[:] = rng.multinomial(shots, p)
        return probs

    return draw


def execute_series_tomography(
    model: LindbladModel | PreparedModel,
    series: KrausSeries,
    t: float,
    initial_state: QuantumState,
    shots: int | None = None,
    seed: int | tuple[int, ...] = 0,
) -> tuple[np.ndarray, list[dict]]:
    """Full circuit pipeline for a series: simulate, post-select, measure, invert.

    Returns the reconstructed (d, d) matrix of :func:`tomography` and one
    ``{"order", "indices", "weight", "survival"}`` diagnostic per term.

    ``shots=None`` runs the infinite-shot mode with exact probabilities; a
    shot count samples each (term, basis) draw from its own child seed
    ``[*seed, term_index, basis_index]`` through :func:`_shot_draws`, so its
    counts do not depend on which draws ran before it.
    """
    prep = prepare(model)
    n_sys = qubit_count(prep.dim, "system dimension")
    frequencies = np.zeros((3**n_sys, 2**n_sys))
    diagnostics: list[dict] = []
    terms = series.terms
    draw = None if shots is None else _shot_draws(seed, shots, (len(terms), 3**n_sys))
    shared: dict = {}
    for term_index, term in enumerate(terms):
        circuit = build_kraus_circuit(term, prep, t, _shared=shared)
        final = simulate_statevector(circuit, embed_state(circuit, initial_state))
        reduced, survival = postselect(final, circuit.postselect)
        if reduced is not None:
            probs = _basis_probabilities(reduced, ["XYZ"] * n_sys)
            if draw is not None:
                draw(probs, term_index)
            frequencies += term.weight**2 * survival * probs / probs.sum(axis=1, keepdims=True)
        diagnostics.append(
            {"order": term.order, "indices": list(term.indices), "weight": term.weight, "survival": survival}
        )
    return tomography(frequencies), diagnostics
