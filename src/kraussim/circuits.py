"""Gate-level realization of Kraus terms, statevector emulation and tomography.

Qubit 0 is the most significant bit of basis labels.  Circuits put system qubits first
(indices ``0 .. S-1``) and ancillas after them; a Kraus term puts T(t)'s contraction
ancilla first, so all terms of one :func:`execute_series_tomography` call share one T(t)
block.  Non-unitary blocks enter through unitary dilations and block encodings whose
ancillas are post-selected on reading 0; group-structured factors instead keep their
ancilla registers, which purify the channel mixture.

The emulator runs circuits as stacks along a leading axis.  A group of circuits that share
their register, their post-selection and, gate position by gate position, their targets and
controls runs each position once over a ``(K, 2^n)`` stack of registers: a gate that every
circuit holds (T(t)'s) is one matrix broadcast over the stack, and each distinct dilation
multiplies the registers that hold it.  :func:`simulate_statevector` is a group of one.  Each
register takes ``(m, M)`` products of its own, never extra columns of a wider product, and
post-selects through the strided view a lone register has, so its numbers are bit for bit
those of its circuit run alone.  :func:`execute_series_tomography` runs one time point's term
circuits in such groups (in practice, one per order) and their basis passes in chunks of
consecutive surviving terms, both bounded by ``matkernel.BLOCK_BYTES``, and adds each term to
the frequency table in term order.
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
from . import matkernel
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


def _apply_gate(stack: np.ndarray, gates) -> np.ndarray:
    """``gates[r]`` on register r of a ``(K, 2, ..., 2)`` stack, in one copy of the stack.

    The gates share their targets and controls, which go first after the stack axis, targets then controls:
    ``[:, :, -1]`` is where every control reads 1.  Each distinct gate object multiplies the registers that
    hold it in one product, so a gate that all hold is one matrix broadcast over the stack.  Every register
    takes a ``(m, M)`` product of its own, bit-identical to the product on that register alone.
    """
    first = gates[0]
    to_front, back = _axis_orders(stack.ndim, (0, *[q + 1 for q in first.targets + first.controls]))
    flat = stack.transpose(to_front).copy().reshape(len(stack), 2 ** len(first.targets), 2 ** len(first.controls), -1)
    distinct = {id(gate): gate for gate in gates}
    for gate in distinct.values():
        rows = slice(None) if len(distinct) == 1 else [r for r, held in enumerate(gates) if held is gate]
        flat[rows, :, -1] = gate.unitary() @ flat[rows, :, -1]
    return flat.reshape(stack.shape).transpose(back)


def _amplitudes(state) -> np.ndarray:
    """The amplitude vector of a :class:`QuantumState`, or of a plain array taken as complex."""
    return state.amplitudes if isinstance(state, QuantumState) else np.asarray(state, dtype=complex)


def _run_circuits(circuits, stack: np.ndarray) -> np.ndarray:
    """Circuit r of a group on register r of a ``(K, 2^n)`` stack; returns the ``(K, 2^n)`` final registers.

    The circuits of a group share their register and, gate position by gate position, the targets and
    controls (:func:`_circuit_shape`), so each position is one :func:`_apply_gate` pass over the stack.
    """
    tensor = stack.reshape(len(circuits), *[2] * circuits[0].num_qubits)
    for gates in zip(*[circuit.gates for circuit in circuits]):
        tensor = _apply_gate(tensor, gates)
    return tensor.reshape(len(circuits), -1)


def _circuit_shape(circuit: Circuit) -> tuple:
    """What the circuits of one group share: the register, the post-selection, and each gate's qubits."""
    qubits = tuple([(gate.targets, gate.controls) for gate in circuit.gates])
    return circuit.num_system_qubits, circuit.num_ancilla_qubits, circuit.postselect, qubits


def simulate_statevector(circuit: Circuit, state) -> QuantumState:
    """Exact action of the gate list on a full-register state: a group of one circuit on a stack of one."""
    amps = _amplitudes(state)
    n = circuit.num_qubits
    if amps.size != 2**n:
        raise ValueError(f"state dimension {amps.size} does not match {n} qubits")
    return QuantumState(_run_circuits([circuit], amps.reshape(1, -1))[0])


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole register (small circuits only): column j runs the circuit on basis state j."""
    dim = 2**circuit.num_qubits
    return _run_circuits([circuit] * dim, np.eye(dim, dtype=complex)).T.copy()


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
    (kept,), (prob,) = _postselected(amps.reshape(1, -1), ancillas)
    if prob <= 0.0:
        return None, 0.0
    return QuantumState(kept / np.sqrt(prob)), prob


def _postselected(stack: np.ndarray, ancillas) -> tuple[np.ndarray, list[float]]:
    """Each register of a ``(K, 2^n)`` stack with the sorted ``ancillas`` read as 0, unnormalized, and its
    survival probability: ``np.vdot`` of the register's kept amplitudes, in the view a lone register has
    (strided when the ancillas are the last qubits), since a contiguous copy can round differently."""
    n = stack.shape[1].bit_length() - 1
    slicer = [slice(None)] * (n + 1)
    for a in ancillas:
        slicer[a + 1] = 0
    kept = stack.reshape(-1, *[2] * n)[tuple(slicer)].reshape(len(stack), -1)
    return kept, [float(np.vdot(row, row).real) for row in kept]


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


def _basis_probabilities(states, choices) -> np.ndarray:
    """Outcome probabilities of every basis that picks one letter of ``choices[q]`` for each qubit q.

    ``states`` is a ``(..., 2^n)`` stack of amplitudes, and a :class:`QuantumState` the stack with no
    leading axis.  ``"ZY"`` is one basis and ``["XYZ"] * n`` all 3^n of them.  Row r of each state's
    ``(bases, 2^n)`` table is the r-th basis in ``itertools.product(*choices)`` order.  Each qubit's
    letters are applied as the separate factors of ``_BASIS_CHANGE``, qubit by qubit, and each state
    takes products of its own (``apply_to_axes`` with the stack as its lead axis), so every row is
    bit-identical to the row of its single basis and every table to the table of its state alone.
    """
    amps = _amplitudes(states)
    n = len(choices)
    if amps.shape[-1] != 2**n:
        raise ValueError(f"basis {choices!r} measures {n} qubits, but the state has dimension {amps.shape[-1]}")
    bad = set("".join(choices)) - set(_BASIS_CHANGE)
    if bad:
        raise ValueError(f"invalid basis letters {sorted(bad)} in {choices!r}")
    # axes: the stack, one letter axis per qubit done so far, then the n qubit axes
    stack = amps.reshape(-1, *[2] * n)
    for q, letters in enumerate(choices):
        steps = [[(1 + 2 * q, f) for f in _BASIS_CHANGE[c]] for c in letters]
        stack = np.stack([apply_to_axes(stack, letter, lead=1) for letter in steps], axis=1 + q)
    probs = np.abs(stack.reshape(*amps.shape[:-1], -1, 2**n))
    probs **= 2  # in place, so a pass holds one float table
    return probs


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

    Every term's circuit comes from :func:`build_kraus_circuit`, with one
    ``_shared`` dict per call.  Circuits of one shape (:func:`_circuit_shape`;
    in practice, terms of one order) run as one group, each gate position
    once over a stack of their registers, in parts whose three working
    stacks fit ``matkernel.BLOCK_BYTES``.  Post-selection and the survival
    stay one decision per term.  The surviving terms' reduced states then
    take their basis passes in chunks of consecutive terms, as many as the
    budget holds with each term's ``(3^n, 2^n)`` complex table, and after
    each chunk every term is drawn and added to the frequencies in term
    order, so no table of the whole series is held.  Each term's numbers
    are those of its circuit run alone, bit for bit.

    ``shots=None`` runs the infinite-shot mode with exact probabilities; a
    shot count samples each (term, basis) draw from its own child seed
    ``[*seed, term_index, basis_index]`` through :func:`_shot_draws`, so its
    counts do not depend on which draws ran before it.
    """
    prep = prepare(model)
    n_sys = qubit_count(prep.dim, "system dimension")
    itemsize = np.dtype(complex).itemsize
    terms = series.terms
    draw = None if shots is None else _shot_draws(seed, shots, (len(terms), 3**n_sys))
    shared: dict = {}
    circuits = [build_kraus_circuit(term, prep, t, _shared=shared) for term in terms]
    groups: dict[tuple, list[int]] = {}
    for index, circuit in enumerate(circuits):
        groups.setdefault(_circuit_shape(circuit), []).append(index)
    reduced = np.empty((len(terms), 2**n_sys), dtype=complex)
    survivals = [0.0] * len(terms)
    for group in groups.values():
        first = circuits[group[0]]
        start = embed_state(first, initial_state)
        # a gate position holds the stack, its transposed copy and the product: three stacks of the part
        size = max(1, matkernel.BLOCK_BYTES // (3 * start.size * itemsize))
        for part in (group[i : i + size] for i in range(0, len(group), size)):
            final = _run_circuits([circuits[i] for i in part], np.broadcast_to(start, (len(part), start.size)))
            kept, probs = _postselected(final, sorted(first.postselect))
            for index, row, prob in zip(part, kept, probs):
                if prob > 0.0:
                    reduced[index], survivals[index] = row / np.sqrt(prob), prob
    frequencies = np.zeros((3**n_sys, 2**n_sys))
    alive = [index for index, survival in enumerate(survivals) if survival > 0.0]
    chunk = max(1, matkernel.BLOCK_BYTES // (3**n_sys * 2**n_sys * itemsize))
    for part in (alive[i : i + chunk] for i in range(0, len(alive), chunk)):
        for index, probs in zip(part, _basis_probabilities(reduced[part], ["XYZ"] * n_sys)):
            if draw is not None:
                draw(probs, index)
            frequencies += terms[index].weight ** 2 * survivals[index] * probs / probs.sum(axis=1, keepdims=True)
    diagnostics = [
        {"order": term.order, "indices": list(term.indices), "weight": term.weight, "survival": survival}
        for term, survival in zip(terms, survivals)
    ]
    return tomography(frequencies), diagnostics
