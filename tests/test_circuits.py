import itertools
import json
import re

import numpy as np
import pytest

from kraussim import circuits as qc
from kraussim import kraus, lindblad as lb, matkernel as mk, models
from kraussim.matkernel import PAULI, QuantumState, from_doc, to_doc, trace_distance

from conftest import align_phase, assert_json_round_trip, haar_rotated, haar_unitary, random_state


def test_sznagy_identity_blocks():
    u = qc.sznagy_dilation(np.eye(2))
    assert np.allclose(u, np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]]))


def test_sznagy_ladder_explicit():
    ladder = np.array([[0, 1], [0, 0]], dtype=complex)
    u = qc.sznagy_dilation(ladder)
    expected = np.array(
        [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, -1, 0]], dtype=complex
    )
    assert np.abs(u - expected).max() < 1e-12


def test_sznagy_unitary_input_block_diagonal():
    u = qc.sznagy_dilation(PAULI["Y"])
    assert np.abs(u[:2, 2:]).max() < 1e-12
    assert np.abs(u[2:, :2]).max() < 1e-12


def test_sznagy_unitarity_and_block_recovery(rng):
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a /= np.linalg.norm(a, 2) * 1.01
        u = qc.sznagy_dilation(a)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-9
        assert np.abs(u[:4, :4] - a).max() == 0.0


def test_sznagy_rejects_expansion():
    with pytest.raises(ValueError):
        qc.sznagy_dilation(2.0 * np.eye(2))


@pytest.mark.parametrize("scheme", [qc.SCHEME_BINARY, qc.SCHEME_GRAY])
def test_diagonal_unitary_trivial_and_z(scheme):
    circuit = qc.encode_diagonal_unitary(np.zeros(4), scheme)
    assert len(circuit.gates) == 0
    circuit = qc.encode_diagonal_unitary(np.array([0.0, np.pi]), scheme)
    u = qc.circuit_unitary(circuit)
    target = np.diag([1.0, -1.0]).astype(complex)
    assert np.abs(align_phase(u, target) - target).max() < 1e-10


@pytest.mark.parametrize("size", [8, 16])
def test_diagonal_unitary_schemes_agree(rng, size):
    phases = rng.uniform(-np.pi, np.pi, size)
    u_binary = qc.circuit_unitary(qc.encode_diagonal_unitary(phases, qc.SCHEME_BINARY))
    u_gray = qc.circuit_unitary(qc.encode_diagonal_unitary(phases, qc.SCHEME_GRAY))
    target = np.diag(np.exp(1j * phases))
    assert np.abs(align_phase(u_binary, target) - target).max() < 1e-10
    assert np.abs(align_phase(u_gray, target) - target).max() < 1e-10
    assert np.abs(align_phase(u_binary, u_gray) - u_gray).max() < 1e-10


def _loop_rotation_angles(angles: np.ndarray) -> list[float]:
    """The rotation angles of a uniformly controlled rotation, its Gray-ordered
    Walsh angles solved row by row: the reference for the broadcast solve."""
    d = angles.size
    if np.abs(angles).max() < qc.ANGLE_PRUNE_TOL:
        return []
    if d == 1 or np.abs(angles - angles[0]).max() < qc.ANGLE_PRUNE_TOL:
        return [float(angles[0])]
    thetas = np.empty(d)
    values = np.arange(d)
    for j in range(d):
        parity = np.bitwise_count(values & (j ^ (j >> 1))).astype(np.int64) & 1
        thetas[j] = float((angles * (1 - 2 * parity)).sum() / d)
    return [theta for theta in thetas if abs(theta) > qc.ANGLE_PRUNE_TOL]


@pytest.mark.parametrize("k", range(7))
def test_multiplexed_rotation_angles_match_the_row_loop(rng, k):
    # mixed magnitudes, so that some solved angles fall under the pruning tolerance
    for _ in range(20):
        angles = rng.normal(size=2**k) * 10.0 ** rng.uniform(-14, 1, size=2**k)
        gates = qc._multiplexed_rotation_gates("ry", k, list(range(k)), angles)
        assert np.array_equal([g.angle for g in gates if g.kind == "ry"], _loop_rotation_angles(angles))


def test_diagonal_unitary_rejects_bad_length():
    with pytest.raises(ValueError):
        qc.encode_diagonal_unitary(np.zeros(3))


def _contraction_circuit(decays):
    n = int(np.log2(decays.size))
    return qc.Circuit(n, 1, tuple(qc._diagonal_contraction_gates(decays, range(n), n)), postselect=(n,))


def test_contraction_all_ones_identity():
    circuit = _contraction_circuit(np.ones(4))
    assert len(circuit.gates) == 0
    state = random_state(np.random.default_rng(1), 4)
    out = qc.simulate_statevector(circuit, qc.embed_state(circuit, state))
    reduced, prob = qc.postselect(out, circuit.postselect)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.abs(reduced.amplitudes - state).max() < 1e-12


def test_contraction_projector():
    circuit = _contraction_circuit(np.array([1.0, 0.0]))
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    out = qc.simulate_statevector(circuit, qc.embed_state(circuit, plus))
    reduced, prob = qc.postselect(out, circuit.postselect)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.abs(reduced.amplitudes - np.array([1.0, 0.0])).max() < 1e-12


def test_contraction_matches_diagonal():
    decays = np.exp(-np.array([0.5, 1.0, 1.5, 2.0]))
    circuit = _contraction_circuit(decays)
    block = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        basis = np.zeros(4, dtype=complex)
        basis[j] = 1.0
        out = qc.simulate_statevector(circuit, qc.embed_state(circuit, basis))
        reduced, prob = qc.postselect(out, circuit.postselect)
        block[:, j] = np.sqrt(prob) * reduced.amplitudes
    assert np.abs(block - np.diag(decays)).max() < 1e-10


def test_contraction_rejects_out_of_range():
    with pytest.raises(ValueError):
        _contraction_circuit(np.array([1.0, 1.5]))


def _distribution_circuit(amps):
    n = int(np.log2(amps.size))
    return qc.Circuit(n, 0, tuple(qc._distribution_gates(amps, range(n))))


def test_prepare_distribution_trivial():
    assert len(qc._distribution_gates(np.array([1.0, 0.0]), [0])) == 0


def test_prepare_distribution_equal_pair_is_single_ry():
    gates = qc._distribution_gates(np.array([1.0, 1.0]) / np.sqrt(2), [0])
    assert len(gates) == 1
    gate = gates[0]
    assert gate.kind == "ry" and gate.angle == pytest.approx(np.pi / 2)


def test_prepare_distribution_hyperbolic_weights():
    x = 0.7
    amps = np.sqrt(np.exp(-x) * np.array([np.cosh(x), np.sinh(x)]))
    out = qc.simulate_statevector(_distribution_circuit(amps), np.array([1.0, 0.0], dtype=complex))
    assert np.abs(out.amplitudes - amps).max() < 1e-10


def test_prepare_distribution_random(rng):
    probs = rng.dirichlet(np.ones(8))
    amps = np.sqrt(probs)
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    out = qc.simulate_statevector(_distribution_circuit(amps), zero)
    assert np.abs(out.amplitudes - amps).max() < 1e-10


def test_simulate_empty_circuit():
    state = random_state(np.random.default_rng(2), 4)
    circuit = qc.Circuit(2, 0, ())
    assert np.abs(qc.simulate_statevector(circuit, state).amplitudes - state).max() == 0.0


def test_simulate_x_gate():
    circuit = qc.Circuit(1, 0, (qc.Gate("x", (0,)),))
    out = qc.simulate_statevector(circuit, np.array([1.0, 0.0], dtype=complex))
    assert np.abs(out.amplitudes - np.array([0.0, 1.0])).max() < 1e-14


def test_simulate_norm_preserved_random_circuit(rng):
    gates = []
    for _ in range(30):
        kind = rng.choice(["h", "x", "ry", "phase"])
        target = int(rng.integers(0, 6))
        control = int(rng.integers(0, 6))
        controls = (control,) if control != target and rng.random() < 0.5 else ()
        angle = float(rng.uniform(-np.pi, np.pi)) if kind in ("ry", "phase") else None
        gates.append(qc.Gate(kind, (target,), controls, angle=angle))
    circuit = qc.Circuit(6, 0, tuple(gates))
    state = random_state(rng, 64)
    out = qc.simulate_statevector(circuit, state)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_postselect_no_ancillas():
    state = QuantumState(np.array([0.6, 0.8], dtype=complex))
    out, prob = qc.postselect(state, ())
    assert prob == 1.0
    assert np.abs(out.amplitudes - state.amplitudes).max() == 0.0


def test_postselect_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    out, prob = qc.postselect(bell, (1,))
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.abs(out.amplitudes - np.array([1.0, 0.0])).max() < 1e-12


def test_postselect_dead_branch():
    one = np.array([0.0, 1.0], dtype=complex)
    out, prob = qc.postselect(one, (0,))
    assert out is None and prob == 0.0


@pytest.mark.parametrize("index", [1.5, "1", True], ids=["fractional", "string", "boolean"])
def test_postselect_and_trace_out_take_integer_indices(index):
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    with pytest.raises(ValueError, match=re.escape(f"ancilla index must be an integer, got {index!r}")):
        qc.postselect(bell, [index])
    with pytest.raises(ValueError, match=re.escape(f"qubit index must be an integer, got {index!r}")):
        qc.trace_out(bell, [index])
    assert qc.postselect(bell, [np.int64(1)])[1] == pytest.approx(0.5, abs=1e-12)
    assert np.abs(qc.trace_out(bell, [np.int64(1)]) - np.eye(2) / 2).max() < 1e-12


@pytest.mark.parametrize("index", [5, -1], ids=["past-the-register", "negative"])
def test_postselect_and_trace_out_refuse_an_index_out_of_range(index):
    # one qubit-index rule for every route that reads an index against a register of two qubits
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    for what, refuse in (
        ("ancilla index", lambda: qc.postselect(bell, [index])),
        ("qubit index", lambda: qc.trace_out(bell, [index])),
        ("qubit index", lambda: qc.Circuit(1, 1, (qc.Gate("x", (index,)),))),
        ("qubit index", lambda: qc.Circuit(1, 1, (qc.cnot(index, 0),))),
        ("post-selection index", lambda: qc.Circuit(1, 1, (), postselect=(index,))),
    ):
        with pytest.raises(ValueError, match=f"^{what} {index} is outside the 2-qubit register$"):
            refuse()


@pytest.mark.parametrize("num_ancillas", [0, 1, 3])
def test_embed_state_tensors_the_system_with_zero_ancillas(rng, num_ancillas):
    amps = random_state(rng, 4)
    ancillas = np.zeros(2**num_ancillas)
    ancillas[0] = 1.0  # |0...0>
    got = qc.embed_state(qc.Circuit(2, num_ancillas, ()), amps)
    assert got.dtype == complex and np.array_equal(got, np.kron(amps, ancillas))


def test_kraus_circuit_order_zero_is_t_block(qho_spec, initial_states):
    model = lb.normalize_lindblads(qho_spec.model)
    series = kraus.build_tp_series(qho_spec.model, 0.8, 0)
    circuit = qc.build_kraus_circuit(series.terms[0], qho_spec.model, 0.8)
    assert circuit.num_ancilla_qubits == 1  # only the contraction ancilla
    psi = initial_states["qho-oscillating"]
    out = qc.simulate_statevector(circuit, qc.embed_state(circuit, psi))
    reduced, prob = qc.postselect(out, circuit.postselect)
    t_op = kraus.effective_evolution(model, 0.8)
    expected = t_op @ psi.amplitudes
    assert np.abs(np.sqrt(prob) * reduced.amplitudes - align_phase_vec(expected, reduced.amplitudes)).max() < 1e-10


def align_phase_vec(vec, reference):
    idx = np.abs(reference).argmax()
    if abs(vec[idx]) == 0:
        return vec
    ratio = reference[idx] / vec[idx]
    return vec * (ratio / abs(ratio))


def test_kraus_circuit_unitary_lindblad_exact():
    model = lb.LindbladModel(np.zeros((2, 2)), (PAULI["Z"],), (0.5,))
    series = kraus.build_reduced_series(model, 0.6)
    term = next(t for t in series.terms if t.indices == (0,))
    circuit = qc.build_kraus_circuit(term, model, 0.6)
    psi = QuantumState(np.array([0.6, 0.8], dtype=complex))
    out = qc.simulate_statevector(circuit, qc.embed_state(circuit, psi))
    reduced, prob = qc.postselect(out, circuit.postselect)
    expected = term.operator @ psi.amplitudes  # T(t) Z |psi>
    ratio = np.sqrt(prob) * reduced.amplitudes / expected
    assert np.abs(ratio - ratio[0]).max() < 1e-10
    assert abs(abs(ratio[0]) - 1.0) < 1e-10


def test_kraus_circuit_matrix_path_equivalence(qho_spec, initial_states):
    psi = initial_states["qho-oscillating"]
    for t in (0.5, 1.5):
        series = kraus.build_tp_series(qho_spec.model, t, 3)
        for term in series.terms:
            circuit = qc.build_kraus_circuit(term, qho_spec.model, t)
            out = qc.simulate_statevector(circuit, qc.embed_state(circuit, psi))
            reduced, prob = qc.postselect(out, circuit.postselect)
            expected = term.matrix @ psi.amplitudes  # a_mk * T * prod(L) |psi>
            if reduced is None:
                assert np.linalg.norm(expected) < 1e-10
                continue
            got = term.weight * np.sqrt(prob) * reduced.amplitudes
            # statevector path carries an unobservable global phase
            assert np.abs(align_phase_vec(got, expected) - expected).max() < 1e-9


def test_kraus_circuit_ancilla_budget(schwinger_spec):
    # an order-14 term needs 2 system qubits, 14 dilation ancillas and the contraction ancilla
    term = kraus.build_tp_series(schwinger_spec.model, 1.0, 14).terms[-1]
    assert term.order == 14
    with pytest.raises(ValueError, match="term needs 17 qubits, over the budget 16"):
        qc.build_kraus_circuit(term, schwinger_spec.model, 1.0)


def test_group_circuit_identity_at_zero(pauli_spec, initial_states):
    circuit = qc.build_group_circuit(pauli_spec.model, 0.0)
    psi = initial_states["pauli-xx-zz"]
    rho = qc.apply_group_circuit(circuit, psi)
    assert np.abs(rho - psi.density().matrix).max() < 1e-12


def test_group_circuit_single_dephasing():
    model = lb.LindbladModel(np.zeros((2, 2)), (PAULI["Z"],), (1.0,))
    circuit = qc.build_group_circuit(model, 0.5)
    plus = QuantumState(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    rho = qc.apply_group_circuit(circuit, plus)
    assert rho[0, 1].real == pytest.approx(0.5 * np.exp(-1.0), abs=1e-10)


def test_group_circuit_matches_oracle(pauli_spec, initial_states):
    psi = initial_states["pauli-xx-zz"]
    oracle = lb.exact_evolve(pauli_spec.model, psi.density(), 1.0)
    circuit = qc.build_group_circuit(pauli_spec.model, 1.0)
    rho = qc.apply_group_circuit(circuit, psi)
    assert np.abs(np.diag(rho).real - np.diag(oracle.matrix).real).max() < 1e-9
    assert trace_distance(rho, oracle) < 1e-9


def test_group_circuit_gate_budget(pauli_spec):
    # one two-qubit controlled Pauli per non-identity tensor factor
    circuit = qc.build_group_circuit(pauli_spec.model, 1.0)
    two_qubit = [
        g for g in circuit.gates if g.kind in ("x", "y", "z") and len(g.controls) == 1
    ]
    assert len(two_qubit) == 6
    assert circuit.num_ancilla_qubits == 4
    assert circuit.postselect == ()


def test_group_circuit_rejects_nilpotent(qho_spec):
    with pytest.raises(kraus.ConditionError):
        qc.build_group_circuit(qho_spec.model, 1.0)


def test_kraus_circuit_rejects_model_without_shared_eigenbasis():
    # transverse Hamiltonian with a lowering jump operator violates (i)
    model = lb.LindbladModel(PAULI["X"], (np.array([[0, 1], [0, 0]]),), (1.0,))
    term = kraus.KrausTerm(0, (), 1.0, np.eye(2, dtype=complex))
    with pytest.raises(kraus.ConditionError):
        qc.build_kraus_circuit(term, model, 0.5)


def test_group_circuit_period_three_dense_controls(rng):
    # a cube-root-of-unity diagonal needs two ancillas, a padded weight
    # distribution and the dense controlled-power fallback
    omega = np.exp(2j * np.pi / 3)
    op = np.diag([1.0, omega, omega**2, 1.0])
    model = lb.LindbladModel(np.zeros((4, 4)), (op,), (0.8,))
    structure = kraus.detect_group_structure(model)
    assert structure.periods == (3,)
    circuit = qc.build_group_circuit(model, 0.9)
    assert circuit.num_ancilla_qubits == 2
    assert any(g.kind == "unitary" and g.controls for g in circuit.gates)
    psi = QuantumState(random_state(rng, 4))
    rho = qc.apply_group_circuit(circuit, psi)
    oracle = lb.exact_evolve(model, psi.density(), 0.9)
    assert trace_distance(rho, oracle) < 1e-9


def test_sample_shots_deterministic_basics():
    zero = QuantumState(np.array([1.0, 0.0], dtype=complex))
    result = qc.sample_shots(zero, "Z", 100, seed=5)
    assert result.counts == {"0": 100.0}
    plus = QuantumState(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    result = qc.sample_shots(plus, "X", 200, seed=5)
    assert result.counts == {"0": 200.0}
    first = qc.sample_shots(plus, "Z", 10_000, seed=42)
    second = qc.sample_shots(plus, "Z", 10_000, seed=42)
    assert first.counts == second.counts
    fraction = first.counts.get("0", 0.0) / 10_000
    assert abs(fraction - 0.5) < 0.02


def test_sample_shots_validation():
    zero = QuantumState(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        qc.sample_shots(zero, "Q", 10, seed=0)
    with pytest.raises(ValueError):
        qc.sample_shots(zero, "Z", 0, seed=0)
    with pytest.raises(ValueError, match=f"shots must be >= 1 and <= {2**63 - 1}, got {2**63}"):
        qc.sample_shots(zero, "Z", 2**63, seed=0)
    assert qc.sample_shots(zero, "Z", 2**63 - 1, seed=0).counts == {"0": float(2**63 - 1)}
    with pytest.raises(ValueError, match="basis 'ZZ' measures 2 qubits, but the state has dimension 2"):
        qc.sample_shots(zero, "ZZ", 10, seed=0)


def test_sample_shots_y_eigenstate():
    # |+i> is the +1 eigenstate of Y, so every shot in the Y basis reads 0
    plus_i = QuantumState(np.array([1.0, 1j], dtype=complex) / np.sqrt(2))
    result = qc.sample_shots(plus_i, "Y", 1000, seed=0)
    assert result.counts == {"0": 1000.0}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sample_shots_draws_the_counts_of_default_rng(rng, n):
    # sample_shots shares the pipeline's draw, and still draws what default_rng(seed) draws
    seeds = [0, 7, 2**32, 2**63 + 1, 2**130, (3, 1), (2**63 + 1, 5), (2**130, 0, 2**32 - 1)]
    for seed in seeds + [int(s) for s in rng.integers(0, 2**63, size=8)]:
        psi = QuantumState(random_state(rng, 2**n))
        basis = "".join(rng.choice(list("XYZ"), size=n))
        probs = qc._basis_probabilities(psi, basis)[0]
        expected = np.random.default_rng(seed).multinomial(1000, probs / probs.sum())
        counts = qc.sample_shots(psi, basis, 1000, seed).counts
        assert counts == {format(i, f"0{n}b"): float(c) for i, c in enumerate(expected) if c > 0}


@pytest.mark.parametrize("seed", [-1, (2, -3), True, 1.5, "5", (1, 2.0)])
def test_sample_shots_refuses_a_seed_that_is_not_non_negative_integers(seed):
    zero = QuantumState(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="seed entr"):
        qc.sample_shots(zero, "Z", 10, seed)


def test_tomography_exact_reconstruction(rng):
    psi = QuantumState(random_state(rng, 4))
    rho = qc.tomography(0.7 * qc._basis_probabilities(psi, ["XYZ"] * 2))
    assert np.abs(rho - 0.7 * psi.density().matrix).max() < 1e-10


@pytest.mark.parametrize("shape", [(3, 4), (9, 3), (9,), (27, 4)], ids=lambda shape: "x".join(map(str, shape)))
def test_tomography_rejects_wrong_shape(shape):
    with pytest.raises(ValueError):
        qc.tomography(np.zeros(shape))


def test_tomography_finite_shots_close():
    psi = QuantumState(np.array([1.0, 0.0], dtype=complex))
    table = [
        [qc.sample_shots(psi, basis, 4096, seed=(3, i)).counts.get(bit, 0.0) / 4096 for bit in "01"]
        for i, basis in enumerate("XYZ")
    ]
    rho = qc.tomography(table)
    assert np.abs(rho - psi.density().matrix).max() < 0.05


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_bases_rows_equal_single_basis(rng, n):
    psi = QuantumState(random_state(rng, 2**n))
    table = qc._basis_probabilities(psi, ["XYZ"] * n)
    bases = ["".join(b) for b in itertools.product("XYZ", repeat=n)]
    assert table.shape == (3**n, 2**n)
    for row, basis in zip(table, bases):
        assert np.array_equal(row, qc._basis_probabilities(psi, basis)[0])


@pytest.mark.parametrize("shots", [None, 16])
def test_series_tomography_one_basis_pass_per_term(pauli_spec, initial_states, monkeypatch, shots):
    # each surviving term is in exactly one basis pass, in term order, and a pass holds at most the terms
    # whose (3^n, 2^n) complex tables fit the budget
    passes = []
    original = qc._basis_probabilities

    def counted(states, choices):
        assert list(choices) == ["XYZ"] * 2
        passes.append(np.array(states))
        return original(states, choices)

    monkeypatch.setattr(qc, "_basis_probabilities", counted)
    psi = initial_states["pauli-xx-zz"]
    prep = kraus.prepare(pauli_spec.model)
    series = kraus.build_reduced_series(prep, 0.9)
    alone = []
    for term in series.terms:
        circuit = qc.build_kraus_circuit(term, prep, 0.9)
        reduced, _ = qc.postselect(qc.simulate_statevector(circuit, qc.embed_state(circuit, psi)), circuit.postselect)
        alone += [] if reduced is None else [reduced.amplitudes]
    table_bytes = 9 * 4 * 16
    for budget in (mk.BLOCK_BYTES, 3 * table_bytes + 1):
        monkeypatch.setattr(mk, "BLOCK_BYTES", budget)
        passes.clear()
        _, diags = qc.execute_series_tomography(prep, series, 0.9, psi, shots=shots)
        surviving = sum(d["survival"] > 0 for d in diags)
        assert surviving == len(alone) > 3
        chunk = budget // table_bytes
        assert [len(p) for p in passes] == [min(chunk, surviving - i) for i in range(0, surviving, chunk)]
        assert np.array_equal(np.concatenate(passes), alone)


def test_pipeline_matches_apply_series(pauli_spec, initial_states):
    psi = initial_states["pauli-xx-zz"]
    series = kraus.build_reduced_series(pauli_spec.model, 0.9)
    rho_circ, diags = qc.execute_series_tomography(pauli_spec.model, series, 0.9, psi)
    rho_mat = kraus.apply_series(series, psi.density())
    oracle = lb.exact_evolve(pauli_spec.model, psi.density(), 0.9)
    assert trace_distance(rho_circ, rho_mat) < 1e-9
    assert trace_distance(rho_circ, oracle) < 1e-9
    assert len(diags) == len(series.terms)


def test_pipeline_gray_scheme_matches_oracle(qho_spec, initial_states):
    # the experiment pipeline builds binary term circuits; the gray ones carry the same channel
    psi = initial_states["qho-oscillating"]
    prep = kraus.prepare(qho_spec.model)
    series = kraus.build_tp_series(prep, 1.3, 3)
    rho_gray = np.zeros((prep.dim, prep.dim), dtype=complex)
    for term in series.terms:
        circuit = qc.build_kraus_circuit(term, prep, 1.3, qc.SCHEME_GRAY)
        final = qc.simulate_statevector(circuit, qc.embed_state(circuit, psi))
        reduced, survival = qc.postselect(final, circuit.postselect)
        if reduced is not None:
            rho_gray += term.weight**2 * survival * reduced.density().matrix
    oracle = lb.exact_evolve(qho_spec.model, psi.density(), 1.3)
    assert trace_distance(rho_gray, oracle) < 1e-9


def test_pipeline_shot_determinism(qho_spec, initial_states):
    psi = initial_states["qho-oscillating"]
    series = kraus.build_tp_series(qho_spec.model, 1.0, 3)
    rho_a, _ = qc.execute_series_tomography(qho_spec.model, series, 1.0, psi, shots=128, seed=9)
    rho_b, _ = qc.execute_series_tomography(qho_spec.model, series, 1.0, psi, shots=128, seed=9)
    assert np.abs(rho_a - rho_b).max() == 0.0
    with pytest.raises(ValueError, match="shots must be >= 1"):
        qc.execute_series_tomography(qho_spec.model, series, 1.0, psi, shots=0)


def _seed_rows(rng):
    """Seed rows of 1-7 ints: 0, 2^32 - 1, random words, and base seeds of 2^32 and above."""
    special = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 2**32]
    for length in range(1, 8):
        for _ in range(12):
            row = [int(v) for v in rng.integers(0, 2**32, size=length)]
            if rng.random() < 0.6:
                row[0] = special[rng.integers(len(special))]
            row[-1] = int(rng.choice([0, 2**32 - 1, row[-1]]))
            yield row


def test_seed_words_and_pcg64_state_match_numpy(rng):
    by_width: dict[int, list] = {}
    for row in _seed_rows(rng):
        by_width.setdefault(len(qc._entropy_words(row)), []).append(row)
    assert max(by_width) > 4  # the leftover-entropy loop runs
    for rows in by_width.values():
        words = qc._seed_words(list(zip(*[qc._entropy_words(row) for row in rows])))
        for row, row_words in zip(rows, words):
            assert np.array_equal(row_words, np.random.SeedSequence(row).generate_state(4, np.uint64))
            assert qc._pcg64_state(row_words) == np.random.PCG64(np.random.SeedSequence(row)).state


def _per_draw_frequencies(prep, series, t, psi, shots, seed):
    """The frequency table of execute_series_tomography with one new generator per (term, basis) draw."""
    n_sys = qc.qubit_count(prep.dim, "system dimension")
    seed_base = (seed,) if isinstance(seed, int) else tuple(seed)
    frequencies = np.zeros((3**n_sys, 2**n_sys))
    for term_index, term in enumerate(series.terms):
        circuit = qc.build_kraus_circuit(term, prep, t)
        final = qc.simulate_statevector(circuit, qc.embed_state(circuit, psi))
        reduced, survival = qc.postselect(final, circuit.postselect)
        if reduced is not None:
            probs = qc._basis_probabilities(reduced, ["XYZ"] * n_sys)
            for basis_index, p in enumerate(probs):
                rng = np.random.default_rng(np.random.SeedSequence([*seed_base, term_index, basis_index]))
                probs[basis_index] = rng.multinomial(shots, p / p.sum())
            frequencies += term.weight**2 * survival * probs / probs.sum(axis=1, keepdims=True)
    return frequencies


@pytest.mark.parametrize("seed", [0, 9, (3, 1), (2**32 - 1, 0), (2**40, 5), (2**70, 2**33, 7)])
def test_series_tomography_counts_match_a_generator_per_draw(pauli_spec, qho_spec, initial_states, monkeypatch, seed):
    monkeypatch.setattr(qc, "tomography", lambda frequencies: frequencies)
    for spec, state, t in [(pauli_spec, "pauli-xx-zz", 0.9), (qho_spec, "qho-oscillating", 1.0)]:
        prep = kraus.prepare(spec.model)
        series = kraus.build_tp_series(prep, t, 3)
        psi = initial_states[state]
        frequencies, _ = qc.execute_series_tomography(prep, series, t, psi, shots=64, seed=seed)
        assert np.array_equal(frequencies, _per_draw_frequencies(prep, series, t, psi, 64, seed))


STACKED_CASES = ["pauli-xx-zz-truncated-3", "haar-rotated-truncated-3", "qho-damped-vacuum", "four-qubit-reduced"]


def _stacked_case(case):
    """(model, state, variant, order) of a case at t = 0.8: mixed orders with distinct dilations in one slot,
    also with a dense T(t) basis change shared by every register; terms that vanish on the vacuum; and 64
    surviving terms of four qubits, more than one basis pass holds."""
    if case.endswith("truncated-3"):
        model = models.build_model("pauli-xx-zz").model
        if case.startswith("haar"):
            model = haar_rotated(model, np.random.default_rng(11))
        return model, models.benchmark_initial_states()["pauli-xx-zz"], "truncated", 3
    if case == "qho-damped-vacuum":
        return models.build_model("qho-damped").model, QuantumState(np.eye(4, dtype=complex)[0]), "truncated", 3
    strings = ["XIZY", "ZZII", "IYXI", "XXXX", "IIZZ", "YIIY"]
    model = models.build_model("pauli-xx-zz", pauli_strings=strings, gammas=[0.3, 0.5, 0.7, 0.9, 1.1, 1.3]).model
    return model, QuantumState(random_state(np.random.default_rng(5), 16)), "reduced", 0


def _drawn_counts(monkeypatch, counts):
    """Make every draw of ``_shot_draws`` record its counts in ``counts`` under its index."""
    shot_draws = qc._shot_draws

    def recording(seed, shots, shape):
        draw = shot_draws(seed, shots, shape)

        def recorded(probs, *index):
            counts[index] = draw(probs, *index).copy()
            return probs

        return recorded

    monkeypatch.setattr(qc, "_shot_draws", recording)


@pytest.mark.parametrize("budget", [None, 1], ids=["default-budget", "one-term-per-pass"])
@pytest.mark.parametrize("shots", [None, 64])
@pytest.mark.parametrize("case", STACKED_CASES)
def test_stacked_series_tomography_equals_each_term_run_alone(monkeypatch, case, shots, budget):
    model, psi, variant, order = _stacked_case(case)
    prep = kraus.prepare(model)
    series = kraus.build_series(prep, 0.8, variant, order)
    n_sys = qc.qubit_count(prep.dim, "system dimension")
    if budget is not None:
        monkeypatch.setattr(mk, "BLOCK_BYTES", budget)
    # each term alone: its circuit on a register of its own, then post-selection, basis pass and draw
    want_counts, got_counts = {}, {}
    _drawn_counts(monkeypatch, want_counts)
    draw = None if shots is None else qc._shot_draws((4, 2), shots, (len(series.terms), 3**n_sys))
    frequencies = np.zeros((3**n_sys, 2**n_sys))
    survivals = []
    for index, term in enumerate(series.terms):
        circuit = qc.build_kraus_circuit(term, prep, 0.8)
        final = qc.simulate_statevector(circuit, qc.embed_state(circuit, psi))
        reduced, survival = qc.postselect(final, circuit.postselect)
        survivals.append(survival)
        if reduced is not None:
            probs = qc._basis_probabilities(reduced, ["XYZ"] * n_sys)
            if draw is not None:
                draw(probs, index)
            frequencies += term.weight**2 * survival * probs / probs.sum(axis=1, keepdims=True)
    _drawn_counts(monkeypatch, got_counts)
    rho, diags = qc.execute_series_tomography(prep, series, 0.8, psi, shots, seed=(4, 2))
    assert np.array_equal(rho, qc.tomography(frequencies))
    assert [d["survival"] for d in diags] == survivals
    assert list(got_counts) == list(want_counts)
    assert all(np.array_equal(got_counts[index], want_counts[index]) for index in want_counts)
    if case.endswith("truncated-3"):  # orders 0-3, and slot 0 holds more than one dilation
        assert {term.order for term in series.terms} == {0, 1, 2, 3}
        assert len({term.indices[-1] for term in series.terms if term.order > 0}) > 1
    elif case == "qho-damped-vacuum":
        assert survivals[0] > 0.0 and survivals[1:] == [0.0] * (len(survivals) - 1)
    else:
        assert min(survivals) > 0.0 and len(survivals) == 64 > mk.BLOCK_BYTES // (81 * 16 * 16)


def _lone_final(circuit, amps):
    """The final register of ``circuit`` by the arithmetic of one register alone: one ``(m, M)`` product per
    gate, as the emulator computed it before it ran circuits as stacks."""
    n = circuit.num_qubits
    tensor = np.asarray(amps).reshape([2] * n)
    for gate in circuit.gates:
        to_front, back = mk._axis_orders(n, gate.targets + gate.controls)
        flat = tensor.transpose(to_front).copy().reshape(2 ** len(gate.targets), 2 ** len(gate.controls), -1)
        flat[:, -1] = gate.unitary() @ flat[:, -1]
        tensor = flat.reshape(tensor.shape).transpose(back)
    return tensor.reshape(-1)


def _lone_register(circuit, psi, n_sys):
    """A term circuit's final register, survival and basis table by the arithmetic of one register alone
    (:func:`_lone_final`, ``np.vdot`` of the strided kept view, as the ancillas are the last qubits, and one
    ``(2, M)`` product per basis factor)."""
    final = _lone_final(circuit, qc.embed_state(circuit, psi))
    kept = final.reshape([2] * circuit.num_qubits)[(..., *[0] * circuit.num_ancilla_qubits)].reshape(-1)
    survival = float(np.vdot(kept, kept).real)
    if survival == 0.0:
        return final, survival, None
    table = (kept / np.sqrt(survival)).reshape([2] * n_sys)
    for q in range(n_sys):
        table = np.stack([mk.apply_to_axes(table, [(2 * q, f) for f in qc._BASIS_CHANGE[c]]) for c in "XYZ"], axis=q)
    return final, survival, np.abs(table.reshape(-1, 2**n_sys)) ** 2


@pytest.mark.parametrize("case", STACKED_CASES)
def test_a_stack_of_one_keeps_the_arithmetic_of_a_lone_register(case):
    model, psi, variant, order = _stacked_case(case)
    prep = kraus.prepare(model)
    n_sys = qc.qubit_count(prep.dim, "system dimension")
    for term in kraus.build_series(prep, 0.8, variant, order).terms:
        circuit = qc.build_kraus_circuit(term, prep, 0.8)
        want_final, want_survival, want_table = _lone_register(circuit, psi, n_sys)
        final = qc.simulate_statevector(circuit, qc.embed_state(circuit, psi))
        reduced, survival = qc.postselect(final, circuit.postselect)
        assert np.array_equal(final.amplitudes, want_final) and survival == want_survival
        if reduced is not None:
            assert np.array_equal(qc._basis_probabilities(reduced, ["XYZ"] * n_sys), want_table)


@pytest.mark.parametrize("seed", [-1, (1, -1)])
def test_series_tomography_refuses_a_negative_seed(pauli_spec, initial_states, seed):
    series = kraus.build_reduced_series(pauli_spec.model, 0.9)
    with pytest.raises(ValueError, match="non-negative"):
        qc.execute_series_tomography(pauli_spec.model, series, 0.9, initial_states["pauli-xx-zz"], shots=16, seed=seed)


@pytest.mark.parametrize("seed", [0, (3, 1), (2**40, 5)])
def test_shot_draw_normalises_each_table_once(rng, seed):
    # rows scaled away from sum 1: the one table-wide normalisation is the per-row p / p.sum() of
    # _per_draw_frequencies, and the counts are those of a generator per row
    seed_base = (seed,) if isinstance(seed, int) else seed
    for n in range(1, 6):
        probs = rng.random((3**n, 2**n)) * 10.0 ** rng.uniform(-3, 3, size=(3**n, 1))
        assert np.array_equal(probs / probs.sum(axis=1, keepdims=True), [p / p.sum() for p in probs])
        drawn = qc._shot_draws(seed, 1024, (2, 3**n))(probs.copy(), 1)
        for r, (p, counts) in enumerate(zip(probs, drawn)):
            rng_row = np.random.default_rng(np.random.SeedSequence([*seed_base, 1, r]))
            assert np.array_equal(counts, rng_row.multinomial(1024, p / p.sum()))


def _gate_record(gate):
    return gate.kind, gate.targets, gate.controls, gate.angle, None if gate.matrix is None else gate.matrix.tobytes()


def _tomography_cases(pauli_spec, qho_spec):
    """(model, state, scheme) of pauli-xx-zz, qho-damped with the gray scheme, and a Haar-rotated Pauli channel."""
    rotated = haar_rotated(pauli_spec.model, np.random.default_rng(11))
    return {
        "pauli-xx-zz": (pauli_spec.model, "pauli-xx-zz", qc.SCHEME_BINARY),
        "qho-damped-gray": (qho_spec.model, "qho-oscillating", qc.SCHEME_GRAY),
        "haar-rotated": (rotated, "pauli-xx-zz", qc.SCHEME_BINARY),
    }


def _run_with_scheme(monkeypatch, scheme):
    """Make execute_series_tomography build its circuits with ``scheme``; returns the list of circuits it runs,
    group after group (in term order for a truncated series, whose terms come by order)."""
    build, run, ran = qc.build_kraus_circuit, qc._run_circuits, []
    monkeypatch.setattr(qc, "build_kraus_circuit", lambda term, model, t, **kw: build(term, model, t, scheme, **kw))
    monkeypatch.setattr(qc, "_run_circuits", lambda circuits, stack: ran.extend(circuits) or run(circuits, stack))
    return ran


@pytest.mark.parametrize("case", ["pauli-xx-zz", "qho-damped-gray", "haar-rotated"])
def test_series_tomography_runs_the_circuits_of_build_kraus_circuit(pauli_spec, qho_spec, initial_states, monkeypatch, case):
    model, state, scheme = _tomography_cases(pauli_spec, qho_spec)[case]
    prep = kraus.prepare(model)
    series = kraus.build_tp_series(prep, 0.7, 3)
    fresh = [qc.build_kraus_circuit(term, prep, 0.7, scheme) for term in series.terms]
    ran = _run_with_scheme(monkeypatch, scheme)
    qc.execute_series_tomography(prep, series, 0.7, initial_states[state], shots=16)
    assert len(ran) == len(fresh) == len(series.terms)
    for got, want in zip(ran, fresh):
        assert (got.num_system_qubits, got.num_ancilla_qubits, got.postselect) == (
            want.num_system_qubits, want.num_ancilla_qubits, want.postselect
        )
        assert [_gate_record(g) for g in got.gates] == [_gate_record(g) for g in want.gates]
    n_sys = fresh[0].num_system_qubits
    if case == "haar-rotated":  # T(t) carries its basis change
        assert any(g.kind == "unitary" and len(g.targets) == n_sys for c in fresh for g in c.gates)


@pytest.mark.parametrize("case", ["pauli-xx-zz", "qho-damped-gray", "haar-rotated"])
def test_series_tomography_builds_each_dilation_and_t_block_once(pauli_spec, qho_spec, initial_states, monkeypatch, case):
    model, state, scheme = _tomography_cases(pauli_spec, qho_spec)[case]
    prep = kraus.prepare(model)
    series = kraus.build_tp_series(prep, 0.7, 3)
    n_sys = qc.qubit_count(prep.dim, "system dimension")
    dilations, t_blocks = [], []
    post_init, t_block_gates = qc.Gate.__post_init__, qc._t_block_gates

    def counted_gate(gate):
        if gate.kind == "unitary" and len(gate.targets) == n_sys + 1:
            dilations.append((gate.targets, np.asarray(gate.matrix).tobytes()))
        post_init(gate)

    def counted_t_block(prep, t, system, ancilla, scheme):
        t_blocks.append(ancilla - n_sys)
        return t_block_gates(prep, t, system, ancilla, scheme)

    monkeypatch.setattr(qc.Gate, "__post_init__", counted_gate)
    monkeypatch.setattr(qc, "_t_block_gates", counted_t_block)
    _run_with_scheme(monkeypatch, scheme)
    qc.execute_series_tomography(prep, series, 0.7, initial_states[state], shots=16)
    slots = {(slot, k) for term in series.terms for slot, k in enumerate(reversed(term.indices))}
    assert len(dilations) == len(set(dilations)) == len(slots)
    assert t_blocks == [0]  # one T(t) block per call, on the contraction ancilla n_sys


@pytest.mark.parametrize("case", ["pauli-xx-zz", "qho-damped-gray", "haar-rotated"])
def test_kraus_circuits_of_one_call_share_one_t_block_on_the_contraction_ancilla(
    pauli_spec, qho_spec, initial_states, monkeypatch, case
):
    model, state, scheme = _tomography_cases(pauli_spec, qho_spec)[case]
    prep = kraus.prepare(model)
    series = kraus.build_tp_series(prep, 0.7, 3)
    n_sys = qc.qubit_count(prep.dim, "system dimension")
    system, build = tuple(range(n_sys)), qc.build_kraus_circuit
    ran = _run_with_scheme(monkeypatch, scheme)
    qc.execute_series_tomography(prep, series, 0.7, initial_states[state], shots=16)
    assert len(ran) == len(series.terms) and {term.order for term in series.terms} == {0, 1, 2, 3}
    block = ran[0].gates[series.terms[0].order :]
    assert block and any(n_sys in g.targets + g.controls for g in block)
    assert all(set(g.targets + g.controls) <= {*system, n_sys} for g in block)
    for term, circuit in zip(series.terms, ran):
        tail = circuit.gates[term.order :]
        assert len(tail) == len(block) and all(got is want for got, want in zip(tail, block))
        dilations = circuit.gates[: term.order]
        assert [g.targets for g in dilations] == [(n_sys + 1 + s, *system) for s in range(term.order)]
        for gate, k in zip(dilations, reversed(term.indices)):
            assert gate.matrix.tobytes() == prep.dilations[k].tobytes()
        assert circuit.postselect == tuple(range(n_sys, n_sys + term.order + 1))
    # the block is keyed by t: a dict shared with another time gets that time's block
    shared = {}
    first, later = (build(series.terms[-1], prep, t, scheme, _shared=shared) for t in (0.7, 1.3))
    fresh = build(series.terms[-1], prep, 1.3, scheme)
    assert [_gate_record(g) for g in later.gates] == [_gate_record(g) for g in fresh.gates]
    assert [_gate_record(g) for g in later.gates] != [_gate_record(g) for g in first.gates]


def test_gate_unitary_is_the_core_of_its_kind():
    cores = [(qc.Gate(kind, (0,)), qc._SINGLE_QUBIT[kind]) for kind in "xyzh"]
    for kind, angle in itertools.product(qc._ROTATIONS, [0.0, 0.3, -2.1, 7]):
        cores.append((qc.Gate(kind, (0,), (1,), angle=angle), qc._ROTATIONS[kind](float(angle))))
    u = haar_unitary(np.random.default_rng(3), 4)
    cores.append((qc.Gate("unitary", (0, 2), matrix=u), u))
    for gate, core in cores:
        assert gate.unitary().tobytes() == np.asarray(core, dtype=complex).tobytes()
        assert gate.unitary() is gate.unitary()
        doc = to_doc(gate)
        assert "_core" not in doc and from_doc(qc.Gate, doc).unitary().tobytes() == gate.unitary().tobytes()
    assert qc.Gate("ry", (0,), angle=0.3) == qc.Gate("ry", (0,), angle=0.3) != qc.Gate("ry", (0,), angle=0.4)


def test_serialized_series_drives_circuits(qho_spec, initial_states):
    # the JSON form of a series carries everything the circuit builder needs
    psi = initial_states["qho-oscillating"]
    series = from_doc(
        kraus.KrausSeries, json.loads(json.dumps(to_doc(kraus.build_tp_series(qho_spec.model, 0.9, 3))))
    )
    rho_circ, _ = qc.execute_series_tomography(qho_spec.model, series, 0.9, psi)
    oracle = lb.exact_evolve(qho_spec.model, psi.density(), 0.9)
    assert trace_distance(rho_circ, oracle) < 1e-9


def test_circuit_json_round_trip(qho_spec):
    series = kraus.build_tp_series(qho_spec.model, 1.0, 2)
    circuit = qc.build_kraus_circuit(series.terms[-1], qho_spec.model, 1.0)
    back = from_doc(qc.Circuit, json.loads(json.dumps(to_doc(circuit))))
    assert back.num_system_qubits == circuit.num_system_qubits
    assert back.postselect == circuit.postselect
    assert len(back.gates) == len(circuit.gates)
    assert np.abs(qc.circuit_unitary(back) - qc.circuit_unitary(circuit)).max() < 1e-12
    assert_json_round_trip(circuit)


def test_gate_doc_omits_unset_angle_and_matrix():
    assert to_doc(qc.Gate("x", (1,), (0,))) == {
        "kind": "x", "targets": [1], "controls": [0]
    }


def test_gate_validation():
    with pytest.raises(ValueError):
        qc.Gate("x", ())
    with pytest.raises(ValueError):
        qc.Gate("x", (0,), (0,))
    with pytest.raises(ValueError):
        qc.Gate("ry", (0,))
    # an int or a float angle passes, numpy floats included, and is kept as a float
    angles = [qc.Gate("rz", (0,), angle=a).angle for a in (1, 0.5, np.float64(0.25), np.float32(0.5))]
    assert angles == [1.0, 0.5, 0.25, 0.5] and {type(a) for a in angles} == {float}
    with pytest.raises(ValueError):
        qc.Gate("unitary", (0,), matrix=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        qc.Circuit(1, 0, (qc.Gate("x", (3,)),))
    # every qubit of a gate is distinct: the kernel moves each axis once
    with pytest.raises(ValueError, match="distinct"):
        qc.Gate("x", (1,), (0, 0))
    with pytest.raises(ValueError, match="distinct"):
        qc.Gate("unitary", (0, 0), matrix=np.eye(4))
    # a qubit index is an integer as given, never rounded or parsed
    refused = [((1.5,), (), "1.5"), (("1",), (), "'1'"), ((2,), (0.9,), "0.9"), ((True,), (), "True")]
    for targets, controls, shown in refused:
        with pytest.raises(ValueError, match=re.escape(f"qubit index must be an integer, got {shown}")):
            qc.Gate("x", targets, controls)
    doc = {"num_system_qubits": 2, "num_ancilla_qubits": 0, "gates": [{"kind": "x", "targets": [1.5]}]}
    with pytest.raises(ValueError, match="got 1.5"):
        from_doc(qc.Circuit, doc)
    assert qc.Gate("x", (np.int64(1),), (np.int64(0),)).targets == (1,)


# id -> (a Circuit document, the error it is refused with)
MALFORMED_CIRCUIT_DOCS = {
    "negative-register": ({"num_system_qubits": -1}, "num_system_qubits must be non-negative, got -1"),
    "fractional-register": ({"num_system_qubits": 1.5}, "num_system_qubits must be an integer, got 1.5"),
    "boolean-register": ({"num_ancilla_qubits": True}, "num_ancilla_qubits must be an integer, got True"),
    "fractional-postselect": ({"postselect": [1.5]}, "post-selection index must be an integer, got 1.5"),
    "boolean-postselect": ({"postselect": [True]}, "post-selection index must be an integer, got True"),
    "repeated-postselect": ({"postselect": [1, 1]}, "post-selection indices must be distinct, got (1, 1)"),
    "angle-on-x": ({"gates": [{"kind": "x", "targets": [0], "angle": 0.5}]}, "x gate takes no angle"),
    "matrix-on-h": (
        {"gates": [{"kind": "h", "targets": [0], "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        "h gate takes no matrix",
    ),
    # an angle is a finite real number as given, never parsed
    "string-angle": (
        {"gates": [{"kind": "rz", "targets": [0], "angle": "a"}]},
        "rz gate angle must be a finite real number, got 'a'",
    ),
    "list-angle": (
        {"gates": [{"kind": "ry", "targets": [0], "angle": [1, 2]}]},
        "ry gate angle must be a finite real number, got [1, 2]",
    ),
    "boolean-angle": (
        {"gates": [{"kind": "phase", "targets": [0], "angle": True}]},
        "phase gate angle must be a finite real number, got True",
    ),
    "huge-angle": (
        {"gates": [{"kind": "rz", "targets": [0], "angle": 10**400}]},
        f"rz gate angle must be a finite real number, got {10**400}",
    ),
}


@pytest.mark.parametrize("fields, message", MALFORMED_CIRCUIT_DOCS.values(), ids=MALFORMED_CIRCUIT_DOCS)
def test_malformed_circuit_doc_is_refused(fields, message):
    # each field overrides a well-formed one-system, one-ancilla document with no gates
    doc = {"num_system_qubits": 1, "num_ancilla_qubits": 1, "gates": [], **fields}
    with pytest.raises(ValueError, match=re.escape(message)):
        from_doc(qc.Circuit, doc)


def test_circuit_doc_with_control_polarities_is_refused():
    doc = to_doc(qc.Circuit(2, 0, (qc.cnot(0, 1),)))
    doc["gates"][0]["control_values"] = [1]
    with pytest.raises(ValueError, match=re.escape("unknown Gate fields: ['control_values']")):
        from_doc(qc.Circuit, doc)


def _dense_gate(gate, n):
    """The gate on n qubits, column by column from the basis states (qubit 0 most significant)."""
    core = gate.unitary()
    out = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        if not all(bits[c] for c in gate.controls):
            out[col, col] = 1.0
            continue
        core_col = int("".join(str(bits[q]) for q in gate.targets), 2)
        for core_row in range(core.shape[0]):
            row_bits = list(bits)
            for k, q in enumerate(gate.targets):
                row_bits[q] = (core_row >> (len(gate.targets) - 1 - k)) & 1
            out[int("".join(map(str, row_bits)), 2), col] += core[core_row, core_col]
    return out


def _random_gate(rng, kind, n):
    """A gate of ``kind`` on random distinct qubits: 1-2 targets for unitary, 0-2 controls."""
    num_targets = int(rng.integers(1, min(2, n) + 1)) if kind == "unitary" else 1
    num_controls = int(rng.integers(0, min(2, n - num_targets) + 1))
    qubits = [int(q) for q in rng.permutation(n)[: num_targets + num_controls]]
    return qc.Gate(
        kind,
        tuple(qubits[:num_targets]),
        tuple(qubits[num_targets:]),
        angle=float(rng.uniform(-np.pi, np.pi)) if kind in ("phase", "rz", "ry") else None,
        matrix=haar_unitary(rng, 2**num_targets) if kind == "unitary" else None,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_statevector_matches_dense_gate_operators(rng, n):
    kinds = ["x", "y", "z", "h", "phase", "rz", "ry", "unitary"]
    # the first gate keeps every axis in place, so the kernel's first copy is of the caller's array
    gates = [qc.Gate("h", (0,))] + [_random_gate(rng, kind, n) for kind in kinds * 3]
    amps = random_state(rng, 2**n)
    given = amps.copy()
    expected = amps
    for gate in gates:
        dense = _dense_gate(gate, n)
        single = qc.simulate_statevector(qc.Circuit(n, 0, (gate,)), expected).amplitudes
        expected = dense @ expected
        assert np.abs(single - expected).max() < 1e-12
    final = qc.simulate_statevector(qc.Circuit(n, 0, tuple(gates)), amps).amplitudes
    assert np.abs(final - expected).max() < 1e-12
    assert np.array_equal(amps, given)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_run_circuits_gives_each_register_the_numbers_of_its_circuit_alone(rng, n):
    # a gate position holds one gate that every register shares, or unitaries that differ by register (some
    # registers sharing one object); M = 1-3 columns are where a wider product would round differently
    rows, positions = 5, []
    for kind in ["h", "phase", "unitary", "ry", "unitary", "x", "unitary", "rz"] * 2:
        gate = _random_gate(rng, kind, n)
        if kind == "unitary" and rng.random() < 0.7:
            size = 2 ** len(gate.targets)
            own = [qc.Gate("unitary", gate.targets, gate.controls, matrix=haar_unitary(rng, size)) for _ in range(3)]
            positions.append([own[r] for r in rng.integers(0, 3, size=rows)])
        else:
            positions.append([gate] * rows)
    circuits = [qc.Circuit(n, 0, tuple(gates)) for gates in zip(*positions)]
    states = np.array([random_state(rng, 2**n) for _ in range(rows)])
    given = states.copy()
    finals = qc._run_circuits(circuits, states)
    assert np.array_equal(states, given)
    for circuit, state, final in zip(circuits, states, finals):
        assert np.array_equal(final, _lone_final(circuit, state))
        assert np.array_equal(final, qc.simulate_statevector(circuit, state).amplitudes)


@pytest.mark.parametrize("shared", [None, {}], ids=["alone", "shared"])
def test_kraus_circuit_reads_its_time_before_looking_up_the_shared_gates(pauli_spec, shared):
    # an unhashable time used to fail the lookup with "unhashable type: 'list'"
    term = kraus.build_series(pauli_spec.model, 0.5, "reduced", 0).terms[-1]
    with pytest.raises(ValueError, match=r"^evolution time must be a finite real number, got \[0\.5\]$"):
        qc.build_kraus_circuit(term, pauli_spec.model, [0.5], _shared=shared)
