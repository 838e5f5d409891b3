import itertools
import json

import numpy as np
import pytest

from kraussim import circuits as qc
from kraussim import kraus, lindblad as lb
from kraussim.matkernel import PAULI, QuantumState, from_doc, to_doc, trace_distance

from conftest import align_phase, random_state


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


def test_diagonal_unitary_rejects_bad_length():
    with pytest.raises(ValueError):
        qc.encode_diagonal_unitary(np.zeros(3))


def test_contraction_all_ones_identity():
    circuit = qc.encode_diagonal_contraction(np.ones(4))
    assert len(circuit.gates) == 0
    state = random_state(np.random.default_rng(1), 4)
    out = qc.simulate_statevector(circuit, qc.embed_state(circuit, state))
    reduced, prob = qc.postselect(out, circuit.postselect)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.abs(reduced.amplitudes - state).max() < 1e-12


def test_contraction_projector():
    circuit = qc.encode_diagonal_contraction(np.array([1.0, 0.0]))
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    out = qc.simulate_statevector(circuit, qc.embed_state(circuit, plus))
    reduced, prob = qc.postselect(out, circuit.postselect)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.abs(reduced.amplitudes - np.array([1.0, 0.0])).max() < 1e-12


def test_contraction_matches_diagonal():
    decays = np.exp(-np.array([0.5, 1.0, 1.5, 2.0]))
    circuit = qc.encode_diagonal_contraction(decays)
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
        qc.encode_diagonal_contraction(np.array([1.0, 1.5]))


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
    with pytest.raises(ValueError, match="basis 'ZZ' measures 2 qubits, but the state has dimension 2"):
        qc.sample_shots(zero, "ZZ", 10, seed=0)


def test_sample_shots_y_eigenstate():
    # |+i> is the +1 eigenstate of Y, so every shot in the Y basis reads 0
    plus_i = QuantumState(np.array([1.0, 1j], dtype=complex) / np.sqrt(2))
    result = qc.sample_shots(plus_i, "Y", 1000, seed=0)
    assert result.counts == {"0": 1000.0}


def test_tomography_exact_reconstruction(rng):
    psi = QuantumState(random_state(rng, 4))
    rho = qc.tomography(0.7 * qc._basis_probabilities(psi, ["XYZ"] * 2))
    assert np.abs(rho.matrix - 0.7 * psi.density().matrix).max() < 1e-10


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
    assert np.abs(rho.matrix - psi.density().matrix).max() < 0.05


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
    calls = []
    original = qc._basis_probabilities

    def counted(state, choices):
        calls.append(list(choices))
        return original(state, choices)

    monkeypatch.setattr(qc, "_basis_probabilities", counted)
    psi = initial_states["pauli-xx-zz"]
    series = kraus.build_reduced_series(pauli_spec.model, 0.9)
    _, diags = qc.execute_series_tomography(pauli_spec.model, series, 0.9, psi, shots=shots)
    surviving = sum(d["survival"] > 0 for d in diags)
    assert surviving > 0
    assert calls == [["XYZ"] * 2] * surviving


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
    psi = initial_states["qho-oscillating"]
    series = kraus.build_tp_series(qho_spec.model, 1.3, 3)
    rho_gray, _ = qc.execute_series_tomography(
        qho_spec.model, series, 1.3, psi, scheme=qc.SCHEME_GRAY
    )
    oracle = lb.exact_evolve(qho_spec.model, psi.density(), 1.3)
    assert trace_distance(rho_gray, oracle) < 1e-9


def test_pipeline_shot_determinism(qho_spec, initial_states):
    psi = initial_states["qho-oscillating"]
    series = kraus.build_tp_series(qho_spec.model, 1.0, 3)
    rho_a, _ = qc.execute_series_tomography(qho_spec.model, series, 1.0, psi, shots=128, seed=9)
    rho_b, _ = qc.execute_series_tomography(qho_spec.model, series, 1.0, psi, shots=128, seed=9)
    assert np.abs(rho_a.matrix - rho_b.matrix).max() == 0.0
    with pytest.raises(ValueError, match="shots must be >= 1"):
        qc.execute_series_tomography(qho_spec.model, series, 1.0, psi, shots=0)


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


def test_gate_doc_omits_unset_angle_and_matrix():
    assert to_doc(qc.Gate("x", (1,), (0,))) == {
        "kind": "x", "targets": [1], "controls": [0], "control_values": [1]
    }


def test_gate_validation():
    with pytest.raises(ValueError):
        qc.Gate("x", ())
    with pytest.raises(ValueError):
        qc.Gate("x", (0,), (0,))
    with pytest.raises(ValueError):
        qc.Gate("ry", (0,))
    with pytest.raises(ValueError):
        qc.Gate("unitary", (0,), matrix=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        qc.Circuit(1, 0, (qc.Gate("x", (3,)),))
