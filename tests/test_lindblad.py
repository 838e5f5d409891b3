import json

import numpy as np
import pytest

from kraussim import lindblad as lb
from kraussim import models
from kraussim.matkernel import PAULI, from_doc, matexp, to_doc, trace_distance

from conftest import random_density


def dephasing_model(gamma=0.5):
    return lb.LindbladModel(np.zeros((2, 2)), (PAULI["Z"],), (gamma,))


def test_model_validation():
    with pytest.raises(ValueError):
        lb.LindbladModel(np.array([[0.0, 1.0], [0.0, 0.0]]), (PAULI["Z"],), (1.0,))
    with pytest.raises(ValueError):
        lb.LindbladModel(np.zeros((2, 2)), (PAULI["Z"],), (-1.0,))
    with pytest.raises(ValueError):
        lb.LindbladModel(np.zeros((2, 2)), (np.eye(4),), (1.0,))


def test_conditions_pauli_channel(pauli_spec):
    report = lb.check_conditions(pauli_spec.model)
    assert report.all_satisfied
    assert report.nu == pytest.approx(0.0, abs=1e-10)
    assert report.lambda_const == pytest.approx(0.0, abs=1e-10)
    assert report.alpha == pytest.approx(0.0, abs=1e-12)
    assert report.f_kind == lb.F_KIND_LINEAR


def test_conditions_damped_oscillator(qho_spec):
    report = lb.check_conditions(qho_spec.model)
    assert report.all_satisfied
    assert report.nu.real == pytest.approx(1.0, abs=1e-10)
    assert report.lambda_const.real == pytest.approx(-1.0, abs=1e-10)
    assert report.alpha == pytest.approx(1.0, abs=1e-10)
    assert report.f_kind == lb.F_KIND_SATURATING


def test_conditions_ladder_failure():
    model = lb.LindbladModel(PAULI["X"], (PAULI["Z"],), (1.0,))
    report = lb.check_conditions(model)
    assert report.hamiltonian_commutes  # [X, Z^dag Z] = [X, I] = 0
    assert not report.ladder_constant_found
    assert not report.all_satisfied
    assert report.failing() == ["iii"]


def test_conditions_rejects_zero_operator():
    model = lb.LindbladModel(np.zeros((2, 2)), (np.zeros((2, 2)),), (1.0,))
    with pytest.raises(ValueError):
        lb.check_conditions(model)


def test_superoperator_trivial():
    model = lb.LindbladModel(np.zeros((2, 2)), (), ())
    assert np.abs(lb.build_superoperator(model)).max() == 0.0


def test_superoperator_dephasing_eigencomponent():
    gamma = 0.5
    model = dephasing_model(gamma)
    sup = lb.build_superoperator(model)
    coherence = np.zeros((2, 2), dtype=complex)
    coherence[0, 1] = 1.0
    out = sup @ lb.vectorize(coherence)
    assert np.allclose(out, -2 * gamma * lb.vectorize(coherence))


def test_superoperator_preserves_trace(pauli_spec, rng):
    from kraussim.matkernel import matexp

    sup = lb.build_superoperator(pauli_spec.model)
    prop = matexp(0.7 * sup)
    dim = pauli_spec.model.dim
    for _ in range(4):
        rho = random_density(rng, dim)
        evolved = lb.unvectorize(prop @ lb.vectorize(rho), dim)
        assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-10)


def test_exact_evolve_identity_at_zero(qho_spec, initial_states):
    rho0 = initial_states["qho-oscillating"].density()
    # a subnormal time underflows t * D; the state must still be rho0
    for t in (0.0, 1e-310):
        out = lb.exact_evolve(qho_spec.model, rho0, t)
        assert np.abs(out.matrix - rho0.matrix).max() < 1e-14


def test_exact_evolve_dephasing_coherence():
    model = dephasing_model(0.5)
    plus = np.ones((2, 2), dtype=complex) / 2
    out = lb.exact_evolve(model, plus, 1.0)
    assert out.matrix[0, 1].real == pytest.approx(0.5 * np.exp(-1.0), abs=1e-12)


def test_exact_evolve_pauli_zz_expectation(pauli_spec, initial_states):
    rho0 = initial_states["pauli-xx-zz"].density()
    out = lb.exact_evolve(pauli_spec.model, rho0, 2.0)
    zz = np.kron(PAULI["Z"], PAULI["Z"])
    value = np.trace(zz @ out.matrix).real
    assert value == pytest.approx(0.28 * np.exp(-0.8), abs=1e-9)


def test_exact_evolve_cptp_and_semigroup(pauli_spec, rng):
    model = pauli_spec.model
    for _ in range(3):
        rho = random_density(rng, model.dim)
        out = lb.exact_evolve(model, rho, 0.9)
        assert not out.raw
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-9
        two_step = lb.exact_evolve(model, lb.exact_evolve(model, rho, 0.4), 0.5)
        assert trace_distance(two_step, out) < 1e-8


def test_exact_evolve_rejects_negative_time(qho_spec, initial_states):
    with pytest.raises(ValueError):
        lb.exact_evolve(qho_spec.model, initial_states["qho-oscillating"].density(), -0.1)


@pytest.mark.parametrize(
    "key, params",
    [("pauli-xx-zz", {}), ("schwinger-jz", {}), ("qho-damped", {}), ("qho-cat", {}), ("qho-damped", {"n_max": 15})],
)
def test_exact_trajectory_matches_pointwise_expm(rng, key, params):
    model = models.build_model(key, **params).model
    rho0 = random_density(rng, model.dim)
    generator = lb.build_superoperator(model)
    for start, stop, steps in ((0.0, 2.0, 9), (0.7, 1.9, 5), (1.3, 1.3, 1)):
        states = list(lb.exact_trajectory(model, rho0, start, stop, steps))
        assert len(states) == steps
        for t, state in zip(np.linspace(start, stop, steps), states):
            want = matexp(t * generator) @ lb.vectorize(rho0)
            assert np.abs(lb.vectorize(state.matrix) - want).max() < 1e-12


@pytest.mark.parametrize("uses, factors", [(1, 8), (3, 8), (4, 4), (7, 2), (12, 2), (13, 1)])
def test_propagator_squares_only_while_a_squaring_saves_mat_vecs(uses, factors):
    # N = 64 and s = 3 at t = 3: one squaring costs an N x N matmul, counted as 0.2 N = 12.8 mat-vecs,
    # and saves uses * 2^(s-1) mat-vecs
    model = models.build_model("qho-damped", n_max=7).model
    root, k = lb._propagator(model, 3.0, uses)
    assert k == factors
    want = matexp(3.0 * lb.build_superoperator(model))
    assert np.abs(np.linalg.matrix_power(root, k) - want).max() < 1e-13


def test_trotter_commuting_split_is_exact():
    model = lb.LindbladModel(PAULI["Z"], (PAULI["Z"],), (0.3,))
    plus = np.ones((2, 2), dtype=complex) / 2
    exact = lb.exact_evolve(model, plus, 1.3)
    for steps in (1, 7):
        approx = lb.trotter_evolve(model, plus, 1.3, steps)
        assert trace_distance(approx, exact) < 1e-12


def test_trotter_converges_and_second_order(qho_spec, initial_states):
    model = qho_spec.model
    rho0 = initial_states["qho-oscillating"].density()
    exact = lb.exact_evolve(model, rho0, 1.0)
    errors = []
    steps_grid = [8, 16, 32, 64]
    for steps in steps_grid:
        approx = lb.trotter_evolve(model, rho0, 1.0, steps, split=lb.SPLIT_EFFECTIVE_JUMP)
        errors.append(trace_distance(approx, exact))
    assert errors[-1] < errors[0] / 30
    slope = np.polyfit(np.log(steps_grid), np.log(errors), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.2)


@pytest.mark.parametrize("split", [lb.SPLIT_HAMILTONIAN_DISSIPATOR, lb.SPLIT_EFFECTIVE_JUMP])
def test_trotter_trajectory_matches_pointwise(qho_spec, initial_states, split):
    rho0 = initial_states["qho-oscillating"].density()
    ts = np.linspace(0.0, 1.5, 4)
    states = list(lb.trotter_trajectory(qho_spec.model, rho0, ts, 8, split))
    assert len(states) == len(ts)
    for t, state in zip(ts, states):
        want = lb.trotter_evolve(qho_spec.model, rho0, float(t), 8, split)
        assert np.array_equal(state.matrix, want.matrix)
    with pytest.raises(ValueError):
        list(lb.trotter_trajectory(qho_spec.model, rho0, [0.5, -0.1], 8, split))


def test_trotter_rejects_zero_steps(qho_spec, initial_states):
    with pytest.raises(ValueError):
        lb.trotter_evolve(qho_spec.model, initial_states["qho-oscillating"].density(), 1.0, 0)


def test_normalize_unit_norm_unchanged(pauli_spec):
    norm = lb.normalize_lindblads(pauli_spec.model)
    for a, b in zip(norm.lindblads, pauli_spec.model.lindblads):
        assert np.abs(a - b).max() < 1e-15
    assert norm.gammas == pauli_spec.model.gammas


def test_normalize_scalar_rescale():
    model = lb.LindbladModel(np.zeros((2, 2)), (2.0 * PAULI["Z"],), (0.1,))
    norm = lb.normalize_lindblads(model)
    assert np.abs(norm.lindblads[0] - PAULI["Z"]).max() < 1e-15
    assert norm.gammas[0] == pytest.approx(0.4)


def test_normalize_truncated_mode():
    a = models.annihilation_operator(3)
    model = lb.LindbladModel(np.zeros((4, 4)), (a,), (1.0,))
    norm = lb.normalize_lindblads(model)
    assert norm.gammas[0] == pytest.approx(3.0, abs=1e-12)
    assert np.linalg.norm(norm.lindblads[0], 2) == pytest.approx(1.0, abs=1e-12)
    before = lb.build_superoperator(model)
    after = lb.build_superoperator(norm)
    assert np.abs(before - after).max() < 1e-12


def test_normalize_leaves_evolution_invariant(qho_spec, initial_states, rng):
    model = qho_spec.model
    norm = lb.normalize_lindblads(model)
    rho0 = initial_states["qho-oscillating"].density()
    for t in (0.3, 1.1, 2.7):
        assert (
            trace_distance(lb.exact_evolve(model, rho0, t), lb.exact_evolve(norm, rho0, t))
            < 1e-9
        )


def test_normalize_rejects_zero_operator():
    model = lb.LindbladModel(np.zeros((2, 2)), (np.zeros((2, 2)),), (1.0,))
    with pytest.raises(ValueError):
        lb.normalize_lindblads(model)


def test_model_json_round_trip(schwinger_spec):
    text = json.dumps(to_doc(schwinger_spec.model))
    back = from_doc(lb.LindbladModel, json.loads(text))
    assert np.abs(back.hamiltonian - schwinger_spec.model.hamiltonian).max() < 1e-15
    for a, b in zip(back.lindblads, schwinger_spec.model.lindblads):
        assert np.abs(a - b).max() < 1e-15
    assert back.gammas == schwinger_spec.model.gammas


def test_model_doc_rejects_unknown_keys_and_unpaired_matrices(schwinger_spec):
    doc = to_doc(schwinger_spec.model)
    with pytest.raises(ValueError, match="unknown LindbladModel fields"):
        from_doc(lb.LindbladModel, {**doc, "dim": schwinger_spec.model.dim})
    real = np.real(schwinger_spec.model.hamiltonian).tolist()
    with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
        from_doc(lb.LindbladModel, {**doc, "hamiltonian": real})
