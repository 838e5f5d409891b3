import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kraussim import kraus, lindblad as lb, models
from kraussim.matkernel import PAULI, from_doc, to_doc, trace_distance

from conftest import random_density


def test_f_of_t_linear_branch():
    assert kraus.f_of_t(0.0, 2.0) == 2.0


def test_f_of_t_saturating_values():
    assert kraus.f_of_t(1.0, 1.0) == pytest.approx(1 - np.exp(-1), abs=1e-12)
    assert kraus.f_of_t(2.0, 400.0) == pytest.approx(0.5, abs=1e-12)


def test_f_of_t_rejects_negative():
    with pytest.raises(ValueError):
        kraus.f_of_t(-1.0, 1.0)
    with pytest.raises(ValueError):
        kraus.f_of_t(1.0, -1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-11, max_value=1e-7), st.floats(min_value=0.0, max_value=10.0))
def test_f_of_t_continuous_at_zero_alpha(alpha, t):
    assert kraus.f_of_t(alpha, t) == pytest.approx(t, abs=1e-6 * max(t, 1.0))
    # the tiny-argument series agrees with the cancellation-free closed form
    if alpha * t > 0:
        closed = -np.expm1(-alpha * t) / alpha
        assert kraus.f_of_t(alpha, t) == pytest.approx(closed, abs=1e-12 * max(t, 1.0))


def test_effective_hamiltonian_unitary_lindblad():
    model = lb.LindbladModel(np.zeros((2, 2)), (PAULI["Z"],), (1.0,))
    assert np.abs(kraus.effective_hamiltonian(model) + 0.5j * np.eye(2)).max() < 1e-14


def test_effective_hamiltonian_pauli_model(pauli_spec):
    h_eff = kraus.effective_hamiltonian(pauli_spec.model)
    assert np.abs(h_eff + 1.1j * np.eye(4)).max() < 1e-12


def test_effective_hamiltonian_oscillator(qho_spec):
    h_eff = kraus.effective_hamiltonian(qho_spec.model)
    n = np.arange(4)
    assert np.abs(h_eff - np.diag(n - 0.5j * n)).max() < 1e-12


def test_effective_evolution_identity_at_zero(qho_spec):
    assert np.abs(kraus.effective_evolution(qho_spec.model, 0.0) - np.eye(4)).max() < 1e-12


def test_effective_evolution_unitary_symmetry(pauli_spec):
    t = 0.8
    t_op = kraus.effective_evolution(pauli_spec.model, t)
    total_rate = sum(pauli_spec.model.gammas)
    expected = np.exp(-total_rate * t / 2) * np.eye(4)
    assert np.abs(t_op - expected).max() < 1e-12


def test_effective_evolution_oscillator_eigenfactors(qho_spec):
    t = 0.9
    t_op = kraus.effective_evolution(qho_spec.model, t)
    n = np.arange(4)
    expected = np.diag(np.exp(-1j * n * t) * np.exp(-0.5 * n * t))
    assert np.abs(t_op - expected).max() < 1e-12
    assert np.linalg.norm(t_op, 2) <= 1 + 1e-10


def test_effective_evolution_fallback_warns():
    model = lb.LindbladModel(PAULI["X"], (np.array([[0, 1], [0, 0]], dtype=complex),), (1.0,))
    with pytest.warns(kraus.ConditionFallbackWarning):
        t_op = kraus.effective_evolution(model, 0.5)
    from kraussim.matkernel import matexp

    assert np.abs(t_op - matexp(-0.5j * kraus.effective_hamiltonian(model))).max() < 1e-12


def test_build_tp_series_zeroth_order(qho_spec, initial_states):
    series = kraus.build_tp_series(qho_spec.model, 0.7, 0)
    assert len(series.terms) == 1
    term = series.terms[0]
    assert term.order == 0 and term.weight == 1.0
    rho0 = initial_states["qho-oscillating"].density()
    out = kraus.apply_series(series, rho0)
    t_op = kraus.effective_evolution(lb.normalize_lindblads(qho_spec.model), 0.7)
    assert np.abs(out.matrix - t_op @ rho0.matrix @ t_op.conj().T).max() < 1e-12


def test_build_tp_series_nilpotent_terminates(qho_spec):
    series3 = kraus.build_tp_series(qho_spec.model, 1.0, 3)
    series9 = kraus.build_tp_series(qho_spec.model, 1.0, 9)
    assert len(series3.terms) == 4
    assert len(series9.terms) == 4  # a^4 = 0 prunes everything past order 3
    assert series3.tail_bound == 0.0


def test_build_tp_series_requires_conditions():
    model = lb.LindbladModel(PAULI["X"], (np.array([[0, 1], [0, 0]], dtype=complex),), (1.0,))
    with pytest.raises(kraus.ConditionError):
        kraus.build_tp_series(model, 1.0, 2)
    with pytest.raises(ValueError):
        kraus.build_tp_series(models.build_model("qho-damped").model, 1.0, -1)


def test_tp_series_matches_oracle_qho(qho_spec, initial_states):
    rho0 = initial_states["qho-oscillating"].density()
    for t in np.linspace(0.0, 3.0, 7):
        series = kraus.build_tp_series(qho_spec.model, t, 3)
        out = kraus.apply_series(series, rho0)
        oracle = lb.exact_evolve(qho_spec.model, rho0, t)
        assert trace_distance(out, oracle) < 1e-9


def test_tp_series_matches_oracle_schwinger(schwinger_spec, initial_states):
    rho0 = initial_states["schwinger-jz"].density()
    for t in (0.5, 1.0, 2.0):
        series = kraus.build_tp_series(schwinger_spec.model, t, 20)
        out = kraus.apply_series(series, rho0)
        oracle = lb.exact_evolve(schwinger_spec.model, rho0, t)
        assert trace_distance(out, oracle) < 1e-8


def test_apply_series_identity_only(initial_states):
    rho0 = initial_states["pauli-xx-zz"].density()
    series = kraus.KrausSeries(
        (kraus.KrausTerm(0, (), 1.0, np.eye(4, dtype=complex)),), 0, 0.0, 4
    )
    out = kraus.apply_series(series, rho0)
    assert np.abs(out.matrix - rho0.matrix).max() == 0.0


def test_apply_series_trace_monotone_in_order(schwinger_spec, initial_states):
    rho0 = initial_states["schwinger-jz"].density()
    traces = []
    for order in (0, 1, 2, 4, 8):
        series = kraus.build_tp_series(schwinger_spec.model, 1.5, order)
        traces.append(np.trace(kraus.apply_series(series, rho0).matrix).real)
    assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))
    assert traces[-1] <= 1 + 1e-9


def test_apply_series_renormalize(schwinger_spec, initial_states):
    rho0 = initial_states["schwinger-jz"].density()
    series = kraus.build_tp_series(schwinger_spec.model, 1.5, 1)
    out = kraus.apply_series(series, rho0, renormalize=True)
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_gen_hyperbolic_closed_forms():
    assert kraus.gen_hyperbolic(2, 0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert kraus.gen_hyperbolic(2, 0, 1.0, 0.7) == pytest.approx(np.cosh(0.7), abs=1e-12)
    assert kraus.gen_hyperbolic(2, 1, 1.0, np.log(2)) == pytest.approx(0.75, abs=1e-12)
    assert kraus.gen_hyperbolic(1, 0, 1.0, 1.0) == pytest.approx(np.e, abs=1e-12)
    assert kraus.gen_hyperbolic(3, 2, 0.0, 0.9) == pytest.approx(0.9**2 / 2, abs=1e-12)


def test_gen_hyperbolic_validation():
    with pytest.raises(ValueError):
        kraus.gen_hyperbolic(2, 2, 1.0, 0.5)
    with pytest.raises(ValueError):
        kraus.gen_hyperbolic(2, 0, -1.0, 0.5)


def test_reduced_series_evaluates_each_weight_once(pauli_spec, monkeypatch):
    original = kraus.gen_hyperbolic
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    prep = kraus.prepare(pauli_spec.model)
    monkeypatch.setattr(kraus, "gen_hyperbolic", counted)
    series = kraus.build_reduced_series(prep, 0.4)
    assert len(series.terms) == 16
    assert len(calls) == sum(prep.structure.periods) == 8


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.floats(min_value=0.0, max_value=5.0))
def test_gen_hyperbolic_partition_identity(ell, x):
    total = sum(kraus.gen_hyperbolic(ell, m, 1.0, x) for m in range(ell))
    assert total == pytest.approx(np.exp(x), rel=1e-10)
    squares = sum(kraus.gen_hyperbolic(ell, m, 1.0, x) ** 2 for m in range(ell))
    assert squares <= np.exp(2 * x) * (1 + 1e-10)


def test_detect_group_structure_paulis(pauli_spec):
    structure = kraus.detect_group_structure(pauli_spec.model)
    assert structure.periods == (2, 2, 2, 2)
    assert structure.thetas == (1.0, 1.0, 1.0, 1.0)
    assert structure.nilpotent == (False, False, False, False)


def test_detect_group_structure_nilpotent(qho_spec):
    structure = kraus.detect_group_structure(qho_spec.model)
    assert structure.periods == (4,)
    assert structure.thetas == (0.0,)


def test_detect_group_structure_cube_roots():
    op = np.diag([1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)])
    model = lb.LindbladModel(np.zeros((3, 3)), (op,), (1.0,))
    structure = kraus.detect_group_structure(model)
    assert structure.periods == (3,)
    assert structure.thetas[0] == pytest.approx(1.0, abs=1e-12)


def test_detect_group_structure_absent(schwinger_spec):
    assert kraus.detect_group_structure(schwinger_spec.model) is None


def test_detect_group_structure_needs_phase_commutation():
    # X and the qubit lowering operator do not commute even up to a phase
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    model = lb.LindbladModel(np.zeros((2, 2)), (PAULI["X"], lower), (1.0, 1.0))
    assert kraus.detect_group_structure(model) is None


def test_reduced_series_identity_at_zero(pauli_spec, initial_states):
    series = kraus.build_reduced_series(pauli_spec.model, 0.0)
    surviving = [term for term in series.terms if term.weight > 0]
    assert len(surviving) == 1
    assert surviving[0].indices == ()
    rho0 = initial_states["pauli-xx-zz"].density()
    out = kraus.apply_series(series, rho0)
    assert np.abs(out.matrix - rho0.matrix).max() < 1e-12


def test_reduced_series_matches_oracle(pauli_spec, initial_states):
    rho0 = initial_states["pauli-xx-zz"].density()
    series = kraus.build_reduced_series(pauli_spec.model, 1.0)
    assert len(series.terms) == 16
    out = kraus.apply_series(series, rho0)
    oracle = lb.exact_evolve(pauli_spec.model, rho0, 1.0)
    assert trace_distance(out, oracle) < 1e-10


def test_reduced_series_single_dephasing_closed_form():
    gamma, t = 0.4, 0.9
    model = lb.LindbladModel(np.zeros((2, 2)), (PAULI["Z"],), (gamma,))
    series = kraus.build_reduced_series(model, t)
    weights = {term.indices: term.weight for term in series.terms}
    scale = np.exp(-gamma * t / 2)
    assert weights[()] * scale == pytest.approx(np.sqrt((1 + np.exp(-2 * gamma * t)) / 2), abs=1e-12)
    assert weights[(0,)] * scale == pytest.approx(np.sqrt((1 - np.exp(-2 * gamma * t)) / 2), abs=1e-12)
    plus = np.ones((2, 2), dtype=complex) / 2
    out = kraus.apply_series(series, plus)
    assert out.matrix[0, 1].real == pytest.approx(0.5 * np.exp(-2 * gamma * t), abs=1e-12)


def test_reduced_series_unital(pauli_spec, qho_spec):
    cube_root = np.diag([1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3), 1.0])
    diag_model = lb.LindbladModel(np.zeros((4, 4)), (cube_root,), (0.7,))
    for model in (pauli_spec.model, qho_spec.model, diag_model):
        series = kraus.build_reduced_series(model, 0.8)
        acc = np.zeros((model.dim, model.dim), dtype=complex)
        for term in series.terms:
            mat = term.matrix
            acc += mat.conj().T @ mat
        assert np.abs(acc - np.eye(model.dim)).max() < 1e-9


def test_reduced_series_matches_truncated_for_nilpotent(qho_spec, initial_states):
    rho0 = initial_states["qho-oscillating"].density()
    reduced = kraus.build_reduced_series(qho_spec.model, 1.1)
    truncated = kraus.build_tp_series(qho_spec.model, 1.1, 3)
    assert len(reduced.terms) == len(truncated.terms)
    a = kraus.apply_series(reduced, rho0)
    b = kraus.apply_series(truncated, rho0)
    assert trace_distance(a, b) < 1e-12


def test_prepare_returns_a_prepared_model_unchanged(pauli_spec):
    prep = kraus.prepare(pauli_spec.model)
    assert kraus.prepare(prep) is prep
    assert prep.model is pauli_spec.model
    # conditions (i)/(ii) unmet: no shared eigenbasis
    transverse = lb.LindbladModel(PAULI["X"], (np.array([[0, 1], [0, 0]]),), (1.0,))
    assert kraus.prepare(transverse).spectrum is None


def _series_key(series):
    return (
        series.truncation_order,
        series.tail_bound,
        [(term.indices, term.weight) for term in series.terms],
    )


@pytest.mark.parametrize(
    "key, variant",
    [("pauli-xx-zz", "reduced"), ("qho-damped", "reduced"), ("schwinger-jz", "truncated")],
)
def test_build_series_auto_picks_reduced_exactly_with_structure(key, variant):
    # order 1 keeps the truncated series distinct from the exact reduced one
    prep = kraus.prepare(models.build_model(key).model)
    auto = kraus.build_series(prep, 0.6, "auto", 1)
    assert _series_key(auto) == _series_key(kraus.build_series(prep, 0.6, variant, 1))
    with pytest.raises(ValueError):
        kraus.build_series(prep, 0.6, "factored", 1)


def test_reduced_series_requires_structure(schwinger_spec):
    with pytest.raises(kraus.ConditionError):
        kraus.build_reduced_series(schwinger_spec.model, 1.0)


def test_factored_channel_matches_reduced(pauli_spec, initial_states, rng):
    rho0 = initial_states["pauli-xx-zz"].density()
    for t in (0.3, 1.0, 2.0):
        reduced = kraus.apply_series(kraus.build_reduced_series(pauli_spec.model, t), rho0)
        factored = kraus.apply_factored_evolution(pauli_spec.model, t, rho0)
        assert trace_distance(reduced, factored) < 1e-9
    for _ in range(3):
        rho = random_density(rng, 4)
        a = kraus.apply_series(kraus.build_reduced_series(pauli_spec.model, 0.7), rho)
        b = kraus.apply_factored_evolution(pauli_spec.model, 0.7, rho)
        assert trace_distance(a, b) < 1e-9


def test_factored_requires_abelian(qho_spec):
    with pytest.raises(kraus.ConditionError):
        kraus.apply_factored_evolution(qho_spec.model, 1.0, np.eye(4) / 4)


def test_random_abelian_model_round_trip(rng, initial_states):
    # random subset of commuting-up-to-phase Pauli strings with random rates
    strings = ["ZI", "IX", "YY"]
    gammas = rng.uniform(0.2, 1.5, size=3)
    model = models.pauli_channel_model(strings, gammas)
    rho = random_density(rng, 4)
    for t in (0.4, 1.2):
        reduced = kraus.apply_series(kraus.build_reduced_series(model, t), rho)
        factored = kraus.apply_factored_evolution(model, t, rho)
        oracle = lb.exact_evolve(model, rho, t)
        assert trace_distance(reduced, oracle) < 1e-9
        assert trace_distance(factored, oracle) < 1e-9


def test_series_json_round_trip(qho_spec):
    series = kraus.build_tp_series(qho_spec.model, 1.0, 3)
    back = from_doc(kraus.KrausSeries, json.loads(json.dumps(to_doc(series))))
    assert back.truncation_order == series.truncation_order
    assert back.tail_bound == series.tail_bound
    assert len(back.terms) == len(series.terms)
    for a, b in zip(back.terms, series.terms):
        assert a.indices == b.indices
        assert a.weight == pytest.approx(b.weight, abs=1e-15)
        assert np.abs(a.operator - b.operator).max() < 1e-15


def test_term_ordering_is_lexicographic(pauli_spec):
    series = kraus.build_tp_series(pauli_spec.model, 0.5, 2)
    keys = [(term.order, term.indices) for term in series.terms]
    assert keys == sorted(keys)
