import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from kraussim import circuits, kraus, lindblad as lb, models
from kraussim.matkernel import PAULI, QuantumState, from_doc, to_doc, trace_distance

from conftest import random_density, random_state


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
    # the saturating branch is the cancellation-free closed form
    if alpha * t > 0:
        closed = -np.expm1(-alpha * t) / alpha
        assert kraus.f_of_t(alpha, t) == pytest.approx(closed, abs=1e-12 * max(t, 1.0))


def test_effective_hamiltonian_unitary_lindblad():
    model = lb.LindbladModel(np.zeros((2, 2)), (PAULI["Z"],), (1.0,))
    assert np.abs(lb.effective_hamiltonian(model) + 0.5j * np.eye(2)).max() < 1e-14


def test_effective_hamiltonian_pauli_model(pauli_spec):
    h_eff = lb.effective_hamiltonian(pauli_spec.model)
    assert np.abs(h_eff + 1.1j * np.eye(4)).max() < 1e-12


def test_effective_hamiltonian_oscillator(qho_spec):
    h_eff = lb.effective_hamiltonian(qho_spec.model)
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


def test_effective_evolution_requires_shared_eigenbasis():
    # H = X does not commute with the dissipator of sigma^-, so condition (i) fails
    model = lb.LindbladModel(PAULI["X"], (np.array([[0, 1], [0, 0]], dtype=complex),), (1.0,))
    with pytest.raises(kraus.ConditionError):
        kraus.effective_evolution(model, 0.5)


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


def test_series_tail_matches_the_incomplete_gamma_function():
    # sum_{m > order} x^m / m! = e^x P(order + 1, x), P the regularized lower incomplete gamma function
    xs = np.logspace(-8, 1.5, 60)
    for order in range(64):
        want = np.minimum(np.exp(xs) * scipy.special.gammainc(order + 1, xs), 1.0)
        got = np.array([kraus._series_tail(float(x), order) for x in xs])
        # below the normal range (tiny, 2.2e-308) a float has no relative precision left
        assert np.all(np.abs(got - want) <= 1e-12 * want + np.finfo(float).tiny), order
    for order in (0, 5):
        assert kraus._series_tail(0.0, order) == 0.0
        assert kraus._series_tail(-1.0, order) == 0.0
        assert kraus._series_tail(50.0, order) == 1.0
    assert kraus._series_tail(30.0, 40) == 1.0  # the sum exceeds 1 below x = order + 1


def test_build_tp_series_tail_bound_is_clipped_at_one(qho_spec):
    # e^x P(3, x) exceeds 1 from t of about 0.74 on; a trace distance never does
    assert kraus.build_tp_series(qho_spec.model, 3.0, 2).tail_bound == 1.0


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


def test_gen_hyperbolic_closed_forms():
    assert kraus.gen_hyperbolic(2, 0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert kraus.gen_hyperbolic(2, 0, 1.0, 0.7) == pytest.approx(np.cosh(0.7), abs=1e-12)
    assert kraus.gen_hyperbolic(2, 1, 1.0, np.log(2)) == pytest.approx(0.75, abs=1e-12)
    assert kraus.gen_hyperbolic(1, 0, 1.0, 1.0) == pytest.approx(np.e, abs=1e-12)
    assert kraus.gen_hyperbolic(3, 2, 0.0, 0.9) == pytest.approx(0.9**2 / 2, abs=1e-12)


def _exact_gen_hyperbolic(ell, m, theta, x):
    """F_{l,m}(x) in exact rationals, summed until a term falls below 1e-30 of the sum."""
    x, theta = Fraction(x), Fraction(theta)
    total, n = Fraction(0), m
    while True:
        term = theta ** ((n - m) // ell) * x**n / math.factorial(n)
        total += term
        if term == 0 or term < total * Fraction(1, 10**30):
            return total
        n += ell


def test_gen_hyperbolic_matches_exact_partial_sums():
    # the roots-of-unity form cancelled at small x: a factor 78 off at l = 6, m = 5, x = 1e-3
    for ell in range(1, 7):
        for m in range(ell):
            for theta in (0.0, 0.5, 1.0):
                for x in (1e-6, 1e-3, 0.05, 0.5, 2.0, 10.0):
                    want = _exact_gen_hyperbolic(ell, m, theta, x)
                    got = kraus.gen_hyperbolic(ell, m, theta, x)
                    assert abs(Fraction(got) - want) <= Fraction(1e-14) * want, (ell, m, theta, x)


def test_clock_operator_cubic_weight_is_exact():
    # the period-4 clock operator diag(1, i, -1, -i); its cubic term weighs sqrt(F_{4,3}(gamma f(t)))
    model = lb.LindbladModel(np.zeros((4, 4), dtype=complex), (np.diag([1, 1j, -1, -1j]),), (1.0,))
    prep = kraus.prepare(model)
    assert prep.structure.periods == (4,)
    t = 1e-4
    weights = {term.indices: term.weight for term in kraus.build_reduced_series(prep, t).terms}
    x = prep.rescaled.gammas[0] * kraus.f_of_t(prep.report.alpha, t)
    want = math.sqrt(_exact_gen_hyperbolic(4, 3, 1.0, x))
    assert weights[(0, 0, 0)] == pytest.approx(want, rel=1e-14)


def test_near_degenerate_cluster_keeps_each_vector_energy():
    # energies 1 and 1 + 1e-8 form one cluster, which the dissipator's eigenvectors rotate; a
    # one-ulp error in |w|^2 makes eigh swap the two vectors, so each must take its own energy
    w = np.exp(2j * np.pi / 3)
    model = lb.LindbladModel(np.diag([0.0, 1.0 + 1e-8, 1.0]).astype(complex), (np.diag([1, w, 1]),), (1.0,))
    u, energies, _ = kraus.effective_spectrum(model)
    assert np.abs((u * energies) @ u.conj().T - model.hamiltonian).max() < 1e-15
    rho = QuantumState(np.ones(3) / np.sqrt(3)).density()
    oracle = lb.exact_evolve(model, rho, 1.0)
    reduced = kraus.apply_series(kraus.build_reduced_series(model, 1.0), rho)
    assert trace_distance(reduced, oracle) < 1e-9
    assert trace_distance(kraus.apply_factored_evolution(model, 1.0, rho), oracle) < 1e-9


def test_gen_hyperbolic_validation():
    with pytest.raises(ValueError):
        kraus.gen_hyperbolic(2, 2, 1.0, 0.5)
    with pytest.raises(ValueError):
        kraus.gen_hyperbolic(2, 0, -1.0, 0.5)
    with pytest.raises(ValueError):
        kraus.gen_hyperbolic(2, 0, 1.0, float("nan"))  # refused, not summed to 0


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


def test_nilpotency_of_a_small_but_exact_power_is_not_assumed():
    # the unit-norm ladder operator at d = 64 has a^59 ~ 7.6e-11 and a^63 ~ 9e-14, both
    # formed exactly; only a^64 vanishes, so auto keeps orders 59-63 and matches the oracle
    model = models.build_model("qho-damped", n_max=63).model
    assert kraus.detect_group_structure(model).periods == (64,)
    rho0 = random_density(np.random.default_rng(63), model.dim)
    oracle = list(lb.exact_trajectory(model, rho0, 0.0, 2.0, 2))[-1]
    series = kraus.build_series(model, 2.0, "auto", 0)
    assert series.truncation_order == 63 and series.tail_bound == 0.0
    assert trace_distance(kraus.apply_series(series, rho0), oracle) < 1e-9


def test_rotated_nilpotent_is_detected_at_rounding_level():
    # in a random basis a^(n_max+1) is rounding residue, not an exact zero
    # (so neither test alone, |P| against |L|^l or against the unit norm, can be dropped)
    a = models.build_model("qho-damped", n_max=31).model.lindblads[0]
    q = np.linalg.qr(random_state(np.random.default_rng(0), 1024).reshape(32, 32))[0]
    model = lb.LindbladModel(np.zeros((32, 32)), (q @ a @ q.conj().T,), (1.0,))
    assert kraus.detect_group_structure(model) == kraus.GroupStructure((32,), (0.0,))


def test_series_weight_overflow_is_a_condition_error(pauli_spec):
    x_model = lb.LindbladModel(np.zeros((2, 2)), (PAULI["X"],), (1.0,))
    cases = [
        (pauli_spec.model, "reduced", 0),
        (x_model, "truncated", 120),  # 800^120 overflows a float power
    ]
    for model, variant, order in cases:
        trajectory = kraus.series_trajectory(model, [1.0, 800.0], variant, order)
        next(trajectory)
        with pytest.raises(kraus.ConditionError, match="overflow at t=800"):
            next(trajectory)
    assert np.isfinite(kraus.factor_weights(1.0, 2, 700.0)).all()
    with pytest.raises(kraus.ConditionError, match="overflow at t=800"):
        kraus.factor_weights(1.0, 2, 800.0)


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


@pytest.mark.parametrize(
    "key, params",
    [("pauli-xx-zz", {}), ("schwinger-jz", {}), ("qho-damped", {}), ("qho-cat", {}), ("qho-damped", {"n_max": 15})],
)
def test_series_trajectory_matches_pointwise(key, params):
    prep = kraus.prepare(models.build_model(key, **params).model)
    for variant in ("reduced", "truncated", "auto"):
        if variant == "reduced" and prep.structure is None:
            with pytest.raises(kraus.ConditionError):
                next(kraus.series_trajectory(prep, [0.5], variant, 3))
            continue
        for ts in (np.linspace(0.0, 2.0, 5), np.linspace(0.7, 1.9, 4), [1.3]):
            trajectory = list(kraus.series_trajectory(prep, ts, variant, 3))
            assert len(trajectory) == len(ts)
            for t, series in zip(ts, trajectory):
                want = kraus.build_series(prep, float(t), variant, 3)
                assert _series_key(series) == _series_key(want)
                assert [term.order for term in series.terms] == [term.order for term in want.terms]
                for a, b in zip(series.terms, want.terms):
                    assert np.array_equal(a.operator, b.operator)
        with pytest.raises(ValueError):
            list(kraus.series_trajectory(prep, [0.5, -0.1], variant, 3))


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


@st.composite
def pauli_channels(draw):
    """Up to three distinct non-identity Pauli strings on 1-3 qubits with random rates.

    Any two Pauli strings commute or anticommute, so every such set commutes up to phase.
    """
    n = draw(st.integers(1, 3))
    label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda s: s != "I" * n)
    strings = draw(st.lists(label, min_size=1, max_size=3, unique=True))
    gammas = draw(st.lists(st.floats(0.05, 1.5), min_size=len(strings), max_size=len(strings)))
    return models.pauli_channel_model(strings, gammas)


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model=pauli_channels(), seed=SEEDS, t=st.floats(0.0, 2.0))
def test_random_abelian_model_round_trip(model, seed, t):
    psi = QuantumState(random_state(np.random.default_rng(seed), model.dim))
    rho = psi.density()
    oracle = lb.exact_evolve(model, rho, t)
    prep = kraus.prepare(model)
    series = kraus.build_series(prep, t, "reduced", 0)
    paths = {
        "reduced": kraus.apply_series(series, rho),
        "factored": kraus.apply_factored_evolution(prep, t, rho),
        "group circuit": circuits.apply_group_circuit(circuits.build_group_circuit(prep, t), psi),
        "term circuits": circuits.execute_series_tomography(prep, series, t, psi)[0],
    }
    for name, out in paths.items():
        assert trace_distance(out, oracle) < 1e-9, name
    assert np.linalg.norm(kraus.effective_evolution(prep, t), 2) <= 1 + 1e-12


@st.composite
def clock_models(draw):
    """1-2 commuting diagonal clock operators ``diag(w^k)`` with ``w = exp(2 pi i / p)``, p in 3..8.

    ``k`` starts with 0, 1, so each operator's period is exactly ``p``.  Group
    detection searches periods up to the dimension, so ``d`` runs from ``p``
    to 8.  The rates are random and the Hamiltonian is zero.
    """
    dim = draw(st.integers(3, 8))
    ops = []
    for _ in range(draw(st.integers(1, 2))):
        period = draw(st.integers(3, dim))
        powers = [0, 1] + draw(st.lists(st.integers(0, period - 1), min_size=dim - 2, max_size=dim - 2))
        ops.append(np.diag(np.exp(2j * np.pi * np.array(powers) / period)))
    gammas = draw(st.lists(st.floats(0.05, 1.5), min_size=len(ops), max_size=len(ops)))
    return lb.LindbladModel(np.zeros((dim, dim), dtype=complex), tuple(ops), tuple(gammas))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=clock_models(), seed=SEEDS, t=st.floats(0.0, 2.0))
def test_random_clock_model_round_trip(model, seed, t):
    psi = QuantumState(random_state(np.random.default_rng(seed), model.dim))
    rho = psi.density()
    oracle = lb.exact_evolve(model, rho, t)
    prep = kraus.prepare(model)
    assert min(prep.structure.periods) >= 3
    assert np.linalg.norm(kraus.effective_evolution(prep, t), 2) <= 1 + 1e-12
    series = kraus.build_series(prep, t, "reduced", 0)
    paths = {
        "reduced": kraus.apply_series(series, rho),
        "factored": kraus.apply_factored_evolution(prep, t, rho),
    }
    num_qubits = model.dim.bit_length() - 1
    if model.dim == 2**num_qubits:
        paths["group circuit"] = circuits.apply_group_circuit(circuits.build_group_circuit(prep, t), psi)
        # a term circuit holds the system, one ancilla per operator and one for T(t)
        if num_qubits + series.truncation_order + 1 <= circuits.DEFAULT_ANCILLA_BUDGET:
            paths["term circuits"] = circuits.execute_series_tomography(prep, series, t, psi)[0]
    for name, out in paths.items():
        assert trace_distance(out, oracle) < 1e-9, name


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_max=st.integers(1, 5),
    omega=st.floats(0.0, 2.0),
    gamma=st.floats(0.05, 1.5),
    seed=SEEDS,
    t=st.floats(0.0, 3.0),
)
def test_random_damped_mode_round_trip(n_max, omega, gamma, seed, t):
    # a^(n_max + 1) = 0 ends the series at order n_max; a nilpotent model has no factored form
    model = models.damped_qho_model(omega, gamma, n_max)
    rho = random_density(np.random.default_rng(seed), model.dim)
    oracle = lb.exact_evolve(model, rho, t)
    prep = kraus.prepare(model)
    for variant in ("reduced", "truncated"):
        out = kraus.apply_series(kraus.build_series(prep, t, variant, n_max), rho)
        assert trace_distance(out, oracle) < 1e-9, variant
    with pytest.raises(kraus.ConditionError):
        kraus.apply_factored_evolution(prep, t, rho)
    with pytest.raises(kraus.ConditionError):
        circuits.build_group_circuit(prep, t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(channel=pauli_channels(), seed=SEEDS)
def test_random_hamiltonian_breaks_the_conditions(channel, seed):
    a = np.random.default_rng(seed).normal(size=(2, channel.dim, channel.dim))
    h = (a[0] + 1j * a[1]) + (a[0] + 1j * a[1]).conj().T
    model = lb.LindbladModel(h, channel.lindblads, channel.gammas)
    for variant in ("auto", "reduced", "truncated"):
        with pytest.raises(kraus.ConditionError):
            next(kraus.series_trajectory(model, [0.5], variant, 2))


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
