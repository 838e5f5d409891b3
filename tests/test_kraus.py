import functools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from kraussim import circuits, kraus, lindblad as lb, mitigation as mit, models
from kraussim.matkernel import PAULI, QuantumState, from_doc, to_doc, trace_distance

from conftest import assert_json_round_trip, haar_rotated, random_density, random_state


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


@pytest.mark.parametrize("t", [math.inf, math.nan, -0.5, True, "0.5"], ids=["inf", "nan", "negative", "boolean", "string"])
def test_evolution_times_are_finite_real_numbers_that_are_not_negative(pauli_spec, t):
    # one time rule for every route; a non-finite time used to give a series of NaN terms
    message = "evolution time must be nonnegative" if t == -0.5 else f"evolution time must be a finite real number, got {t!r}"
    rho = np.eye(4) / 4
    series = kraus.build_series(pauli_spec.model, 0.5, "reduced", 0)
    psi = QuantumState(np.eye(4)[0])
    for build in (
        lambda: kraus.build_series(pauli_spec.model, t, "truncated", 3),
        lambda: kraus.effective_evolution(pauli_spec.model, t),
        lambda: kraus.apply_factored_evolution(pauli_spec.model, t, rho),
        lambda: kraus.f_of_t(1.0, t),
        lambda: circuits.build_group_circuit(pauli_spec.model, t),
        lambda: circuits.build_kraus_circuit(series.terms[-1], pauli_spec.model, t),
        lambda: circuits.execute_series_tomography(pauli_spec.model, series, t, psi),
        lambda: next(lb.trotter_trajectory(pauli_spec.model, rho, [t], 4)),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


# route -> (a call of it on a state, what a state of another dimension does not match); every
# model, series and channel has dimension 4
XX_ZZ = models.build_model("pauli-xx-zz").model
STATE_ROUTES = {
    "exact_trajectory": (lambda rho: next(lb.exact_trajectory(XX_ZZ, rho, 0.0, 1.0, 3)), "the model"),
    "trotter_trajectory": (lambda rho: next(lb.trotter_trajectory(XX_ZZ, rho, [0.0], 4)), "the model"),
    "apply_series": (lambda rho: kraus.apply_series(kraus.build_tp_series(XX_ZZ, 0.5, 1), rho), "the series"),
    "apply_factored_evolution": (lambda rho: kraus.apply_factored_evolution(XX_ZZ, 0.5, rho), "the model"),
    "apply_qdc": (lambda rho: mit.apply_qdc(mit.DepolarizingChannel(2, 0.1), rho), "the 2-qubit channel"),
    "apply_pauli_channel": (
        lambda rho: mit.apply_pauli_channel(mit.PauliChannel(2, np.eye(16)[0]), rho),
        "the 2-qubit channel",
    ),
    "invert_channel": (lambda rho: mit.invert_channel(mit.DepolarizingChannel(2, 0.1), rho), "the 2-qubit channel"),
    "parity_twirl": (lambda rho: mit.parity_twirl(rho, models.fock_parity_operator(4)), "the parity operator"),
    "fit_pauli_channel": (
        lambda rho: mit.fit_pauli_channel([(np.eye(4) / 4, np.eye(4) / 4), (rho, rho)]),
        "the first pair",
    ),
}


@pytest.mark.parametrize("route, what", STATE_ROUTES.values(), ids=STATE_ROUTES)
def test_a_state_of_another_dimension_is_refused_by_every_route(route, what):
    # one state rule for every route; the Trotter route used to return the 2 x 2 input at t = 0
    route(np.eye(4) / 4)
    with pytest.raises(ValueError, match=f"^{re.escape(f'state of shape (2, 2) does not match {what}')}$"):
        route(np.eye(2) / 2)


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
    assert np.abs(out - t_op @ rho0.matrix @ t_op.conj().T).max() < 1e-12


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
        assert kraus._series_tail(xs, order).tobytes() == got.tobytes()  # a block's tails are its points'
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
    series = kraus.KrausSeries(((),), (0,), np.ones(1), np.eye(4, dtype=complex)[None], 0, 0.0)
    out = kraus.apply_series(series, rho0)
    assert np.abs(out - rho0.matrix).max() == 0.0


def test_apply_series_trace_monotone_in_order(schwinger_spec, initial_states):
    rho0 = initial_states["schwinger-jz"].density()
    traces = []
    for order in (0, 1, 2, 4, 8):
        series = kraus.build_tp_series(schwinger_spec.model, 1.5, order)
        traces.append(np.trace(kraus.apply_series(series, rho0)).real)
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
    x = prep.normalized.gammas[0] * kraus.f_of_t(prep.report.alpha, t)
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
    # one root sqrt(F_{l,m}) per (operator, power) and point, however the sums are batched
    original = kraus._positive_series
    evaluated = []

    def counted(x, first, *args):
        evaluated.append(np.broadcast(x, first).size)
        return original(x, first, *args)

    prep = kraus.prepare(pauli_spec.model)
    monkeypatch.setattr(kraus, "_positive_series", counted)
    series = kraus.build_reduced_series(prep, 0.4)
    assert len(series.terms) == 16
    assert sum(evaluated) == sum(prep.structure.periods) == 8
    evaluated.clear()
    (block,) = kraus.series_trajectory(prep, [0.4, 0.5, 0.6], "reduced", 0, lambda _terms: 3)
    assert block.weights.shape == (3, 16) and sum(evaluated) == 3 * 8


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


@pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
def test_power_law_off_the_unit_circle_gets_no_structure_and_fails_condition_iv(c):
    # L^2 = c I with ||L|| = 1 and |c| < 1: L is neither nilpotent nor normal, so [L^dag L, L] = lambda L fails
    model = lb.LindbladModel(np.zeros((2, 2)), (np.array([[0, 1], [c, 0]], dtype=complex),), (1.0,))
    assert kraus.detect_group_structure(model) is None
    prep = kraus.prepare(model)
    assert prep.structure is None
    assert prep.report.failing() == ["iv"]


def _ket_bra(dim: int, row: int, col: int) -> np.ndarray:
    op = np.zeros((dim, dim), dtype=complex)
    op[row, col] = 1.0
    return op


# id -> (jump operators, gammas, the structure detect_group_structure finds); the pairwise branches
PAIRWISE_STRUCTURE_CASES = {
    "both-products-vanish": (
        (_ket_bra(2, 0, 1), _ket_bra(2, 0, 1)), (1.0, 1.0), kraus.GroupStructure((2, 2), (0.0, 0.0))
    ),
    "one-product-vanishes": ((_ket_bra(3, 0, 1), _ket_bra(3, 1, 2)), (1.0, 2.0), None),
    "products-not-proportional": ((PAULI["X"], (PAULI["X"] + PAULI["Z"]) / np.sqrt(2)), (1.0, 1.0), None),
}


@pytest.mark.parametrize("ops, gammas, want", PAIRWISE_STRUCTURE_CASES.values(), ids=PAIRWISE_STRUCTURE_CASES)
def test_detect_group_structure_pairwise_branches(ops, gammas, want):
    model = lb.LindbladModel(np.zeros_like(ops[0]), ops, gammas)
    assert kraus.detect_group_structure(model) == want


def test_model_without_structure_runs_a_terminating_truncated_series(rng):
    # |0><1| and |1><2| with gammas (1, 2) meet all four conditions, but L1 L2 = |0><2| while
    # L2 L1 = 0, so no structure is found; auto builds the truncated series, whose products end
    ops, gammas, _want = PAIRWISE_STRUCTURE_CASES["one-product-vanishes"]
    model = lb.LindbladModel(np.zeros((3, 3)), ops, gammas)
    prep = kraus.prepare(model)
    assert prep.report.all_satisfied and prep.structure is None
    rho0 = random_density(rng, 3)
    for t in (0.3, 1.0, 2.5):
        series = kraus.build_series(model, t, "auto", 10)
        assert [term.indices for term in series.terms] == [(), (0,), (1,), (0, 1)]
        assert series.tail_bound == 0.0
        assert trace_distance(kraus.apply_series(series, rho0), lb.exact_evolve(model, rho0, t)) < 1e-12


def test_reduced_series_identity_at_zero(pauli_spec, initial_states):
    series = kraus.build_reduced_series(pauli_spec.model, 0.0)
    surviving = [term for term in series.terms if term.weight > 0]
    assert len(surviving) == 1
    assert surviving[0].indices == ()
    rho0 = initial_states["pauli-xx-zz"].density()
    out = kraus.apply_series(series, rho0)
    assert np.abs(out - rho0.matrix).max() < 1e-12


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
    assert out[0, 1].real == pytest.approx(0.5 * np.exp(-2 * gamma * t), abs=1e-12)


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


def _lone_positive_series(x: float, first: int, stride: int, ratio: float) -> float:
    """The float-by-float evaluation that the array one must match: the sum of ``kraus._positive_series``
    taken on one Python float."""
    term = math.prod(x / n for n in range(1, first + 1))
    total, n = 0.0, first
    while total + term > total:
        total += term
        term *= ratio
        for _ in range(stride):
            n += 1
            term *= x / n
    return total


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("ratio", [1.0, 0.0])
def test_positive_series_on_an_array_matches_each_lone_evaluation_bit_for_bit(first, ratio):
    # each element stops on its own, so a block of weights is the weights of its points
    edges = [0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 3.0, 40.0, 709.0, 712.0, 1500.0]
    x = np.concatenate([edges, np.geomspace(1e-6, 800, 57)])
    got = kraus._positive_series(x, first, 2, ratio)
    want = np.array([_lone_positive_series(value, first, 2, ratio) for value in x.tolist()])
    assert got.shape == x.shape and got.tobytes() == want.tobytes()
    assert kraus._positive_series(x[:7].reshape(7, 1), first, 2, ratio).tobytes() == want[:7].tobytes()
    for value, lone in zip(x.tolist(), want.tolist()):
        assert kraus._positive_series(value, first, 2, ratio) == lone or math.isnan(lone)
    # one call over several first powers, as the reduced series takes each power law's
    firsts = np.arange(4)[:, np.newaxis]
    many = kraus._positive_series(x, firsts + first, 2, ratio)
    want = [[_lone_positive_series(value, m + first, 2, ratio) for value in x.tolist()] for m in range(4)]
    assert many.shape == (4, x.size) and many.tobytes() == np.array(want).tobytes()


def test_series_blocks_are_the_points_stacked(pauli_spec, qho_spec):
    # a block of b points carries each point's rows, weights, operators and tail bound; blocks split
    # where the kept rows change (t = 0 keeps only the identity) and hold at most the asked points
    ts = np.linspace(0.0, 2.0, 11).tolist()
    for model, variant, order in ((pauli_spec.model, "reduced", 0), (qho_spec.model, "truncated", 2)):
        prep = kraus.prepare(model)
        points = list(kraus.series_trajectory(prep, ts, variant, order))
        blocks = list(kraus.series_trajectory(prep, ts, variant, order, lambda terms: 4))
        assert [len(block.weights) for block in blocks] == [1, 3, 4, 3]
        first = 0  # the block's first point
        for block in blocks:
            rho = random_density(np.random.default_rng(first), model.dim)
            parts = zip(block.weights, block.operators, block.tail_bound.tolist(), kraus.apply_series(block, rho))
            for point, (weights, operators, tail, state) in zip(points[first:], parts):
                assert block.table is blocks[0].table and block.table == point.table and block.rows == point.rows
                assert weights.tobytes() == point.weights.tobytes() and operators.tobytes() == point.operators.tobytes()
                assert tail == point.tail_bound
                assert state.tobytes() == kraus.apply_series(point, rho).tobytes()
            first += len(block.weights)
        assert first == len(ts)


def test_series_weight_overflow_inside_a_block_yields_the_points_before_it(pauli_spec):
    # the weights leave the float range between t = 600 and 650, as they do point by point: the
    # block of 400 .. 750 is cut there
    ts = np.linspace(0.0, 800.0, 17).tolist()
    trajectory = kraus.series_trajectory(pauli_spec.model, ts, "reduced", 0, lambda _terms: 8)
    assert [len(next(trajectory).weights) for _ in range(3)] == [1, 7, 5]
    with pytest.raises(kraus.ConditionError, match="overflow at t=650: gamma"):
        next(trajectory)


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
    assert prep.normalized.hamiltonian is pauli_spec.model.hamiltonian and prep.dim == pauli_spec.model.dim
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


def _abelian_round_trip(model, rng, t):
    psi = QuantumState(random_state(rng, model.dim))
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model=pauli_channels(), seed=SEEDS, t=st.floats(0.0, 2.0))
def test_random_abelian_model_round_trip(model, seed, t):
    _abelian_round_trip(model, np.random.default_rng(seed), t)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model=pauli_channels(), seed=SEEDS, t=st.floats(0.0, 2.0))
def test_random_rotated_abelian_model_round_trip(model, seed, t):
    # a rotated Pauli string is unitary but dense, so its dilation's off-diagonal blocks must vanish to rounding
    rng = np.random.default_rng(seed)
    _abelian_round_trip(haar_rotated(model, rng), rng, t)


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


def _clock_round_trip(model, rng, t):
    psi = QuantumState(random_state(rng, model.dim))
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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=clock_models(), seed=SEEDS, t=st.floats(0.0, 2.0))
def test_random_clock_model_round_trip(model, seed, t):
    _clock_round_trip(model, np.random.default_rng(seed), t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=clock_models(), seed=SEEDS, t=st.floats(0.0, 2.0))
def test_random_rotated_clock_model_round_trip(model, seed, t):
    rng = np.random.default_rng(seed)
    _clock_round_trip(haar_rotated(model, rng), rng, t)


def _damped_mode_round_trip(model, n_max, rng, t):
    # a^(n_max + 1) = 0 ends the series at order n_max; a nilpotent model has no factored form
    rho = random_density(rng, model.dim)
    oracle = lb.exact_evolve(model, rho, t)
    prep = kraus.prepare(model)
    for variant in ("reduced", "truncated"):
        out = kraus.apply_series(kraus.build_series(prep, t, variant, n_max), rho)
        assert trace_distance(out, oracle) < 1e-9, variant
    with pytest.raises(kraus.ConditionError):
        kraus.apply_factored_evolution(prep, t, rho)
    with pytest.raises(kraus.ConditionError):
        circuits.build_group_circuit(prep, t)
    if model.dim & (model.dim - 1) == 0:
        psi = QuantumState(random_state(rng, model.dim))
        series = kraus.build_series(prep, t, "reduced", n_max)
        out = circuits.execute_series_tomography(prep, series, t, psi)[0]
        assert trace_distance(out, lb.exact_evolve(model, psi.density(), t)) < 1e-9, "term circuits"


DAMPED_MODES = dict(n_max=st.integers(1, 5), omega=st.floats(0.0, 2.0), gamma=st.floats(0.05, 1.5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**DAMPED_MODES, seed=SEEDS, t=st.floats(0.0, 3.0))
def test_random_damped_mode_round_trip(n_max, omega, gamma, seed, t):
    model = models.damped_qho_model(omega, gamma, n_max)
    _damped_mode_round_trip(model, n_max, np.random.default_rng(seed), t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**DAMPED_MODES, seed=SEEDS, t=st.floats(0.0, 3.0))
def test_random_rotated_damped_mode_round_trip(n_max, omega, gamma, seed, t):
    rng = np.random.default_rng(seed)
    model = haar_rotated(models.damped_qho_model(omega, gamma, n_max), rng)
    _damped_mode_round_trip(model, n_max, rng, t)


@st.composite
def schwinger_models(draw):
    """The two-mode Schwinger model with random omega and rate, axis X, Y or Z, and per-mode cutoff 1 or 3.

    ``J_axis`` is Hermitian with a zero eigenvalue, so no power of it vanishes or is a multiple of I:
    the model has no power-law structure and ``auto`` runs the truncated series.  Its dimension, 4 or
    16, is a power of two, so its term circuits run too; at cutoff 3, or rotated, ``T(t)`` changes basis.
    """
    omega, gamma = draw(st.floats(0.0, 2.0)), draw(st.floats(0.05, 1.5))
    return models.schwinger_model(omega, draw(st.sampled_from("XYZ")), gamma, draw(st.sampled_from((1, 3))))


def _schwinger_round_trip(model, order, rng, t):
    # the truncated series and its infinite-shot term circuits both stay within the series' tail bound
    psi = QuantumState(random_state(rng, model.dim))
    oracle = lb.exact_evolve(model, psi.density(), t)
    prep = kraus.prepare(model)
    assert prep.structure is None
    series = kraus.build_series(prep, t, "auto", order)
    bound = series.tail_bound + 1e-9
    assert trace_distance(kraus.apply_series(series, psi.density()), oracle) <= bound, "truncated"
    out = circuits.execute_series_tomography(prep, series, t, psi)[0]  # at most 4 + 8 + 1 qubits
    assert trace_distance(out, oracle) <= bound, "term circuits"


SCHWINGER_CASES = dict(model=schwinger_models(), order=st.integers(0, 8), seed=SEEDS, t=st.floats(0.0, 2.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**SCHWINGER_CASES)
def test_random_schwinger_model_round_trip(model, order, seed, t):
    _schwinger_round_trip(model, order, np.random.default_rng(seed), t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**SCHWINGER_CASES)
def test_random_rotated_schwinger_model_round_trip(model, order, seed, t):
    rng = np.random.default_rng(seed)
    _schwinger_round_trip(haar_rotated(model, rng), order, rng, t)


def _table_round_trip(model, t, order):
    """Each point keeps exactly the table rows of nonzero weight, each weight the per-term formula of
    its variant, and stacks ``T(t) @ prod(L)`` of those rows bit for bit; the run shares one table."""
    prep = kraus.prepare(model)
    eye = np.eye(model.dim, dtype=complex)
    for variant in ("reduced", "truncated") if prep.structure is not None else ("truncated",):
        work = prep.normalized
        trajectory = list(kraus.series_trajectory(prep, [0.0, t], variant, order))
        for time, series in zip([0.0, t], trajectory):
            assert series.table is trajectory[0].table
            f_t = kraus.f_of_t(prep.report.alpha, time)
            weights = []
            for indices in series.table:
                if variant == "reduced":
                    structure, powers = prep.structure, [indices.count(n) for n in range(len(work.lindblads))]
                    roots = [
                        math.sqrt(kraus.gen_hyperbolic(ell, m, theta, g * f_t))
                        for ell, theta, g, m in zip(structure.periods, structure.thetas, work.gammas, powers)
                    ]
                    weights.append(math.prod(roots))
                else:
                    scale = math.sqrt(math.prod(work.gammas[k] for k in indices) / math.factorial(len(indices)))
                    weights.append(scale * math.sqrt(f_t ** len(indices)))
            assert series.rows == tuple(row for row, weight in enumerate(weights) if weight != 0.0)
            assert series.weights.tolist() == [weights[row] for row in series.rows]
            t_op = kraus.effective_evolution(prep, time)
            assert series.operators.shape == (len(series.rows), model.dim, model.dim)
            for row, operator in zip(series.rows, series.operators):
                product = functools.reduce(np.matmul, (work.lindblads[k] for k in series.table[row]), eye)
                assert np.array_equal(operator, t_op @ product)


TABLE_MODELS = st.one_of(
    pauli_channels().map(lambda model: (model, 3)),
    clock_models().map(lambda model: (model, 3)),
    st.builds(lambda n_max, omega, gamma: (models.damped_qho_model(omega, gamma, n_max), n_max), **DAMPED_MODES),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=TABLE_MODELS, t=st.floats(0.0, 3.0))
def test_series_table_stacks_each_product_and_weighs_each_term(case, t):
    model, order = case
    _table_round_trip(model, t, order)


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
    assert_json_round_trip(series)
    # the condition report and group structure `kraussim check` writes, of every registry model
    for key in models.MODEL_KEYS:
        prep = kraus.prepare(models.build_model(key).model)
        assert_json_round_trip(prep.report)
        assert_json_round_trip(prep.structure, kraus.GroupStructure | None)


def test_term_ordering_is_lexicographic(pauli_spec):
    series = kraus.build_tp_series(pauli_spec.model, 0.5, 2)
    keys = [(term.order, term.indices) for term in series.terms]
    assert keys == sorted(keys)
