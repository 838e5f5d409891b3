import importlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from kraussim import cli
from kraussim import lindblad as lb
from kraussim import models
from kraussim.matkernel import PAULI, DensityMatrix, from_doc, to_doc, trace_distance

from conftest import dense_lindbladian, random_density

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPLITS = (lb.SPLIT_HAMILTONIAN_DISSIPATOR, lb.SPLIT_EFFECTIVE_JUMP)


def dephasing_model(gamma=0.5):
    return lb.LindbladModel(np.zeros((2, 2)), (PAULI["Z"],), (gamma,))


def oracle_generator(model):
    return lb._shifted_generator(-1j * lb.effective_hamiltonian(model), lb._weighted_jumps(model))


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


def test_superoperator_trivial(rng):
    # no Hamiltonian and no jumps: the generator and its shift and norm bound are all zero
    model = lb.LindbladModel(np.zeros((2, 2)), (), ())
    gen = oracle_generator(model)
    assert gen.shift == 0.0 and gen.norm == 0.0
    assert np.abs(gen(random_density(rng, 2)[np.newaxis])).max() == 0.0


def test_superoperator_dephasing_eigencomponent():
    gamma = 0.5
    gen = oracle_generator(dephasing_model(gamma))
    coherence = np.zeros((2, 2), dtype=complex)
    coherence[0, 1] = 1.0
    out = gen(coherence[np.newaxis])[0] + gen.shift * coherence
    assert np.allclose(out, -2 * gamma * coherence)


def test_superoperator_preserves_trace(pauli_spec, rng):
    gen = oracle_generator(pauli_spec.model)
    for _ in range(4):
        rho = random_density(rng, pauli_spec.model.dim)
        evolved = lb._propagate(gen, rho[np.newaxis], 0.7)[0]
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
        DensityMatrix(out.matrix)  # validates: a physical state
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-9
        two_step = lb.exact_evolve(model, lb.exact_evolve(model, rho, 0.4), 0.5)
        assert trace_distance(two_step, out) < 1e-8


def test_exact_evolve_rejects_negative_time(qho_spec, initial_states):
    with pytest.raises(ValueError):
        lb.exact_evolve(qho_spec.model, initial_states["qho-oscillating"].density(), -0.1)


@pytest.mark.parametrize("t", [np.inf, np.nan], ids=["inf", "nan"])
def test_exact_evolve_refuses_a_non_finite_time(qho_spec, initial_states, t):
    # inf used to raise OverflowError from the piece count of the leg to the start
    with pytest.raises(ValueError, match=f"start time must be a finite real number, got {t}"):
        lb.exact_evolve(qho_spec.model, initial_states["qho-oscillating"].density(), t)
    with pytest.raises(ValueError, match=f"stop time must be a finite real number, got {t}"):
        next(lb.exact_trajectory(qho_spec.model, initial_states["qho-oscillating"].density(), 0.0, t, 3))


@pytest.mark.parametrize(
    "key, params",
    [("pauli-xx-zz", {}), ("schwinger-jz", {}), ("qho-damped", {}), ("qho-cat", {}), ("qho-damped", {"n_max": 15})],
)
def test_exact_trajectory_matches_pointwise_expm(rng, key, params):
    model = models.build_model(key, **params).model
    rho0 = random_density(rng, model.dim)
    generator = dense_lindbladian(model)
    for start, stop, steps in ((0.0, 2.0, 9), (0.7, 1.9, 5), (1.3, 1.3, 1)):
        states = list(lb.exact_trajectory(model, rho0, start, stop, steps))
        assert len(states) == steps
        for t, state in zip(np.linspace(start, stop, steps), states):
            want = scipy.linalg.expm(t * generator) @ rho0.reshape(-1)
            assert np.abs(state.reshape(-1) - want).max() < 1e-12


@pytest.mark.parametrize("key", ["pauli-xx-zz", "schwinger-jz", "qho-damped", "qho-cat"])
def test_shifted_generator_matches_the_dense_superoperator(rng, key):
    # the matrix-free action is D - shift I with shift = tr(D) / d^2, and its norm bounds ||D - shift I||_1;
    # so for the oracle's generator and for both parts of each product-formula split
    model = models.build_model(key).model
    n = model.dim**2
    pairs = [(oracle_generator(model), dense_lindbladian(model))]
    for split in SPLITS:
        pairs += zip(lb._split_generators(model, split), dense_lindbladian(model, split))
    x = np.stack([random_density(rng, model.dim) for _ in range(3)])
    for gen, dense in pairs:
        assert gen.shift == pytest.approx(np.trace(dense).real / n, abs=1e-12)
        shifted = dense - gen.shift * np.eye(n)
        assert np.abs(shifted).sum(axis=0).max() <= gen.norm
        want = (shifted @ x.reshape(3, -1).T).T.reshape(x.shape)
        assert np.abs(gen(x) - want).max() < 1e-12


@pytest.mark.parametrize("key", ["qho-damped", "random"])
def test_generator_bound_does_not_carry_the_hamiltonian_trace(rng, key):
    # H + 40 I has the generator of H; the centred A takes the added trace out, so the bound stays
    if key == "random":
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ops = tuple(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2))
        model = lb.LindbladModel((g + g.conj().T) / 4, ops, (0.3, 0.7))
    else:
        model = models.build_model(key).model
    raised = lb.LindbladModel(model.hamiltonian + 40.0 * np.eye(model.dim), model.lindblads, model.gammas)
    n = model.dim**2
    x = np.stack([random_density(rng, model.dim) for _ in range(3)])
    norms = []
    for each in (model, raised):
        gen = oracle_generator(each)
        want = ((dense_lindbladian(each) - gen.shift * np.eye(n)) @ x.reshape(3, -1).T).T.reshape(x.shape)
        assert np.abs(gen(x) - want).max() < 1e-12
        norms.append(gen.norm)
    assert norms[1] == pytest.approx(norms[0], rel=1e-12)


@pytest.mark.parametrize(
    "case", ["qho-fields", "qho-oracle", "pauli-tomo", "pauli-steps", "n_max=15", "n_max=31", "omega=25"]
)
def test_propagate_matches_scipy_on_oracle_generators(monkeypatch, rng, case):
    # one step exp(dt D) of a benchmark workload's grid (seed 1), or of qho-damped at n_max (or at
    # n_max 23 with omega 25, a large Hamiltonian trace that centring takes out of the plan) with
    # dt = 3/8, applied to a batch of three states
    if case.startswith(("n_max=", "omega=")):
        name, value = case.split("=")
        params = {"n_max": int(value)} if name == "n_max" else {"omega": float(value), "n_max": 23}
        model = models.build_model("qho-damped", **params).model
        dt = 3.0 / 8
    else:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        config = importlib.import_module("workloads").make_config(case, 1)
        model = models.build_model(config["model"], **config.get("model_params", {})).model
        grid = config["time"]
        dt = (grid["stop"] - grid["start"]) / (grid["steps"] - 1)
    x = np.stack([random_density(rng, model.dim) for _ in range(3)])
    got = lb._propagate(oracle_generator(model), x, dt).reshape(3, -1)
    want = x.reshape(3, -1) @ scipy.linalg.expm(dt * dense_lindbladian(model)).T
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_oracle_generator_applications_on_the_qho_oracle_grid(monkeypatch):
    # qho-oracle seed 1 (d = 24, 9 points to t = 3): 562 applications with the Hamiltonian's trace in the
    # bound, 436 once it is centred out; a looser bound takes more
    monkeypatch.syspath_prepend(str(PERFBENCH))
    config = cli.ExperimentConfig.from_dict(importlib.import_module("workloads").make_config("qho-oracle", 1))
    model = cli._resolve_model(config).model
    rho0 = cli._resolve_state(config, model.dim).density().matrix
    calls = []
    apply = lb._ShiftedGenerator.__call__

    def counted(gen, x):
        calls.append(x.shape[0])
        return apply(gen, x)

    monkeypatch.setattr(lb._ShiftedGenerator, "__call__", counted)
    assert len(list(lb.exact_trajectory(model, rho0, 0.0, 3.0, 9))) == 9
    assert len(calls) == 436


@pytest.mark.parametrize("scaled_norm, plan", [(0.0, (1, 1)), (2e-16, (1, 1)), (1.0, (18, 1)), (25.0, (50, 3))])
def test_taylor_plan_minimises_the_number_of_actions(scaled_norm, plan):
    # theta_18 = 1.09 is the first above 1; at 25 the cost m * ceil(25 / theta_m) is least at
    # m = 50 (150 actions, against 165 at m = 55 and 180 at m = 45)
    assert lb._taylor_plan(scaled_norm) == plan


@pytest.mark.parametrize("steps, batch", [(17, 1), (18, 16)])
def test_exact_trajectory_branches_agree(monkeypatch, rng, steps, batch):
    # d = 4: a grid of steps - 1 <= d^2 = 16 carries the state from point to point (batches of 1);
    # one more step builds the step map from the 16 basis matrices, one batch of 16
    model = models.build_model("qho-damped").model
    rho0 = random_density(rng, model.dim)
    batches = []
    propagate = lb._propagate

    def recorded(gen, x, h):
        batches.append(x.shape[0])
        return propagate(gen, x, h)

    monkeypatch.setattr(lb, "_propagate", recorded)
    states = list(lb.exact_trajectory(model, rho0, 0.2, 2.0, steps))
    assert max(batches) == batch
    monkeypatch.setattr(lb, "_propagate", propagate)
    for t, state in zip(np.linspace(0.2, 2.0, steps), states):
        assert np.abs(state - lb.exact_evolve(model, rho0, t).matrix).max() < 1e-13


@st.composite
def random_models(draw):
    """A random Hermitian H and 1-3 random non-normal jump operators on d = 2-6, drawn from one seed."""
    dim = draw(st.integers(2, 6))
    count = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    ops = tuple(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)) for _ in range(count))
    gammas = tuple(gen.uniform(0.05, 1.0, size=count))
    return lb.LindbladModel((g + g.conj().T) / 4, ops, gammas)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=random_models(), seed=st.integers(0, 2**31 - 1), stop=st.floats(0.0, 2.0), steps=st.integers(1, 40))
def test_exact_trajectory_matches_dense_expm_on_random_models(model, seed, stop, steps):
    rho0 = random_density(np.random.default_rng(seed), model.dim)
    generator = dense_lindbladian(model)
    states = list(lb.exact_trajectory(model, rho0, 0.0, stop, steps))
    for t, state in zip(np.linspace(0.0, stop, steps), states):
        want = scipy.linalg.expm(t * generator) @ rho0.reshape(-1)
        assert np.abs(state.reshape(-1) - want).max() < 1e-12


def test_exact_trajectory_matches_scipy_expm_multiply_at_n_max_31(rng):
    model = models.build_model("qho-damped", n_max=31).model
    rho0 = random_density(rng, model.dim)
    generator = scipy.sparse.csr_matrix(dense_lindbladian(model))
    want = scipy.sparse.linalg.expm_multiply(generator, rho0.reshape(-1), start=0.0, stop=3.0, num=9)
    states = list(lb.exact_trajectory(model, rho0, 0.0, 3.0, 9))
    for state, vec in zip(states, want):
        assert np.abs(state.reshape(-1) - vec).max() < 1e-12


def test_evolution_refuses_a_step_past_the_norm_limit(qho_spec, initial_states):
    rho0 = initial_states["qho-oscillating"].density()
    with pytest.raises(ValueError, match="evolution time 1e\\+09 is too long for one step"):
        list(lb.exact_trajectory(qho_spec.model, rho0, 0.0, 1e9, 2))
    with pytest.raises(ValueError, match="evolution time 5e\\+08 is too long for one step"):
        lb.trotter_evolve(qho_spec.model, rho0, 1e9, 1)


@pytest.mark.parametrize("pieces", [3, 21])
def test_exact_trajectory_takes_a_late_start_in_pieces(monkeypatch, rng, pieces):
    # the leg to start = 4 would be refused in one step; it goes in ceil(4 * norm / limit) equal
    # pieces, carried one by one for 3 and through the step map of the d^2 = 16 basis matrices for 21
    model = models.build_model("qho-damped").model
    start = 4.0
    norm = oracle_generator(model).norm
    monkeypatch.setattr(lb, "PROPAGATE_NORM_LIMIT", start * norm / (pieces - 0.5))
    rho0 = random_density(rng, model.dim)
    calls = []
    propagate = lb._propagate

    def recorded(gen, x, h):
        calls.append((x.shape[0], h))
        return propagate(gen, x, h)

    monkeypatch.setattr(lb, "_propagate", recorded)
    states = list(lb.exact_trajectory(model, rho0, start, 4.3, 3))
    lead = [batch for batch, h in calls if h == start / pieces]
    assert lead == ([1] * pieces if pieces <= model.dim**2 else [model.dim**2])
    generator = dense_lindbladian(model)
    for t, state in zip(np.linspace(start, 4.3, 3), states):
        want = scipy.linalg.expm(t * generator) @ rho0.reshape(-1)
        assert np.abs(state.reshape(-1) - want).max() <= 1e-12 * np.abs(want).max()


def test_yielded_states_do_not_alias_rho0(rng):
    # a zero step hands its input back: the first exact point from start = 0 and every Trotter stage at t = 0
    model = models.build_model("qho-damped").model
    rho0 = random_density(rng, model.dim)
    kept = rho0.copy()
    firsts = [next(lb.exact_trajectory(model, rho0, 0.0, 1.0, 3))]
    firsts += [next(lb.trotter_trajectory(model, rho0, [0.0, 0.5], 4, split)) for split in SPLITS]
    for first in firsts:
        assert np.array_equal(first, kept)
        first[0, 0] = 7.0
        assert np.array_equal(rho0, kept)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=random_models(), seed=st.integers(0, 2**31 - 1), t=st.floats(0.0, 2.0), split=st.sampled_from(SPLITS),
       data=st.data())
def test_trotter_trajectory_matches_dense_expm_on_random_models(model, seed, t, split, data):
    # up to d^2 product-formula steps carry the state (batches of 1); more build the stage map from
    # the d^2 basis matrices (one batch of d^2)
    n = model.dim**2
    steps = data.draw(st.one_of(st.integers(1, n), st.integers(n + 1, n + 4)), label="steps")
    rho0 = random_density(np.random.default_rng(seed), model.dim)
    batches = []
    propagate = lb._propagate

    def recorded(gen, x, h):
        batches.append(x.shape[0])
        return propagate(gen, x, h)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lb, "_propagate", recorded)
        got = lb.trotter_evolve(model, rho0, t, steps, split).matrix.reshape(-1)
    assert max(batches) == (1 if steps <= n else n)
    d1, d2 = dense_lindbladian(model, split)
    dt = t / steps
    half = scipy.linalg.expm(dt / 2 * d1)
    stage = half @ scipy.linalg.expm(dt * d2) @ half
    want = np.linalg.matrix_power(stage, steps) @ rho0.reshape(-1)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("split", [lb.SPLIT_HAMILTONIAN_DISSIPATOR, lb.SPLIT_EFFECTIVE_JUMP])
def test_trotter_trajectory_matches_pointwise(qho_spec, initial_states, split):
    rho0 = initial_states["qho-oscillating"].density()
    ts = np.linspace(0.0, 1.5, 4)
    states = list(lb.trotter_trajectory(qho_spec.model, rho0, ts, 8, split))
    assert len(states) == len(ts)
    for t, state in zip(ts, states):
        want = lb.trotter_evolve(qho_spec.model, rho0, float(t), 8, split)
        assert np.array_equal(state, want.matrix)
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
    before = dense_lindbladian(model)
    after = dense_lindbladian(norm)
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


@pytest.mark.parametrize(
    "trajectory",
    [
        lambda model, rho: lb.exact_trajectory(model, rho, 0.0, 1.0, 2.5),
        lambda model, rho: lb.trotter_trajectory(model, rho, [0.5], 2.5),
    ],
    ids=["exact_trajectory", "trotter_trajectory"],
)
def test_a_step_count_that_is_not_an_integer_is_refused(pauli_spec, trajectory):
    # the count goes through the one integer rule; it used to raise a TypeError from range()
    with pytest.raises(ValueError, match=r"^steps must be an integer, got 2\.5$"):
        next(trajectory(pauli_spec.model, np.eye(4) / 4))
