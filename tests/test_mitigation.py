import json
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from kraussim import mitigation as mit
from kraussim.matkernel import from_doc, pauli_labels, pauli_string_matrix, to_doc

from conftest import random_density


def one_qubit_channel(eps_map):
    eps = np.zeros(4)
    for label, value in eps_map.items():
        eps["IXYZ".index(label)] = value
    return mit.PauliChannel(1, eps)


def test_channel_validation():
    with pytest.raises(ValueError):
        mit.PauliChannel(1, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        mit.PauliChannel(1, np.array([0.9, 0.2, 0.0, -0.1]))
    with pytest.raises(ValueError):
        mit.DepolarizingChannel(1, 1.5)


def test_apply_pauli_identity():
    rho = random_density(np.random.default_rng(0), 2)
    out = mit.apply_pauli_channel(one_qubit_channel({"I": 1.0}), rho)
    assert np.abs(out.matrix - rho).max() < 1e-15


def test_apply_pauli_pure_z_flip():
    plus = np.ones((2, 2)) / 2
    out = mit.apply_pauli_channel(one_qubit_channel({"Z": 1.0}), plus)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.abs(out.matrix - minus).max() < 1e-12


def test_apply_pauli_bit_flip_mixture():
    zero = np.diag([1.0, 0.0])
    out = mit.apply_pauli_channel(one_qubit_channel({"I": 0.5, "X": 0.5}), zero)
    assert np.abs(out.matrix - np.diag([0.5, 0.5])).max() < 1e-12


def test_apply_preserves_trace(rng):
    eps = rng.dirichlet(np.ones(16))
    channel = mit.PauliChannel(2, eps)
    rho = random_density(rng, 4)
    out = mit.apply_pauli_channel(channel, rho)
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_apply_qdc_cases():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(mit.apply_qdc(mit.DepolarizingChannel(1, 0.0), rho).matrix - rho).max() == 0.0
    out = mit.apply_qdc(mit.DepolarizingChannel(1, 1.0), rho)
    assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12
    out = mit.apply_qdc(mit.DepolarizingChannel(1, 0.5), rho)
    assert np.abs(out.matrix - np.diag([0.75, 0.25])).max() < 1e-12


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_pauli_channel_matches_direct_sum(rng, num_qubits):
    # identity weight >= 0.7 keeps every Pauli eigenvalue >= 0.4, so the
    # inversion does not amplify rounding past the tolerance
    eps = 0.3 * rng.dirichlet(np.ones(4**num_qubits))
    eps[0] += 0.7
    channel = mit.PauliChannel(num_qubits, eps)
    paulis = [pauli_string_matrix(label) for label in pauli_labels(num_qubits)]

    def direct(mat):
        return sum(e * (q @ mat @ q.conj().T) for e, q in zip(channel.epsilons, paulis))

    lam = mit.pauli_fidelities(channel)
    for fidelity_p, pauli in zip(lam, paulis):
        assert np.abs(direct(pauli) - fidelity_p * pauli).max() < 1e-12
    rho = random_density(rng, 2**num_qubits)
    assert np.abs(mit.apply_pauli_channel(channel, rho).matrix - direct(rho)).max() < 1e-12
    assert np.abs(mit.invert_channel(channel, direct(rho)).matrix - rho).max() < 1e-12


def test_invert_round_trip(rng):
    eps = rng.dirichlet(np.ones(16)) + 0.01
    eps /= eps.sum()
    channel = mit.PauliChannel(2, eps)
    rho = random_density(rng, 4)
    noisy = mit.apply_pauli_channel(channel, rho)
    recovered = mit.invert_channel(channel, noisy)
    assert np.abs(recovered.matrix - rho).max() < 1e-10
    assert recovered.raw


def test_invert_qdc_closed_form():
    channel = mit.DepolarizingChannel(1, 0.5)
    out = mit.invert_channel(channel, np.diag([0.75, 0.25]).astype(complex))
    assert np.abs(out.matrix - np.diag([1.0, 0.0])).max() < 1e-12
    mixed = np.eye(2) / 2
    assert np.abs(mit.invert_channel(channel, mixed).matrix - mixed).max() < 1e-12


def test_invert_qdc_rejects_full_depolarization():
    with pytest.raises(ValueError):
        mit.invert_channel(mit.DepolarizingChannel(1, 1.0), np.eye(2) / 2)


def test_invert_rank_deficient_warns():
    # dephasing has Pauli eigenvalue 0 on X and Y; the minimum-norm inverse
    # drops those coefficients
    channel = one_qubit_channel({"I": 0.5, "Z": 0.5})
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        out = mit.invert_channel(channel, np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    assert np.abs(out.matrix - np.diag([0.7, 0.3])).max() < 1e-15


@pytest.mark.parametrize("channel", [one_qubit_channel({"I": 0.9, "X": 0.1}), mit.DepolarizingChannel(1, 0.2)])
def test_invert_rejects_wrong_state_size(channel):
    with pytest.raises(ValueError, match=r"shape \(4, 4\) does not match the 1-qubit channel"):
        mit.invert_channel(channel, np.eye(4) / 4)


def test_fit_pauli_channel_recovery(rng):
    eps = np.array([0.75, 0.05, 0.0, 0.1, 0.02, 0.0, 0.0, 0.0, 0.03, 0.0, 0.0, 0.0, 0.05, 0.0, 0.0, 0.0])
    channel = mit.PauliChannel(2, eps)
    pairs = []
    for _ in range(8):
        rho = random_density(rng, 4)
        pairs.append((rho, mit.apply_pauli_channel(channel, rho).matrix))
    fitted, report = mit.fit_pauli_channel(pairs)
    assert np.abs(fitted.epsilons - eps).max() < 1e-6
    assert report.kkt_residual < mit.KKT_TOL
    # objective is non-increasing across iterations
    trace = np.array(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-15)
    assert fitted.epsilons.min() >= 0
    assert fitted.epsilons.sum() == pytest.approx(1.0, abs=1e-8)


def test_fit_pauli_channel_warns_when_it_stops_short(rng, monkeypatch):
    channel = mit.PauliChannel(1, np.array([0.7, 0.1, 0.15, 0.05]))
    pairs = [(rho, mit.apply_pauli_channel(channel, rho).matrix) for rho in (random_density(rng, 2) for _ in range(3))]
    _fitted, report = mit.fit_pauli_channel(pairs)
    assert 3 < report.iterations and report.kkt_residual < mit.KKT_TOL
    monkeypatch.setattr(mit, "FIT_MAX_ITER", 3)
    with pytest.warns(RuntimeWarning, match="stopped after 3 iterations"):
        _fitted, report = mit.fit_pauli_channel(pairs)
    assert report.iterations == 3 and report.kkt_residual >= mit.KKT_TOL


def test_fit_pauli_channel_identity_pairs(rng):
    pairs = [(random_density(rng, 2), None) for _ in range(4)]
    pairs = [(rho, rho.copy()) for rho, _ in pairs]
    fitted, _report = mit.fit_pauli_channel(pairs)
    assert fitted.epsilons[0] == pytest.approx(1.0, abs=1e-7)


def test_fit_pauli_channel_underdetermined_zero_residual():
    zero = np.diag([1.0, 0.0]).astype(complex)
    fitted, report = mit.fit_pauli_channel([(zero, zero)])
    assert report.objective < 1e-12


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_fit_pauli_channel_matches_scipy_nnls(rng, num_qubits):
    # same objective, formed from dense P rho P, solved by an independent active-set solver
    eps = rng.dirichlet(np.ones(4**num_qubits) * 2)
    channel = mit.PauliChannel(num_qubits, eps)
    pairs = []
    for _ in range(6):
        rho = random_density(rng, 2**num_qubits)
        pairs.append((rho, mit.apply_pauli_channel(channel, rho).matrix))
    fitted, _ = mit.fit_pauli_channel(pairs)
    paulis = [pauli_string_matrix(p) for p in pauli_labels(num_qubits)]
    columns = []
    target = []
    for exact, noisy in pairs:
        col = np.stack(
            [np.concatenate([(p @ exact @ p).reshape(-1).real, (p @ exact @ p).reshape(-1).imag]) for p in paulis],
            axis=1,
        )
        columns.append(col)
        target.append(np.concatenate([noisy.reshape(-1).real, noisy.reshape(-1).imag]))
    reference, _ = scipy.optimize.nnls(np.concatenate(columns), np.concatenate(target))
    reference /= reference.sum()
    assert np.abs(fitted.epsilons - reference).max() < 1e-6


def test_fit_pauli_channel_five_qubits_stays_small(rng, monkeypatch):
    # a dense 4^n x 4^n design would need tens of MB here; the fit holds only (pairs, 4^n) arrays
    pairs = [(random_density(rng, 32), random_density(rng, 32)) for _ in range(2)]
    monkeypatch.setattr(mit, "FIT_MAX_ITER", 3)
    tracemalloc.start()
    try:
        with pytest.warns(RuntimeWarning, match="stopped after 3 iterations"):
            mit.fit_pauli_channel(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_fit_qdc_lambda_recovery(rng):
    channel = mit.DepolarizingChannel(2, 0.3)
    pairs = []
    for _ in range(5):
        rho = random_density(rng, 4)
        pairs.append((rho, mit.apply_qdc(channel, rho).matrix))
    lam = mit.fit_qdc_lambda(pairs)
    assert lam == pytest.approx(0.3, abs=1e-3)
    lam = mit.fit_qdc_lambda(pairs, strategy=mit.STRATEGY_FROBENIUS)
    assert lam == pytest.approx(0.3, abs=1e-3)


def test_fit_qdc_identical_pairs_gives_zero(rng):
    rho = random_density(rng, 4)
    assert mit.fit_qdc_lambda([(rho, rho.copy())]) == pytest.approx(0.0, abs=1e-12)


def test_fit_qdc_plateau_returns_smallest(rng):
    # the maximally mixed state is a fixed point for every lambda, so the
    # score is flat and the tie-break must pick the smallest value
    mixed = np.eye(4) / 4
    assert mit.fit_qdc_lambda([(mixed, mixed.copy())]) == 0.0


def test_project_physical():
    rho = random_density(np.random.default_rng(5), 3)
    assert np.abs(mit.project_physical(rho).matrix - rho).max() < 1e-12
    projected = mit.project_physical(np.diag([1.2, -0.2]))
    assert np.abs(projected.matrix - np.diag([1.0, 0.0])).max() < 1e-12
    twice = mit.project_physical(projected)
    assert np.abs(twice.matrix - projected.matrix).max() < 1e-12


def test_parity_twirl():
    tau = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    symmetric = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.abs(mit.parity_twirl(symmetric, tau).matrix - symmetric).max() < 1e-12
    plus01 = np.zeros((4, 4), dtype=complex)
    plus01[:2, :2] = 0.5
    out = mit.parity_twirl(plus01, tau)
    assert np.abs(out.matrix[:2, :2] - np.diag([0.5, 0.5])).max() < 1e-12
    twice = mit.parity_twirl(out, tau)
    assert np.abs(twice.matrix - out.matrix).max() < 1e-12
    assert np.abs(out.matrix @ tau - tau @ out.matrix).max() < 1e-10


def test_parity_twirl_kills_odd_observables(rng):
    tau = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    rho = random_density(rng, 4)
    out = mit.parity_twirl(rho, tau).matrix
    odd = np.zeros((4, 4), dtype=complex)
    odd[0, 1] = odd[1, 0] = 1.0  # anticommutes with tau
    assert abs(np.trace(odd @ out)) < 1e-10


def test_parity_twirl_validates_operator():
    with pytest.raises(ValueError):
        mit.parity_twirl(np.eye(2) / 2, np.diag([1.0, 2.0]))


def test_qdc_commutes_with_unital_cptp(rng):
    # The exchange rule needs sum K K^dag = I (the maximally mixed state must
    # be a fixed point), so draw random mixed-unitary channels.
    channel = mit.DepolarizingChannel(2, 0.35)
    unitaries = [np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0] for _ in range(3)]
    probs = rng.dirichlet(np.ones(3))

    def unital(mat):
        return sum(p * (u @ mat @ u.conj().T) for p, u in zip(probs, unitaries))

    rho = random_density(rng, 4)
    first = mit.apply_qdc(channel, unital(rho)).matrix
    second = unital(mit.apply_qdc(channel, rho).matrix)
    assert np.abs(first - second).max() < 1e-10


def test_qdc_exchange_fails_for_non_unital(rng):
    # amplitude damping is CPTP but not unital; the exchange rule breaks,
    # which bounds the scope of post-hoc depolarizing inversion
    channel = mit.DepolarizingChannel(1, 0.35)
    p = 0.4
    k1 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]], dtype=complex)
    k2 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)

    def damping(mat):
        return k1 @ mat @ k1.conj().T + k2 @ mat @ k2.conj().T

    rho = random_density(rng, 2)
    first = mit.apply_qdc(channel, damping(rho)).matrix
    second = damping(mit.apply_qdc(channel, rho).matrix)
    assert np.abs(first - second).max() > 1e-3


def test_pauli_channels_commute(rng):
    ch1 = mit.PauliChannel(1, rng.dirichlet(np.ones(4)))
    ch2 = mit.PauliChannel(1, rng.dirichlet(np.ones(4)))
    rho = random_density(rng, 2)
    ab = mit.apply_pauli_channel(ch1, mit.apply_pauli_channel(ch2, rho).matrix).matrix
    ba = mit.apply_pauli_channel(ch2, mit.apply_pauli_channel(ch1, rho).matrix).matrix
    assert np.abs(ab - ba).max() < 1e-10


def test_channel_json_round_trip():
    channel = one_qubit_channel({"I": 0.8, "X": 0.2})
    back = from_doc(mit.PauliChannel, json.loads(json.dumps(to_doc(channel))))
    assert np.abs(back.epsilons - channel.epsilons).max() < 1e-15
    qdc = mit.DepolarizingChannel(2, 0.25)
    back = from_doc(mit.DepolarizingChannel, json.loads(json.dumps(to_doc(qdc))))
    assert back.lam == qdc.lam and back.num_qubits == qdc.num_qubits
