"""End-to-end acceptance checks: every component bound and full-pipeline
statistical guarantee verified against independent dense linear-algebra
oracles at desk scale."""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from lculab.analog import (
    analog_gsp,
    analog_qls_gaussian,
    analog_qls_ring,
)
from lculab.applications import (
    GspProblem,
    QlsProblem,
    _shift_rescale,
    gsp_estimate,
    hamsim_estimate,
    qls_estimate,
)
from lculab.core_algebra import (
    DenseOperator,
    StateVector,
    basis_state,
    ham_to_dense,
    matrix_function,
    parse_pauli_text,
    plus_state,
    spectral_norm,
)
from lculab.estimator import prepare
from lculab.lcu_decomp import (
    LcuDecomposition,
    gaussian_lcu,
    inverse_lcu,
    realized_sum,
    scalar_function,
)
from lculab.walks import (
    InterpolatedChain,
    SearchConfig,
    WalkOperator,
    chain_from_matrix,
    cycle_chain,
    discriminant,
    edge_zero_state,
    hitting_time,
    lazy,
    predicted_search_success,
    run_search_trials,
    theorem1_slack,
)
from analog_oracle import gaussian_inverse_scalar, ring_inverse_scalar
from lcu_oracle import chebyshev_power_eval
from walk_oracle import (
    DenseWalk,
    build_hp,
    chebyshev_block_check,
    exp_ham_enumeration,
    pow_ham_enumeration,
)

Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
ZI = DenseOperator(np.kron(Z2, np.eye(2)), hermitian=True, unitary=True)


def _random_unit_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2
    return DenseOperator(h / np.linalg.norm(h, 2), hermitian=True)


def test_criterion_01_gaussian_operator_bound():
    t, gamma = 25.0, 1e-3
    start = time.monotonic()
    dec = gaussian_lcu(t, gamma)
    rng = np.random.default_rng(2025)
    for _ in range(20):
        hd = _random_unit_hermitian(rng, 8)
        target = matrix_function(hd, lambda x: np.exp(-t * x ** 2)).entries
        err = np.linalg.norm(realized_sum(dec, hd) - target, 2)
        assert err <= gamma
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("t", [2.0, 25.0, 400.0])
def test_criterion_02_gaussian_l1_bound(t):
    dec = gaussian_lcu(t, 1e-3)
    assert dec.l1_norm <= 1.0 + dec.info["delta_t"]


def test_criterion_03_chebyshev_power_bound():
    t, eps = 50, 1e-6
    start = time.monotonic()
    d = math.ceil(math.sqrt(2 * t * math.log(2 / eps)))
    d -= d % 2                      # match the parity of t
    xs = np.linspace(-1.0, 1.0, 4001)
    err = np.max(np.abs(chebyshev_power_eval(t, d, xs) - xs ** t))
    assert err <= eps
    assert time.monotonic() - start < 1.0


def test_criterion_04_inverse_scalar_bound():
    kappa, gamma = 10.0, 1e-2
    start = time.monotonic()
    dec = inverse_lcu(kappa, gamma)
    xs = np.concatenate([np.linspace(-1.0, -1 / kappa, 2000),
                         np.linspace(1 / kappa, 1.0, 2000)])
    err = np.max(np.abs(scalar_function(dec, xs) - 1.0 / xs))
    assert err <= gamma
    assert dec.info["J"] >= 1 and dec.info["K"] >= 1
    assert dec.info["scalar_sup_error"] <= gamma
    assert time.monotonic() - start < 2.0


def test_criterion_05_estimator_unbiasedness():
    h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
    o = DenseOperator(Z2, hermitian=True)
    rng = np.random.default_rng(5)
    amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi0 = StateVector(amp / np.linalg.norm(amp))
    suite = [
        LcuDecomposition(coeffs=[0.6, 0.4], durations=[0.8, -1.3],
                         phases=[1.0, 1.0], target_error=0.0),
        LcuDecomposition(coeffs=[0.1 * (j + 1) for j in range(5)],
                         durations=[0.2 * j - 1.0 for j in range(5)],
                         phases=np.ones(5), target_error=0.0),
        gaussian_lcu(2.0, 0.05),
    ]
    for dec in suite:
        assert dec.n_terms <= 64
        prepared = prepare(dec, h)
        states = prepared.states(psi0)
        c = dec.coeffs
        p = c / dec.l1_norm
        total = 0.0
        for j1 in range(len(c)):
            ov = np.conj(states) @ (o.entries @ states[j1])
            total += float(np.sum(p[j1] * p * np.real(ov)))
        g = sum(cj * pj * expm(-1j * tau * h.entries)
                for cj, tau, pj in zip(dec.coeffs, dec.durations, dec.phases))
        gpsi = g @ psi0.amplitudes
        exact = float(np.real(np.vdot(gpsi, o.entries @ gpsi)))
        assert abs(total - exact / dec.l1_norm ** 2) <= 1e-12


def test_criterion_06_perturbed_operator_robustness():
    rng = np.random.default_rng(6)
    gamma = 0.05
    for _ in range(100):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = m / np.linalg.norm(m, 2) * rng.uniform(1.0, 2.0)
        e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        e = e / np.linalg.norm(e, 2) * gamma * rng.random()
        q = p + e
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        o = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        o = (o + o.conj().T) / 2
        lhs = abs(np.trace(o @ p @ rho @ p.conj().T)
                  - np.trace(o @ q @ rho @ q.conj().T))
        bound = 3 * np.linalg.norm(o, 2) * np.linalg.norm(p, 2) * gamma
        assert lhs <= bound + 1e-12


def test_criterion_07_hamsim_end_to_end():
    start = time.monotonic()
    h = parse_pauli_text("0.3*X+0.4*Z")
    o = DenseOperator(Z2, hermitian=True)
    psi0 = basis_state(1, 0)
    eps, delta = 0.05, 0.05
    hd = ham_to_dense(h)
    u = matrix_function(hd, lambda x: np.exp(-1j * x)).entries
    v = u @ psi0.amplitudes
    exact = float(np.real(np.vdot(v, o.entries @ v)))
    hits = 0
    for seed in range(50):
        rep = hamsim_estimate(h, 1.0, o, psi0, eps, delta, seed=seed)
        if abs(rep.mu - exact) <= eps:
            hits += 1
    assert hits >= 45
    assert time.monotonic() - start < 60.0


@pytest.fixture(scope="module")
def gsp_instance():
    h = parse_pauli_text("0.5*II-0.5*ZZ+0.1*XI")
    evals, evecs = np.linalg.eigh(ham_to_dense(h).entries)
    psi0 = basis_state(2, 0)
    overlaps = np.abs(evecs[:, :2].conj().T @ psi0.amplitudes)
    ground = evecs[:, int(np.argmax(overlaps))]
    problem = GspProblem(hamiltonian=h, gap_lower_bound=1.0,
                         overlap_lower_bound=0.7,
                         ground_energy_estimate=float(evals[0]),
                         energy_precision=0.01, initial_state=psi0)
    exact = float(np.real(np.vdot(ground, ZI.entries @ ground)))
    return problem, exact


def test_criterion_08_gsp_end_to_end(gsp_instance):
    problem, exact = gsp_instance
    eps, delta = 0.1, 0.1
    hits = 0
    for seed in range(40):
        rep = gsp_estimate(problem, ZI, eps, delta, seed=seed)
        if abs(rep.ratio - exact) <= eps:
            hits += 1
        assert rep.tau_max == pytest.approx(rep.info["tau_max_formula"],
                                            rel=1e-12)
    assert hits >= 30


def test_criterion_09_qls_end_to_end():
    h = parse_pauli_text("0.6*ZZ+0.4*XX")
    problem = QlsProblem(h, 5.0, basis_state(2, 0))
    hd = ham_to_dense(h).entries
    x = np.linalg.solve(hd, problem.b_state.amplitudes)
    x /= np.linalg.norm(x)
    exact = float(np.real(np.vdot(x, ZI.entries @ x)))
    eps = 0.1
    hits = 0
    for seed in range(40):
        rep = qls_estimate(problem, ZI, eps, 0.1, seed=seed,
                           repetitions_override=500000)
        if abs(rep.ratio - exact) <= eps:
            hits += 1
        assert rep.info["gamma"] == pytest.approx(eps / 18.0)
    assert hits >= 30


def test_criterion_10_analog_gsp(gsp_instance):
    problem, _ = gsp_instance
    eps = 0.05
    out = analog_gsp(problem, eps)
    grid_tol = 0.01
    scaled, _ = _shift_rescale(
        problem.hamiltonian,
        problem.ground_energy_estimate - problem.energy_precision)
    hd = ham_to_dense(scaled)
    filt = matrix_function(hd, lambda v: np.exp(-out["t"] * v ** 2)).entries
    oracle = float(np.linalg.norm(filt @ problem.initial_state.amplitudes) ** 2)
    assert abs(out["success_prob"] - oracle) <= 0.1 * oracle
    assert out["converged"]
    # post-selected fidelity with the (degenerate) ground space
    evals, evecs = np.linalg.eigh(hd.entries)
    ground_space = evecs[:, np.abs(evals - evals[0]) < 1e-6]
    proj = ground_space @ (ground_space.conj().T
                           @ out["state"].amplitudes)
    assert np.linalg.norm(proj) ** 2 >= 1 - eps - grid_tol


def test_criterion_11_analog_qls_ring():
    kappa, eps = 8.0, 1e-2
    bigT = kappa * math.sqrt(2 * math.log(kappa / eps))
    xs = np.linspace(1 / kappa, 1.0, 200)
    vals = np.real(ring_inverse_scalar(xs, bigT))
    assert np.max(np.abs(vals - 1.0 / xs)) <= eps
    h = parse_pauli_text("0.6*ZZ+0.4*XX")
    problem = QlsProblem(h, 5.0, basis_state(2, 0))
    out = analog_qls_ring(problem, eps)
    assert out["error_vs_oracle"] <= 2 * eps / out["bigT"]


def test_criterion_12_analog_qls_gaussian_scalar():
    kappa, eps = 4.0, 1e-2
    bigT = kappa ** 1.5 / math.sqrt(eps)
    for x in (1 / kappa, 0.5, 1.0):
        target = 1.0 / math.sqrt(x * x + 1.0 / bigT ** 2)
        assert gaussian_inverse_scalar(x, bigT, z_max=6.0, n=4096) \
            == pytest.approx(target, abs=1e-6)
    x = 1 / kappa
    x_tilde = math.sqrt(x * x + 1.0 / bigT ** 2)
    assert abs(1.0 / x - 1.0 / x_tilde) <= eps
    # end-to-end on a positive-spectrum instance
    h = parse_pauli_text("0.625*II+0.375*ZI")
    problem = QlsProblem(h, 4.0, StateVector(np.full(4, 0.5)))
    out = analog_qls_gaussian(problem, 0.1)
    assert out["grid_error_vs_smoothed"] <= 0.1 / out["bigT"]


def test_criterion_13_sampling_projection_bound():
    rng = np.random.default_rng(13)
    eps = 0.02
    for trial in range(20):
        n = int(rng.integers(3, 9))
        adj = rng.random((n, n)) + 0.1
        adj = adj + adj.T
        c = lazy(chain_from_matrix(adj / adj.sum(axis=1, keepdims=True),
                                   reversible=True))
        marked = [int(rng.integers(0, n))]
        ic = InterpolatedChain(c, frozenset(marked), 0.5)
        w = WalkOperator(ic)
        pu = np.delete(np.arange(n), marked)
        amps = np.zeros(n)
        amps[pu] = np.sqrt(c.pi[pu] / c.pi[pu].sum())
        psi = edge_zero_state(amps)
        evals, evecs = np.linalg.eigh(w.d.entries)
        coeffs = evecs.T @ amps
        t = 8
        # power kind
        d = math.ceil(math.sqrt(2 * t * math.log(24 / eps)))
        sampled = sum(pr * float((np.abs(a.reshape(n, n)) ** 2)
                                 [:, marked].sum())
                      for pr, _, a in pow_ham_enumeration(t, d, w, psi))
        target = float(np.sum(np.abs(
            evecs[marked, :] @ (evals ** t * coeffs)) ** 2))
        assert sampled >= target - eps
        # exp kind
        d_out = math.ceil(t * math.e ** 2)
        dprime = math.ceil(math.sqrt(2 * t * math.log(96 / eps)))
        sampled = sum(pr * float((np.abs(a.reshape(n, n)) ** 2)
                                 [:, marked].sum())
                      for pr, _, a in
                      exp_ham_enumeration(float(t), d_out, dprime, w, psi))
        target = float(np.sum(np.abs(
            evecs[marked, :] @ (np.exp(t * (evals - 1.0)) * coeffs)) ** 2))
        assert sampled >= target - eps


def test_criterion_14_walk_identities():
    c = lazy(cycle_chain(8))
    w = WalkOperator(InterpolatedChain(c, frozenset({0}), 0.5))
    dense = DenseWalk(w.chain)
    ud = dense.u_d.entries
    assert np.linalg.norm(ud @ ud - np.eye(64), 2) <= 1e-12
    for t in range(8):
        assert chebyshev_block_check(w, t) <= 1e-9
    hp = build_hp(dense.u_d)
    sq = hp.entries @ hp.entries
    d = w.d.entries
    assert np.linalg.norm(dense.block(sq) - (np.eye(8) - d @ d), 2) <= 1e-10


def test_criterion_15_spatial_search_agreement():
    start = time.monotonic()
    c = cycle_chain(16)
    marked = {0}
    ht = hitting_time(lazy(c), marked)
    big_t = math.ceil(math.sqrt(ht) * math.log2(ht))
    cfg = SearchConfig(c_t=big_t / ht, master_seed=15)
    n = 2000
    for algo in (1, 2):
        pred = predicted_search_success(c, marked, cfg, algo)
        outs = run_search_trials(c, marked, cfg, n, algo)
        emp = np.count_nonzero(outs.found) / n
        sigma = math.sqrt(pred * (1 - pred) / n)
        assert abs(emp - pred) <= 3 * sigma
        assert theorem1_slack(c, marked, cfg, algo) >= 0.0
    assert time.monotonic() - start < 120.0


def test_criterion_16_imperfect_unitaries():
    h = parse_pauli_text("0.5*I-0.5*Z")
    evals, evecs = np.linalg.eigh(ham_to_dense(h).entries)
    psi0 = plus_state(1)
    problem = GspProblem(hamiltonian=h, gap_lower_bound=1.0,
                         overlap_lower_bound=1 / math.sqrt(2),
                         ground_energy_estimate=float(evals[0]),
                         energy_precision=0.0, initial_state=psi0)
    exact = float(np.real(np.vdot(evecs[:, 0], Z2 @ evecs[:, 0])))
    eps, delta = 0.25, 0.2
    eta2 = problem.overlap_lower_bound ** 2
    # probe the schedule once to size the perturbation at the allowed bound
    probe = gsp_estimate(problem, DenseOperator(Z2, hermitian=True),
                         eps, delta, seed=0, repetitions_override=10)
    c1 = probe.info["c1"]
    delta_u = eps * eta2 / (27 * 1.0 * 1.0 * c1)
    n_seeds, hits = 30, 0
    for seed in range(n_seeds):
        rep = gsp_estimate(problem, DenseOperator(Z2, hermitian=True),
                           eps, delta, seed=seed, unitary_error=delta_u)
        if abs(rep.ratio - exact) <= eps:
            hits += 1
    rate = (1 - delta) ** 2
    floor = n_seeds * rate - 3 * math.sqrt(n_seeds * rate * (1 - rate))
    assert hits >= floor
