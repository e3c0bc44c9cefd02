import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lculab._kernels import make_rng
from lculab.core_algebra import (
    DenseOperator,
    StateVector,
    basis_state,
    expectation,
    matrix_function,
    parse_pauli_text,
    ham_to_dense,
    plus_state,
)
from lculab.estimator import (
    EstimatorConfig,
    NormUnderflowError,
    PerturbedLcu,
    PreparedProductLcu,
    ProductSampler,
    SampleTrace,
    expectation_observable,
    perturb_unitary,
    prepare,
    required_repetitions,
    run_circuit_sample,
    single_ancilla_lcu,
)
from lculab.lcu_decomp import (
    LcuDecomposition,
    PauliProductRotation,
    SegmentLcu,
    gaussian_lcu,
    inverse_lcu,
)

Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _identity_lcu():
    return LcuDecomposition(coeffs=[1.0], durations=[0.0], phases=[1.0],
                            target_error=0.0)


def _two_term_lcu():
    return LcuDecomposition(coeffs=[0.6, 0.4], durations=[0.8, -1.3],
                            phases=[1.0, 1.0], target_error=0.0)


def cost_summary(report, cost_psi0: float = 0.0) -> dict:
    """Total sampling cost: T runs, each touching two sampled unitaries plus
    one input-state preparation."""
    return {
        "tau_max": report.tau_max,
        "avg_cost": report.avg_cost,
        "T": report.t_used,
        "total": report.t_used * (2 * report.avg_cost + cost_psi0),
    }


def _term_matrices(dec, h):
    """phase_j e^{-i d_j H} per term, by scipy's expm: a reference that
    shares no code with the eigendecomposition the estimator uses."""
    return [p * expm(-1j * tau * h.entries)
            for tau, p in zip(dec.durations, dec.phases)]


class TestRequiredRepetitions:
    def test_exact_eight(self):
        assert required_repetitions(1.0, 1.0, 1.0, 2 / math.e) == 8

    def test_fourth_power_scaling(self):
        raw = 8 * math.log(20) / 0.01
        assert required_repetitions(1.0, 1.0, 0.1, 0.1) == math.ceil(raw)
        assert required_repetitions(1.0, 2.0, 0.1, 0.1) == math.ceil(16 * raw)

    def test_worked_value(self):
        # ceil(8 * ln 40 * 1.1^4 / 0.05^2)
        expected = math.ceil(8 * math.log(40) * 1.1 ** 4 / 0.0025)
        assert required_repetitions(1.0, 1.1, 0.05, 0.05) == expected
        assert expected == 17283

    def test_invalid(self):
        with pytest.raises(ValueError):
            required_repetitions(1.0, 1.0, -0.1, 0.1)
        with pytest.raises(ValueError):
            required_repetitions(1.0, 1.0, 0.1, 1.5)


class TestCostModel:
    def test_rules(self):
        h = ham_to_dense(parse_pauli_text("0.5*Z"))
        dec = LcuDecomposition(coeffs=[0.5, 0.5], durations=[-2.5, 0.0],
                               phases=[1.0, 1.0], target_error=0.0)
        assert prepare(dec, h).costs.tolist() == [2.5, 0.0]
        seg = SegmentLcu(parse_pauli_text("0.3*X+0.4*Z"), 1.0, 1, 4)
        rot = PauliProductRotation(paulis=(0, 1), rotation_index=0,
                                   angle=0.3, phase=1)
        assert ProductSampler(seg).cost([rot]) == 3

    def test_analytic_vs_empirical_avg(self):
        h = parse_pauli_text("0.5*Z")
        dec = _two_term_lcu()
        prepared = prepare(dec, ham_to_dense(h))
        rng = make_rng(0, 7)
        draws = rng.choice(len(prepared.probs), size=20000, p=prepared.probs)
        emp = prepared.costs[draws].mean()
        se = prepared.costs[draws].std() / math.sqrt(20000)
        assert abs(emp - prepared.avg_cost) <= 3 * max(se, 1e-6)


class TestRunCircuitSample:
    def test_identity_lcu_z(self):
        rec = run_circuit_sample(_identity_lcu(), basis_state(1, 0),
                                 DenseOperator(Z, hermitian=True),
                                 "expectation", (0, 0, 0),
                                 context=DenseOperator(Z, hermitian=True))
        assert rec.value == pytest.approx(1.0)

    def test_value_bounded_by_norm(self):
        h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
        prepared = prepare(_two_term_lcu(), h)
        for i in range(50):
            rec = run_circuit_sample(prepared, plus_state(1),
                                     DenseOperator(Z, hermitian=True),
                                     "expectation", (3, 0, 0), index=i,
                                     context=h)
            assert abs(rec.value) <= 1.0 + 1e-12

    def test_shot_mode_pm_one(self):
        h = ham_to_dense(parse_pauli_text("0.5*Z"))
        prepared = prepare(_two_term_lcu(), h)
        vals = [run_circuit_sample(prepared, basis_state(1, 0),
                                   DenseOperator(Z, hermitian=True),
                                   "shot", (4, 0, 0), index=i,
                                   context=h).value
                for i in range(200)]
        assert set(vals) <= {-1.0, 1.0}

    def test_shot_mode_zero_mean_x(self):
        o = DenseOperator(X, hermitian=True, unitary=True)
        h = DenseOperator(Z, hermitian=True)
        prepared = prepare(_identity_lcu(), h)
        psi0 = basis_state(1, 0)
        n = 20000
        total = sum(run_circuit_sample(prepared, psi0, o, "shot", (5, 0, 0),
                                       index=i, context=h).value
                    for i in range(n))
        assert abs(total / n) <= 0.03

    def test_shot_mode_requires_involutory(self):
        o = DenseOperator(0.5 * Z, hermitian=True)
        with pytest.raises(ValueError):
            run_circuit_sample(_identity_lcu(), basis_state(1, 0), o,
                               "shot", (0, 0, 0),
                               context=DenseOperator(Z, hermitian=True))


class TestEnumerationUnbiasedness:
    @pytest.mark.parametrize("seed", range(4))
    def test_two_term_identity(self, seed):
        rng = np.random.default_rng(seed)
        h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
        dec = _two_term_lcu()
        amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi0 = StateVector(amp / np.linalg.norm(amp))
        o = DenseOperator(Z, hermitian=True)
        prepared = prepare(dec, h)
        states = prepared.states(psi0)
        total = 0.0
        c = dec.coeffs
        for j1 in range(2):
            for j2 in range(2):
                v = float(np.real(np.vdot(states[j2], o.entries @ states[j1])))
                total += c[j1] * c[j2] / dec.l1_norm ** 2 * v
        g = sum(cj * u for cj, u in zip(dec.coeffs, _term_matrices(dec, h)))
        exact = float(np.real(np.vdot(g @ psi0.amplitudes,
                                      o.entries @ (g @ psi0.amplitudes))))
        assert total == pytest.approx(exact / dec.l1_norm ** 2, abs=1e-12)


class TestExpectationObservable:
    def test_t1_deterministic(self):
        h = DenseOperator(Z, hermitian=True)
        cfg = EstimatorConfig(epsilon=0.1, delta=0.1, mode="expectation",
                              master_seed=0)
        mu, _ = expectation_observable(_identity_lcu(), basis_state(1, 0),
                                       DenseOperator(Z, hermitian=True),
                                       1, cfg, context=h)
        assert mu == pytest.approx(1.0)

    def test_unbiased_over_seeds(self):
        h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
        dec = _two_term_lcu()
        psi0 = plus_state(1)
        o = DenseOperator(Z, hermitian=True)
        g = sum(cj * u for cj, u in zip(dec.coeffs, _term_matrices(dec, h)))
        exact = float(np.real(np.vdot(g @ psi0.amplitudes,
                                      o.entries @ (g @ psi0.amplitudes))))
        t_reps, n_seeds = 1000, 100
        mus = []
        for seed in range(n_seeds):
            cfg = EstimatorConfig(epsilon=0.1, delta=0.1, mode="expectation",
                                  master_seed=seed)
            mu, _ = expectation_observable(dec, psi0, o, t_reps, cfg,
                                           context=h)
            mus.append(mu)
        band = 3 * dec.l1_norm ** 2 * 1.0 / math.sqrt(t_reps * n_seeds)
        assert abs(np.mean(mus) - exact) <= band

    def test_determinism(self):
        h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
        dec = _two_term_lcu()
        cfg = EstimatorConfig(epsilon=0.1, delta=0.1, mode="expectation",
                              master_seed=123)
        args = (dec, plus_state(1), DenseOperator(Z, hermitian=True), 5000,
                cfg)
        mu_a, _ = expectation_observable(*args, context=h)
        mu_b, _ = expectation_observable(*args, context=h)
        assert mu_a == mu_b

    def test_shot_and_expectation_agree_in_mean(self):
        h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
        o = DenseOperator(Z, hermitian=True, unitary=True)
        psi0 = plus_state(1)
        n = 100000
        cfg_e = EstimatorConfig(epsilon=0.1, delta=0.1, mode="expectation",
                                master_seed=5)
        cfg_s = EstimatorConfig(epsilon=0.1, delta=0.1, mode="shot",
                                master_seed=5)
        dec = _identity_lcu()
        mu_e, _ = expectation_observable(dec, psi0, o, 1, cfg_e, context=h)
        mu_s, _ = expectation_observable(dec, psi0, o, n, cfg_s, context=h)
        assert abs(mu_s - mu_e) <= 4 / math.sqrt(n)


def _enumerated_case(kind):
    """(prepared decomposition, psi0, involutory observable) for each kind
    of enumerated decomposition the chunked kernel runs."""
    z = DenseOperator(Z, hermitian=True, unitary=True)
    h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
    if kind == "gaussian":
        return prepare(gaussian_lcu(4.0, 1e-2), h), plus_state(1), z
    if kind == "inverse":
        h2 = ham_to_dense(parse_pauli_text("0.75*ZZ+0.25*XX"))
        o = ham_to_dense(parse_pauli_text("1.0*ZI"))
        return prepare(inverse_lcu(2.0, 5e-2), h2), basis_state(2, 1), o
    if kind == "product":
        seg = SegmentLcu(parse_pauli_text("0.3*X+0.4*Z"), 1.0, 1, 4)
        return ProductSampler(seg).flatten(), basis_state(1, 0), z
    pert = PerturbedLcu(_two_term_lcu(), h, 0.05, make_rng(0, 99))
    return pert, plus_state(1), DenseOperator(X, hermitian=True, unitary=True)


ENUMERATED_KINDS = ("gaussian", "inverse", "product", "perturbed")


class TestEnumeratedKernel:
    """The chunked kernel against run_circuit_sample, the per-sample
    reference."""

    def _run(self, kind, mode, t_reps=400, seed=17):
        prepared, psi0, o = _enumerated_case(kind)
        cfg = EstimatorConfig(epsilon=0.1, delta=0.1, mode=mode,
                              master_seed=seed)
        recs = SampleTrace()
        expectation_observable(prepared, psi0, o, t_reps, cfg, trace=recs)
        ref = [run_circuit_sample(prepared, psi0, o, mode, (seed, 0, 0),
                                  index=i) for i in range(t_reps)]
        return recs, ref

    @pytest.mark.parametrize("kind", ENUMERATED_KINDS)
    def test_trace_rows_match_reference(self, kind):
        recs, ref = self._run(kind, "expectation")
        assert [r.index for r in recs] == list(range(len(ref)))
        assert [r.term_ids for r in recs] == [r.term_ids for r in ref]
        assert [r.cost for r in recs] == [r.cost for r in ref]
        assert np.allclose([r.value for r in recs], [r.value for r in ref],
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ENUMERATED_KINDS)
    def test_shot_values_match_reference(self, kind):
        recs, ref = self._run(kind, "shot")
        assert [r.term_ids for r in recs] == [r.term_ids for r in ref]
        assert [r.value for r in recs] == [r.value for r in ref]
        assert len({r.value for r in recs}) == 2

    @pytest.mark.parametrize("mode", ("expectation", "shot"))
    @pytest.mark.parametrize("kind", ENUMERATED_KINDS)
    def test_records_change_no_estimate(self, kind, mode):
        prepared, psi0, o = _enumerated_case(kind)
        cfg = EstimatorConfig(epsilon=0.1, delta=0.1, mode=mode,
                              master_seed=4)
        mu_a, stats_a = expectation_observable(prepared, psi0, o, 3000, cfg)
        recs_b = SampleTrace()
        mu_b, stats_b = expectation_observable(prepared, psi0, o, 3000, cfg,
                                               trace=recs_b)
        assert len(recs_b) == 3000
        assert (mu_a, stats_a) == (mu_b, stats_b)

    def test_shot_rejects_non_involutory_observable(self):
        prepared, psi0, _ = _enumerated_case("gaussian")
        cfg = EstimatorConfig(epsilon=0.1, delta=0.1, mode="shot")
        with pytest.raises(ValueError, match="involutory"):
            expectation_observable(prepared, psi0,
                                   DenseOperator(0.5 * Z, hermitian=True),
                                   10, cfg)

    def test_shot_rejects_interference_value_out_of_range(self):
        # an unnormalized input state gives e = <psi0|Z|psi0> = 4
        psi0 = StateVector(np.array([2.0, 0.0]), normalized=False)
        cfg = EstimatorConfig(epsilon=0.1, delta=0.1, mode="shot")
        with pytest.raises(ValueError, match="outside"):
            expectation_observable(_identity_lcu(), psi0,
                                   DenseOperator(Z, hermitian=True), 10, cfg,
                                   context=DenseOperator(Z, hermitian=True))


class TestStateBatchCache:
    def test_new_state_never_gets_a_freed_states_rows(self):
        # CPython hands a freed object's id to a later allocation; a cache
        # keyed on the id alone would return the freed state's rows
        h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
        prepared = prepare(_two_term_lcu(), h)
        psi = basis_state(1, 0)
        prepared.states(psi)
        freed = id(psi)
        del psi
        alive = []
        for k in range(1, 1000):
            fresh = StateVector(np.array([math.cos(0.01 * k),
                                          math.sin(0.01 * k)]))
            if id(fresh) == freed:
                break
            alive.append(fresh)
        expected = np.stack([u @ fresh.amplitudes
                             for u in _term_matrices(_two_term_lcu(), h)])
        assert np.allclose(prepared.states(fresh), expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ENUMERATED_KINDS)
    def test_same_state_reuses_rows(self, kind):
        prepared, psi0, _ = _enumerated_case(kind)
        assert prepared.states(psi0) is prepared.states(psi0)

    @pytest.mark.parametrize("kind", ENUMERATED_KINDS)
    def test_equal_state_reuses_read_only_rows(self, kind):
        prepared, psi0, _ = _enumerated_case(kind)
        rows = prepared.states(psi0)
        assert prepared.states(StateVector(psi0.amplitudes.copy())) is rows
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    def test_rows_follow_a_write_through_another_view(self):
        # the state's array stays writable through a view taken before the
        # state froze it; the cache matches amplitudes, not the object
        h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
        prepared = prepare(_two_term_lcu(), h)
        amps = np.array([1.0, 0.0], dtype=complex)
        view = amps[:]
        psi = StateVector(amps)
        prepared.states(psi)
        view[:] = [0.6, 0.8]
        expected = np.stack([u @ np.array([0.6, 0.8])
                             for u in _term_matrices(_two_term_lcu(), h)])
        assert np.allclose(prepared.states(psi), expected, atol=1e-12)


def test_flattened_product_l1_is_the_left_to_right_sum():
    seg = SegmentLcu(parse_pauli_text("0.3*X+0.4*Z"), 1.0, 2, 4)
    flat = ProductSampler(seg).flatten()
    assert flat.n_terms == 42 * 42
    coeffs = (np.random.default_rng(3).random(flat.n_terms)
              * np.logspace(-8, 8, flat.n_terms))
    prod = PreparedProductLcu(coeffs, flat.factors, seg)
    assert prod.l1_norm == functools.reduce(operator.add, coeffs.tolist())


class TestSingleAncillaLcu:
    def test_identity_ratio(self):
        h = DenseOperator(Z, hermitian=True)
        cfg = EstimatorConfig(epsilon=0.2, delta=0.2, mode="expectation",
                              master_seed=1, repetitions_override=100)
        rep = single_ancilla_lcu(_identity_lcu(), plus_state(1),
                                 DenseOperator(X, hermitian=True), cfg,
                                 context=h)
        assert rep.ell_tilde == pytest.approx(1.0)
        assert rep.ratio == pytest.approx(1.0)

    def test_gaussian_ground_state_projection(self):
        # H = 0.5(I - Z) rescaled: ground state |0>, psi0 = |+>, O = Z
        h = parse_pauli_text("0.5*I-0.5*Z")
        from lculab.applications import _shift_rescale
        scaled, beta = _shift_rescale(h, 0.0)
        dec = gaussian_lcu(8.0, 1e-3)
        cfg = EstimatorConfig(epsilon=0.1, delta=0.1, mode="expectation",
                              master_seed=3, repetitions_override=40000,
                              ell_star=0.5)
        rep = single_ancilla_lcu(dec, plus_state(1),
                                 DenseOperator(Z, hermitian=True), cfg,
                                 context=ham_to_dense(scaled))
        assert abs(rep.ratio - 1.0) <= 0.1

    def test_norm_underflow(self):
        # e^{-tH^2} with H = Z/beta kills every component: ell_tilde ~ 0
        h = parse_pauli_text("1.0*Z")
        dec = gaussian_lcu(200.0, 1e-3)
        cfg = EstimatorConfig(epsilon=0.3, delta=0.1, mode="expectation",
                              master_seed=0, repetitions_override=2000,
                              ell_star=1.0)
        with pytest.raises(NormUnderflowError):
            single_ancilla_lcu(dec, plus_state(1),
                               DenseOperator(Z, hermitian=True), cfg,
                               context=ham_to_dense(h))

    def test_report_fields(self):
        h = DenseOperator(Z, hermitian=True)
        cfg = EstimatorConfig(epsilon=0.5, delta=0.5, mode="expectation",
                              master_seed=9, repetitions_override=50)
        rep = single_ancilla_lcu(_two_term_lcu(), plus_state(1),
                                 DenseOperator(Z, hermitian=True), cfg,
                                 context=h)
        assert rep.ratio == rep.mu / rep.ell_tilde
        summary = cost_summary(rep, cost_psi0=1.0)
        assert summary["total"] == rep.t_used * (2 * rep.avg_cost + 1.0)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_ratio_robustness_arithmetic(self, seed):
        # |mu/ell - num/l2| <= eps whenever the two premises hold
        rng = np.random.default_rng(seed)
        eps, norm_o, ell_star = 0.2, 1.0, rng.uniform(0.1, 1.0)
        l2 = rng.uniform(ell_star, 1.0)
        num = rng.uniform(-norm_o * l2, norm_o * l2)
        mu = num + rng.uniform(-1, 1) * eps * ell_star / 3
        ell = l2 + rng.uniform(-1, 1) * eps * ell_star / (3 * norm_o)
        if ell <= eps * ell_star / (3 * norm_o):
            return
        assert abs(mu / ell - num / l2) <= eps + 1e-9


class TestPerturbUnitary:
    def test_distance_within_bound(self):
        rng = make_rng(0, 1)
        u = DenseOperator(np.eye(4), unitary=True)
        for delta_u in (0.01, 0.1, 0.4):
            up = perturb_unitary(u, delta_u, rng)
            assert np.linalg.norm(up.entries - u.entries, 2) <= delta_u + 1e-12

    def test_result_unitary(self):
        rng = make_rng(1, 1)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        up = perturb_unitary(DenseOperator(q, unitary=True), 0.2, rng)
        assert np.linalg.norm(up.entries @ up.entries.conj().T - np.eye(4),
                              2) <= 1e-10

    def test_rejects_bad_delta(self):
        rng = make_rng(2, 1)
        with pytest.raises(ValueError):
            perturb_unitary(DenseOperator(np.eye(2), unitary=True), 0.9, rng)
