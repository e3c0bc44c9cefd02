import math

import numpy as np
import pytest

from lculab import applications, estimator
from lculab.applications import (
    PREPARED_CACHE_SIZE,
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
    expectation,
    ham_to_dense,
    matrix_function,
    parse_pauli_text,
    plus_state,
    spectral_norm,
)
from lculab.estimator import SampleTrace

Z = np.array([[1, 0], [0, -1]], dtype=complex)
ZI = DenseOperator(np.kron(Z, np.eye(2)), hermitian=True, unitary=True)


def _exact_evolved(h, t, o, psi0):
    hd = ham_to_dense(h)
    u = matrix_function(hd, lambda x: np.exp(-1j * t * x)).entries
    v = u @ psi0.amplitudes
    return float(np.real(np.vdot(v, o.entries @ v)))


class TestShiftRescale:
    def test_reconstructs_original(self):
        h = parse_pauli_text("0.5*II-0.5*ZZ+0.1*XI")
        shift = -0.01
        scaled, beta = _shift_rescale(h, shift)
        left = beta * ham_to_dense(scaled).entries + shift * np.eye(4)
        assert np.allclose(left, ham_to_dense(h).entries, atol=1e-12)

    def test_norm_at_most_one(self):
        h = parse_pauli_text("0.5*II-0.5*ZZ+0.1*XI")
        scaled, _ = _shift_rescale(h, 0.3)
        assert spectral_norm(ham_to_dense(scaled).entries) <= 1 + 1e-12

    def test_merges_identity_terms(self):
        h = parse_pauli_text("0.5*I+0.2*Z")
        scaled, beta = _shift_rescale(h, 0.5)
        assert beta == pytest.approx(0.2)
        assert np.allclose(ham_to_dense(scaled).entries, Z)


class TestHamsim:
    def test_t_zero_exact(self):
        h = parse_pauli_text("0.5*Z+0.3*X")
        rep = hamsim_estimate(h, 0.0, DenseOperator(Z, hermitian=True),
                              plus_state(1), 0.1, 0.1, seed=0)
        assert rep.mu == pytest.approx(0.0, abs=1e-12)
        assert rep.tau_max == 0.0 and rep.t_used == 1

    def test_small_t_within_epsilon(self):
        h = parse_pauli_text("0.5*Z+0.3*X")
        o = DenseOperator(Z, hermitian=True)
        psi0 = plus_state(1)
        exact = _exact_evolved(h, 1.0, o, psi0)
        rep = hamsim_estimate(h, 1.0, o, psi0, 0.1, 0.05, seed=3)
        assert abs(rep.ratio - exact) <= 0.1

    def test_shot_mode_agrees(self):
        h = parse_pauli_text("0.5*Z+0.3*X")
        o = DenseOperator(Z, hermitian=True, unitary=True)
        psi0 = plus_state(1)
        exact = _exact_evolved(h, 1.0, o, psi0)
        rep = hamsim_estimate(h, 1.0, o, psi0, 0.2, 0.1, seed=4, mode="shot",
                              repetitions_override=40000)
        assert abs(rep.ratio - exact) <= 0.1

    def test_segment_schedule(self):
        h = parse_pauli_text("0.5*Z+0.3*X")
        rep = hamsim_estimate(h, 2.5, DenseOperator(Z, hermitian=True),
                              plus_state(1), 0.2, 0.2, seed=0,
                              repetitions_override=100)
        t_tilde = h.beta * 2.5
        assert rep.info["r"] == math.ceil(t_tilde ** 2)
        assert rep.tau_max <= rep.info["tau_max_bound"] + 1e-9

    def test_determinism(self):
        h = parse_pauli_text("0.5*Z+0.3*X")
        args = (h, 1.0, DenseOperator(Z, hermitian=True), plus_state(1),
                0.2, 0.2)
        a = hamsim_estimate(*args, seed=11, repetitions_override=2000)
        b = hamsim_estimate(*args, seed=11, repetitions_override=2000)
        assert a.mu == b.mu


@pytest.fixture(scope="module")
def gsp_problem():
    # the ground space is doubly degenerate; |00> overlaps only the ground
    # vector with <ZI> = 0.98058, so the filtered ratio converges to it
    h = parse_pauli_text("0.5*II-0.5*ZZ+0.1*XI")
    evals, evecs = np.linalg.eigh(ham_to_dense(h).entries)
    psi0 = basis_state(2, 0)
    overlaps = np.abs(evecs[:, :2].conj().T @ psi0.amplitudes)
    ground = StateVector(evecs[:, int(np.argmax(overlaps))])
    problem = GspProblem(hamiltonian=h, gap_lower_bound=0.9,
                         overlap_lower_bound=0.7,
                         ground_energy_estimate=float(evals[0]),
                         energy_precision=0.01, initial_state=psi0)
    exact = float(np.real(np.vdot(ground.amplitudes,
                                  ZI.entries @ ground.amplitudes)))
    return problem, exact


class TestGsp:
    def test_validation(self):
        h = parse_pauli_text("0.5*Z")
        psi = basis_state(1, 0)
        with pytest.raises(ValueError):
            GspProblem(h, -1.0, 0.5, 0.0, 0.01, psi)
        with pytest.raises(ValueError):
            GspProblem(h, 1.0, 0.9, 0.0, 0.01, psi)

    def test_ground_state_expectation(self, gsp_problem):
        problem, exact = gsp_problem
        rep = gsp_estimate(problem, ZI, 0.2, 0.1, seed=7)
        assert abs(rep.ratio - exact) <= 0.2
        for key in ("t", "gamma", "M", "delta_t", "tau_max_formula", "c1"):
            assert key in rep.info

    def test_tau_max_formula(self, gsp_problem):
        problem, _ = gsp_problem
        rep = gsp_estimate(problem, ZI, 0.2, 0.1, seed=1,
                           repetitions_override=200)
        assert rep.tau_max <= rep.info["tau_max_formula"] + 1e-9

    def test_unitary_error_robustness(self, gsp_problem):
        problem, exact = gsp_problem
        rep = gsp_estimate(problem, ZI, 0.2, 0.1, seed=7,
                           unitary_error=0.005)
        assert abs(rep.ratio - exact) <= 0.25


class TestQls:
    def test_validation(self):
        with pytest.raises(ValueError):
            QlsProblem(parse_pauli_text("1.0*ZZ"), 0.5, basis_state(2, 0))

    def test_solution_observable(self):
        h = parse_pauli_text("0.6*ZZ+0.4*XX")
        b = basis_state(2, 0)
        problem = QlsProblem(h, 5.0, b)
        hd = ham_to_dense(h).entries
        x = np.linalg.solve(hd, b.amplitudes)
        x = x / np.linalg.norm(x)
        exact = float(np.real(np.vdot(x, ZI.entries @ x)))
        assert exact == pytest.approx(5.0 / 13.0)
        rep = qls_estimate(problem, ZI, 0.3, 0.2, seed=2,
                           repetitions_override=300000)
        assert abs(rep.ratio - exact) <= 0.3
        for key in ("gamma", "J", "K", "tau_max_formula", "c1", "kappa"):
            assert key in rep.info


def _estimate(app, gsp_problem, **kw):
    """One op of `app` with a dense observable; hamsim-unflattened samples
    its three-qubit Taylor product one sample at a time."""
    if app == "hamsim":
        return hamsim_estimate(parse_pauli_text("0.5*Z+0.3*X"), 1.0,
                               DenseOperator(Z, hermitian=True, unitary=True),
                               plus_state(1), 0.2, 0.2, seed=0, **kw)
    if app == "hamsim-unflattened":
        return hamsim_estimate(
            parse_pauli_text("0.3*XII+0.4*ZZI+0.2*IXZ+0.1*YYX"), 3.0,
            DenseOperator(np.kron(Z, np.eye(4)), hermitian=True, unitary=True),
            basis_state(3, 0), 0.2, 0.2, seed=0, **kw)
    if app == "gsp":
        return gsp_estimate(gsp_problem[0], ZI, 0.2, 0.2, seed=0, **kw)
    return qls_estimate(QlsProblem(parse_pauli_text("0.75*ZZ+0.25*XX"), 2.0,
                                   basis_state(2, 1)), ZI, 0.3, 0.2, seed=0,
                        **kw)


@pytest.mark.parametrize("mode,calls", [("expectation", 1), ("shot", 2)])
@pytest.mark.parametrize("app", ["hamsim", "hamsim-unflattened", "gsp", "qls"])
def test_observable_norm_taken_once_per_op(app, mode, calls, gsp_problem,
                                           monkeypatch):
    # |O| is taken once per op and handed on to the estimator; shot mode
    # adds only its O^2 = I check, once per estimate
    norm, seen = estimator.spectral_norm, []

    def counted(a):
        seen.append(a)
        return norm(a)

    monkeypatch.setattr(estimator, "spectral_norm", counted)
    _estimate(app, gsp_problem, mode=mode, repetitions_override=200)
    assert len(seen) == calls


@pytest.mark.parametrize("app", ["hamsim", "hamsim-unflattened", "gsp"])
def test_empirical_std_is_standard_error(app, gsp_problem):
    # mu is c1^2 mean(values), so its standard error is c1^2 times the
    # standard deviation of the traced phase-one values over sqrt(T)
    trace = SampleTrace()
    rep = _estimate(app, gsp_problem, repetitions_override=300, trace=trace)
    assert rep.info.get("flattened", True) == (app != "hamsim-unflattened")
    values = np.concatenate([v for _, _, v, _ in trace.chunks])
    expected = rep.info["c1"] ** 2 * np.std(values) / math.sqrt(len(trace))
    assert rep.empirical_std == pytest.approx(expected, rel=1e-12)


def _clear_caches():
    for cache in (applications._cached_prepared,
                  applications._cached_product,
                  applications._cached_inverse_lcu,
                  applications._cached_gaussian_lcu):
        cache.cache_clear()


def _uncached(estimate, *args, **kwargs):
    """estimate(*args, **kwargs) after emptying every cache of
    applications: a recomputation with no cached form or state batch."""
    _clear_caches()
    return estimate(*args, **kwargs)


def _qls(h_text, b, seed=3):
    problem = QlsProblem(parse_pauli_text(h_text), 2.0, b)
    return qls_estimate, (problem, ZI, 0.3, 0.2), {
        "seed": seed, "repetitions_override": 2000}


def _gsp(h_text, seed=3, unitary_error=None):
    problem = GspProblem(parse_pauli_text(h_text), 0.9, 0.7, -0.5, 0.01,
                         basis_state(2, 0))
    return gsp_estimate, (problem, ZI, 0.2, 0.1), {
        "seed": seed, "repetitions_override": 2000,
        "unitary_error": unitary_error}


def _hamsim(h_text):
    return hamsim_estimate, (parse_pauli_text(h_text), 1.0,
                             DenseOperator(Z, hermitian=True), plus_state(1),
                             0.2, 0.2), {"seed": 3}


class TestPreparedCache:
    """A cached prepared form must never hand out rows of another problem:
    each warm estimate equals a recomputation with no cache."""

    @pytest.mark.parametrize("first,second", [
        (_qls("0.75*ZZ+0.25*XX", basis_state(2, 0)),
         _qls("0.25*ZZ+0.75*XX", basis_state(2, 0))),
        (_gsp("0.5*II-0.5*ZZ+0.1*XI"), _gsp("0.5*II-0.5*ZZ+0.1*IX")),
        (_hamsim("0.3*X+0.4*Z"), _hamsim("0.4*X+0.3*Z")),
    ], ids=["qls", "gsp", "hamsim"])
    def test_changed_hamiltonian(self, first, second):
        # same decomposition key, another Hamiltonian
        fn, args, kwargs = first
        fn(*args, **kwargs)
        fn, args, kwargs = second
        warm = fn(*args, **kwargs)
        assert warm == _uncached(fn, *args, **kwargs)

    def test_other_input_state(self):
        b2 = StateVector(np.array([0.6, 0.0, 0.0, 0.8]))
        fn, args, kwargs = _qls("0.75*ZZ+0.25*XX", basis_state(2, 0))
        fn(*args, **kwargs)
        fn, args, kwargs = _qls("0.75*ZZ+0.25*XX", b2)
        warm = fn(*args, **kwargs)
        assert warm == _uncached(fn, *args, **kwargs)

    def test_perturbed_unitaries_follow_the_seed(self):
        fn, args, kwargs = _gsp("0.5*II-0.5*ZZ+0.1*XI", seed=1,
                                unitary_error=0.05)
        first = fn(*args, **kwargs)
        fn, args, kwargs = _gsp("0.5*II-0.5*ZZ+0.1*XI", seed=2,
                                unitary_error=0.05)
        warm = fn(*args, **kwargs)
        assert warm == _uncached(fn, *args, **kwargs)
        assert warm.mu != first.mu

    def test_state_written_through_another_view(self):
        amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        view = amps[:]
        fn, args, kwargs = _qls("0.75*ZZ+0.25*XX", StateVector(amps))
        fn(*args, **kwargs)
        view[:] = [0.6, 0.0, 0.0, 0.8]
        warm = fn(*args, **kwargs)
        fn, args, kwargs = _qls("0.75*ZZ+0.25*XX",
                                StateVector(np.array([0.6, 0.0, 0.0, 0.8])))
        assert warm == _uncached(fn, *args, **kwargs)

    @pytest.mark.parametrize("problem,cache", [
        (_qls("0.75*ZZ+0.25*XX", basis_state(2, 0)), "_cached_prepared"),
        (_gsp("0.5*II-0.5*ZZ+0.1*XI"), "_cached_prepared"),
        (_hamsim("0.3*X+0.4*Z"), "_cached_product"),
    ], ids=["qls", "gsp", "hamsim"])
    def test_equal_problem_is_a_hit_and_cache_clear_empties(self, problem,
                                                             cache):
        fn, args, kwargs = problem
        _uncached(fn, *args, **kwargs)
        fn(*args, **dict(kwargs, seed=4))
        cache = getattr(applications, cache)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.maxsize == PREPARED_CACHE_SIZE
        cache.cache_clear()
        assert cache.cache_info().currsize == 0


def _sweep_forms(kappas):
    """The cached forms after a qls sweep over kappas, the last one first."""
    _clear_caches()
    for kappa in kappas:
        problem = QlsProblem(parse_pauli_text("0.75*ZZ+0.25*XX"), kappa,
                             basis_state(2, 0))
        qls_estimate(problem, ZI, 0.3, 0.2, seed=1, repetitions_override=200)
    return [ref() for ref in applications._used]


class TestCachedBatchBytes:
    """The cached forms other than the one in use keep at most
    CACHED_BATCH_BYTES of state batches, so a sweep over problems holds
    about one batch more than a run with no cache."""

    def test_sweep_drops_the_oldest_batches_beyond_the_budget(self,
                                                              monkeypatch):
        budget = 3 << 20   # the batches here are 0.7 to 2.9 MB
        monkeypatch.setattr(applications, "CACHED_BATCH_BYTES", budget)
        forms = _sweep_forms([2.0, 2.5, 3.0, 3.5, 4.0])
        assert len(forms) == 5
        in_use, others = forms[0], forms[1:]
        assert in_use.n_terms == max(f.n_terms for f in forms)
        assert in_use.batch_nbytes == in_use.n_terms * 4 * 16
        held = [f.batch_nbytes for f in others]
        assert sum(held) <= budget
        # the last-but-one form keeps its batch, an older one drops it
        assert held[0] > 0 and 0 in held

    def test_large_budget_keeps_every_batch(self):
        forms = _sweep_forms([2.0, 2.5, 3.0])
        assert all(f.batch_nbytes == f.n_terms * 4 * 16 for f in forms)

    def test_form_in_use_keeps_its_batch_across_ops(self, monkeypatch):
        # a seed sweep reuses the rows even when they exceed the budget
        monkeypatch.setattr(applications, "CACHED_BATCH_BYTES", 0)
        fn, args, kwargs = _qls("0.75*ZZ+0.25*XX", basis_state(2, 0))
        _uncached(fn, *args, **kwargs)
        form = applications._used[0]()
        rows = form.states(basis_state(2, 0))
        fn(*args, **dict(kwargs, seed=4))
        assert applications._used[0]() is form
        assert form.states(basis_state(2, 0)) is rows
