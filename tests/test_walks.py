import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lculab import walks
from lculab.core_algebra import DenseOperator, StateVector
from lculab.harness import parse_config, run
from lculab.walks import (
    InterpolatedChain,
    MarkovChain,
    SearchConfig,
    WalkOperator,
    _poisson,
    chain_from_edgelist,
    chain_from_matrix,
    complete_chain,
    cycle_chain,
    discriminant,
    edge_zero_state,
    hitting_time,
    lazy,
    predicted_search_success,
    run_search_trials,
    theorem1_slack,
)
from lcu_oracle import chebyshev_power_coeffs
from walk_oracle import (
    DenseWalk,
    branches,
    build_hp,
    chebyshev_block_check,
    enumerated_search_success,
    enumerated_slack,
    exact_search_success,
    exp_ham_enumeration,
    exp_ham_l1,
    inverse_cdf,
    node_marginal,
    pow_ham_enumeration,
    stepped_search_trials,
)


def _two_cycle():
    return chain_from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]),
                             reversible=True)


def _random_reversible(rng, n):
    adj = rng.random((n, n)) + 0.1
    adj = adj + adj.T
    p = adj / adj.sum(axis=1, keepdims=True)
    return chain_from_matrix(p, reversible=True)


class TestChains:
    def test_lazy_two_cycle(self):
        c = lazy(_two_cycle())
        assert np.allclose(c.p, [[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(c.pi, [0.5, 0.5])

    def test_cycle_stationary_uniform(self):
        c = cycle_chain(8)
        assert np.allclose(c.pi, 1 / 8)
        assert c.reversible

    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            MarkovChain(p=np.array([[0.5, 0.6], [0.5, 0.5]]),
                        pi=np.array([0.5, 0.5]))

    def test_stationarity_validation(self):
        with pytest.raises(ValueError):
            MarkovChain(p=np.array([[0.9, 0.1], [0.5, 0.5]]),
                        pi=np.array([0.5, 0.5]))

    def test_detailed_balance_validation(self):
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            MarkovChain(p=p, pi=np.full(3, 1 / 3), reversible=True)

    def test_node_cap(self):
        with pytest.raises(ValueError):
            cycle_chain(65)

    def test_interpolated_matrix(self):
        c = lazy(cycle_chain(4))
        ic = InterpolatedChain(c, frozenset({0}), 0.5)
        m = ic.matrix()
        assert m[0, 0] == pytest.approx(0.5 * c.p[0, 0] + 0.5)
        assert np.allclose(m[1:], c.p[1:] * 0.5 + 0.5 * c.p[1:])
        assert np.allclose(m.sum(axis=1), 1.0)

    def test_interpolated_validation(self):
        c = lazy(cycle_chain(4))
        with pytest.raises(ValueError):
            InterpolatedChain(c, frozenset(), 0.5)
        with pytest.raises(ValueError):
            InterpolatedChain(c, frozenset({0}), 1.0)
        with pytest.raises(ValueError):
            InterpolatedChain(c, frozenset({9}), 0.5)


class TestDiscriminantAndHitting:
    def test_discriminant_symmetric_matches_spectrum(self):
        # reversible chain: D = diag(sqrt(pi)) P diag(1/sqrt(pi)), so the
        # eigenvalues of D equal those of P
        c = lazy(_random_reversible(np.random.default_rng(0), 5))
        d = discriminant(InterpolatedChain(c, frozenset({0}), 0.0)).entries
        assert np.allclose(d, d.T)
        ev_d = np.sort(np.linalg.eigvalsh(d))
        ev_p = np.sort(np.real(np.linalg.eigvals(c.p)))
        assert np.allclose(ev_d, ev_p, atol=1e-10)

    def test_hitting_time_lazy_two_cycle(self):
        assert hitting_time(lazy(_two_cycle()), {0}) == pytest.approx(2.0)

    def test_hitting_time_monte_carlo(self):
        c = lazy(cycle_chain(8))
        marked = {0}
        ht = hitting_time(c, marked)
        rng = np.random.default_rng(7)
        n_runs = 20000
        # start from pi restricted to unmarked nodes, walk until marked
        unmarked = [x for x in range(c.n) if x not in marked]
        w = c.pi[unmarked] / c.pi[unmarked].sum()
        steps = np.zeros(n_runs)
        starts = rng.choice(unmarked, size=n_runs, p=w)
        for i in range(n_runs):
            x = starts[i]
            k = 0
            while x not in marked:
                x = rng.choice(c.n, p=c.p[x])
                k += 1
            steps[i] = k
        se = steps.std() / math.sqrt(n_runs)
        assert abs(steps.mean() - ht) <= 3 * se

    def test_all_marked_hitting_time_zero(self):
        c = lazy(cycle_chain(4))
        assert hitting_time(c, set(range(4))) == 0.0

    def test_empty_marked_rejected(self):
        with pytest.raises(ValueError):
            hitting_time(lazy(cycle_chain(4)), set())


@pytest.fixture(scope="module")
def walk_c4():
    c = lazy(cycle_chain(4))
    return WalkOperator(InterpolatedChain(c, frozenset({0}), 0.5))


@pytest.fixture(scope="module")
def dense_c4(walk_c4):
    return DenseWalk(walk_c4.chain)


class TestWalkOperator:
    def test_up_columns(self, dense_c4):
        n = dense_c4.n
        ps = dense_c4.chain.matrix()
        up = dense_c4.u_p.entries
        for x in range(n):
            col = up[:, x]
            expected = np.zeros(n * n)
            for y in range(n):
                expected[y * n + x] = math.sqrt(ps[x, y])
            assert np.allclose(col, expected, atol=1e-12)

    def test_ud_involutory(self, dense_c4):
        ud = dense_c4.u_d.entries
        assert np.linalg.norm(ud @ ud - np.eye(ud.shape[0]), 2) <= 1e-12

    def test_ud_block_is_discriminant(self, walk_c4, dense_c4):
        assert np.allclose(dense_c4.block(dense_c4.u_d.entries),
                           walk_c4.d.entries, atol=1e-12)

    def test_ud_block_lazy_two_cycle(self):
        c = lazy(_two_cycle())
        w = DenseWalk(InterpolatedChain(c, frozenset({0}), 0.0))
        assert np.allclose(w.block(w.u_d.entries),
                           [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 5, 7])
    def test_chebyshev_block(self, walk_c4, t):
        assert chebyshev_block_check(walk_c4, t) <= 1e-9

    def test_v_spectrum_conjugate_closed(self, dense_c4):
        ev = np.linalg.eigvals(dense_c4.v.entries)
        for lam in ev:
            assert np.min(np.abs(ev - np.conj(lam))) <= 1e-8

    def test_v_eigenphases_match_discriminant(self, dense_c4):
        # each discriminant eigenvalue x contributes phases e^{+-i arccos x}
        phases = np.angle(np.linalg.eigvals(dense_c4.v.entries))
        d_evals = np.linalg.eigvalsh(dense_c4.d.entries)
        for x in d_evals:
            theta = math.acos(min(1.0, max(-1.0, x)))
            assert np.min(np.abs(np.exp(1j * phases) - np.exp(1j * theta))) \
                <= 1e-8


class TestDenseOracle:
    """The search schedule's node-marginal tables, built by the matrix-free
    walk, against the dense V^e |0>|psi> of walk_oracle: U_P maps each
    x-block to itself, so node marginals and marked weights agree for every
    power."""

    CHAINS = {
        "cycle:4": lambda: cycle_chain(4),
        "cycle:8": lambda: cycle_chain(8),
        "cycle:12": lambda: cycle_chain(12),
        "complete:4": lambda: complete_chain(4),
        "complete:6": lambda: complete_chain(6),
        "complete:9": lambda: complete_chain(9),
        "random:7": lambda: _random_reversible(np.random.default_rng(11), 7),
    }

    @pytest.mark.parametrize("marked", [(0,), (1, 3)])
    @pytest.mark.parametrize("s", [0.0, 0.5, 0.875])
    @pytest.mark.parametrize("graph", sorted(CHAINS))
    def test_marginals_match_dense_walk(self, graph, s, marked):
        sch = walks._SearchSchedule(self.CHAINS[graph](), marked,
                                    SearchConfig(), 1)
        sch.max_e = 29      # a table reaching power 29, whatever d is
        n = sch.chain.n
        ic = InterpolatedChain(sch.chain, frozenset(marked), s)
        psi0 = edge_zero_state(sch.sqrt_pi_u)
        dense = DenseWalk(ic).powers(psi0.amplitudes, 29)
        table = sch.table(s)
        assert table.shape == (30, n)
        for e, ref in enumerate(dense):
            want = node_marginal(StateVector(ref), n)
            assert np.max(np.abs(table[e] - want)) <= 1e-12
            assert abs(table[e, list(marked)].sum()
                       - want[list(marked)].sum()) <= 1e-12
        assert np.array_equal(sch.dmat[s], discriminant(ic).entries)

    def test_start_requires_zero_first_register(self, walk_c4):
        amps = np.zeros(16, dtype=complex)
        amps[5] = 1.0
        with pytest.raises(ValueError):
            walk_c4.start(StateVector(amps))

    def test_non_stochastic_chain_rejected(self):
        class Leaky:
            n = 2

            @staticmethod
            def matrix():
                return np.array([[0.5, 0.5], [0.5, 0.4]])

        with pytest.raises(ValueError, match="isometry"):
            WalkOperator(Leaky())


class TestBuildHp:
    def test_identity_input_gives_zero(self):
        hp = build_hp(DenseOperator(np.eye(4), hermitian=True, unitary=True))
        assert np.allclose(hp.entries, 0.0)

    def test_square_block_encodes_complement(self, dense_c4):
        hp = build_hp(dense_c4.u_d)
        sq = hp.entries @ hp.entries
        h = dense_c4.d.entries
        assert np.allclose(dense_c4.block(sq), np.eye(dense_c4.n) - h @ h,
                           atol=1e-10)

    def test_x_tensor_i(self):
        x = np.array([[0, 1], [1, 0]], dtype=float)
        u = DenseOperator(np.kron(x, np.eye(2)), hermitian=True, unitary=True)
        hp = build_hp(u)
        assert np.allclose(hp.entries, hp.entries.conj().T)
        # the node block of X (x) I is zero, so H_P^2 block-encodes I
        sq = hp.entries @ hp.entries
        assert np.allclose(sq[:2, :2], np.eye(2), atol=1e-12)

    def test_rejects_non_involutory(self):
        m = np.diag(np.exp(1j * np.array([0.3, 0.1, 0.2, 0.4])))
        with pytest.raises(ValueError):
            build_hp(DenseOperator(m, unitary=True))


class TestPolynomialMixtures:
    def test_power_enumeration_matches_target(self, walk_c4):
        # sum of branch prob * marked weight approximates that of D^t psi
        n = walk_c4.n
        psi = edge_zero_state(np.full(n, 0.5))
        t, d = 10, 12
        branches = pow_ham_enumeration(t, d, walk_c4, psi)
        total = sum(pr for pr, _, _ in branches)
        assert total == pytest.approx(1.0, abs=1e-12)
        for pr, e, a in branches:
            assert pr > 0 and e % 2 == t % 2
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-10)

    def test_exp_l1_close_to_one(self):
        t = 5.0
        d = math.ceil(t * math.e ** 2)
        assert 1 - 1e-6 <= exp_ham_l1(t, d) <= 1.0

    def test_exp_enumeration_probabilities(self, walk_c4):
        psi = edge_zero_state(np.full(walk_c4.n, 0.5))
        t = 3.0
        d = math.ceil(t * math.e ** 2)
        branches = exp_ham_enumeration(t, d, 6, walk_c4, psi)
        total = sum(pr for pr, _, _ in branches)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_sampled_vs_exact_marked_weight(self):
        # Chebyshev-mixture marked weight within the truncation budget of
        # the exact D^t drift (the sampling bound at a single grid point)
        c = lazy(cycle_chain(8))
        marked = [0]
        ic = InterpolatedChain(c, frozenset(marked), 0.5)
        w = WalkOperator(ic)
        pi_u = np.sqrt(np.delete(c.pi, marked)
                       / np.delete(c.pi, marked).sum())
        amps = np.zeros(c.n)
        amps[1:] = pi_u
        psi = edge_zero_state(amps)
        t = 10
        d = math.ceil(math.sqrt(2 * t * math.log(24 / 0.02)))
        branches = pow_ham_enumeration(t, d, w, psi)
        sampled = sum(pr * float((np.abs(a.reshape(c.n, c.n)) ** 2)
                                 [:, 0].sum())
                      for pr, _, a in branches)
        evals, evecs = np.linalg.eigh(w.d.entries)
        coeffs = evecs.T @ amps
        target = float(np.sum(np.abs(evecs[marked, :]
                                     @ (evals ** t * coeffs)) ** 2))
        assert sampled + 0.02 >= target - 1e-12


class TestSearch:
    def test_all_marked_trivial(self):
        # the pre-measurement ends every trial, so none reads the all-zero
        # node marginals of sqrt(pi_U) = 0
        c = cycle_chain(4)
        cfg = SearchConfig(master_seed=0)
        for i in range(20):
            out = run_search_trials(c, set(range(4)),
                                    SearchConfig(master_seed=i), 1, 1)
            assert out.found[0] and out.steps[0] == 0

    def test_all_marked_never_walks_at_top_uniform(self, monkeypatch):
        # on cycle:5 the sum of pi rounds to 1 - 2^-53, the largest counter
        # uniform; pi_M is 1 exactly when every node is marked
        c = cycle_chain(5)
        assert walks._SearchSchedule(c, set(range(5)), SearchConfig(),
                                     1).pi_m == 1.0
        monkeypatch.setattr(walks, "counter_uniforms",
                            lambda key, start, count:
                            np.full(count, 1 - 2.0 ** -53))
        out = run_search_trials(c, set(range(5)), SearchConfig(), 3, 1)
        assert out.found.all() and not out.steps.any()

    @pytest.mark.parametrize("kind", ["cycle", "complete"])
    def test_all_marked_oracle_success_is_one(self, kind):
        # a search with every node marked cannot fail; before pi_M was set
        # to 1, 45 of these 126 graphs reported 1 - (1.1 to 3.3) 10^-16
        for n in range(2, 65):
            flags = {"graph": f"{kind}:{n}", "trials": "1",
                     "marked": ",".join(map(str, range(n)))}
            report = run(parse_config("walks-search", flags))
            assert report.results["oracle_success"] == 1.0, n

    def test_empty_marked_rejected(self):
        with pytest.raises(ValueError):
            run_search_trials(cycle_chain(4), set(), SearchConfig(), 1, 1)

    @pytest.mark.parametrize("algo", [1, 2])
    def test_empirical_matches_prediction(self, algo):
        c = cycle_chain(8)
        marked = {0}
        cfg = SearchConfig(master_seed=3)
        pred = predicted_search_success(c, marked, cfg, algo)
        n = 1000
        outs = run_search_trials(c, marked, cfg, n, algo)
        emp = np.count_nonzero(outs.found) / n
        sigma = math.sqrt(pred * (1 - pred) / n)
        assert abs(emp - pred) <= 4 * max(sigma, 1e-3)

    @pytest.mark.parametrize("algo", [1, 2])
    @pytest.mark.parametrize("graph", ["cycle:16", "complete:16"])
    def test_seed_population_within_binomial_slack(self, graph, algo):
        kind, n = graph.split(":")
        c = (cycle_chain if kind == "cycle" else complete_chain)(int(n))
        trials, total = 2000, 0
        pred = predicted_search_success(c, {0}, SearchConfig(), algo)
        sigma = math.sqrt(pred * (1 - pred) / trials)
        for seed in range(8):
            found = run_search_trials(c, {0}, SearchConfig(master_seed=seed),
                                      trials, algo).found
            total += np.count_nonzero(found)
            assert abs(np.count_nonzero(found) / trials - pred) <= 4 * sigma
        assert abs(total / (8 * trials) - pred) <= 4 * sigma / math.sqrt(8)

    @pytest.mark.parametrize("algo", [1, 2])
    def test_theorem1_slack_nonnegative_c8(self, algo):
        assert theorem1_slack(cycle_chain(8), {0}, SearchConfig(), algo) \
            >= 0.0

    def test_exact_success_power_vs_exp_close(self):
        c = lazy(cycle_chain(8))
        big_t = max(hitting_time(c, {0}), 2.0)
        p_pow = exact_search_success(c, {0}, big_t, "power")
        p_exp = exact_search_success(c, {0}, big_t, "exp")
        assert p_pow > 0 and p_exp > 0
        assert abs(p_pow - p_exp) <= 0.05

    def test_search_trial_fields(self):
        out = run_search_trials(cycle_chain(4), {1},
                                SearchConfig(master_seed=5), 50, 2)
        for column in (out.found, out.node, out.s, out.t, out.steps):
            assert column.shape == (50,) and not column.flags.writeable
        assert np.all((0 <= out.node) & (out.node < 4))
        assert np.all((0 <= out.s) & (out.s < 1))
        assert np.all((0 <= out.t) & (out.t <= out.big_t))
        assert np.array_equal(out.found, out.node == 1)
        sch = walks._SearchSchedule(cycle_chain(4), {1}, SearchConfig(), 2)
        assert (out.ht, out.big_t) == (sch.ht, sch.big_t)

    @pytest.mark.parametrize("algo", [1, 2])
    def test_first_trials_are_a_shorter_run(self, algo):
        c, cfg = cycle_chain(10), SearchConfig(master_seed=9)
        long = run_search_trials(c, {0, 4}, cfg, 500, algo)
        for k in (1, 37, 499):
            short = run_search_trials(c, {0, 4}, cfg, k, algo)
            for field in ("found", "node", "s", "t", "steps"):
                assert np.array_equal(getattr(long, field)[:k],
                                      getattr(short, field)), (k, field)

    def test_poisson_draws_match_full_support_inversion(self):
        # cycle:64, algo 2: d = 10,248 weights, of which the table's rows
        # keep 3,049; the draw must equal inversion over all d + 1
        sch = walks._SearchSchedule(cycle_chain(64), {0}, SearchConfig(), 2)
        t = np.arange(int(sch.big_t) + 1)
        u = np.random.default_rng(3).random(len(t))
        u[::50] = 0.0
        got = walks._poisson_draws(sch, t, u)
        assert got.tolist() == [inverse_cdf(_poisson(tv, sch.d), uv)
                                for tv, uv in zip(t.tolist(), u)]

    @pytest.mark.parametrize("algo", [1, 2])
    def test_trials_solve_hitting_time_once(self, monkeypatch, algo):
        calls = []

        def counted(c, marked):
            calls.append(1)
            return hitting_time(c, marked)

        monkeypatch.setattr(walks, "hitting_time", counted)
        outs = run_search_trials(cycle_chain(6), {0}, SearchConfig(), 185, algo)
        assert len(outs.found) == 185
        assert len(calls) == 1

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=3, max_value=8))
    def test_theorem1_slack_random_chains(self, seed, n):
        rng = np.random.default_rng(seed)
        c = _random_reversible(rng, n)
        marked = {int(rng.integers(0, n))}
        assert theorem1_slack(c, marked, SearchConfig(), 1) >= -1e-9


SEARCH_CASES = {
    "cycle:8": (lambda: cycle_chain(8), {0}),
    "complete:6": (lambda: complete_chain(6), {0}),
    "random:7": (lambda: _random_reversible(np.random.default_rng(5), 7),
                 {1, 4}),
}


class TestScheduleTables:
    """Trials, oracle and slack read the schedule's mixture and node-marginal
    tables; the state-level references of walk_oracle step to edge states."""

    @pytest.mark.parametrize("algo", [1, 2])
    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_trials_match_stepped_path(self, case, algo):
        chain, marked = SEARCH_CASES[case]
        cfg = SearchConfig(master_seed=17)
        got = run_search_trials(chain(), marked, cfg, 400, algo)
        want = stepped_search_trials(chain(), marked, cfg, 400, algo)
        for field in ("found", "node", "s", "t", "steps", "ht", "big_t"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert np.any(got.steps > 0)

    @pytest.mark.parametrize("algo", [1, 2])
    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_oracle_and_slack_match_branch_enumeration(self, case, algo):
        chain, marked = SEARCH_CASES[case]
        cfg = SearchConfig()
        assert abs(predicted_search_success(chain(), marked, cfg, algo)
                   - enumerated_search_success(chain(), marked, cfg, algo)) \
            <= 1e-14
        assert abs(theorem1_slack(chain(), marked, cfg, algo)
                   - enumerated_slack(chain(), marked, cfg, algo)) <= 1e-14

    @pytest.mark.parametrize("c_t", [1.0, 3.0])
    @pytest.mark.parametrize("algo", [1, 2])
    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_steps_stay_within_max_e(self, case, algo, c_t):
        chain, marked = SEARCH_CASES[case]
        sch = walks._SearchSchedule(chain(), marked, SearchConfig(c_t=c_t), algo)
        assert sch.max_e == (sch.d if algo == 1 else sch.dprime)
        # every monomial degree a trial can draw: t, or the Poisson draw l,
        # has a row of the table
        ts = range(int(sch.big_t) + 1)
        if algo == 1:
            assert len(sch.cheb) == len(ts)
        else:
            assert not any(_poisson(t, sch.d)[len(sch.cheb):].any() for t in ts)
        for x in range(len(sch.cheb)):
            exps = 2 * np.flatnonzero(sch.cheb[x]) + x % 2
            assert 0 <= exps.min() and exps.max() <= sch.max_e
            assert sch.cheb[x].sum() == pytest.approx(1.0, abs=1e-12)
        for t in ts:
            mix = sch.mixture(t)
            assert mix.shape == (sch.max_e + 1,)
            assert mix.sum() == pytest.approx(1.0, abs=1e-12)
        assert sch.table(0.5).shape == (sch.max_e + 1, sch.chain.n)

    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_mixture_matches_branches(self, case):
        chain, marked = SEARCH_CASES[case]
        for algo in (1, 2):
            sch = walks._SearchSchedule(chain(), marked, SearchConfig(), algo)
            for t in range(int(sch.big_t) + 1):
                ref = np.zeros(sch.max_e + 1)
                for pr, e in branches(t, sch.d, sch.dprime):
                    ref[e] += pr
                assert np.max(np.abs(sch.mixture(t) - ref)) <= 1e-15

    @staticmethod
    def _assert_rows_match_coeffs(sch, rows):
        for x in rows:
            dd = min(x, sch.max_e)
            ref = chebyshev_power_coeffs(x, dd - (dd - x) % 2)
            want = np.zeros(sch.cheb.shape[1])
            want[:len(ref)] = ref / ref.sum()
            assert np.max(np.abs(sch.cheb[x] - want)) <= 1e-14, x

    @pytest.mark.parametrize("c_t", [1.0, 3.0])
    @pytest.mark.parametrize("algo", [1, 2])
    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_chebyshev_table_matches_coeffs(self, case, algo, c_t):
        chain, marked = SEARCH_CASES[case]
        sch = walks._SearchSchedule(chain(), marked, SearchConfig(c_t=c_t), algo)
        assert sch.cheb.shape[1] == sch.max_e // 2 + 1
        assert not sch.cheb.flags.writeable
        self._assert_rows_match_coeffs(sch, range(len(sch.cheb)))

    def test_chebyshev_table_at_node_cap(self):
        # rows past x ~ 1030 hold binomials beyond the float range
        sch = walks._SearchSchedule(cycle_chain(64), {0}, SearchConfig(), 2)
        last = len(sch.cheb) - 1
        assert last < sch.d and _poisson(int(sch.big_t), sch.d)[last] > 0
        assert not _poisson(int(sch.big_t), sch.d)[last + 1:].any()
        self._assert_rows_match_coeffs(sch, [0, 1, 2, last // 2, last])


class TestEdgelist:
    def test_parse_and_normalize(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# triangle\n0 1 1.0\n1 2 2.0\n0 2 1.0\n")
        c = chain_from_edgelist(str(f))
        assert c.n == 3
        assert np.allclose(c.p.sum(axis=1), 1.0)
        assert c.p[0, 1] == pytest.approx(0.5)
        assert c.p[1, 2] == pytest.approx(2.0 / 3.0)
        assert c.reversible

    def test_bad_weight(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1 -1.0\n")
        with pytest.raises(ValueError):
            chain_from_edgelist(str(f))

    def test_bad_format(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n")
        with pytest.raises(ValueError):
            chain_from_edgelist(str(f))

    def test_empty(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# nothing\n")
        with pytest.raises(ValueError):
            chain_from_edgelist(str(f))

    def test_non_integer_node_rejected(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1 1.0\nx 2 1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            chain_from_edgelist(str(f))

    def test_negative_node_rejected(self, tmp_path):
        # -1 must not wrap around to the last node
        f = tmp_path / "g.txt"
        f.write_text("0 1 1.0\n2 3 1.0\n-1 1 5.0\n")
        with pytest.raises(ValueError, match="line 3"):
            chain_from_edgelist(str(f))

    def test_isolated_node(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 0 1.0\n2 2 1.0\n")
        with pytest.raises(ValueError):
            chain_from_edgelist(str(f))
