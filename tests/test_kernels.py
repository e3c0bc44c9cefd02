import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_oracle import (
    cdf,
    inverse_cdf,
    reference_draws,
    reference_pair_accumulate,
    reference_values,
)
from lculab import _kernels, applications, estimator
from lculab._kernels import (
    GuideTable,
    counter_uniforms,
    derive_key,
    make_rng,
    pair_accumulate,
    pair_draws,
)
from lculab.core_algebra import (
    DenseOperator,
    basis_state,
    ham_to_dense,
    parse_pauli_text,
    plus_state,
)
from lculab.estimator import (
    EstimatorConfig,
    PerturbedLcu,
    ProductSampler,
    expectation_observable,
    prepare,
    run_circuit_sample,
)
from lculab.lcu_decomp import SegmentLcu, gaussian_lcu


class TestCounterHash:
    def test_deterministic(self):
        a = counter_uniforms(derive_key(7, 1, 2), 0, 100)
        b = counter_uniforms(derive_key(7, 1, 2), 0, 100)
        assert np.array_equal(a, b)

    def test_uniform_range(self):
        u = counter_uniforms(derive_key(1, 2, 3), 0, 100000)
        assert np.all((0 <= u) & (u < 1))
        assert abs(float(u.mean()) - 0.5) < 0.01

    def test_offset_consistency(self):
        # the draw at absolute index i never depends on where a chunk starts
        key = derive_key(42, 0)
        whole = counter_uniforms(key, 0, 1000)
        pieces = np.concatenate([counter_uniforms(key, s, 100)
                                 for s in range(0, 1000, 100)])
        assert np.array_equal(whole, pieces)

    def test_key_separation(self):
        a = counter_uniforms(derive_key(7, 0, 0, 1), 0, 1000)
        b = counter_uniforms(derive_key(7, 0, 0, 2), 0, 1000)
        assert not np.array_equal(a, b)

    def test_derive_key_sensitivity(self):
        keys = {derive_key(s, e, p) for s in range(3) for e in range(3)
                for p in range(3)}
        assert len(keys) == 27


class TestPairKernel:
    @pytest.fixture()
    def case(self):
        rng = np.random.default_rng(5)
        m, dim = 13, 4
        u = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        o = rng.standard_normal((dim, dim))
        o = o + o.T
        ou = u @ o.T
        probs = rng.random(m)
        probs /= probs.sum()
        return u, ou, probs

    def test_chunk_independence(self, case):
        # the sample set is a pure function of the counter index, so chunk
        # boundaries never change the draws; only the floating-point
        # accumulation order may differ
        u, ou, probs = case
        k1, k2 = derive_key(3, 0, 0, 1), derive_key(3, 0, 0, 2)
        full = pair_accumulate(u, ou, probs, k1, k2, 5000)
        a = pair_draws(probs, k1, k2, 0, 5000)
        saved = _kernels.CHUNK
        try:
            _kernels.CHUNK = 777
            chunked = pair_accumulate(u, ou, probs, k1, k2, 5000)
            b = pair_draws(probs, k1, k2, 0, 5000)
        finally:
            _kernels.CHUNK = saved
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert full[0] == pytest.approx(chunked[0], rel=1e-13, abs=1e-12)
        assert full[1] == pytest.approx(chunked[1], rel=1e-13)

    def test_matches_explicit_draws(self, case):
        u, ou, probs = case
        k1, k2 = derive_key(11, 0, 0, 1), derive_key(11, 0, 0, 2)
        total = 3000
        s, s2 = pair_accumulate(u, ou, probs, k1, k2, total)
        j1, j2 = pair_draws(probs, k1, k2, 0, total)
        vals = np.einsum("id,id->i", ou[j1], np.conj(u[j2])).real
        assert s == pytest.approx(float(vals.sum()), abs=1e-9)
        assert s2 == pytest.approx(float((vals * vals).sum()), abs=1e-9)

    def test_sink_sees_every_chunk(self, case):
        u, ou, probs = case
        k1, k2 = derive_key(13, 0, 0, 1), derive_key(13, 0, 0, 2)
        seen = []
        saved = _kernels.CHUNK
        try:
            _kernels.CHUNK = 777
            s, s2 = pair_accumulate(u, ou, probs, k1, k2, 3000,
                                    sink=lambda *chunk: seen.append(chunk))
        finally:
            _kernels.CHUNK = saved
        assert [c[0] for c in seen] == list(range(0, 3000, 777))
        j1, j2 = pair_draws(probs, k1, k2, 0, 3000)
        assert np.array_equal(np.concatenate([c[1] for c in seen]), j1)
        assert np.array_equal(np.concatenate([c[2] for c in seen]), j2)
        vals = np.concatenate([c[3] for c in seen])
        assert s == pytest.approx(float(vals.sum()), abs=1e-9)
        assert s2 == pytest.approx(float((vals * vals).sum()), abs=1e-9)

    def test_shot_outcomes(self, case):
        u, _, probs = case
        k1, k2, ks = (derive_key(14, 0, 0, r) for r in (1, 2, 3))
        seen = []
        pair_accumulate(u, u, probs, k1, k2, 3000, shot=(ks, 2.0),
                        sink=lambda *chunk: seen.append(chunk))
        _, j1, j2, vals = seen[0]
        e = np.einsum("id,id->i", u[j1], np.conj(u[j2])).real
        us = counter_uniforms(ks, 0, 3000)
        assert np.array_equal(vals, np.where(us < (1 + e) / 2, 2.0, -2.0))
        with pytest.raises(ValueError, match="outside"):
            pair_accumulate(u, 3 * u, probs, k1, k2, 3000, shot=(ks, 1.0))

    def test_draw_frequencies(self, case):
        u, ou, probs = case
        j1, _ = pair_draws(probs, derive_key(2, 0, 0, 1),
                           derive_key(2, 0, 0, 2), 0, 200000)
        freq = np.bincount(j1, minlength=len(probs)) / 200000
        assert np.max(np.abs(freq - probs)) < 0.005


def _searchsorted_draws(probs, key, start, count):
    """The unsorted reference: np.searchsorted over the CDF, clipped."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    j = np.searchsorted(cum, counter_uniforms(key, start, count), side="right")
    return np.clip(j, 0, len(cum) - 1)


@st.composite
def draw_cases(draw):
    """(probs, key1, key2, start, count) for pair_draws.  Weights mix
    ordinary and tiny values, so runs of equal CDF values occur; in half the
    cases the first CDF value is one of key1's uniforms, exactly.  Some
    cases scale the probabilities down, so that the last term takes what
    their running sum leaves of 1."""
    key1 = draw(st.integers(0, 2 ** 64 - 1))
    key2 = draw(st.integers(0, 2 ** 64 - 1))
    start = draw(st.integers(0, 10 ** 9))
    count = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 300)))
    weights = np.array(draw(st.lists(
        st.one_of(st.floats(0.01, 1.0), st.floats(1e-300, 1e-17)),
        min_size=1, max_size=80)))
    probs = weights / weights.sum()
    if count and len(probs) > 1 and draw(st.booleans()):
        u0 = counter_uniforms(key1, start, count)[draw(st.integers(0, count - 1))]
        probs = np.concatenate(([u0], (1 - u0) * weights[1:] / weights[1:].sum()))
    return probs * draw(st.sampled_from([1.0, 1.0, 0.75])), key1, key2, start, count


class TestPairDraws:
    @settings(max_examples=300, deadline=None)
    @given(case=draw_cases())
    @example(case=(np.array([1.0]), 1, 2, 0, 50))
    @example(case=(np.array([0.5, 1e-300, 0.5]), 3, 4, 7, 0))
    @example(case=(np.array([0.3, 1e-300, 1e-300, 0.7]), 5, 6, 11, 1))
    def test_sorted_search_equals_searchsorted(self, case):
        # the sorted reference search and the guide-table draws both give
        # the draws of the unsorted search, bit for bit
        probs, key1, key2, start, count = case
        ref1 = _searchsorted_draws(probs, key1, start, count)
        ref2 = _searchsorted_draws(probs, key2, start, count)
        s1, s2 = reference_draws(probs, key1, key2, start, count)
        assert np.array_equal(s1, ref1) and np.array_equal(s2, ref2)
        j1, j2 = pair_draws(probs, key1, key2, start, count)
        assert j1.dtype == ref1.dtype and j2.dtype == ref2.dtype
        assert np.array_equal(j1, ref1) and np.array_equal(j2, ref2)

    @pytest.mark.parametrize("probs", [
        np.array([1.0]),
        np.full(4, 0.25),
        np.full(1 << 12, 1 / (1 << 12)),
        np.array([0.25, 1e-300, 1e-300, 0.25, 1e-300, 0.5]),
        np.array([0.3, 1e-300, 1e-300, 1e-300, 0.2, 0.5]),
        np.full(3, 0.25),
        np.array([0.5, 0.5 - 1e-9]),
    ], ids=["M=1", "M=4", "M=4096", "ties-on-edges", "ties-inside",
            "sum-below-1-on-an-edge", "sum-below-1-inside-a-bucket"])
    def test_uniforms_on_and_beside_bucket_edges(self, probs):
        # M a power of two with equal weights puts every CDF value on a
        # bucket edge b/g; 1e-300 weights make runs of equal CDF values; a
        # running sum that ends below 1 leaves the rest to the last term.
        # Every edge, every CDF value and the doubles either side of each
        # are drawn as the reference draws them.
        table = GuideTable(probs)
        g = len(table.start)
        points = np.concatenate((np.arange(g) / g, np.cumsum(probs)))
        u = np.concatenate((points, np.nextafter(points, 0),
                            np.nextafter(points, 1)))
        u = u[(u >= 0) & (u < 1)]
        assert np.array_equal(table.draw(u), inverse_cdf(cdf(probs), u))

    def test_cubic_weights_over_2_16_terms(self):
        # p ~ U^3 puts most of the mass on few terms and leaves a long
        # light tail, whose CDF values crowd into few buckets
        rng = np.random.default_rng(19)
        probs = rng.random(1 << 16) ** 3
        probs /= probs.sum()
        key1, key2 = derive_key(4, 0, 0, 1), derive_key(4, 0, 0, 2)
        j1, j2 = pair_draws(probs, key1, key2, 123, 1 << 18)
        r1, r2 = reference_draws(probs, key1, key2, 123, 1 << 18)
        assert np.array_equal(j1, r1) and np.array_equal(j2, r2)

    @pytest.mark.parametrize("m", [1, 55, 1 << 12, 262_976])
    def test_table_size(self, m):
        # int32 starts, in at most the 16 bytes a term of the form's
        # probabilities and costs, or 64 KB
        table = GuideTable(np.full(m, 1 / m))
        g = len(table.start)
        assert table.start.dtype == np.int32 and g & (g - 1) == 0
        assert table.start.nbytes <= max(16 * m, 1 << 16) < 2 * table.start.nbytes

    def test_one_sample_draws_of_run_circuit_sample(self):
        # the per-sample path draws one pair at a time through the form's
        # table; each pair is the reference's pair at that index
        h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
        form = prepare(gaussian_lcu(4.0, 1e-2), h)
        o = DenseOperator(np.diag([1.0, -1.0]), hermitian=True)
        seed, indices = 21, [0, 1, 2, 3, 1000, 10 ** 9]
        key1 = derive_key(seed, 0, 0, estimator._ROLE_V1)
        key2 = derive_key(seed, 0, 0, estimator._ROLE_V2)
        for i in indices:
            rec = run_circuit_sample(form, plus_state(1), o, "expectation",
                                     (seed, 0, 0), index=i)
            r1, r2 = reference_draws(form.probs, key1, key2, i, 1)
            assert rec.term_ids == (int(r1[0]), int(r2[0]))

    def test_uniform_on_a_cdf_value_draws_the_next_term(self):
        key = derive_key(8, 0, 0, 1)
        u = counter_uniforms(key, 0, 40)
        probs = np.concatenate(([u[7]], np.full(39, (1 - u[7]) / 39)))
        j1, _ = pair_draws(probs, key, key, 0, 40)
        assert j1[7] == 1


class TestGramPath:
    """The pair kernel against the gather-path reference: the Gram table
    for small M and the gathers for large M give the same bits."""

    @staticmethod
    def _case(m, dim=4, seed=6):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        probs = rng.random(m) ** 2
        return u, probs / probs.sum()

    @staticmethod
    def _observable(phase, dim):
        if phase == "numerator":
            o = np.random.default_rng(8).standard_normal((dim, dim))
            return (o + o.T) / 2
        if phase == "normalization":
            return np.eye(dim)
        return np.diag(np.resize([1.0, -1.0, -1.0, 1.0], dim))

    @staticmethod
    def _assert_same_run(u, ou, probs, total, shot=None):
        # values, ids and sums of the kernel and the fancy-index reference
        # are equal bit for bit, chunk by chunk
        k1, k2 = derive_key(9, 0, 0, 1), derive_key(9, 0, 0, 2)
        got, want = [], []
        sums = pair_accumulate(u, ou, probs, k1, k2, total, shot=shot,
                               sink=lambda *c: got.append(c))
        ref = reference_pair_accumulate(u, ou, probs, k1, k2, total,
                                        shot=shot,
                                        sink=lambda *c: want.append(c))
        assert sums == ref
        assert len(got) == len(want)
        for (s0, a1, a2, av), (r0, b1, b2, bv) in zip(got, want):
            assert s0 == r0
            assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
            assert av.tobytes() == np.ascontiguousarray(bv).tobytes()
        return got

    @pytest.mark.parametrize("phase", ["numerator", "normalization", "shot"])
    @pytest.mark.parametrize("m,total,dim", [
        pytest.param(m, total, dim,
                     id=f"{m}-{total}" + (f"-dim{dim}" if dim != 4 else ""))
        for dim in (4, 2, 8)
        for m, total in [(20, 399), (20, 400), (20, 5000), (1100, 3000)]])
    def test_values_and_sums_equal_the_gathers(self, phase, m, total, dim):
        # M^2 <= total reads the Gram table, M^2 > total gathers rows
        u, probs = self._case(m, dim)
        ou = u @ self._observable(phase, dim).T
        shot = (derive_key(9, 0, 0, 3), 1.0) if phase == "shot" else None
        assert (_kernels._gram(u, ou, total) is not None) == (m * m <= total)
        self._assert_same_run(u, ou, probs, total, shot)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_gathers_over_several_chunks(self, dim, monkeypatch):
        # the take gathers, chunk after chunk, against the fancy-index
        # reference; M^2 > CHUNK keeps every chunk off the Gram table
        monkeypatch.setattr(_kernels, "CHUNK", 777)
        u, probs = self._case(1100, dim, seed=12)
        ou = u @ self._observable("numerator", dim).T
        assert _kernels._gram(u, ou, _kernels.CHUNK) is None
        got = self._assert_same_run(u, ou, probs, 5000)
        assert [c[0] for c in got] == list(range(0, 5000, 777))

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("m", [1, 7, 60])
    def test_gram_table_is_the_einsum_of_every_pair(self, m, dim):
        u, _ = self._case(m, dim, seed=13)
        ou = u @ self._observable("numerator", dim).T
        j1, j2 = np.arange(m).repeat(m), np.tile(np.arange(m), m)
        want = np.ascontiguousarray(reference_values(u, ou, j1, j2))
        assert _kernels._gram(u, ou, m * m).tobytes() == want.tobytes()

    def test_gram_bound_follows_the_chunk(self, monkeypatch):
        # the bound is min(total, CHUNK): a smaller chunk sends M = 20 back
        # to the gathers, with the same sums
        u, probs = self._case(20)
        k1, k2 = derive_key(2, 0, 0, 1), derive_key(2, 0, 0, 2)
        monkeypatch.setattr(_kernels, "CHUNK", 399)
        assert _kernels._gram(u, u, min(5000, _kernels.CHUNK)) is None
        assert (pair_accumulate(u, u, probs, k1, k2, 5000)
                == reference_pair_accumulate(u, u, probs, k1, k2, 5000))


class TestFormTables:
    def test_table_is_freed_with_its_form(self):
        # the table lives on its form: clearing the cache of prepared forms
        # frees it, and no module keeps a table of its own
        applications._cached_prepared.cache_clear()
        dec = applications._cached_gaussian_lcu(4.0, 1e-2)
        form = applications._use(applications._cached_prepared(
            dec, parse_pauli_text("0.5*Z+0.3*X")))
        cfg = EstimatorConfig(epsilon=0.1, delta=0.1)
        expectation_observable(form, plus_state(1),
                               DenseOperator(np.eye(2), hermitian=True), 100,
                               cfg)
        ref = weakref.ref(form.table)
        del form
        applications._cached_prepared.cache_clear()
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("kind", ["perturbed", "product"])
    def test_form_draws_through_its_own_table(self, kind, monkeypatch):
        h = ham_to_dense(parse_pauli_text("0.5*Z+0.3*X"))
        if kind == "perturbed":
            form = PerturbedLcu(gaussian_lcu(4.0, 1e-2), h, 0.05,
                                make_rng(0, 99))
        else:
            seg = SegmentLcu(parse_pauli_text("0.3*X+0.4*Z"), 1.0, 1, 4)
            form = ProductSampler(seg).flatten()
        assert np.array_equal(form.table.cum, np.cumsum(form.probs))
        seen, draws = [], _kernels.pair_draws

        def spy(probs, key1, key2, start, count, table=None):
            seen.append(table)
            return draws(probs, key1, key2, start, count, table)

        monkeypatch.setattr(_kernels, "pair_draws", spy)
        o = DenseOperator(np.diag([1.0, -1.0]), hermitian=True)
        cfg = EstimatorConfig(epsilon=0.1, delta=0.1)
        expectation_observable(form, basis_state(1, 0), o, 500, cfg)
        run_circuit_sample(form, basis_state(1, 0), o, "expectation",
                           (0, 0, 0), index=3)
        assert len(seen) == 2 and all(t is form.table for t in seen)


class TestMakeRng:
    def test_independent_streams(self):
        a = make_rng(5, 1).random(10)
        b = make_rng(5, 2).random(10)
        c = make_rng(5, 1).random(10)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)
