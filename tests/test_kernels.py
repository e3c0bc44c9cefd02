import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lculab import _kernels
from lculab._kernels import (
    counter_uniforms,
    derive_key,
    make_rng,
    pair_accumulate,
    pair_draws,
)


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
    cases the first CDF value is one of key1's uniforms, exactly."""
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
    return probs, key1, key2, start, count


class TestPairDraws:
    @settings(max_examples=300, deadline=None)
    @given(case=draw_cases())
    @example(case=(np.array([1.0]), 1, 2, 0, 50))
    @example(case=(np.array([0.5, 1e-300, 0.5]), 3, 4, 7, 0))
    @example(case=(np.array([0.3, 1e-300, 1e-300, 0.7]), 5, 6, 11, 1))
    def test_sorted_search_equals_searchsorted(self, case):
        # the sorted search gives the draws of the unsorted one bit for bit
        probs, key1, key2, start, count = case
        ref1 = _searchsorted_draws(probs, key1, start, count)
        ref2 = _searchsorted_draws(probs, key2, start, count)
        j1, j2 = pair_draws(probs, key1, key2, start, count)
        assert j1.dtype == ref1.dtype and j2.dtype == ref2.dtype
        assert np.array_equal(j1, ref1) and np.array_equal(j2, ref2)

    def test_uniform_on_a_cdf_value_draws_the_next_term(self):
        key = derive_key(8, 0, 0, 1)
        u = counter_uniforms(key, 0, 40)
        probs = np.concatenate(([u[7]], np.full(39, (1 - u[7]) / 39)))
        j1, _ = pair_draws(probs, key, key, 0, 40)
        assert j1[7] == 1


class TestMakeRng:
    def test_independent_streams(self):
        a = make_rng(5, 1).random(10)
        b = make_rng(5, 2).random(10)
        c = make_rng(5, 1).random(10)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)
