import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lculab.core_algebra import (
    DenseOperator,
    PauliHamiltonian,
    PauliString,
    ham_to_dense,
    matrix_function,
    parse_pauli_text,
)
from lculab.lcu_decomp import (
    LcuDecomposition,
    SegmentLcu,
    apply_pauli_rotation,
    gaussian_lcu,
    inverse_lcu,
    realized_sum,
    scalar_function,
    taylor_truncation_order,
    term_unitaries,
)
from lcu_oracle import (
    chebyshev_power_coeffs,
    chebyshev_power_eval,
    direct_realized_sum,
    direct_scalar_function,
    exp_poly_coeffs,
    exp_poly_eval,
    gaussian_poly_eval,
)


def _random_unit_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2
    h = h / np.linalg.norm(h, 2)
    return DenseOperator(h, hermitian=True)


class TestGaussianLcu:
    def test_center_coefficient(self):
        dec = gaussian_lcu(25.0, 1e-3)
        delta_t = dec.info["delta_t"]
        center = dec.coeffs[dec.durations == 0.0]
        assert len(center) == 1
        assert center[0] == pytest.approx(delta_t / math.sqrt(2 * math.pi))

    @pytest.mark.parametrize("t", [2.0, 25.0, 400.0])
    def test_l1_bound(self, t):
        dec = gaussian_lcu(t, 1e-3)
        assert dec.l1_norm <= 1 + dec.info["delta_t"]

    def test_operator_error_padded_z(self):
        dec = gaussian_lcu(25.0, 1e-3)
        h = np.kron(0.5 * np.diag([1.0, -1.0]), np.eye(4))
        hd = DenseOperator(h, hermitian=True)
        target = matrix_function(hd, lambda x: np.exp(-25.0 * x ** 2)).entries
        assert np.linalg.norm(realized_sum(dec, hd) - target, 2) <= 1e-3

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gaussian_lcu(0.5, 1e-3)
        with pytest.raises(ValueError):
            gaussian_lcu(5.0, 2.0)

    def test_coefficients_positive_and_l1_exact(self):
        dec = gaussian_lcu(10.0, 1e-2)
        coeffs = dec.coeffs.tolist()
        assert all(c > 0 for c in coeffs)
        assert dec.l1_norm == functools.reduce(operator.add, coeffs)

    def test_reproducible(self):
        a = gaussian_lcu(7.0, 1e-3)
        b = gaussian_lcu(7.0, 1e-3)
        for name in ("coeffs", "durations", "phases"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.fixture(scope="module")
def dec10():
    return inverse_lcu(10.0, 1e-2)


class TestInverseLcu:

    def test_scalar_bound(self, dec10):
        assert dec10.info["scalar_sup_error"] <= 1e-2

    def test_odd_function(self, dec10):
        xs = np.linspace(0.1, 1.0, 200)
        assert np.max(np.abs(scalar_function(dec10, xs)
                             + scalar_function(dec10, -xs))) <= 1e-12

    @pytest.mark.parametrize("kappa", [2.0, 5.0, 10.0, 20.0])
    def test_l1_scaling(self, kappa):
        gamma = 1e-2
        dec = inverse_lcu(kappa, gamma)
        assert dec.l1_norm <= 10 * kappa * math.sqrt(
            math.log(kappa / gamma))

    def test_tau_max_reported(self, dec10):
        durations = np.abs(dec10.durations)
        assert max(durations) <= dec10.info["tau_max"] + 1e-9

    @pytest.mark.parametrize("kappa", [2.0, 5.0, 10.0])
    def test_closed_form_matches_term_sum(self, kappa):
        # scalar_function sums each j-series in closed form; the arrays hold
        # every term, and the two must agree on and off the calibration grid
        dec = inverse_lcu(kappa, 1e-2)
        half = np.linspace(1 / kappa, 1.0, 20)
        xs = np.concatenate([-half, half, [0.0, 1e-7, 0.5 / kappa, 1.3]])
        assert np.max(np.abs(scalar_function(dec, xs)
                             - direct_scalar_function(dec, xs))) <= 1e-12

    def test_realized_sum_matches_term_sum(self):
        rng = np.random.default_rng(7)
        hd = _random_unit_hermitian(rng, 4)
        dec = inverse_lcu(2.0, 1e-1)
        assert np.max(np.abs(realized_sum(dec, hd)
                             - direct_realized_sum(dec, hd))) <= 1e-12


class TestTaylorSegment:
    def test_k0_weight(self):
        h = parse_pauli_text("0.3*X+0.4*Z")
        seg = SegmentLcu(h, 1.0, 1, 8)
        x = 0.7
        assert seg.k_weights[0] == pytest.approx(math.sqrt(1 + x ** 2))

    def test_l1_bound(self):
        h = parse_pauli_text("0.3*X+0.4*Z")
        seg = SegmentLcu(h, 1.0, 1, 8)
        assert seg.l1_norm <= math.exp(seg.x ** 2)

    def test_exhaustive_realization(self):
        h = parse_pauli_text("0.3*X+0.4*Z")
        seg = SegmentLcu(h, 1.0, 1, 8)
        hd = ham_to_dense(h)
        acc = np.zeros((2, 2), dtype=complex)
        for coef, desc in seg.enumerate_terms():
            acc += coef * np.stack([apply_pauli_rotation(desc, h, col)
                                    for col in np.eye(2, dtype=complex)],
                                   axis=1)
        target = matrix_function(hd, lambda x: np.exp(-1j * x)).entries
        assert np.linalg.norm(acc - target, 2) <= 1e-6

    def test_truncation_order(self):
        k = taylor_truncation_order(0.7, 1, 1e-6)
        assert 1 * 0.7 ** (k + 1) / math.factorial(k + 1) \
            * math.exp(0.7) <= 1e-6
        if k > 0:
            assert 1 * 0.7 ** k / math.factorial(k) * math.exp(0.7) > 1e-6


class TestChebyshevPower:
    def test_t2_coeffs(self):
        c = chebyshev_power_coeffs(2, 2)
        assert np.allclose(c, [0.5, 0.5])

    def test_t1_identity(self):
        assert np.allclose(chebyshev_power_coeffs(1, 1), [1.0])

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            chebyshev_power_coeffs(4, 3)

    def test_lemma_grid_bound(self):
        t, eps = 50, 1e-6
        d = math.ceil(math.sqrt(2 * t * math.log(2 / eps)))
        d -= d % 2
        xs = np.linspace(-1, 1, 4001)
        err = np.max(np.abs(chebyshev_power_eval(t, d, xs) - xs ** t))
        assert err <= eps

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_coeff_sum_near_one(self, t):
        # full expansion sums exactly to 1; truncation stays within eps/4
        full = chebyshev_power_coeffs(t, t)
        assert float(np.sum(full)) == pytest.approx(1.0, abs=1e-12)
        eps = 0.05
        d = min(t, math.ceil(math.sqrt(2 * t * math.log(24 / eps))))
        d -= (d % 2 != t % 2)
        c = chebyshev_power_coeffs(t, d)
        assert float(np.sum(c)) >= 1 - eps / 4


class TestExpPoly:
    def test_t0_constant(self):
        cf = exp_poly_coeffs(0.0, 1e-3)
        xs = np.linspace(-1, 1, 50)
        assert np.allclose(exp_poly_eval(cf, xs), 1.0)

    def test_value_at_one(self):
        cf = exp_poly_coeffs(3.0, 1e-3)
        q1 = float(exp_poly_eval(cf, np.array([1.0]))[0])
        assert 1 - 1e-3 <= q1 <= 1 + 1e-12

    def test_grid_bound_t9(self):
        cf = exp_poly_coeffs(9.0, 1e-4)
        xs = np.linspace(-1, 1, 4001)
        err = np.max(np.abs(exp_poly_eval(cf, xs) - np.exp(-9 * (1 - xs))))
        assert err <= 1e-4


class TestGaussianPoly:
    def test_x0(self):
        assert gaussian_poly_eval(4.0, 1e-3, 0.0) == pytest.approx(1.0,
                                                                   abs=1e-3)

    def test_x1_t4(self):
        assert gaussian_poly_eval(4.0, 1e-3, 1.0) \
            == pytest.approx(math.exp(-4), abs=1e-3)

    def test_grid_t10(self):
        xs = np.linspace(-1, 1, 2001)
        vals = gaussian_poly_eval(10.0, 1e-3, xs)
        assert np.max(np.abs(vals - np.exp(-10 * xs ** 2))) <= 1e-3


class TestRealize:
    def test_identity(self):
        h = ham_to_dense(parse_pauli_text("0.5*Z"))
        dec = LcuDecomposition(coeffs=[1.0], durations=[0.0], phases=[1.0],
                               target_error=0.0)
        assert np.allclose(realized_sum(dec, h), np.eye(2))

    def test_zero_time_evolution(self):
        h = ham_to_dense(parse_pauli_text("0.5*Z"))
        dec = LcuDecomposition(coeffs=[1.0], durations=[0.0], phases=[1.0],
                               target_error=0.0)
        assert np.allclose(next(term_unitaries(dec, h)), np.eye(2))

    def test_against_expm(self):
        rng = np.random.default_rng(4)
        hd = _random_unit_hermitian(rng, 4)
        dec = LcuDecomposition(coeffs=[0.5, 0.3, 0.2],
                               durations=[1.7, -0.4, 6.0],
                               phases=[1.0, 1j, -1j], target_error=0.0)
        refs = [p * expm(-1j * tau * hd.entries)
                for tau, p in zip(dec.durations, dec.phases)]
        for u, ref in zip(term_unitaries(dec, hd), refs):
            assert np.allclose(u, ref, rtol=0, atol=1e-12)
        expected = sum(c * ref for c, ref in zip(dec.coeffs, refs))
        assert np.allclose(realized_sum(dec, hd), expected, rtol=0,
                           atol=1e-12)


class TestDecompositionInvariants:
    def test_positive_coefficients_rejected(self):
        with pytest.raises(ValueError):
            LcuDecomposition(coeffs=[-0.5], durations=[1.0], phases=[1.0],
                             target_error=0.1)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LcuDecomposition(coeffs=[0.5, 0.5], durations=[1.0],
                             phases=[1.0, 1.0], target_error=0.1)

    @pytest.mark.parametrize("kappa,gamma", [(2.0, 0.1 / 18), (4.0, 1e-2),
                                             (5.0, 0.1 / 18), (10.0, 1e-2)])
    def test_inverse_l1_is_the_left_to_right_sum(self, kappa, gamma):
        # l1, and every Hoeffding count read off it, is the sum taken left
        # to right on every Python (sum() of floats is compensated from
        # 3.12 on, np.sum is pairwise)
        dec = inverse_lcu(kappa, gamma)
        assert dec.l1_norm == functools.reduce(operator.add,
                                               dec.coeffs.tolist())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-12, 1e6), min_size=1, max_size=200))
    def test_l1_is_the_left_to_right_sum(self, coeffs):
        dec = LcuDecomposition(coeffs=coeffs, durations=np.zeros(len(coeffs)),
                               phases=np.ones(len(coeffs)), target_error=0.0)
        assert dec.l1_norm == functools.reduce(operator.add, coeffs)

    def test_arrays_read_only(self):
        dec = gaussian_lcu(4.0, 1e-2)
        for a in (dec.coeffs, dec.durations, dec.phases, dec.terms):
            with pytest.raises(ValueError):
                a[0] = 1.0
        assert len(dec.terms) == dec.n_terms

    @pytest.mark.parametrize("seed", range(5))
    def test_gaussian_operator_bound_random(self, seed):
        rng = np.random.default_rng(seed)
        hd = _random_unit_hermitian(rng, 4)
        dec = gaussian_lcu(9.0, 1e-3)
        target = matrix_function(hd, lambda x: np.exp(-9.0 * x ** 2)).entries
        assert np.linalg.norm(realized_sum(dec, hd) - target, 2) <= 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_operator_bound_random(self, seed):
        # random Hermitian with spectrum pushed outside (-1/kappa, 1/kappa)
        rng = np.random.default_rng(100 + seed)
        kappa = 4.0
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (m + m.conj().T) / 2
        evals, evecs = np.linalg.eigh(h)
        evals = np.sign(evals) * (1 / kappa + (1 - 1 / kappa)
                                  * np.abs(evals) / np.max(np.abs(evals)))
        dec = inverse_lcu(kappa, 1e-2)
        # time-evolution terms commute with H, so the realized operator is
        # the scalar approximation evaluated on the spectrum
        approx = scalar_function(dec, evals)
        assert np.max(np.abs(approx - 1.0 / evals)) <= 1e-2
