import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_oracle import (
    commutes_with,
    dagger,
    format_pauli_text,
    ham_to_dense_kron,
    pauli_to_dense,
    tensor,
    tensor_state,
)
from lculab import core_algebra
from lculab.core_algebra import (
    DenseOperator,
    PauliHamiltonian,
    PauliString,
    StateVector,
    basis_state,
    expectation,
    ham_to_dense,
    matrix_function,
    parse_pauli_text,
    pauli_apply,
    plus_state,
    spectral_norm,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestDenseOperator:
    def test_hermitian_flag_enforced(self):
        with pytest.raises(ValueError):
            DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex),
                          hermitian=True)

    def test_unitary_flag_enforced(self):
        with pytest.raises(ValueError):
            DenseOperator(2 * np.eye(2), unitary=True)

    def test_valid_flags(self):
        op = DenseOperator(X, hermitian=True, unitary=True)
        assert op.dim == 2

    def test_dagger(self):
        m = np.array([[1, 2j], [0, 1]], dtype=complex)
        op = DenseOperator(m)
        assert np.allclose(dagger(op).entries, m.conj().T)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_unnormalized_flag(self):
        sv = StateVector(np.array([1.0, 1.0]), normalized=False)
        assert sv.norm() == pytest.approx(math.sqrt(2))

    def test_basis_and_plus(self):
        assert np.allclose(basis_state(2, 3).amplitudes, [0, 0, 0, 1])
        assert np.allclose(plus_state(1).amplitudes,
                           [1 / math.sqrt(2)] * 2)


class TestPauliString:
    def test_z_dense(self):
        assert np.allclose(pauli_to_dense(PauliString("Z")).entries, Z)

    def test_identity_dense(self):
        assert np.allclose(pauli_to_dense(PauliString("II")).entries,
                           np.eye(4))

    def test_xz_kronecker_and_square(self):
        m = pauli_to_dense(PauliString("XZ")).entries
        assert np.allclose(m, np.kron(X, Z))
        assert np.allclose(m @ m, np.eye(4))

    def test_self_inverse_up_to_phase(self):
        p = PauliString("XY", phase=1j)
        m = pauli_to_dense(p).entries
        assert np.allclose(m @ m, (1j) ** 2 * np.kron(X, Y) @ np.kron(X, Y))

    def test_bad_symbol(self):
        with pytest.raises(ValueError):
            PauliString("XQ")

    def test_all_two_qubit_commutation_pairs(self):
        # symbol-wise parity rule vs dense commutator, all 16 pairs
        for a in "IXYZ":
            for b in "IXYZ":
                pa, pb = PauliString(a + "I"), PauliString(b + "Z")
                ma = pauli_to_dense(pa).entries
                mb = pauli_to_dense(pb).entries
                dense_commutes = np.allclose(ma @ mb, mb @ ma)
                assert commutes_with(pa, pb) == dense_commutes

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.tuples(st.text(alphabet="IXYZ", min_size=n, max_size=n),
                  st.sampled_from((1, -1, 1j, -1j)),
                  st.floats(min_value=-10, max_value=10, allow_nan=False)),
        min_size=1, max_size=5)), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_pauli_apply_matches_dense(self, terms, seed):
        # the signed-permutation masks reproduce the kron chain exactly:
        # pauli_apply against the dense product, ham_to_dense against the
        # per-term kron sum in term order
        dim = 2 ** len(terms[0][0])
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for sym, phase, _ in terms:
            p = PauliString(sym, phase)
            assert pauli_apply(p, v).tobytes() \
                == (pauli_to_dense(p).entries @ v).tobytes()
        real = tuple((c, PauliString(sym, phase))
                     for sym, phase, c in terms if phase in (1, -1))
        if real:
            h = PauliHamiltonian(real)
            assert ham_to_dense(h).entries.tobytes() \
                == ham_to_dense_kron(h).tobytes()

    def test_masks_are_read_only_and_outside_equality(self):
        p = PauliString("XYZ", -1j)
        assert p.x == 0b110
        assert not p.diag.flags.writeable
        assert p == PauliString("XYZ", -1j)
        assert hash(p) == hash(PauliString("XYZ", -1j))
        assert repr(PauliString("XZ")) == "PauliString(symbols='XZ', phase=1)"


class TestPauliHamiltonian:
    def test_beta(self):
        h = PauliHamiltonian(((0.3, PauliString("X")),
                              (-0.4, PauliString("Z"))))
        assert h.beta == 0.7

    def test_half_z(self):
        h = PauliHamiltonian(((0.5, PauliString("Z")),))
        assert np.allclose(ham_to_dense(h).entries, 0.5 * Z)

    def test_x_z_eigenvalues(self):
        h = PauliHamiltonian(((0.3, PauliString("X")),
                              (0.4, PauliString("Z"))))
        evals = np.linalg.eigvalsh(ham_to_dense(h).entries)
        assert np.allclose(sorted(evals), [-0.5, 0.5])

    def test_zero_coefficient(self):
        h = PauliHamiltonian(((0.0, PauliString("Z")),))
        assert np.allclose(ham_to_dense(h).entries, np.zeros((2, 2)))

    @pytest.mark.parametrize("text", ["0.5*Z", "0.5*XZ+0.25*ZI-0.1*YY",
                                      "0.3*XII+0.4*ZZI+0.2*IXZ+0.1*YYX"])
    def test_one_hermitian_check_per_sum(self, text, monkeypatch):
        # the terms build no checked operator of their own: two SVDs for the
        # hermitian check of the sum, whatever the term count
        norm, calls = core_algebra.spectral_norm, []
        monkeypatch.setattr(core_algebra, "spectral_norm",
                            lambda a: calls.append(1) or norm(a))
        ham_to_dense(parse_pauli_text(text))
        assert len(calls) == 2

    def test_spectral_norm_below_beta(self):
        h = parse_pauli_text("0.5*XZ+0.25*ZI-0.1*YY")
        assert spectral_norm(ham_to_dense(h).entries) <= h.beta + 1e-12

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PauliHamiltonian(((1.0, PauliString("X")),
                              (1.0, PauliString("XX"))))


class TestMatrixFunction:
    def test_exp_of_z(self):
        a = DenseOperator(Z, hermitian=True)
        out = matrix_function(a, lambda x: np.exp(-1j * math.pi * x))
        assert np.allclose(out.entries,
                           np.diag([np.exp(-1j * math.pi),
                                    np.exp(1j * math.pi)]))

    def test_inverse_of_z(self):
        out = matrix_function(DenseOperator(Z, hermitian=True),
                              lambda x: 1.0 / x)
        assert np.allclose(out.entries, Z)

    def test_gaussian_of_half_z(self):
        out = matrix_function(DenseOperator(0.5 * Z, hermitian=True),
                              lambda x: np.exp(-4 * x ** 2))
        assert np.allclose(out.entries, math.exp(-1) * np.eye(2))

    def test_requires_hermitian_flag(self):
        with pytest.raises(ValueError):
            matrix_function(DenseOperator(np.array([[0, 1], [0, 0]],
                                                   dtype=complex)),
                            lambda x: x)

    def test_polynomial_matches_horner(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = DenseOperator((m + m.conj().T) / 2, hermitian=True)
        coeffs = [0.5, -1.0, 0.25, 2.0]   # 0.5 - x + 0.25 x^2 + 2 x^3
        out = matrix_function(a, lambda x: np.polyval(coeffs[::-1], x))
        horner = np.zeros_like(a.entries)
        for c in reversed(coeffs):
            horner = horner @ a.entries + c * np.eye(8)
        assert np.linalg.norm(out.entries - horner, 2) <= 1e-9

    @pytest.mark.parametrize("t", [0.1, 1.0, 7.3])
    def test_time_evolution_unitary(self, t):
        h = ham_to_dense(parse_pauli_text("0.4*XZ+0.3*ZY+0.2*II"))
        u = matrix_function(h, lambda x: np.exp(-1j * t * x))
        assert np.linalg.norm(u.entries @ u.entries.conj().T - np.eye(4),
                              2) <= 1e-10


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(basis_state(1, 0),
                           DenseOperator(Z, hermitian=True)) == 1.0

    def test_z_on_plus(self):
        assert abs(expectation(plus_state(1),
                               DenseOperator(Z, hermitian=True))) < 1e-12

    def test_x_on_plus(self):
        assert expectation(plus_state(1),
                           DenseOperator(X, hermitian=True)) \
            == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(basis_state(2, 0), DenseOperator(Z, hermitian=True))


class TestTensor:
    def test_iz_on_01(self):
        o = tensor(DenseOperator(np.eye(2), hermitian=True, unitary=True),
                   DenseOperator(Z, hermitian=True, unitary=True))
        psi = tensor_state(basis_state(1, 0), basis_state(1, 1))
        assert expectation(psi, o) == pytest.approx(-1.0)

    def test_tensor_matches_kron_action(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        left = tensor(DenseOperator(a), DenseOperator(b)).entries \
            @ np.kron(u, v)
        assert np.allclose(left, np.kron(a @ u, b @ v))


class TestPauliText:
    def test_parse_basic(self):
        h = parse_pauli_text("0.3*XZI + 0.4*ZZI")
        assert h.beta == pytest.approx(0.7)
        assert h.terms[0][1].symbols == "XZI"

    def test_parse_scientific_and_signs(self):
        h = parse_pauli_text("-1e-2*X+.5*Z")
        assert h.terms[0][0] == pytest.approx(-0.01)
        assert h.terms[1][0] == pytest.approx(0.5)

    def test_parse_bare_pauli(self):
        h = parse_pauli_text("Z")
        assert h.terms[0][0] == 1.0

    def test_parse_rejects_garbage(self):
        for bad in ("0.3*", "XQ", "0.3 XZ", ""):
            with pytest.raises(ValueError):
                parse_pauli_text(bad)

    @given(st.lists(
        st.tuples(
            st.floats(min_value=-10, max_value=10,
                      allow_nan=False).filter(lambda c: abs(c) > 1e-6),
            st.text(alphabet="IXYZ", min_size=2, max_size=2)),
        min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_format_parse_round_trip(self, terms):
        h = PauliHamiltonian(tuple((c, PauliString(s)) for c, s in terms))
        back = parse_pauli_text(format_pauli_text(h))
        assert np.allclose(ham_to_dense(back).entries,
                           ham_to_dense(h).entries, atol=1e-9)
