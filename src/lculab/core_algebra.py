"""Exact dense linear algebra: Pauli strings, statevectors, matrix functions.

Everything downstream (LCU realizations, Monte-Carlo estimators, walk
operators) is checked against the dense eigendecomposition oracle that lives
here.  Dimensions stay small (<= 10 qubits) so full eigensolves are cheap and
trustworthy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
NORMALIZATION_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-12

_VALID_PHASES = (1, -1, 1j, -1j)


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


class DenseOperator:
    """Immutable dense complex matrix with optional hermitian/unitary flags.

    Flags are validated once at construction, never re-checked on use.
    """

    __slots__ = ("dim", "entries", "hermitian", "unitary")

    def __init__(self, entries, hermitian: bool = False, unitary: bool = False):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("DenseOperator requires a square matrix")
        entries.setflags(write=False)
        self.dim = entries.shape[0]
        self.entries = entries
        self.hermitian = hermitian
        self.unitary = unitary
        if hermitian:
            scale = max(spectral_norm(entries), 1.0)
            if spectral_norm(entries - entries.conj().T) > HERMITIAN_TOL * scale:
                raise ValueError("matrix fails the hermitian check")
        if unitary:
            gram = entries.conj().T @ entries
            if spectral_norm(gram - np.eye(self.dim)) > UNITARY_TOL:
                raise ValueError("matrix fails the unitary check")

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.entries @ other.entries)

    def __repr__(self):
        return f"DenseOperator(dim={self.dim}, hermitian={self.hermitian}, unitary={self.unitary})"


class StateVector:
    """Complex amplitude vector over n qubits (or a plain index set)."""

    __slots__ = ("n_qubits", "amplitudes", "normalized")

    def __init__(self, amplitudes, normalized: bool = True, n_qubits: int | None = None):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 1:
            raise ValueError("amplitudes must be a 1-D array")
        dim = amplitudes.shape[0]
        if n_qubits is None:
            n_qubits = int(round(np.log2(dim))) if dim > 0 else 0
            if 2 ** n_qubits != dim:
                n_qubits = 0  # non-qubit dimension (walk edge spaces etc.)
        amplitudes.setflags(write=False)
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes
        self.normalized = normalized
        if normalized:
            nrm = np.sum(np.abs(amplitudes) ** 2)
            if abs(nrm - 1.0) > NORMALIZATION_TOL:
                raise ValueError(f"state norm {nrm} violates normalization flag")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self):
        return f"StateVector(dim={self.dim}, normalized={self.normalized})"


def basis_state(n_qubits: int, index: int = 0) -> StateVector:
    amp = np.zeros(2 ** n_qubits, dtype=complex)
    amp[index] = 1.0
    return StateVector(amp, n_qubits=n_qubits)


def plus_state(n_qubits: int) -> StateVector:
    dim = 2 ** n_qubits
    return StateVector(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex), n_qubits=n_qubits)


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis with a phase in {1, -1, i, -i}.

    Read as a signed permutation, in the binary (x, z) form of Aaronson and
    Gottesman (quant-ph/0406196): P|j> = diag[j] |j ^ x>, with x the X/Y bit
    mask (qubit 0 its most significant bit) and diag[j] = phase * i^{#Y} *
    (-1)^{popcount(j & z)}, z the Z/Y mask.  Both are cached on first use,
    read-only, and outside equality, hashing and repr.
    """

    symbols: str
    phase: complex = 1

    def __post_init__(self):
        if not self.symbols or any(s not in "IXYZ" for s in self.symbols):
            raise ValueError(f"invalid pauli symbols {self.symbols!r}")
        if self.phase not in _VALID_PHASES:
            raise ValueError(f"invalid phase {self.phase!r}")

    @cached_property
    def x(self) -> int:
        return int(self.symbols.translate(str.maketrans("IXYZ", "0110")), 2)

    @cached_property
    def diag(self) -> np.ndarray:
        j = np.arange(2 ** self.n_qubits)
        # the low bit of sum_{b in z} (j >> b) is the parity of j & z
        shifted = (j >> b for b, s in enumerate(self.symbols[::-1]) if s in "YZ")
        w = self.phase * 1j ** self.symbols.count("Y")
        diag = np.where(sum(shifted, 0 * j) & 1, -w, w)
        diag.setflags(write=False)
        return diag

    @property
    def n_qubits(self) -> int:
        return len(self.symbols)


def pauli_apply(p: PauliString, amplitudes: np.ndarray) -> np.ndarray:
    """Apply a Pauli string to raw amplitudes without building the matrix:
    (P psi)[k] = diag[k ^ x] psi[k ^ x], one gather."""
    return (p.diag * amplitudes)[np.arange(len(p.diag)) ^ p.x]


@dataclass(frozen=True)
class PauliHamiltonian:
    """Weighted sum of Pauli strings; beta is the l1 norm of the weights."""

    terms: tuple
    beta: float = field(init=False)

    def __post_init__(self):
        terms = tuple((float(c), p) for c, p in self.terms)
        if terms:
            n = terms[0][1].n_qubits
            if any(p.n_qubits != n for _, p in terms):
                raise ValueError("mismatched pauli string lengths")
            if any(p.phase not in (1, -1) for _, p in terms):
                raise ValueError("hamiltonian terms must carry real phases")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "beta", float(sum(abs(c) for c, _ in terms)))

    @property
    def n_qubits(self) -> int:
        return self.terms[0][1].n_qubits

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def ham_to_dense(h: PauliHamiltonian) -> DenseOperator:
    """The dense matrix of sum_l c_l P_l: each term scatters its dim
    nonzeros, c diag[j] at (j ^ x, j), in term order, and the sum takes one
    hermitian check."""
    if not h.terms:
        raise ValueError("empty hamiltonian")
    m = np.zeros((h.dim, h.dim), dtype=complex)
    cols = np.arange(h.dim)
    for c, p in h.terms:
        m[cols ^ p.x, cols] += c * p.diag
    return DenseOperator(m, hermitian=True)


def hermitian_eigh(a: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
    """(evals, evecs) of a hermitian-flagged operator, checked once by
    reconstructing A from them."""
    if not a.hermitian:
        raise ValueError("eigendecomposition requires a hermitian-flagged operator")
    evals, evecs = np.linalg.eigh(a.entries)
    recon = (evecs * evals) @ evecs.conj().T
    if spectral_norm(recon - a.entries) > RECONSTRUCTION_TOL:
        raise ValueError("eigendecomposition reconstruction residual too large")
    return evals, evecs


def matrix_function(a: DenseOperator, f) -> DenseOperator:
    """f(A) = sum_j f(lambda_j) |v_j><v_j| via one full eigendecomposition."""
    evals, evecs = hermitian_eigh(a)
    fvals = np.array([f(x) for x in evals], dtype=complex)
    return DenseOperator((evecs * fvals) @ evecs.conj().T)


def expectation(state, o: DenseOperator) -> float:
    """<psi|O|psi> for a StateVector, Tr[O rho] for a density DenseOperator."""
    if not o.hermitian:
        raise ValueError("observable must be hermitian-flagged")
    if isinstance(state, StateVector):
        if state.dim != o.dim:
            raise ValueError("dimension mismatch")
        val = np.vdot(state.amplitudes, o.entries @ state.amplitudes)
    elif isinstance(state, DenseOperator):
        if state.dim != o.dim:
            raise ValueError("dimension mismatch")
        val = np.trace(o.entries @ state.entries)
    else:
        raise TypeError("state must be a StateVector or density DenseOperator")
    if abs(val.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(val)):
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag}")
    return float(val.real)


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:(?P<coef>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\*)?"
    r"(?P<paulis>[IXYZ]+)"
)


def parse_pauli_text(text: str) -> PauliHamiltonian:
    """Parse expressions like "0.3*XZI + 0.4*ZZI" into a PauliHamiltonian.

    Whitespace-insensitive; coefficients decimal or scientific; a bare string
    of Pauli letters means coefficient 1; terms joined by + or -.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ValueError("empty hamiltonian expression")
    terms = []
    pos = 0
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if not m or m.end() == pos or (pos > 0 and not m.group("sign")):
            raise ValueError(f"cannot parse hamiltonian text at {compact[pos:]!r}")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        terms.append((sign * coef, PauliString(m.group("paulis"))))
        pos = m.end()
    return PauliHamiltonian(tuple(terms))
