"""References for the tests of `lculab.core_algebra`: tensor products of
operators and states, the adjoint, the kron-chain matrix of a Pauli string,
the symbol-wise Pauli commutation rule, and the text form of a Pauli
Hamiltonian that `parse_pauli_text` reads."""

import numpy as np

from lculab.core_algebra import DenseOperator, PauliHamiltonian, PauliString, StateVector

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def tensor(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    return DenseOperator(np.kron(a.entries, b.entries),
                         hermitian=a.hermitian and b.hermitian,
                         unitary=a.unitary and b.unitary)


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(np.kron(a.amplitudes, b.amplitudes),
                       normalized=a.normalized and b.normalized,
                       n_qubits=a.n_qubits + b.n_qubits)


def dagger(a: DenseOperator) -> DenseOperator:
    return DenseOperator(a.entries.conj().T,
                         hermitian=a.hermitian, unitary=a.unitary)


def pauli_to_dense(p: PauliString) -> DenseOperator:
    """The matrix of P as phase times the kron chain of its symbols."""
    m = np.array([[1.0]], dtype=complex)
    for s in p.symbols:
        m = np.kron(m, _PAULI_MATRICES[s])
    m = p.phase * m
    return DenseOperator(m, hermitian=p.phase in (1, -1), unitary=True)


def ham_to_dense_kron(h: PauliHamiltonian) -> np.ndarray:
    """sum_l c_l P_l with each P_l from the kron chain, summed in term
    order from a zero matrix."""
    m = np.zeros((h.dim, h.dim), dtype=complex)
    for c, p in h.terms:
        m += c * pauli_to_dense(p).entries
    return m


def commutes_with(a: PauliString, b: PauliString) -> bool:
    """Symbol-wise parity rule: anticommute iff an odd number of positions
    hold distinct non-identity Paulis."""
    if len(a.symbols) != len(b.symbols):
        raise ValueError("length mismatch")
    clashes = sum(1 for x, y in zip(a.symbols, b.symbols)
                  if x != "I" and y != "I" and x != y)
    return clashes % 2 == 0


def format_pauli_text(h: PauliHamiltonian) -> str:
    parts = []
    for c, p in h.terms:
        c = c * (1 if p.phase == 1 else -1)
        parts.append(f"{'+' if c >= 0 and parts else ''}{c!r}*{p.symbols}")
    return " ".join(parts) if parts else "0*I"
