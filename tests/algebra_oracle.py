"""References for the tests of `lculab.core_algebra`: tensor products of
operators and states, the adjoint, the symbol-wise Pauli commutation rule,
and the text form of a Pauli Hamiltonian that `parse_pauli_text` reads."""

import numpy as np

from lculab.core_algebra import DenseOperator, PauliHamiltonian, PauliString, StateVector


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
