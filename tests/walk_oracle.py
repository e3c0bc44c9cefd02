"""Dense Szegedy-walk oracle on the n^2 edge space, the reference for the
matrix-free `walks.WalkOperator`.

U_P completes the column isometry U_P |0>|x> = sum_y sqrt(p_xy) |y, x> to a
full unitary by the QR of [prescribed | I] with signs fixed, U_D =
U_P^dag S U_P, and V = R U_D with R the reflection about |0> in the first
register.  The edge space is ordered |y, x> -> index y*n + x.
"""

import math

import numpy as np

from lculab.core_algebra import DenseOperator
from lculab.walks import InterpolatedChain, discriminant


class DenseWalk:
    """U_P, U_D = U_P^dag S U_P, and V = R U_D as dense n^2 x n^2 matrices."""

    def __init__(self, chain: InterpolatedChain):
        self.chain = chain
        n = chain.n
        self.n = n
        ps = chain.matrix()
        cols = np.zeros((n * n, n))
        for x in range(n):
            for y in range(n):
                cols[y * n + x, x] = math.sqrt(ps[x, y])
        # deterministic completion: QR of [prescribed | I] with signs fixed
        big = np.concatenate([cols, np.eye(n * n)], axis=1)
        q, r = np.linalg.qr(big)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        u_p = q * signs[None, :]
        self.u_p = DenseOperator(u_p, unitary=True)
        swap = np.zeros((n * n, n * n))
        for x in range(n):
            for y in range(n):
                swap[x * n + y, y * n + x] = 1.0
        self.swap = swap
        u_d = u_p.T.conj() @ swap @ u_p
        self.u_d = DenseOperator(u_d, unitary=True)
        zero = np.zeros(n)
        zero[0] = 1.0
        refl = np.kron(2 * np.outer(zero, zero) - np.eye(n), np.eye(n))
        self.v = DenseOperator(refl @ u_d, unitary=True)
        self.d = discriminant(chain)

    def block(self, m: np.ndarray) -> np.ndarray:
        """(<0|(x)I) M (|0>(x)I): the top-left n x n node block."""
        return m[: self.n, : self.n]

    def powers(self, psi0: np.ndarray, max_e: int) -> list[np.ndarray]:
        """V^e psi0 for e = 0..max_e, by repeated matrix-vector products."""
        out = [np.asarray(psi0, dtype=complex)]
        for _ in range(max_e):
            out.append(self.v.entries @ out[-1])
        return out
