"""Dense state-level analog oracle, the reference for the spectral engine
`analog.evolve_bilinear` / `analog.project_ancilla`.

The hybrid state is held as its full amplitude array: (dim, n) for one
ancilla grid, (dim, n, n) for two.  Every grid point carries its own system
state e^{-i H z T} or e^{-i H y z T} applied to |psi0>, weighted by the
ancilla amplitudes; projection contracts each grid axis against the
quadrature-weighted target.

The scalar quadrature oracles evaluate, on the grids the runners use, the
identities behind the analog algorithms: the Gaussian Fourier identity, the
ring-ancilla inverse and the double-Gaussian inverse.
"""

import math

import numpy as np

from lculab.analog import LINE_N, line_grid
from lculab.core_algebra import DenseOperator, StateVector


class DenseHybridState:
    """System (x) one or two ancilla grids, full amplitude array."""

    def __init__(self, grids: tuple, amplitudes: np.ndarray):
        self.grids = tuple(grids)
        self.amplitudes = amplitudes

    def quadrature_norm(self) -> float:
        w = self.grids[0].weights
        if len(self.grids) == 1:
            return float(np.sum(w[None, :] * np.abs(self.amplitudes) ** 2))
        w2 = self.grids[1].weights
        return float(np.einsum("j,k,djk->", w, w2,
                               np.abs(self.amplitudes) ** 2))


def evolve_dense(h: DenseOperator, psi0: StateVector, ancillas,
                 bigT: float) -> DenseHybridState:
    """|psi0>|anc...> evolved under H (x) z or H (x) y (x) z for time bigT."""
    evals, evecs = np.linalg.eigh(h.entries)
    coeffs = evecs.conj().T @ psi0.amplitudes
    if len(ancillas) == 1:
        a = ancillas[0]
        # (eig, z) phase table contracted back to the system basis
        table = np.exp(-1j * np.outer(evals, a.grid.points) * bigT)
        amp = evecs @ (coeffs[:, None] * table * a.amplitudes[None, :])
        return DenseHybridState((a.grid,), amp)
    a1, a2 = ancillas
    yz = np.outer(a1.grid.points, a2.grid.points)
    amp = np.zeros((h.dim, a1.grid.n, a2.grid.n), dtype=complex)
    prod = a1.amplitudes[:, None] * a2.amplitudes[None, :]
    for e in range(len(evals)):
        phase = np.exp(-1j * evals[e] * yz * bigT)
        amp += np.multiply.outer(evecs[:, e] * coeffs[e], phase * prod)
    return DenseHybridState((a1.grid, a2.grid), amp)


def project_dense(state: DenseHybridState, targets) -> tuple[np.ndarray, float]:
    """System component left after contracting each grid axis with its
    quadrature-weighted target, and its squared norm."""
    v = [grid.weights * np.conj(tgt.amplitudes)
         for tgt, grid in zip(targets, state.grids)]
    if len(v) == 1:
        comp = state.amplitudes @ v[0]
    else:
        comp = np.einsum("djk,j,k->d", state.amplitudes, v[0], v[1])
    return comp, float(np.linalg.norm(comp) ** 2)


def hubbard_stratonovich_check(y: float, z_max: float = 8.0, n: int = 2048) -> float:
    """Quadrature value of the Gaussian Fourier identity at y; compare with
    e^{-y^2/2}."""
    g = line_grid(z_max, n)
    return float(np.real(np.sum(g.weights * np.exp(-g.points ** 2 / 2)
                                * np.exp(-1j * y * g.points)) / math.sqrt(2 * math.pi)))


def ring_inverse_scalar(xs: np.ndarray, bigT: float, z_max: float = 10.0,
                        n_line: int = LINE_N, n_ring: int = 1024) -> np.ndarray:
    """i/sqrt(2 pi) * int_0^T dt int dy y e^{-y^2/2} e^{-i y x t}, by the
    same quadrature grids the state-level run uses."""
    xs = np.asarray(xs, dtype=float)
    gy = line_grid(z_max, n_line)
    # midpoint t-grid on [0, T]: the t-sum is a geometric series for each
    # (x, y) pair, so it collapses to closed form without a 3-D tensor
    step = bigT / n_ring
    freq = np.outer(xs, gy.points)                     # (nx, ny)
    q = np.exp(-1j * freq * step)
    with np.errstate(divide="ignore", invalid="ignore"):
        geo = np.where(np.isclose(q, 1.0), float(n_ring),
                       np.exp(-1j * freq * step / 2) * (1 - q ** n_ring) / (1 - q))
    wy = gy.weights * gy.points * np.exp(-gy.points ** 2 / 2)
    return 1j / math.sqrt(2 * math.pi) * step * (geo @ wy)


def gaussian_inverse_scalar(x: float, bigT: float, z_max: float = 10.0,
                            n: int = 1024) -> float:
    """Double-Gaussian quadrature that evaluates to 1/(T x~) with
    x~ = sqrt(x^2 + 1/T^2); returned premultiplied by T for direct
    comparison with the closed form."""
    g = line_grid(z_max, n)
    wy = g.weights * np.exp(-g.points ** 2 / 2) / math.sqrt(2 * math.pi)
    inner = np.exp(-1j * np.outer(g.points * x * bigT, g.points)) @ wy
    return float(np.real(bigT * np.sum(g.weights / math.sqrt(2 * math.pi)
                                       * np.exp(-g.points ** 2 / 2) * inner)))
