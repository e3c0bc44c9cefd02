"""Discrete system coupled to grid-discretized continuous ancillas.

The couplings are position multiplications (H (x) z, H (x) y (x) z), so one
eigendecomposition of H gives the exact evolution at every grid point.
Post-selecting the ancillas implements Gaussian spectral filtering (ground
states) and an inverse-Hamiltonian component (linear systems).  Every
reported quantity is re-computed on a refined grid; runs that fail the
convergence comparison are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_algebra import DenseOperator, StateVector, ham_to_dense, matrix_function
from .applications import GspProblem, QlsProblem

LINE_N = 4096
RING_N = 4096
TWO_ANCILLA_N = 1024
CONVERGENCE_FRACTION = 0.10


class ConvergenceError(RuntimeError):
    """Grid refinement moved a reported quantity by more than the allowed
    fraction of its error budget."""


@dataclass(frozen=True)
class QumodeGrid:
    points: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    @property
    def n(self) -> int:
        return len(self.points)


def line_grid(z_max: float, n: int = LINE_N) -> QumodeGrid:
    """Uniform grid on [-z_max, z_max] with trapezoid weights."""
    pts = np.linspace(-z_max, z_max, n)
    h = pts[1] - pts[0]
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return QumodeGrid(points=pts, weights=w, kind="line")


def ring_grid(n: int = RING_N) -> QumodeGrid:
    """Midpoint grid on the unit ring coordinate [0, 1]."""
    pts = (np.arange(n) + 0.5) / n
    return QumodeGrid(points=pts, weights=np.full(n, 1.0 / n), kind="ring")


@dataclass(frozen=True)
class AncillaState:
    kind: str
    grid: QumodeGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        nrm = float(np.sum(self.grid.weights * np.abs(self.amplitudes) ** 2))
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"ancilla quadrature norm {nrm} != 1")


def _normalized(grid: QumodeGrid, raw: np.ndarray) -> np.ndarray:
    return raw / math.sqrt(float(np.sum(grid.weights * np.abs(raw) ** 2)))


def gaussian_ground(grid: QumodeGrid) -> AncillaState:
    raw = np.exp(-grid.points ** 2 / 4)
    return AncillaState("gaussian_ground", grid, _normalized(grid, raw))


def harmonic_first_excited(grid: QumodeGrid) -> AncillaState:
    raw = grid.points * np.exp(-grid.points ** 2 / 4)
    return AncillaState("harmonic_first_excited", grid, _normalized(grid, raw))


def ring_flat(grid: QumodeGrid) -> AncillaState:
    raw = np.ones(grid.n)
    return AncillaState("ring_flat", grid, _normalized(grid, raw))


class HybridState:
    """System (x) one or two ancilla grids, full amplitude array."""

    def __init__(self, grids: tuple, amplitudes: np.ndarray):
        self.grids = tuple(grids)
        self.amplitudes = amplitudes
        self.system_dim = amplitudes.shape[0]

    def quadrature_norm(self) -> float:
        w = self.grids[0].weights
        if len(self.grids) == 1:
            return float(np.sum(w[None, :] * np.abs(self.amplitudes) ** 2))
        w2 = self.grids[1].weights
        return float(np.einsum("j,k,djk->", w, w2,
                               np.abs(self.amplitudes) ** 2))


def evolve_bilinear(h: DenseOperator, psi0: StateVector, ancillas, bigT: float) -> HybridState:
    """Evolve |psi0>|anc...> under the position coupling for time bigT:
    each grid point sees e^{-i H * point * T} (one-ancilla case) or
    e^{-i H * y * z * T} (two-ancilla case)."""
    if not h.hermitian:
        raise ValueError("coupling Hamiltonian must be hermitian-flagged")
    ancillas = list(ancillas) if isinstance(ancillas, (list, tuple)) else [ancillas]
    evals, evecs = np.linalg.eigh(h.entries)
    coeffs = evecs.conj().T @ psi0.amplitudes
    if len(ancillas) == 1:
        a = ancillas[0]
        # (eig, z) phase table contracted back to the system basis
        table = np.exp(-1j * np.outer(evals, a.grid.points) * bigT)
        amp = evecs @ (coeffs[:, None] * table * a.amplitudes[None, :])
        return HybridState((a.grid,), amp)
    if len(ancillas) == 2:
        a1, a2 = ancillas
        yz = np.outer(a1.grid.points, a2.grid.points)
        amp = np.zeros((h.dim, a1.grid.n, a2.grid.n), dtype=complex)
        prod = a1.amplitudes[:, None] * a2.amplitudes[None, :]
        for e in range(len(evals)):
            phase = np.exp(-1j * evals[e] * yz * bigT)
            amp += np.multiply.outer(evecs[:, e] * coeffs[e], phase * prod)
        return HybridState((a1.grid, a2.grid), amp)
    raise ValueError("one or two ancillas supported")


def project_ancilla(state: HybridState, targets) -> tuple[StateVector, float]:
    """Contract every ancilla register against a target state under the
    quadrature; returns the (unnormalized) system component and its squared
    norm (the post-selection success probability)."""
    targets = list(targets) if isinstance(targets, (list, tuple)) else [targets]
    if len(targets) != len(state.grids):
        raise ValueError("one target per ancilla grid required")
    for tgt, grid in zip(targets, state.grids):
        if tgt.grid is not grid and not np.array_equal(tgt.grid.points, grid.points):
            raise ValueError("target lives on a different grid")
    amp = state.amplitudes
    if len(targets) == 1:
        comp = amp @ (state.grids[0].weights * np.conj(targets[0].amplitudes))
    else:
        v1 = state.grids[0].weights * np.conj(targets[0].amplitudes)
        v2 = state.grids[1].weights * np.conj(targets[1].amplitudes)
        comp = np.einsum("djk,j,k->d", amp, v1, v2)
    sv = StateVector(comp, normalized=False)
    return sv, float(np.linalg.norm(comp) ** 2)


# ---------------------------------------------------------------------------
# scalar quadrature oracles

def hubbard_stratonovich_check(y: float, z_max: float = 8.0, n: int = 2048) -> float:
    """Quadrature value of the Gaussian Fourier identity at y; compare with
    e^{-y^2/2}."""
    g = line_grid(z_max, n)
    return float(np.real(np.sum(g.weights * np.exp(-g.points ** 2 / 2)
                                * np.exp(-1j * y * g.points)) / math.sqrt(2 * math.pi)))


def ring_inverse_scalar(xs: np.ndarray, bigT: float, z_max: float = 10.0,
                        n_line: int = LINE_N, n_ring: int = TWO_ANCILLA_N) -> np.ndarray:
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
                            n: int = TWO_ANCILLA_N) -> float:
    """Double-Gaussian quadrature that evaluates to 1/(T x~) with
    x~ = sqrt(x^2 + 1/T^2); returned premultiplied by T for direct
    comparison with the closed form."""
    g = line_grid(z_max, n)
    wy = g.weights * np.exp(-g.points ** 2 / 2) / math.sqrt(2 * math.pi)
    inner = np.exp(-1j * np.outer(g.points * x * bigT, g.points)) @ wy
    return float(np.real(bigT * np.sum(g.weights / math.sqrt(2 * math.pi)
                                       * np.exp(-g.points ** 2 / 2) * inner)))


# ---------------------------------------------------------------------------
# end-to-end analog algorithms

def _line_zmax(epsilon: float) -> float:
    return 8.0 + math.sqrt(2 * math.log(1.0 / epsilon))


def analog_gsp(p: GspProblem, epsilon: float, n_points: int = LINE_N) -> dict:
    """Gaussian spectral filter by one ancilla: evolve under H (x) z for
    T = sqrt(2t), post-select the ancilla ground state."""
    from .applications import _shift_rescale
    shift = p.ground_energy_estimate - p.energy_precision
    scaled, beta = _shift_rescale(p.hamiltonian, shift)
    gap = p.gap_lower_bound / beta
    eta = p.overlap_lower_bound
    t = (1.0 / (2 * gap ** 2)) * math.log((1 - eta ** 2) / (eta ** 2 * epsilon ** 2)) + 1
    bigT = math.sqrt(2 * t)
    hd = ham_to_dense(scaled)
    z_max = _line_zmax(epsilon)

    def run(zm, n):
        grid = line_grid(zm, n)
        anc = gaussian_ground(grid)
        hyb = evolve_bilinear(hd, p.initial_state, [anc], bigT)
        comp, prob = project_ancilla(hyb, [gaussian_ground(grid)])
        return comp, prob

    comp, prob = run(z_max, n_points)
    comp2, prob2 = run(z_max * 1.25, n_points * 2)
    budget = max(epsilon, 1e-12)
    state_shift = float(np.linalg.norm(comp.amplitudes / np.linalg.norm(comp.amplitudes)
                                       - comp2.amplitudes / np.linalg.norm(comp2.amplitudes)))
    prob_shift = abs(prob - prob2) / max(prob2, 1e-300)
    converged = (state_shift <= CONVERGENCE_FRACTION * budget
                 and prob_shift <= CONVERGENCE_FRACTION)
    if not converged:
        raise ConvergenceError(
            f"grid refinement moved the result (state {state_shift}, "
            f"success {prob_shift})")
    norm_state = StateVector(comp2.amplitudes / np.linalg.norm(comp2.amplitudes))

    # test-only diagnostics against the dense oracle
    evals, evecs = np.linalg.eigh(hd.entries)
    v0 = evecs[:, 0]
    fidelity = float(abs(np.vdot(norm_state.amplitudes, v0)))
    return {"state": norm_state, "success_prob": prob2, "bigT": bigT, "t": t,
            "fidelity_vs_ground": fidelity, "converged": True,
            "grid": {"kind": "line", "n": n_points * 2, "z_max": z_max * 1.25}}


def analog_qls_ring(p: QlsProblem, epsilon: float,
                    n_points: int = TWO_ANCILLA_N) -> dict:
    """Inverse component via the oscillator/ring pair: prepare the first
    excited oscillator state and a flat ring state, evolve under
    H (x) y (x) z for T = kappa*sqrt(2 log(kappa/eps)), project the
    oscillator onto its ground state and the ring onto flat, and rotate the
    global phase by i.  The surviving system component is H^{-1}|b>/T."""
    hd = ham_to_dense(p.hamiltonian)
    bigT = p.kappa * math.sqrt(2 * math.log(p.kappa / epsilon))
    z_max = _line_zmax(epsilon)
    oracle = np.linalg.solve(hd.entries, p.b_state.amplitudes) / bigT

    def run(zm, n):
        gy = line_grid(zm, n)
        gz = ring_grid(n)
        hyb = evolve_bilinear(hd, p.b_state, [harmonic_first_excited(gy), ring_flat(gz)], bigT)
        comp, _ = project_ancilla(hyb, [gaussian_ground(gy), ring_flat(gz)])
        return 1j * comp.amplitudes

    comp = run(z_max, n_points)
    comp2 = run(z_max * 1.25, min(n_points * 2, TWO_ANCILLA_N))
    budget = epsilon / bigT
    shift = float(np.linalg.norm(comp - comp2))
    if shift > CONVERGENCE_FRACTION * budget:
        raise ConvergenceError(f"ring inverse grid shift {shift} > {CONVERGENCE_FRACTION * budget}")
    err = float(np.linalg.norm(comp2 - oracle))
    return {"projected_component": StateVector(comp2, normalized=False),
            "error_vs_oracle": err, "bigT": bigT, "converged": True,
            "grid": {"kind": "line+ring", "n": n_points, "z_max": z_max}}


def analog_qls_gaussian(p: QlsProblem, epsilon: float,
                        n_points: int = TWO_ANCILLA_N) -> dict:
    """Inverse component for positive spectra via two Gaussian ancillas:
    the projected component realizes (1/T) * 1/sqrt(H^2 + 1/T^2)."""
    hd = ham_to_dense(p.hamiltonian)
    evals = np.linalg.eigvalsh(hd.entries)
    if np.any(evals <= 0):
        raise ValueError("gaussian inverse requires a positive spectrum")
    bigT = p.kappa ** 1.5 / math.sqrt(epsilon)
    z_max = _line_zmax(epsilon)
    oracle = np.linalg.solve(hd.entries, p.b_state.amplitudes) / bigT
    smoothed = matrix_function(
        hd, lambda x: 1.0 / math.sqrt(x * x + 1.0 / bigT ** 2)).entries \
        @ p.b_state.amplitudes / bigT

    def run(zm, n):
        gy = line_grid(zm, n)
        gz = line_grid(zm, n)
        hyb = evolve_bilinear(hd, p.b_state, [gaussian_ground(gy), gaussian_ground(gz)], bigT)
        comp, _ = project_ancilla(hyb, [gaussian_ground(gy), gaussian_ground(gz)])
        return comp.amplitudes

    comp = run(z_max, n_points)
    comp2 = run(z_max * 1.25, min(n_points * 2, TWO_ANCILLA_N))
    budget = epsilon / bigT
    shift = float(np.linalg.norm(comp - comp2))
    if shift > CONVERGENCE_FRACTION * budget:
        raise ConvergenceError(f"gaussian inverse grid shift {shift}")
    return {"projected_component": StateVector(comp2, normalized=False),
            "error_vs_oracle": float(np.linalg.norm(comp2 - oracle)),
            "grid_error_vs_smoothed": float(np.linalg.norm(comp2 - smoothed)),
            "bigT": bigT, "converged": True,
            "grid": {"kind": "line+line", "n": n_points, "z_max": z_max}}
