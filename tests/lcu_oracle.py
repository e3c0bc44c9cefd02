"""References for the tests of `lculab.lcu_decomp` and `lculab.walks`: the
term-by-term scalar symbol and realized operator of a time-evolution
decomposition, the truncated Chebyshev expansion of x^t coefficient by
coefficient (the reference for the walk search's Chebyshev table) and
evaluated on a grid, and the Poisson-weighted exponential polynomial
q(x) = e^{-t} sum_j (t^j/j!) p_{j,d'}(x), the degree-d' proxy for
e^{-t(1-x)} and, through q(1 - 2x^2), for e^{-t x^2}.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from lculab.lcu_decomp import term_unitaries


def direct_scalar_function(decomp, xs: np.ndarray) -> np.ndarray:
    """sum_j c_j phase_j e^{-i x d_j}, summed over every term, whatever the
    decomposition's kind; the grid is chunked so that the phase table stays
    near 5e6 complex entries."""
    xs = np.asarray(xs, dtype=float)
    weights = decomp.coeffs * decomp.phases
    chunk = max(1, int(5_000_000 // max(decomp.n_terms, 1)))
    out = np.empty(len(xs), dtype=complex)
    for lo in range(0, len(xs), chunk):
        out[lo:lo + chunk] = np.exp(-1j * np.outer(xs[lo:lo + chunk],
                                                   decomp.durations)) @ weights
    return out


def direct_realized_sum(decomp, h) -> np.ndarray:
    """sum_j c_j phase_j e^{-i d_j H}, one dense term at a time."""
    acc = 0
    for c, u in zip(decomp.coeffs.tolist(), term_unitaries(decomp, h)):
        acc = acc + c * u
    return acc


def _log_binom(n: int, k: int) -> float:
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def chebyshev_power_coeffs(t: int, d: int) -> np.ndarray:
    """Coefficients c_l with x^t ~ sum_l c_l T_{2l}(x) (even t) or
    sum_l c_l T_{2l+1}(x) (odd t), truncated at polynomial degree d."""
    if d > t or d < 0:
        raise ValueError("need 0 <= d <= t")
    if d % 2 != t % 2:
        raise ValueError("d must match the parity of t")
    ln2 = math.log(2.0)
    if t % 2 == 0:
        out = [math.exp(_log_binom(t, t // 2) - t * ln2)]
        for ell in range(1, d // 2 + 1):
            out.append(math.exp(_log_binom(t, t // 2 + ell) + (1 - t) * ln2))
    else:
        out = []
        for ell in range(0, (d - 1) // 2 + 1):
            out.append(math.exp(_log_binom(t, (t + 1) // 2 + ell) + (1 - t) * ln2))
    return np.array(out)


def chebyshev_power_eval(t: int, d: int, xs: np.ndarray) -> np.ndarray:
    """Evaluate the truncated expansion on [-1,1] via T_k(cos a)=cos(ka)."""
    c = chebyshev_power_coeffs(t, d)
    xs = np.asarray(xs, dtype=float)
    a = np.arccos(np.clip(xs, -1.0, 1.0))
    degrees = 2 * np.arange(len(c)) + (t % 2)
    return np.cos(np.outer(a, degrees)) @ c


@dataclass(frozen=True)
class ExpPolyCoeffs:
    t: float
    d: int
    dprime: int
    log_weights: np.ndarray      # log(e^{-t} t^j / j!), j = 0..d
    epsilon: float

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def exp_poly_coeffs(t: float, epsilon: float) -> ExpPolyCoeffs:
    """Nested coefficients for q(x) = e^{-t} sum_j (t^j/j!) p_{j,d'}(x),
    the degree-d' Chebyshev-truncated polynomial proxy for e^{-t(1-x)}."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0,1)")
    if t < 0:
        raise ValueError("t must be >= 0")
    d = max(1, math.ceil(max(t * math.e ** 2, math.log(2 / epsilon)))) if t > 0 else 0
    if t == 0:
        d = 0
    dprime = math.ceil(math.sqrt(2 * max(d, 1) * math.log(4 / epsilon)))
    js = np.arange(d + 1)
    if t > 0:
        log_w = -t + js * np.log(t) - gammaln(js + 1)
    else:
        log_w = np.full(d + 1, -np.inf)
    log_w[0] = -t  # j=0 term is e^{-t} even when t=0
    return ExpPolyCoeffs(t=float(t), d=d, dprime=dprime,
                         log_weights=log_w, epsilon=epsilon)


def _inner_degree(j: int, dprime: int) -> int:
    dd = dprime if dprime % 2 == j % 2 else dprime - 1
    return min(j, max(dd, j % 2))


def exp_poly_eval(coeffs: ExpPolyCoeffs, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    w = coeffs.weights
    for j in range(coeffs.d + 1):
        if w[j] == 0.0:
            continue
        if j == 0:
            out = out + w[j]
        else:
            out = out + w[j] * chebyshev_power_eval(j, _inner_degree(j, coeffs.dprime), xs)
    return out


def gaussian_poly_eval(t: float, epsilon: float, x) -> np.ndarray | float:
    """e^{-t x^2} proxy: q_{t/2,d,d'}(1 - 2x^2), with d and d' the schedule
    of exp_poly_coeffs(t/2, epsilon)."""
    coeffs = exp_poly_coeffs(t / 2.0, epsilon)
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    vals = exp_poly_eval(coeffs, 1.0 - 2.0 * xs ** 2)
    return float(vals[0]) if scalar else vals
