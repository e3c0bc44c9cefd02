"""Markov chains, quantum walk operators, and randomized spatial search.

The edge space is ordered |y, x> -> index y*n + x; the walk starts from
the column isometry A|x> = sum_y sqrt(p_xy) |y, x> and steps by
(2 A A^T - I) S, with S the register swap, without forming any n^2 x n^2
matrix.  Walk powers block-encode Chebyshev polynomials of the
discriminant, which the two search algorithms sample through truncated
power / exponential mixtures.

Trials, the exact oracle and the Theorem-1 slack read two tables of one
search schedule: the Chebyshev table, whose row x is the truncated
Chebyshev mixture over walk powers of the monomial of degree x, and per
interpolation value s a table of the node marginals of W(s)^e A|sqrt(pi_U)>,
one row per power.  tests/walk_oracle.py keeps the state-level references."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._kernels import make_rng
from .core_algebra import UNITARY_TOL, DenseOperator, StateVector

MAX_NODES = 64


@dataclass(frozen=True)
class MarkovChain:
    p: np.ndarray
    pi: np.ndarray
    reversible: bool = False

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        if p.shape[0] > MAX_NODES:
            raise ValueError(f"chains capped at {MAX_NODES} nodes")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("rows must sum to 1")
        if np.max(np.abs(self.pi @ p - self.pi)) > 1e-10:
            raise ValueError("pi is not stationary")
        if self.reversible:
            flow = self.pi[:, None] * p
            if np.max(np.abs(flow - flow.T)) > 1e-10:
                raise ValueError("detailed balance fails")

    @property
    def n(self) -> int:
        return self.p.shape[0]


def chain_from_matrix(p: np.ndarray, reversible: bool | None = None) -> MarkovChain:
    """Compute the stationary distribution (left unit eigenvector) and flag
    reversibility by direct detailed-balance inspection."""
    p = np.asarray(p, dtype=float)
    evals, evecs = np.linalg.eig(p.T)
    idx = int(np.argmin(np.abs(evals - 1.0)))
    pi = np.real(evecs[:, idx])
    pi = pi / pi.sum()
    if np.any(pi < -1e-12):
        raise ValueError("no positive stationary distribution found")
    pi = np.abs(pi)
    if reversible is None:
        flow = pi[:, None] * p
        reversible = bool(np.max(np.abs(flow - flow.T)) <= 1e-10)
    return MarkovChain(p=p, pi=pi, reversible=reversible)


def cycle_chain(n: int) -> MarkovChain:
    """Simple random walk on the n-cycle."""
    p = np.zeros((n, n))
    for i in range(n):
        p[i, (i + 1) % n] += 0.5
        p[i, (i - 1) % n] += 0.5
    return chain_from_matrix(p, reversible=True)


def complete_chain(n: int) -> MarkovChain:
    p = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    return chain_from_matrix(p, reversible=True)


def lazy(c: MarkovChain) -> MarkovChain:
    """(I + P)/2: shifts the discriminant spectrum into [0, 1]."""
    return MarkovChain(p=(np.eye(c.n) + c.p) / 2, pi=c.pi, reversible=c.reversible)


@dataclass(frozen=True)
class InterpolatedChain:
    base: MarkovChain
    marked: frozenset
    s: float

    def __post_init__(self):
        if not self.marked:
            raise ValueError("no marked nodes")
        if not 0 <= self.s < 1:
            raise ValueError("s must lie in [0, 1)")
        if not all(0 <= m < self.base.n for m in self.marked):
            raise ValueError("marked node out of range")

    @property
    def n(self) -> int:
        return self.base.n

    def matrix(self) -> np.ndarray:
        """(1-s) P + s P' with P' absorbing at the marked set."""
        p_prime = self.base.p.copy()
        for m in self.marked:
            p_prime[m, :] = 0.0
            p_prime[m, m] = 1.0
        return (1 - self.s) * self.base.p + self.s * p_prime


def discriminant(c: InterpolatedChain) -> DenseOperator:
    ps = c.matrix()
    d = np.sqrt(ps * ps.T)
    return DenseOperator(d, hermitian=True)


def hitting_time(c: MarkovChain, marked) -> float:
    """Expected steps to reach the marked set from the stationary
    distribution restricted to unmarked nodes (fundamental-matrix solve)."""
    marked = frozenset(marked)
    if not marked:
        raise ValueError("no marked nodes")
    unmarked = [x for x in range(c.n) if x not in marked]
    if not unmarked:
        return 0.0
    puu = c.p[np.ix_(unmarked, unmarked)]
    try:
        tau = np.linalg.solve(np.eye(len(unmarked)) - puu, np.ones(len(unmarked)))
    except np.linalg.LinAlgError as ex:
        raise ValueError("marked set unreachable") from ex
    weights = c.pi[unmarked]
    return float(weights @ tau / weights.sum())


# ---------------------------------------------------------------------------
# walk operators

class WalkOperator:
    """The Szegedy walk W = (2 Pi - I) S of an interpolated chain, applied
    matrix-free on the n^2 edge space.

    A state is the edge vector chi reshaped to an n x n array chi[y, x].  S
    swaps the two registers (a transpose), A|x> = sum_y sqrt(p_xy) |y, x> is
    the start isometry and Pi = A A^T projects onto its range.  With U_P the
    unitary completion of A and V = R U_P^dag S U_P the dense walk,
    U_P V U_P^dag = W, so W^e A|psi> = U_P V^e |0>|psi>.  U_P maps each
    x-block to itself, so node marginals and marked weights agree with
    those of V^e |0>|psi>.  One step costs O(n^2)."""

    def __init__(self, chain: InterpolatedChain):
        self.chain = chain
        self.n = chain.n
        # sqrt_pt[y, x] = sqrt(p_xy): column x is A|x> in the y slot
        self.sqrt_pt = np.sqrt(chain.matrix()).T
        # A^T A is diagonal with the row sums of P(s), so A is an isometry
        # exactly when every row sums to one
        if np.max(np.abs((self.sqrt_pt ** 2).sum(axis=0) - 1.0)) > UNITARY_TOL:
            raise ValueError("walk start map fails the isometry check")
        self.d = discriminant(chain)

    def start(self, psi0: StateVector) -> np.ndarray:
        """A|psi> = U_P |0>|psi> as an n x n array, for an edge state
        |0>|psi> (as `edge_zero_state` builds it)."""
        amp = psi0.amplitudes.reshape(self.n, self.n)
        if np.any(amp[1:] != 0):
            raise ValueError("expected an edge state |0>|psi>")
        return self.sqrt_pt * amp[0]

    def step(self, chi: np.ndarray) -> np.ndarray:
        """W chi = 2 A (A^T S chi) - S chi, for chi[..., y, x] (a stack of
        edge states over the leading axes)."""
        swapped = np.swapaxes(chi, -1, -2)
        coeffs = (self.sqrt_pt * swapped).sum(axis=-2)
        return 2.0 * self.sqrt_pt * coeffs[..., None, :] - swapped


def edge_zero_state(node_amplitudes: np.ndarray) -> StateVector:
    """|0>|psi> on the edge space (first register fixed to node 0)."""
    n = len(node_amplitudes)
    amp = np.zeros(n * n, dtype=complex)
    amp[:n] = node_amplitudes
    return StateVector(amp, normalized=abs(np.linalg.norm(node_amplitudes) - 1) < 1e-10)


# ---------------------------------------------------------------------------
# spatial search

def _poisson(t: float, d: int) -> np.ndarray:
    """Poisson(t) weights on 0..d, renormalized after the truncation."""
    t = float(t)
    if t <= 0:
        weights = np.zeros(d + 1)
        weights[0] = 1.0
        return weights
    js = np.arange(d + 1)
    weights = np.exp(-t + js * np.log(t) - gammaln(js + 1))
    return weights / weights.sum()


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    node: int
    s_used: float
    t_used: float
    walk_steps_applied: int


@dataclass(frozen=True)
class SearchConfig:
    c_t: float = 1.0          # multiplier on the hitting time for T
    master_seed: int = 0


def _r_grid(big_t: float) -> list[int]:
    """Interpolation grid r in {1, 2, ..., 2^ceil(log2 T)}; s = 1 - 1/r."""
    return [2 ** k for k in range(0, math.ceil(math.log2(max(big_t, 2.0))) + 1)]


def _pi_states(c: MarkovChain, marked: frozenset):
    """(pi_M, sqrt(pi_U)): the marked stationary mass and the square root of
    the stationary distribution restricted to unmarked nodes."""
    pi = c.pi
    pi_m = sum(pi[m] for m in marked)
    unmarked_mask = np.array([x not in marked for x in range(c.n)])
    pu = pi * unmarked_mask
    sqrt_pi_u = np.sqrt(pu / pu.sum()) if pu.sum() > 0 else np.zeros(c.n)
    return pi_m, sqrt_pi_u


class _SearchSchedule:
    """Everything one search call derives from (chain, marked, config, algo):
    the hitting time HT of the lazy chain, T = max(c_t HT, 2), the r-grid,
    the polynomial degrees d (and d' for algo 2) with their truncation
    budget eps, pi_M and sqrt(pi_U), the Chebyshev table `cheb` and one
    node-marginal table per interpolation value s, built when s is first
    asked for.

    Algo 1 samples the truncated Chebyshev mixture of x^t at degree d.
    Algo 2 draws l from the Poisson(t) weights truncated at d, then samples
    the mixture of x^l at degree d'.  No mixture reaches past the power
    max_e: d (algo 1) or d' (algo 2).

    Row x of the read-only table `cheb` is the truncated Chebyshev mixture
    of the monomial of degree x, for every degree a trial can draw: t <=
    floor(T) (algo 1), or each l that has a nonzero Poisson(t) weight for
    some t <= floor(T) (algo 2).  Trials draw their walk power from row x,
    `mixture(t)` mixes the rows by P(x | t), and the oracle mixes them once
    by P(x | t) averaged over t."""

    def __init__(self, c: MarkovChain, marked, config: SearchConfig, algo: int):
        self.chain = lazy(c)
        self.marked = frozenset(marked)
        self.marked_idx = sorted(self.marked)
        self.algo = algo
        self.ht = hitting_time(self.chain, self.marked)
        self.big_t = big_t = max(config.c_t * self.ht, 2.0)
        self.r_set = _r_grid(big_t)
        self.pi_m, self.sqrt_pi_u = _pi_states(self.chain, self.marked)
        log2t = max(math.log2(big_t), 1.0)
        if algo == 1:
            self.d = math.ceil(math.sqrt(big_t * log2t))
            self.dprime = None
            self.eps = 24.0 * math.exp(-self.d ** 2 / (2.0 * max(int(big_t), 1)))
            rows = int(big_t) + 1
        else:
            self.d = math.ceil(big_t * math.e ** 2)
            self.dprime = math.ceil(math.sqrt(2 * big_t * math.log(48 * log2t ** 2)))
            self.eps = 48.0 * log2t ** 2 * math.exp(-self.dprime ** 2 / (2.0 * big_t))
            # log Poisson(t) at x > t grows with t: floor(T) has the last weight
            rows = int(np.flatnonzero(_poisson(int(big_t), self.d))[-1]) + 1
        self.max_e = self.d if algo == 1 else self.dprime
        self.cheb = _chebyshev_table(rows, self.max_e)
        self.dmat: dict[float, np.ndarray] = {}
        self._tables: dict[float, np.ndarray] = {}

    def x_weights(self, t: int) -> np.ndarray:
        """P(x | t) over the rows of `cheb`: x = t (algo 1), or the Poisson(t)
        weights truncated at d (algo 2), whose tail past the rows is zero."""
        if self.algo == 1:
            weights = np.zeros(len(self.cheb))
            weights[t] = 1.0
            return weights
        return _poisson(t, self.d)[:len(self.cheb)]

    def power_mixture(self, x_weights: np.ndarray) -> np.ndarray:
        """P(e) for e = 0..max_e of the rows of `cheb` mixed by x_weights."""
        mix = np.zeros(2 * self.cheb.shape[1])
        for parity in (0, 1):
            mix[parity::2] = x_weights[parity::2] @ self.cheb[parity::2]
        return mix[:self.max_e + 1]

    def mixture(self, t: int) -> np.ndarray:
        """P(e | t) for e = 0..max_e: the mixture of x^t (algo 1), or the
        Poisson(t) weights truncated at d over the mixtures of x^l (algo 2)."""
        return self.power_mixture(self.x_weights(t))

    def table(self, s: float) -> np.ndarray:
        """Node marginals of W(s)^e A|sqrt(pi_U)> = U_P V(s)^e |0>|sqrt(pi_U)>,
        one row per power e = 0..max_e, by walk steps; read-only.  Keeps
        D(s) in `dmat[s]`."""
        if s not in self._tables:
            w = WalkOperator(InterpolatedChain(self.chain, self.marked, s))
            chi = w.start(edge_zero_state(self.sqrt_pi_u))
            table = np.empty((self.max_e + 1, self.chain.n))
            for e in range(self.max_e + 1):
                if e:
                    chi = w.step(chi)
                # summed over y in row order, whatever layout the step left
                table[e] = (np.abs(np.ascontiguousarray(chi)) ** 2).sum(axis=0)
            table.setflags(write=False)
            self._tables[s] = table
            self.dmat[s] = w.d.entries
        return self._tables[s]


def _chebyshev_table(rows: int, max_e: int) -> np.ndarray:
    """Read-only (rows, max_e // 2 + 1) array, stored parity-compact: row x
    holds the coefficients c_e of y^x = sum_e c_e T_e(y) on the powers
    e = 2l + (x mod 2) <= min(x, max_e), column l for power e, normalized
    to sum to one.  c_e = binom(x, (x + e)/2) 2^{1-x}, halved at e = 0, is
    taken in the log domain, where the binomials do not overflow."""
    x = np.arange(rows)[:, None]
    e = 2 * np.arange(max_e // 2 + 1) + x % 2
    k = (x + e) // 2
    keep = e <= np.minimum(x, max_e)
    log_c = (gammaln(x + 1) - gammaln(k + 1) - gammaln(x - k + 1)
             + (1 - x) * math.log(2.0) - np.where(e == 0, math.log(2.0), 0.0))
    table = np.where(keep, np.exp(log_c), 0.0)
    table /= table.sum(axis=1, keepdims=True)
    table.setflags(write=False)
    return table


def _drift_weight(dmat: np.ndarray, marked_idx: list[int],
                  sqrt_pi_u: np.ndarray, t: float, kind: str) -> float:
    """Marked-projection weight of f_t(D) |sqrt(pi_U)> for the discriminant
    matrix D, by eigh: f_t(x) = x^t (power) or e^{t(x-1)} (exp)."""
    evals, evecs = np.linalg.eigh(dmat)
    f = evals ** t if kind == "power" else np.exp(t * (evals - 1.0))
    vec = evecs[marked_idx, :] @ (f * (evecs.T @ sqrt_pi_u))
    return float(np.sum(np.abs(vec) ** 2))


def _run_search(sch: _SearchSchedule, rng) -> SearchOutcome:
    t = int(rng.integers(0, int(sch.big_t) + 1))
    r = int(sch.r_set[rng.integers(0, len(sch.r_set))])
    s = 1.0 - 1.0 / r

    # step 5: measure the node register of |0>|sqrt(pi)> against Pi_M
    if rng.random() < sch.pi_m:
        probs = np.array([sch.chain.pi[m] for m in sch.marked_idx]) / sch.pi_m
        node = int(rng.choice(sch.marked_idx, p=probs))
        return SearchOutcome(True, node, s, t, 0)

    if sch.algo == 1:
        x = t
    else:
        x = int(rng.choice(np.arange(sch.d + 1), p=_poisson(t, sch.d)))
    row = sch.cheb[x]
    steps = 2 * int(rng.choice(len(row), p=row)) + x % 2
    node_probs = sch.table(s)[steps]
    node = int(rng.choice(sch.chain.n, p=node_probs / node_probs.sum()))
    return SearchOutcome(node in sch.marked, node, s, t, steps)


def run_search_trials(c: MarkovChain, marked, config: SearchConfig,
                      n_trials: int, algo: int) -> list[SearchOutcome]:
    """Independent search trials on one schedule: the hitting time is solved
    once, and each trial reads the node-marginal table of its (few)
    distinct interpolation values, so repeated trials take no walk step."""
    rng = make_rng(config.master_seed, 40 + algo)
    sch = _SearchSchedule(c, marked, config, algo)
    return [_run_search(sch, rng) for _ in range(n_trials)]


def predicted_search_success(c: MarkovChain, marked, config: SearchConfig,
                             algo: int) -> float:
    """Exact success probability of the full algorithm (pre-measurement plus
    the sampled-polynomial walk stage): the walk-power mixture averaged over
    t, against the marked weights of every r."""
    sch = _SearchSchedule(c, marked, config, algo)
    ts = range(int(sch.big_t) + 1)
    mix = sch.power_mixture(sum(map(sch.x_weights, ts)) / len(ts))
    walk_total = 0.0
    for r in sch.r_set:
        marked_weights = sch.table(1.0 - 1.0 / r)[:, sch.marked_idx].sum(axis=1)
        walk_total += float(mix @ marked_weights)
    walk_avg = walk_total / len(sch.r_set)
    return sch.pi_m + (1 - sch.pi_m) * walk_avg


def theorem1_slack(c: MarkovChain, marked, config: SearchConfig, algo: int) -> float:
    """Minimum over the interpolation grid, at the largest drift time, of
    Tr[Pi rho_bar] + eps - Tr[Pi f(D) rho0 f(D)], where rho_bar is the
    enumerated sampled-unitary mixture and eps the truncation budget implied
    by the polynomial degree in use.  Nonnegative when the sampling bound
    holds."""
    sch = _SearchSchedule(c, marked, config, algo)
    t = int(sch.big_t)
    mix = sch.mixture(t)
    kind = "power" if algo == 1 else "exp"
    slack = math.inf
    for r in sch.r_set:
        s = 1.0 - 1.0 / r
        sampled = float(mix @ sch.table(s)[:, sch.marked_idx].sum(axis=1))
        target = _drift_weight(sch.dmat[s], sch.marked_idx, sch.sqrt_pi_u, t, kind)
        slack = min(slack, sampled + sch.eps - target)
    return slack


def chain_from_edgelist(path: str) -> MarkovChain:
    """Read 'u v weight' triples (symmetric weights) and normalize rows of
    the weighted adjacency matrix into a reversible random walk."""
    entries = []
    max_node = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'u v weight'")
            try:
                u, v, wgt = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as ex:
                raise ValueError(f"line {lineno}: expected 'u v weight'") from ex
            if u < 0 or v < 0:
                raise ValueError(f"line {lineno}: node ids must be >= 0")
            if wgt <= 0:
                raise ValueError(f"line {lineno}: weight must be positive")
            entries.append((u, v, wgt))
            max_node = max(max_node, u, v)
    if max_node < 0:
        raise ValueError("empty edge list")
    n = max_node + 1
    if n > MAX_NODES:
        raise ValueError(f"chains capped at {MAX_NODES} nodes")
    adj = np.zeros((n, n))
    for u, v, wgt in entries:
        adj[u, v] = wgt
        adj[v, u] = wgt
    row = adj.sum(axis=1)
    if np.any(row == 0):
        raise ValueError("isolated node in edge list")
    return chain_from_matrix(adj / row[:, None], reversible=True)
