"""Markov chains, quantum walk operators, and randomized spatial search.

The edge space is ordered |y, x> -> index y*n + x; the walk is built from
the column isometry U_P |0>|x> = sum_y sqrt(p_xy) |y, x>, completed to a
full unitary deterministically.  Walk powers block-encode Chebyshev
polynomials of the discriminant, which the two search algorithms sample
through truncated power / exponential mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import make_rng
from .core_algebra import DenseOperator, StateVector
from .lcu_decomp import chebyshev_power_coeffs, exp_poly_coeffs

MAX_NODES = 64


@dataclass(frozen=True)
class MarkovChain:
    p: np.ndarray
    pi: np.ndarray
    reversible: bool = False
    ergodic: bool = True

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
    """U_P, U_D = U_P^dag S U_P, and V = R U_D on the n^2 edge space."""

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
        refl = np.kron(2 * np.outer(_e(n, 0), _e(n, 0)) - np.eye(n), np.eye(n))
        self.v = DenseOperator(refl @ u_d, unitary=True)
        self.d = discriminant(chain)

    def block(self, m: np.ndarray) -> np.ndarray:
        """(<0|(x)I) M (|0>(x)I): the top-left n x n node block."""
        return m[: self.n, : self.n]


def _e(n: int, i: int) -> np.ndarray:
    v = np.zeros(n)
    v[i] = 1.0
    return v


def edge_zero_state(node_amplitudes: np.ndarray) -> StateVector:
    """|0>|psi> on the edge space (first register fixed to node 0)."""
    n = len(node_amplitudes)
    amp = np.zeros(n * n, dtype=complex)
    amp[:n] = node_amplitudes
    return StateVector(amp, normalized=abs(np.linalg.norm(node_amplitudes) - 1) < 1e-10)


def node_marginal(state: StateVector, n: int) -> np.ndarray:
    """Measurement distribution of the node register (second slot of |y,x>)."""
    probs = np.abs(state.amplitudes.reshape(n, n)) ** 2
    return probs.sum(axis=0)


def chebyshev_block_check(w: WalkOperator, t: int) -> float:
    """|top-left block of V^t - T_t(D)|."""
    vt = np.linalg.matrix_power(w.v.entries, t)
    xs_evals, xs_evecs = np.linalg.eigh(w.d.entries)
    tt = (xs_evecs * np.cos(t * np.arccos(np.clip(xs_evals, -1, 1)))) @ xs_evecs.conj().T
    return float(np.linalg.norm(w.block(vt) - tt, 2))


def build_hp(u_h: DenseOperator) -> DenseOperator:
    """i(V - V^dag)/2 with V = R U_H, for an involutory block-encoding
    unitary; Hermitian, and its square block-encodes I - H^2."""
    m = u_h.entries
    if np.linalg.norm(m @ m - np.eye(m.shape[0]), 2) > 1e-9:
        raise ValueError("block-encoding unitary must be involutory")
    dim = m.shape[0]
    n = int(round(math.sqrt(dim)))
    if n * n != dim:
        raise ValueError("expected an n^2-dimensional edge space")
    refl = np.kron(2 * np.outer(_e(n, 0), _e(n, 0)) - np.eye(n), np.eye(n))
    v = refl @ m
    hp = 0.5j * (v - v.conj().T)
    return DenseOperator(hp, hermitian=True)


# ---------------------------------------------------------------------------
# randomized polynomial application

def _power_support(t: int, d: int):
    """(exponents, probabilities) for the truncated Chebyshev mixture of
    x^t: walk powers 2l (even t) or 2l+1 (odd t)."""
    if t == 0:
        return np.array([0]), np.array([1.0])
    dd = min(d, t)
    if dd % 2 != t % 2:
        dd -= 1
    c = chebyshev_power_coeffs(t, dd)
    exps = 2 * np.arange(len(c)) + (t % 2)
    return exps, c / c.sum()


def pow_ham_enumeration(t: int, d: int, w: WalkOperator, psi0: StateVector,
                        cache: "_PowerCache | None" = None):
    """All (probability, exponent, V^e psi0) branches of the mixture."""
    exps, probs = _power_support(int(round(t)), d)
    if cache is None:
        cache = _PowerCache(w, psi0)
    return [(float(pr), int(e), cache.state(int(e)))
            for e, pr in zip(exps, probs)]


def _poisson_log_weights(t: float, d: int) -> np.ndarray:
    from scipy.special import gammaln
    js = np.arange(d + 1)
    if t <= 0:
        log_w = np.full(d + 1, -np.inf)
        log_w[0] = 0.0
        return log_w
    return -t + js * np.log(t) - gammaln(js + 1)


def exp_ham_enumeration(t: float, d: int, dprime: int, w: WalkOperator,
                        psi0: StateVector, cache: "_PowerCache | None" = None):
    """All (probability, exponent, state) branches of the nested mixture."""
    weights = np.exp(_poisson_log_weights(t, d))
    outer = weights / weights.sum()
    if cache is None:
        cache = _PowerCache(w, psi0)
    out = []
    for ell, po in enumerate(outer):
        if po == 0.0:
            continue
        for pr, e, amps in pow_ham_enumeration(ell, dprime, w, psi0, cache):
            out.append((float(po * pr), e, amps))
    return out


def exp_ham_l1(t: float, d: int) -> float:
    """sum of the truncated Poisson weights (the mixture's l1 norm)."""
    return float(np.exp(_poisson_log_weights(t, d)).sum())


# ---------------------------------------------------------------------------
# spatial search

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


def _search_schedule(c: MarkovChain, marked, config: SearchConfig):
    ht = hitting_time(c, marked)
    big_t = max(config.c_t * ht, 2.0)
    log_t = math.log2(big_t)
    r_set = [2 ** k for k in range(0, math.ceil(log_t) + 1)]
    return ht, big_t, r_set


def _pi_states(c: MarkovChain, marked):
    pi = c.pi
    marked = frozenset(marked)
    pi_m = sum(pi[m] for m in marked)
    sqrt_pi = np.sqrt(pi)
    unmarked_mask = np.array([x not in marked for x in range(c.n)])
    pu = pi * unmarked_mask
    sqrt_pi_u = np.sqrt(pu / pu.sum()) if pu.sum() > 0 else np.zeros(c.n)
    return pi_m, sqrt_pi, sqrt_pi_u


class _PowerCache:
    """V^e |psi> for increasing e by repeated matrix-vector products."""

    def __init__(self, w: WalkOperator, psi: StateVector):
        self.v = w.v.entries
        self.states = [psi.amplitudes.astype(complex)]

    def state(self, e: int) -> np.ndarray:
        while len(self.states) <= e:
            self.states.append(self.v @ self.states[-1])
        return self.states[e]


def _run_search(c: MarkovChain, marked, config: SearchConfig, rng, algo: int,
                cache: dict | None = None) -> SearchOutcome:
    marked = frozenset(marked)
    ht, big_t, r_set = _search_schedule(c, marked, config)
    t = int(rng.integers(0, int(big_t) + 1))
    r = int(r_set[rng.integers(0, len(r_set))])
    s = 1.0 - 1.0 / r
    pi_m, sqrt_pi, sqrt_pi_u = _pi_states(c, marked)

    # step 5: measure the node register of |0>|sqrt(pi)> against Pi_M
    if rng.random() < pi_m:
        probs = np.array([c.pi[m] for m in sorted(marked)]) / pi_m
        node = int(rng.choice(sorted(marked), p=probs))
        return SearchOutcome(True, node, s, t, 0)

    if cache is not None and s in cache:
        pc = cache[s]
    else:
        w = WalkOperator(InterpolatedChain(c, marked, s))
        pc = _PowerCache(w, edge_zero_state(sqrt_pi_u))
        if cache is not None:
            cache[s] = pc
    if algo == 1:
        d = math.ceil(math.sqrt(big_t * max(math.log2(big_t), 1.0)))
        exps, probs = _power_support(t, d)
        steps = int(rng.choice(exps, p=probs))
    else:
        d = math.ceil(big_t * math.e ** 2)
        log2t = max(math.log2(big_t), 1.0)
        dprime = math.ceil(math.sqrt(2 * big_t * math.log(48 * log2t ** 2)))
        weights = np.exp(_poisson_log_weights(float(t), d))
        ell = int(rng.choice(np.arange(d + 1), p=weights / weights.sum()))
        exps, probs = _power_support(ell, dprime)
        steps = int(rng.choice(exps, p=probs))
    out = StateVector(pc.state(steps))
    node_probs = node_marginal(out, c.n)
    node_probs = np.maximum(node_probs, 0)
    node_probs = node_probs / node_probs.sum()
    node = int(rng.choice(c.n, p=node_probs))
    return SearchOutcome(node in marked, node, s, t, steps)


def spatial_search_1(c: MarkovChain, marked, config: SearchConfig,
                     rng=None) -> SearchOutcome:
    if rng is None:
        rng = make_rng(config.master_seed, 41)
    return _run_search(lazy(c), marked, config, rng, algo=1)


def spatial_search_2(c: MarkovChain, marked, config: SearchConfig,
                     rng=None) -> SearchOutcome:
    if rng is None:
        rng = make_rng(config.master_seed, 42)
    return _run_search(lazy(c), marked, config, rng, algo=2)


def run_search_trials(c: MarkovChain, marked, config: SearchConfig,
                      n_trials: int, algo: int) -> list[SearchOutcome]:
    """Independent search trials sharing the walk-power cache across the
    (few) distinct interpolation values, so repeated runs cost matrix-vector
    products only."""
    rng = make_rng(config.master_seed, 40 + algo)
    lazy_c = lazy(c)
    cache: dict = {}
    return [_run_search(lazy_c, marked, config, rng, algo=algo, cache=cache)
            for _ in range(n_trials)]


def exact_search_success(c: MarkovChain, marked, big_t: float, kind: str) -> float:
    """Average over the interpolation grid and uniform integer t of the
    marked-projection weight of D(s)^t (power) or e^{t(D(s)-I)} (exp)
    applied to the unmarked stationary state, by dense linear algebra."""
    marked = frozenset(marked)
    log_t = math.log2(max(big_t, 2.0))
    r_set = [2 ** k for k in range(0, math.ceil(log_t) + 1)]
    _, _, sqrt_pi_u = _pi_states(c, marked)
    marked_idx = sorted(marked)
    ts = np.arange(0, int(big_t) + 1)
    total = 0.0
    for r in r_set:
        s = 1.0 - 1.0 / r
        dmat = discriminant(InterpolatedChain(c, marked, s)).entries
        evals, evecs = np.linalg.eigh(dmat)
        coeffs = evecs.T @ sqrt_pi_u
        rows = evecs[marked_idx, :]
        for t in ts:
            if kind == "power":
                f = evals ** t
            elif kind == "exp":
                f = np.exp(t * (evals - 1.0))
            else:
                raise ValueError("kind must be 'power' or 'exp'")
            vec = rows @ (f * coeffs)
            total += float(np.sum(np.abs(vec) ** 2))
    return total / (len(r_set) * len(ts))


def predicted_search_success(c: MarkovChain, marked, config: SearchConfig,
                             algo: int) -> float:
    """Exact success probability of the full algorithm (pre-measurement plus
    the sampled-polynomial walk stage), by enumerating r, t and the
    polynomial mixture."""
    marked = frozenset(marked)
    lazy_c = lazy(c)
    ht, big_t, r_set = _search_schedule(lazy_c, marked, config)
    pi_m, _, sqrt_pi_u = _pi_states(lazy_c, marked)
    ts = np.arange(0, int(big_t) + 1)
    if algo == 1:
        d = math.ceil(math.sqrt(big_t * max(math.log2(big_t), 1.0)))
    else:
        d = math.ceil(big_t * math.e ** 2)
        log2t = max(math.log2(big_t), 1.0)
        dprime = math.ceil(math.sqrt(2 * big_t * math.log(48 * log2t ** 2)))
    marked_idx = sorted(marked)
    if algo == 2:
        # inner exponent distributions depend only on the Poisson draw
        inner = [_power_support(ell, dprime) for ell in range(d + 1)]
        max_e = max(int(exps[-1]) for exps, _ in inner)
    else:
        max_e = d
    walk_total = 0.0
    for r in r_set:
        s = 1.0 - 1.0 / r
        w = WalkOperator(InterpolatedChain(lazy_c, marked, s))
        psi = edge_zero_state(sqrt_pi_u)
        cache = _PowerCache(w, psi)
        # marked-node weight of V^e |0>|sqrt(pi_U)> for every exponent
        mw = np.array([
            float((np.abs(cache.state(e).reshape(c.n, c.n)) ** 2)
                  [:, marked_idx].sum())
            for e in range(max_e + 1)])
        for t in ts:
            if algo == 1:
                exps, probs = _power_support(int(t), d)
                walk_total += float(probs @ mw[exps])
            else:
                weights = np.exp(_poisson_log_weights(float(t), d))
                outer = weights / weights.sum()
                mix = np.zeros(max_e + 1)
                for ell, po in enumerate(outer):
                    if po == 0.0:
                        continue
                    exps, probs = inner[ell]
                    mix[exps] += po * probs
                walk_total += float(mix @ mw)
    walk_avg = walk_total / (len(r_set) * len(ts))
    return pi_m + (1 - pi_m) * walk_avg


def theorem1_slack(c: MarkovChain, marked, config: SearchConfig, algo: int) -> float:
    """Minimum over the interpolation grid, at the largest drift time, of
    Tr[Pi rho_bar] + eps - Tr[Pi f(D) rho0 f(D)], where rho_bar is the
    enumerated sampled-unitary mixture and eps the truncation budget implied
    by the polynomial degree in use.  Nonnegative when the sampling bound
    holds."""
    marked = frozenset(marked)
    lazy_c = lazy(c)
    _, big_t, r_set = _search_schedule(lazy_c, marked, config)
    _, _, sqrt_pi_u = _pi_states(lazy_c, marked)
    t = int(big_t)
    if algo == 1:
        d = math.ceil(math.sqrt(big_t * max(math.log2(big_t), 1.0)))
        eps = 24.0 * math.exp(-d ** 2 / (2.0 * max(t, 1)))
    else:
        d = math.ceil(big_t * math.e ** 2)
        log2t = max(math.log2(big_t), 1.0)
        dprime = math.ceil(math.sqrt(2 * big_t * math.log(48 * log2t ** 2)))
        eps = 48.0 * log2t ** 2 * math.exp(-dprime ** 2 / (2.0 * big_t))
    marked_idx = sorted(marked)
    slack = math.inf
    for r in r_set:
        s = 1.0 - 1.0 / r
        ic = InterpolatedChain(lazy_c, marked, s)
        w = WalkOperator(ic)
        psi = edge_zero_state(sqrt_pi_u)
        if algo == 1:
            branches = pow_ham_enumeration(t, d, w, psi)
        else:
            branches = exp_ham_enumeration(float(t), d, dprime, w, psi)
        sampled = 0.0
        for pr, _, amps in branches:
            marg = np.abs(amps.reshape(c.n, c.n)) ** 2
            sampled += pr * float(marg[:, marked_idx].sum())
        evals, evecs = np.linalg.eigh(w.d.entries)
        coeffs = evecs.T @ sqrt_pi_u
        if algo == 1:
            f = evals ** t
        else:
            f = np.exp(t * (evals - 1.0))
        vec = evecs[marked_idx, :] @ (f * coeffs)
        target = float(np.sum(np.abs(vec) ** 2))
        slack = min(slack, sampled + eps - target)
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
            u, v, wgt = int(parts[0]), int(parts[1]), float(parts[2])
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
