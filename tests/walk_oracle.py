"""Walk references for the tests of `lculab.walks`.

`DenseWalk` is the dense Szegedy walk on the n^2 edge space, the reference
for the matrix-free `walks.WalkOperator`.  U_P completes the column isometry
U_P |0>|x> = sum_y sqrt(p_xy) |y, x> to a full unitary by the QR of
[prescribed | I] with signs fixed, U_D = U_P^dag S U_P, and V = R U_D with R
the reflection about |0> in the first register.  The edge space is ordered
|y, x> -> index y*n + x.

The state-level references keep every walk power as an edge state: the
branch enumerations of the walk-power mixtures, the oracle and slack summed
over those branches, and the per-trial step path, which reads the same
per-role counter-hash uniforms as `walks.run_search_trials` and measures
the node register of the edge state each trial steps to.  The search schedule's
Chebyshev and node-marginal tables replace them in `lculab.walks`.
"""

import math

import numpy as np
from scipy.special import gammaln

from lculab._kernels import counter_uniforms, derive_key
from lculab.core_algebra import DenseOperator, StateVector
from lculab.walks import (
    InterpolatedChain,
    SearchTrials,
    WalkOperator,
    _pi_states,
    _poisson,
    _r_grid,
    _SearchSchedule,
    discriminant,
    edge_zero_state,
)
from lcu_oracle import chebyshev_power_coeffs


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
    zero = np.zeros(n)
    zero[0] = 1.0
    refl = np.kron(2 * np.outer(zero, zero) - np.eye(n), np.eye(n))
    v = refl @ m
    hp = 0.5j * (v - v.conj().T)
    return DenseOperator(hp, hermitian=True)


def chebyshev_block_check(w: WalkOperator, t: int) -> float:
    """|A^T W^t A - T_t(D)|: the node block of the walk the search runs,
    by t steps on the n start columns A|x>."""
    n = w.n
    cols = w.sqrt_pt[None, :, :] * np.eye(n)[:, None, :]
    for _ in range(t):
        cols = w.step(cols)
    block = (w.sqrt_pt[None, :, :] * cols).sum(axis=1).T
    xs_evals, xs_evecs = np.linalg.eigh(w.d.entries)
    tt = (xs_evecs * np.cos(t * np.arccos(np.clip(xs_evals, -1, 1)))) @ xs_evecs.conj().T
    return float(np.linalg.norm(block - tt, 2))


def node_marginal(state: StateVector, n: int) -> np.ndarray:
    """Measurement distribution of the node register (second slot of |y,x>)."""
    probs = np.abs(state.amplitudes.reshape(n, n)) ** 2
    return probs.sum(axis=0)


class PowerCache:
    """W^e A|psi> = U_P V^e |0>|psi> as n x n arrays, for increasing e by
    repeated walk steps."""

    def __init__(self, w: WalkOperator, psi0: StateVector):
        self.step = w.step
        self.states = [w.start(psi0)]

    def state(self, e: int) -> np.ndarray:
        while len(self.states) <= e:
            self.states.append(self.step(self.states[-1]))
        return self.states[e]

    def marked_weight(self, e: int, marked_idx) -> float:
        return float((np.abs(self.state(e)) ** 2)[:, marked_idx].sum())


def power_support(t: int, d: int):
    """(exponents, probabilities) for the truncated Chebyshev mixture of
    x^t at degree d: walk powers 2l (even t) or 2l+1 (odd t)."""
    if t == 0:
        return np.array([0]), np.array([1.0])
    dd = min(d, t)
    if dd % 2 != t % 2:
        dd -= 1
    c = chebyshev_power_coeffs(t, dd)
    exps = 2 * np.arange(len(c)) + (t % 2)
    return exps, c / c.sum()


def branches(t: float, d: int, dprime: int | None = None) -> list[tuple[float, int]]:
    """(probability, exponent) branches of the walk-power mixture for x^t
    at degree d, or, given dprime, for e^{t(x-1)}: Poisson(t) weights
    truncated at d over the mixtures of x^l at degree dprime."""
    if dprime is None:
        exps, probs = power_support(int(round(t)), d)
        return [(float(pr), int(e)) for e, pr in zip(exps, probs)]
    out = []
    for ell, po in enumerate(_poisson(t, d)):
        if po == 0.0:
            continue
        out.extend((float(po * pr), e) for pr, e in branches(ell, dprime))
    return out


def pow_ham_enumeration(t: int, d: int, w: WalkOperator, psi0: StateVector):
    """All (probability, exponent, U_P V^e psi0) branches of the mixture,
    for psi0 = |0>|psi>; each state is the n^2 edge vector W^e A|psi>."""
    cache = PowerCache(w, psi0)
    return [(pr, e, cache.state(e).ravel()) for pr, e in branches(t, d)]


def exp_ham_enumeration(t: float, d: int, dprime: int, w: WalkOperator,
                        psi0: StateVector):
    """All (probability, exponent, U_P V^e psi0) branches of the nested
    mixture, for psi0 = |0>|psi>; each state is the n^2 edge vector
    W^e A|psi>."""
    cache = PowerCache(w, psi0)
    return [(pr, e, cache.state(e).ravel()) for pr, e in branches(t, d, dprime)]


def exp_ham_l1(t: float, d: int) -> float:
    """sum of the truncated Poisson weights (the mixture's l1 norm)."""
    if t <= 0:
        return 1.0
    js = np.arange(d + 1)
    return float(np.exp(-t + js * np.log(t) - gammaln(js + 1)).sum())


def drift_weights(dmat: np.ndarray, marked_idx, sqrt_pi_u: np.ndarray, ts,
                  kind: str) -> list[float]:
    """Marked-projection weight of f_t(D) |sqrt(pi_U)> for each t in ts, by
    eigh: f_t(x) = x^t (power) or e^{t(x-1)} (exp)."""
    if kind not in ("power", "exp"):
        raise ValueError("kind must be 'power' or 'exp'")
    evals, evecs = np.linalg.eigh(dmat)
    coeffs = evecs.T @ sqrt_pi_u
    rows = evecs[marked_idx, :]
    out = []
    for t in ts:
        f = evals ** t if kind == "power" else np.exp(t * (evals - 1.0))
        out.append(float(np.sum(np.abs(rows @ (f * coeffs)) ** 2)))
    return out


def exact_search_success(c, marked, big_t: float, kind: str) -> float:
    """Average over the interpolation grid and uniform integer t of the
    marked-projection weight of D(s)^t (power) or e^{t(D(s)-I)} (exp)
    applied to the unmarked stationary state, by dense linear algebra."""
    marked = frozenset(marked)
    _, sqrt_pi_u = _pi_states(c, marked)
    r_set = _r_grid(big_t)
    ts = np.arange(0, int(big_t) + 1)
    total = 0.0
    for r in r_set:
        dmat = discriminant(InterpolatedChain(c, marked, 1.0 - 1.0 / r)).entries
        for weight in drift_weights(dmat, sorted(marked), sqrt_pi_u, ts, kind):
            total += weight
    return total / (len(r_set) * len(ts))


def _power_cache(sch: _SearchSchedule, s: float) -> PowerCache:
    w = WalkOperator(InterpolatedChain(sch.chain, sch.marked, s))
    return PowerCache(w, edge_zero_state(sch.sqrt_pi_u))


def inverse_cdf(weights, u: float) -> int:
    """The first index whose running sum of weights exceeds u times their
    total: one draw, by a linear scan."""
    cum = np.cumsum(weights)
    return int(np.flatnonzero(cum > u * cum[-1])[0])


def stepped_search_trials(c, marked, config, n_trials: int, algo: int):
    """`walks.run_search_trials` by the per-trial step path, on the same
    per-role counter-hash uniforms.  Trial i draws x from the full-support
    Poisson(t) weights (algo 2) and its power from the Chebyshev
    coefficients of the monomial of degree x, steps the walk at its
    interpolation value to that power and measures the node register of
    that edge state."""
    u_t, u_r, u_pre, u_mark, u_x, u_e, u_node = (
        counter_uniforms(derive_key(config.master_seed, 40 + algo, role),
                         0, n_trials) for role in range(7))
    sch = _SearchSchedule(c, marked, config, algo)
    degree = sch.d if algo == 1 else sch.dprime
    n = sch.chain.n
    caches, out = {}, []
    for i in range(n_trials):
        t = int(u_t[i] * (int(sch.big_t) + 1))
        s = 1.0 - 1.0 / sch.r_set[int(u_r[i] * len(sch.r_set))]
        if u_pre[i] < sch.pi_m:
            probs = [sch.chain.pi[m] for m in sch.marked_idx]
            out.append((True, sch.marked_idx[inverse_cdf(probs, u_mark[i])],
                        s, t, 0))
            continue
        if s not in caches:
            caches[s] = _power_cache(sch, s)
        x = t if algo == 1 else inverse_cdf(_poisson(t, sch.d), u_x[i])
        exps, probs = power_support(x, degree)
        steps = int(exps[inverse_cdf(probs, u_e[i])])
        state = StateVector(caches[s].state(steps).ravel())
        node = inverse_cdf(np.maximum(node_marginal(state, n), 0), u_node[i])
        out.append((node in sch.marked, node, s, t, steps))
    found, node, s, t, steps = map(np.array, zip(*out))
    return SearchTrials(found, node, s, t, steps, sch.ht, sch.big_t)


def enumerated_search_success(c, marked, config, algo: int) -> float:
    """`walks.predicted_search_success` summed over the branches of every
    t's mixture, with marked weights read from the edge states."""
    sch = _SearchSchedule(c, marked, config, algo)
    ts = range(int(sch.big_t) + 1)
    walk_total = 0.0
    for r in sch.r_set:
        cache = _power_cache(sch, 1.0 - 1.0 / r)
        for t in ts:
            for pr, e in branches(t, sch.d, sch.dprime):
                walk_total += pr * cache.marked_weight(e, sch.marked_idx)
    walk_avg = walk_total / (len(sch.r_set) * len(ts))
    return sch.pi_m + (1 - sch.pi_m) * walk_avg


def enumerated_slack(c, marked, config, algo: int) -> float:
    """`walks.theorem1_slack` summed over the branches of the mixture at
    t = floor(T), with marked weights read from the edge states."""
    sch = _SearchSchedule(c, marked, config, algo)
    t = int(sch.big_t)
    kind = "power" if algo == 1 else "exp"
    slack = math.inf
    for r in sch.r_set:
        s = 1.0 - 1.0 / r
        cache = _power_cache(sch, s)
        sampled = sum(pr * cache.marked_weight(e, sch.marked_idx)
                      for pr, e in branches(t, sch.d, sch.dprime))
        dmat = discriminant(InterpolatedChain(sch.chain, sch.marked, s)).entries
        [target] = drift_weights(dmat, sch.marked_idx, sch.sqrt_pi_u, [t], kind)
        slack = min(slack, sampled + sch.eps - target)
    return slack
