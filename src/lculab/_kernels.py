"""Hot numeric kernels for the Monte-Carlo estimation loop.

Per-sample randomness is a counter hash: sample i of stream (seed, ids...)
is a pure function of (seed, ids, i), so results are independent of chunking,
trial order, and parallelism.
"""

from __future__ import annotations

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / (1 << 53)

CHUNK = 1 << 20


def _mix_scalar(z: int) -> int:
    z &= 0xFFFFFFFFFFFFFFFF
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_key(master_seed: int, *ids: int) -> int:
    """Fold a master seed and stream identifiers into one 64-bit key."""
    key = _mix_scalar(master_seed & 0xFFFFFFFFFFFFFFFF)
    for x in ids:
        key = _mix_scalar(key + 0x9E3779B97F4A7C15 + (x & 0xFFFFFFFFFFFFFFFF))
    return key


def make_rng(master_seed: int, *ids: int) -> np.random.Generator:
    """Philox generator keyed by the counter hash (non-hot-path randomness)."""
    return np.random.Generator(np.random.Philox(key=derive_key(master_seed, *ids)))


def counter_uniforms(key: int, start: int, count: int) -> np.ndarray:
    """count doubles in [0,1): splitmix64 of key + index*golden."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    z = (np.uint64(key) + idx * _GOLDEN) & _MASK
    z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _MASK
    z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _MASK
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * _INV53


def pair_accumulate(u: np.ndarray, ou: np.ndarray, probs: np.ndarray,
                    key1: int, key2: int, total: int,
                    shot: tuple[int, float] | None = None,
                    sink=None) -> tuple[float, float]:
    """Sum and sum-of-squares of the per-sample values over `total`
    counter-indexed pair draws; u[j] = V_j psi0, ou[j] = O V_j psi0.

    A sample's value is the interference value Re<psi0|V2^dag O V1|psi0>.
    With `shot=(key, scale)` it is instead a single-ancilla measurement
    outcome: +scale with probability (1+e)/2 for interference value e, drawn
    from the counter stream `key`, else -scale; a value with |e| > 1 raises
    ValueError.  `sink(start, j1, j2, values)` sees every chunk's draws and
    the values that enter the sums.

    Chunked so memory stays flat; the chunk boundaries never change the
    draw at index i, so any chunk size gives the same sample set.
    """
    s = 0.0
    cs = 0.0
    s2 = 0.0
    cs2 = 0.0
    start = 0
    while start < total:
        count = min(CHUNK, total - start)
        j1, j2 = pair_draws(probs, key1, key2, start, count)
        vals = np.einsum("id,id->i", ou[j1], np.conj(u[j2])).real
        if shot is not None:
            vals = _shots(vals, shot, start)
        if sink is not None:
            sink(start, j1, j2, vals)
        ps = float(np.sum(vals))
        ps2 = float(np.sum(vals * vals))
        y = ps - cs
        t = s + y
        cs = (t - s) - y
        s = t
        y2 = ps2 - cs2
        t2 = s2 + y2
        cs2 = (t2 - s2) - y2
        s2 = t2
        start += count
    return s, s2


def _shots(e: np.ndarray, shot: tuple[int, float], start: int) -> np.ndarray:
    """+-scale outcomes of the ancilla measurement for interference
    values e at counter indices [start, start+len(e))."""
    key, scale = shot
    bad = np.abs(e) > 1 + 1e-9
    if bad.any():
        raise ValueError(f"interference value {e[bad][0]} outside [-1,1]")
    us = counter_uniforms(key, start, len(e))
    return np.where(us < (1 + e) / 2, scale, -scale)


def pair_draws(probs: np.ndarray, key1: int, key2: int,
               start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (j1, j2) index draws for samples [start, start+count): inverse-CDF
    categorical draws from the counter streams key1 and key2."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return (_inverse_cdf(cum, counter_uniforms(key1, start, count)),
            _inverse_cdf(cum, counter_uniforms(key2, start, count)))


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cum, u, side="right") clipped to the last index.

    The uniforms are searched in sorted order and the indices scattered
    back: consecutive searches then walk nearby parts of a long CDF, and
    every index is the same, bit for bit, as the unsorted search gives."""
    order = np.argsort(u)
    j = np.empty(u.shape[0], dtype=np.intp)
    j[order] = np.searchsorted(cum, u[order], side="right")
    np.clip(j, 0, cum.shape[0] - 1, out=j)
    return j
