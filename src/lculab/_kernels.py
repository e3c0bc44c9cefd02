"""Hot numeric kernels for the Monte-Carlo estimation loop.

Per-sample randomness is a counter hash: sample i of stream (seed, ids...)
is a pure function of (seed, ids, i), so results are independent of chunking,
trial order, and parallelism.
"""

from __future__ import annotations

import numpy as np

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
    # uint64 arithmetic wraps mod 2^64, so no masking is needed; the steps
    # run in place to keep a chunk's temporaries few
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= _INV53
    return u


def pair_accumulate(u: np.ndarray, ou: np.ndarray, probs: np.ndarray,
                    key1: int, key2: int, total: int,
                    shot: tuple[int, float] | None = None,
                    sink=None, table: GuideTable | None = None
                    ) -> tuple[float, float]:
    """Sum and sum-of-squares of the per-sample values over `total`
    counter-indexed pair draws; u[j] = V_j psi0, ou[j] = O V_j psi0, and
    `table` is the GuideTable of probs (built here when not given).

    A sample's value is the interference value Re<psi0|V2^dag O V1|psi0>.
    With `shot=(key, scale)` it is instead a single-ancilla measurement
    outcome: +scale with probability (1+e)/2 for interference value e, drawn
    from the counter stream `key`, else -scale; a value with |e| > 1 raises
    ValueError.  `sink(start, j1, j2, values)` sees every chunk's draws and
    the values that enter the sums.

    Values come from `_gram` when M^2 <= min(total, CHUNK), else from
    gathered rows.  Chunked so memory stays flat; the chunk boundaries
    never change the draw at index i, so any chunk size gives the same
    sample set.
    """
    if table is None:
        table = GuideTable(probs)
    gram = _gram(u, ou, min(total, CHUNK))
    s = 0.0
    cs = 0.0
    s2 = 0.0
    cs2 = 0.0
    start = 0
    while start < total:
        count = min(CHUNK, total - start)
        j1, j2 = pair_draws(probs, key1, key2, start, count, table)
        if gram is not None:
            vals = gram.take(j1 * len(u) + j2)
        else:
            rows2 = u[j2]
            np.conj(rows2, out=rows2)
            vals = np.einsum("id,id->i", ou[j1], rows2).real
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


def _gram(u: np.ndarray, ou: np.ndarray, draws: int) -> np.ndarray | None:
    """The value of every pair, Re<u[j2], ou[j1]> at j1 * M + j2, when
    M^2 <= draws, else None.  It goes through the einsum of the row
    gathers, so each value has the bits a gathered pair gets."""
    m = len(u)
    if m * m > draws:
        return None
    rows = np.arange(m)
    return np.ascontiguousarray(np.einsum(
        "id,id->i", ou[rows.repeat(m)], np.conj(u[np.tile(rows, m)])).real)


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
               start: int, count: int, table: GuideTable | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """The (j1, j2) index draws for samples [start, start+count): inverse-CDF
    categorical draws from the counter streams key1 and key2, looked up in
    `table`, the GuideTable of probs (built here when not given)."""
    if table is None:
        table = GuideTable(probs)
    return (table.draw(counter_uniforms(key1, start, count)),
            table.draw(counter_uniforms(key2, start, count)))


class GuideTable:
    """Exact inverse-CDF draws from one probability vector through a guide
    table (Chen and Asau, AIIE Trans. 6, 1974).

    `cum` is the running sum of the probabilities.  The g = 2^k buckets
    split [0, 1) evenly, so floor(u g) is exact and bucket b holds the
    uniforms in [b/g, (b+1)/g).  `start[b]` is #{i : cum[i] <= b/g} clipped
    to M - 1, the draw of every uniform in the bucket, unless a CDF value
    lies strictly inside it; then it holds ~start[b], and only those
    uniforms are resolved against `cum`.  A draw equals
    searchsorted(cum, u, side="right") clipped to M - 1, bit for bit: the
    inverse-CDF draw in which the last term takes whatever rounding leaves
    of 1.

    The int32 starts take at most the 16 bytes a term that the form's
    probabilities and costs take, or 64 KB, whichever is larger.
    """

    def __init__(self, probs: np.ndarray):
        m = len(probs)
        cum = np.cumsum(probs)
        g = 1 << (max(4 * m, 1 << 14).bit_length() - 1)
        x = cum * g                               # exact: g is a power of two
        # ceil(x[i]) <= b exactly when cum[i] <= b/g
        above = np.minimum(np.ceil(x), g).astype(np.intp)
        start = np.cumsum(np.bincount(above, minlength=g + 1)[:g])
        np.minimum(start, m - 1, out=start)
        start = start.astype(np.int32)
        inside = np.floor(x)
        inside = inside[inside < above].astype(np.intp)
        start[inside] = ~start[inside]
        cum.setflags(write=False)
        start.setflags(write=False)
        self.cum = cum
        self.start = start

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The term index of each uniform u in [0, 1)."""
        cum = self.cum
        last = len(cum) - 1
        j = self.start[(u * len(self.start)).astype(np.intp)].astype(np.intp)
        r = np.flatnonzero(j < 0)
        if r.size:
            # cum[~j] is the bucket's first CDF value: step past it, and
            # search only for the uniforms past the next one as well
            ur = u[r]
            jr = ~j[r]
            jr += cum[jr] <= ur
            np.minimum(jr, last, out=jr)
            far = np.flatnonzero(cum[jr] <= ur)
            jr[far] = np.minimum(np.searchsorted(cum, ur[far], side="right"),
                                 last)
            j[r] = jr
        return j
