"""References for the tests of `lculab._kernels`: the sorted inverse-CDF
search and the gather-path pair kernel that the guide-table draws and the
Gram-table values must reproduce bit for bit."""

import numpy as np

from lculab import _kernels
from lculab._kernels import counter_uniforms


def inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cum, u, side="right") clipped to the last index.

    The uniforms are searched in sorted order and the indices scattered
    back: consecutive searches then walk nearby parts of a long CDF, and
    every index is the same, bit for bit, as the unsorted search gives."""
    order = np.argsort(u)
    j = np.empty(u.shape[0], dtype=np.intp)
    j[order] = np.searchsorted(cum, u[order], side="right")
    np.clip(j, 0, cum.shape[0] - 1, out=j)
    return j


def cdf(probs: np.ndarray) -> np.ndarray:
    """The running sum of probs with its last value set to 1."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return cum


def reference_draws(probs, key1, key2, start, count):
    """The (j1, j2) draws of samples [start, start+count) by inverse_cdf."""
    cum = cdf(probs)
    return (inverse_cdf(cum, counter_uniforms(key1, start, count)),
            inverse_cdf(cum, counter_uniforms(key2, start, count)))


def reference_pair_accumulate(u, ou, probs, key1, key2, total, shot=None,
                              sink=None):
    """The pair kernel with every value taken from gathered rows and every
    draw from inverse_cdf, chunked and summed as `pair_accumulate` is."""
    s = cs = s2 = cs2 = 0.0
    start = 0
    while start < total:
        count = min(_kernels.CHUNK, total - start)
        j1, j2 = reference_draws(probs, key1, key2, start, count)
        vals = np.einsum("id,id->i", ou[j1], np.conj(u[j2])).real
        if shot is not None:
            key, scale = shot
            us = counter_uniforms(key, start, count)
            vals = np.where(us < (1 + vals) / 2, scale, -scale)
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
