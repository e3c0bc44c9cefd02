"""Workload definitions: each workload is a fixed block of op kinds that is
repeated in rounds.

A round holds every op kind of the block exactly once, shuffled, and each op
gets its own seed.  Both come from `random.Random` keyed by the workload
name, the benchmark seed and the round number, so the op list is a pure
function of (workload, seed) and every round has the same op mix.  Whole
rounds keep the mix, and with it the p50 and p90 positions, the same in every
run.  An op is the flag dictionary `lculab <sub>` would receive; the program
sees nothing else.
"""

from __future__ import annotations

import math
import random

README_GSP = {"hamiltonian": "0.5*II-0.5*ZZ+0.1*XI", "gap": "1.0",
              "eta": "0.7", "e0": "-0.0099", "eg": "0.01",
              "state": "basis:0"}
README_QLS = {"hamiltonian": "0.6*ZZ+0.4*XX", "kappa": "5"}
README_HAMSIM = {"hamiltonian": "0.3*X+0.4*Z", "observable": "1.0*Z",
                 "eps": "0.05", "delta": "0.05"}
# three qubits: the Taylor product does not flatten below the 4096-term cap
HAMSIM_3Q = {"hamiltonian": "0.3*XII+0.4*ZZI+0.2*IXZ+0.1*YYX", "t": "3",
             "observable": "1.0*ZII", "repetitions": "250"}
# kappa=2 system (spectrum +-1, +-0.5): a short qls op (M in the thousands)
QLS_SMALL = {"hamiltonian": "0.75*ZZ+0.25*XX", "kappa": "2"}


def _kind(sub: str, **params) -> tuple[str, dict]:
    return sub, params


# Each block is built so that whole rounds put p50 and p90 inside a cluster
# of ops with near-equal cost, never on the edge between two kinds.

def _sample_fast():
    hamsim = [_kind("hamsim", **README_HAMSIM, t=t) for t in ("0.5", "1.0", "1.5")]
    gsp = [_kind("gsp", **README_GSP, observable=o)
           for o in ("1.0*ZI", "1.0*XI", "1.0*ZZ")]
    # kappa=2 qls costs about what a gsp op costs: p50 sits among these
    # eight.  The five kappa=2 ops also hold the median hoeffding_T, so it
    # is an inverse-quadrature count that the l1 of inverse_lcu moves.
    qls2 = [_kind("qls", **QLS_SMALL, observable=o, repetitions="10000")
            for o in ("1.0*ZI", "1.0*IZ", "1.0*XX", "1.0*ZZ", "1.0*XI")]
    # the p90 sits among these three
    qls5 = [_kind("qls", **README_QLS, observable=o, repetitions="100000")
            for o in ("1.0*ZI", "1.0*XX", "1.0*IZ")]
    return hamsim + gsp + qls2 + qls5


def _sample_general():
    shots = [_kind("hamsim", **README_HAMSIM, t="1.0", mode="shot",
                   repetitions="200")] * 3
    shots += [_kind("gsp", **README_GSP, observable=o, mode="shot",
                    repetitions="200")
              for o in ("1.0*ZI", "1.0*IZ", "1.0*ZZ", "1.0*XX")]
    # the median sits among these six.  At 2500 repetitions an op takes
    # about 0.2 s; at 1000 (0.09 s) the median moved more from run to run.
    trace_g = [_kind("gsp", **README_GSP, observable=o, trace="true",
                     repetitions="2500")
               for o in ("1.0*ZI", "1.0*IZ", "1.0*XI", "1.0*ZZ", "1.0*XX",
                         "1.0*IX")]
    # the p90 sits among these three
    trace_q = [_kind("qls", **QLS_SMALL, observable=o, trace="true",
                     repetitions="2000")
               for o in ("1.0*ZI", "1.0*IZ", "1.0*XX")]
    unflat = [_kind("hamsim", **HAMSIM_3Q)] * 3
    return shots + trace_g + trace_q + unflat


def _build():
    def gauss(t, gamma, h=None):
        extra = {"hamiltonian": h} if h else {}
        return _kind("decomp-check", kind="gaussian", t=t, gamma=gamma, **extra)

    def inverse(kappa, gamma, h=None):
        extra = {"hamiltonian": h} if h else {}
        return _kind("decomp-check", kind="inverse", kappa=kappa, gamma=gamma,
                     **extra)

    decomps = [gauss("2", "1e-2"), gauss("8", "1e-3", "0.3*XX+0.4*ZI"),
               gauss("25", "1e-3", "0.5*Z")]
    decomps += [inverse("2", "1e-1", "0.75*Z+0.25*X"), inverse("5", "5e-2")]
    # the median op and the median hoeffding_T both sit among these seven
    # identical inverse checks.  With two BLAS threads, cheaper inverse
    # checks (kappa=3, gamma=5e-2, about 0.05 s) swing between 0.03 and
    # 0.16 s from op to op, and a median on them moves from run to run.
    decomps += [inverse("4", "1e-2")] * 7
    # these two cost a little more than the kappa=4 checks
    decomps += [inverse("3", "5e-3")] * 2
    analog = [_kind("analog-gsp", **README_GSP),
              _kind("analog-gsp", hamiltonian="0.4*Z+0.2*X", gap="0.8",
                    eta="0.5", e0="-0.46", eg="0.02", state="basis:0")]
    # the p90 sits among these four two-ancilla runs
    analog += [_kind("analog-qls", hamiltonian="0.6*Z+0.4*X", kappa="2",
                     ancilla="ring"),
               _kind("analog-qls", hamiltonian="0.8*Z+0.3*X", kappa="2",
                     ancilla="ring"),
               _kind("analog-qls", hamiltonian="0.6*I+0.2*Z", kappa="3",
                     ancilla="gaussian"),
               _kind("analog-qls", hamiltonian="0.5*I+0.3*X", kappa="4",
                     ancilla="gaussian")]
    return decomps + analog


def _walks():
    def walk(graph, algo, marked="0", eps="0.1"):
        return _kind("walks-search", graph=graph, marked=marked, algo=str(algo),
                     eps=eps, delta="0.05")
    small = [walk(g, a, eps=e) for g, a, e in (
        ("cycle:4", 1, "0.1"), ("complete:4", 1, "0.08"),
        ("complete:4", 2, "0.1"), ("cycle:5", 2, "0.12"),
        ("cycle:6", 1, "0.08"), ("complete:6", 2, "0.1"),
        ("complete:8", 1, "0.1"))]
    # the median sits among these nine: one graph and trial count, a
    # different marked node each, so they cost the same.  Ops on 100 x 100
    # walk matrices vary less with the load on the box than the small ones.
    middle = [walk("cycle:10", 1, marked=str(m)) for m in range(9)]
    # the p90 sits among these four, built the same way
    large = [walk("cycle:12", 1, marked=str(m), eps="0.12") for m in (0, 3, 6, 9)]
    return small + middle + large


BLOCKS = {
    "sample-fast": _sample_fast,
    "sample-general": _sample_general,
    "build": _build,
    "walks-search": _walks,
}


def walk_trials(eps: float, delta: float) -> int:
    """Trials the op's eps/delta requires for its success estimate:
    Hoeffding for a Bernoulli mean, ceil(ln(2/delta) / (2 eps^2))."""
    return math.ceil(math.log(2 / delta) / (2 * eps * eps))


def _with_seed(sub: str, params: dict, seed: int) -> dict:
    params = {**params, "seed": str(seed)}
    if sub == "walks-search":
        params["trials"] = str(walk_trials(float(params["eps"]),
                                           float(params["delta"])))
    return {"sub": sub, "params": params}


def round_ops(workload: str, seed: int, index: int) -> list[dict]:
    """Ops of round `index`: every kind of the block once, shuffled, each
    with a seed of its own."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = [_with_seed(sub, params, rng.randrange(1 << 31))
           for sub, params in BLOCKS[workload]()]
    rng.shuffle(ops)
    return ops


_NOT_PROBLEM = ("observable", "mode", "trace", "repetitions")


def warmup_ops(workload: str) -> list[dict]:
    """Ops run before timing starts, with seed 0.  On the sampling
    workloads: one op per distinct problem, which fills the decomposition
    cache of `applications`.  On `build` and `walks-search`, where nothing is
    cached: the first kind of each subcommand in the block."""
    seen, ops = set(), []
    for sub, params in BLOCKS[workload]():
        problem = {k: v for k, v in params.items() if k not in _NOT_PROBLEM}
        key = (sub, tuple(sorted(problem.items()))
               if workload.startswith("sample") else ())
        if key not in seen:
            seen.add(key)
            ops.append(_with_seed(sub, params, 0))
    return ops
