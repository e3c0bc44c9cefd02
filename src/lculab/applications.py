"""End-to-end randomized algorithms: Hamiltonian simulation, ground-state
property estimation, and linear-system observables, wired through the
single-ancilla Monte-Carlo estimator with their parameter schedules."""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass

from .core_algebra import (
    PauliHamiltonian,
    PauliString,
    StateVector,
    expectation,
    ham_to_dense,
)
from .estimator import (
    EstimateReport,
    EstimatorConfig,
    PreparedLcu,
    ProductSampler,
    SampleTrace,
    expectation_observable,   # re-exported: perfbench traces this binding too
    observable_norm,
    prepare,
    required_repetitions,
    single_ancilla_lcu,
)
from .lcu_decomp import (
    LcuDecomposition,
    SegmentLcu,
    gaussian_lcu,
    inverse_lcu,
    taylor_truncation_order,
)

FLATTEN_CAP = 4096
# prepared forms kept at once by each of the two caches below
PREPARED_CACHE_SIZE = 8
# state-batch bytes the cached forms other than the one in use keep
CACHED_BATCH_BYTES = 32 << 20

# decomposition generation is deterministic in its parameters, so repeated
# runs (seed sweeps) reuse the same object
import functools

_cached_inverse_lcu = functools.lru_cache(maxsize=16)(inverse_lcu)
_cached_gaussian_lcu = functools.lru_cache(maxsize=16)(gaussian_lcu)


# neither the observable nor the seed changes a prepared form, so seed
# sweeps and observable sweeps build its probabilities and its state batch
# once
@functools.lru_cache(maxsize=PREPARED_CACHE_SIZE)
def _cached_prepared(dec: LcuDecomposition, h: PauliHamiltonian) -> PreparedLcu:
    """dec prepared on H as a dense matrix.  dec comes from a decomposition
    cache above, so a hit finds the same object; H is compared by value."""
    return prepare(dec, ham_to_dense(h))


@functools.lru_cache(maxsize=PREPARED_CACHE_SIZE)
def _cached_product(h: PauliHamiltonian, t: float, r: int, bigk: int):
    """The flattened r-fold product of the Taylor segment of e^{-iHt}, or
    its ProductSampler when it does not flatten."""
    sampler = ProductSampler(SegmentLcu(h, t, r, bigk))
    flat = sampler.flatten(FLATTEN_CAP)
    return sampler if flat is None else flat


_used: list = []   # weak references to cached forms, latest use first


def _use(form):
    """form, after the cached forms used before it have dropped their state
    batches beyond CACHED_BATCH_BYTES, the longest unused first.  A sweep
    over problems then holds the batch of the op in hand and at most
    CACHED_BATCH_BYTES more."""
    if not isinstance(form, PreparedLcu):
        return form
    others = [f for f in (ref() for ref in _used)
              if f is not None and f is not form]
    _used[:] = [weakref.ref(f) for f in [form] + others]
    kept = 0
    for f in others:
        if kept + f.batch_nbytes > CACHED_BATCH_BYTES:
            f.drop_batch()
        kept += f.batch_nbytes
    return form


@dataclass(frozen=True)
class GspProblem:
    """Ground-state property estimation inputs: a gapped Hamiltonian, a
    certified gap and overlap lower bound, and an energy window for the
    ground energy (the algorithm never eigensolves)."""

    hamiltonian: PauliHamiltonian
    gap_lower_bound: float
    overlap_lower_bound: float
    ground_energy_estimate: float
    energy_precision: float
    initial_state: StateVector

    def __post_init__(self):
        if self.gap_lower_bound <= 0:
            raise ValueError("gap lower bound must be positive")
        if not 0 < self.overlap_lower_bound <= 1 / math.sqrt(2) + 1e-12:
            raise ValueError("overlap lower bound must lie in (0, 1/sqrt(2)]")
        if self.energy_precision < 0:
            raise ValueError("energy precision must be nonnegative")


@dataclass(frozen=True)
class QlsProblem:
    """Linear-system inputs: Hermitian H with spectrum in
    [-1,-1/kappa] u [1/kappa,1] and the right-hand-side state |b>."""

    hamiltonian: PauliHamiltonian
    kappa: float
    b_state: StateVector

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")


def _shift_rescale(h: PauliHamiltonian, shift: float):
    """(H - shift*I) / beta_shifted: returns the rescaled Hamiltonian and
    the scale factor, using only coefficient arithmetic (no eigensolve)."""
    n = h.n_qubits
    ident = "I" * n
    terms = {}
    for c, p in h.terms:
        key = (p.symbols, p.phase)
        terms[key] = terms.get(key, 0.0) + c
    key_i = (ident, 1)
    terms[key_i] = terms.get(key_i, 0.0) - shift
    merged = tuple((c, PauliString(sym, ph)) for (sym, ph), c in terms.items()
                   if c != 0.0)
    if not merged:
        merged = ((0.0, PauliString(ident)),)
    shifted = PauliHamiltonian(merged)
    beta = shifted.beta if shifted.beta > 0 else 1.0
    scaled = PauliHamiltonian(tuple((c / beta, p) for c, p in shifted.terms))
    return scaled, beta


def hamsim_estimate(h: PauliHamiltonian, t: float, o, psi0: StateVector,
                    epsilon: float, delta: float, seed: int,
                    mode: str = "expectation",
                    repetitions_override: int | None = None,
                    trace: SampleTrace | None = None) -> EstimateReport:
    """Estimate Tr[O e^{-iHt} rho e^{iHt}] by sampling products of Pauli
    rotations from the per-segment Taylor mixture; the target is unitary so
    no normalization phase is needed.  At t = 0 the value is computed
    exactly and `trace` receives no samples."""
    norm_o = observable_norm(o)
    if t == 0:
        val = expectation(psi0, o)
        return EstimateReport(mu=val, ell_tilde=1.0, ratio=val, t_used=1,
                              tau_max=0.0, avg_cost=0.0, empirical_std=0.0,
                              seed=seed, info={"t": 0.0, "r": 0, "K": 0})
    t_tilde = h.beta * abs(t)
    r = max(1, math.ceil(t_tilde ** 2))
    gamma = epsilon / (6 * norm_o)
    x = t_tilde / r
    bigk = taylor_truncation_order(x, r, gamma)
    lcu = _use(_cached_product(h, t, r, bigk))
    c1 = lcu.l1_norm
    t_reps = (repetitions_override if repetitions_override is not None
              else required_repetitions(norm_o, c1, epsilon, delta))
    cfg = EstimatorConfig(epsilon=epsilon, delta=delta, mode=mode,
                          repetitions_override=t_reps, master_seed=seed)
    report = single_ancilla_lcu(lcu, psi0, o, cfg, context=h, trace=trace,
                                norm_o=norm_o)
    info = {"r": r, "K": bigk, "c1": c1, "gamma": gamma,
            "tau_max_bound": (bigk + 1) * r,
            "flattened": not isinstance(lcu, ProductSampler)}
    return dataclasses.replace(report, info={**report.info, **info})


def gsp_estimate(p: GspProblem, o, epsilon: float, delta: float, seed: int,
                 mode: str = "expectation",
                 repetitions_override: int | None = None,
                 unitary_error: float | None = None,
                 trace: SampleTrace | None = None) -> EstimateReport:
    """Ground-state expectation <v0|O|v0> via the Gaussian time-evolution
    mixture: shift by the certified energy window, rescale by the coefficient
    l1 norm, filter with e^{-t H^2}, and take the two-phase ratio."""
    shift = p.ground_energy_estimate - p.energy_precision
    scaled, beta = _shift_rescale(p.hamiltonian, shift)
    gap = p.gap_lower_bound / beta
    eta = p.overlap_lower_bound
    norm_o = observable_norm(o)
    t = (1.0 / (2 * gap ** 2)) * math.log(
        8 * norm_o ** 2 * (1 - eta ** 2) / (epsilon ** 2 * eta ** 2)) + 1
    gamma = epsilon * eta ** 2 / (30 * norm_o)
    dec = _cached_gaussian_lcu(t, gamma)
    lcu = _use(_cached_prepared(dec, scaled))
    context = lcu.context
    cfg = EstimatorConfig(epsilon=epsilon, delta=delta, mode=mode,
                          repetitions_override=repetitions_override,
                          master_seed=seed, ell_star=eta ** 2)
    if unitary_error is not None:
        # the perturbed unitaries depend on the seed: built per call
        from ._kernels import make_rng
        from .estimator import PerturbedLcu
        lcu = PerturbedLcu(dec, context, unitary_error, make_rng(seed, 99))
    report = single_ancilla_lcu(lcu, p.initial_state, o, cfg, context=context,
                                trace=trace, norm_o=norm_o)
    info = {"t": t, "gamma": gamma, "M": dec.info["M"],
            "delta_t": dec.info["delta_t"], "tau_max_formula":
                dec.info["M"] * dec.info["delta_t"] * math.sqrt(2 * t),
            "beta_rescale": beta, "c1": dec.l1_norm}
    return dataclasses.replace(report, info={**report.info, **info})


def qls_estimate(p: QlsProblem, o, epsilon: float, delta: float, seed: int,
                 mode: str = "expectation",
                 repetitions_override: int | None = None,
                 trace: SampleTrace | None = None) -> EstimateReport:
    """Solution-state expectation <x|O|x> for H|x> ~ |b> via the discretized
    Fourier quadrature of 1/x; the normalization lower bound is 1."""
    norm_o = observable_norm(o)
    gamma = epsilon / (18 * norm_o)
    dec = _cached_inverse_lcu(p.kappa, gamma)
    lcu = _use(_cached_prepared(dec, p.hamiltonian))
    cfg = EstimatorConfig(epsilon=epsilon, delta=delta, mode=mode,
                          repetitions_override=repetitions_override,
                          master_seed=seed, ell_star=1.0)
    report = single_ancilla_lcu(lcu, p.b_state, o, cfg, context=lcu.context,
                                trace=trace, norm_o=norm_o)
    info = {"gamma": gamma, "J": dec.info["J"], "K": dec.info["K"],
            "tau_max_formula": dec.info["tau_max"], "c1": dec.l1_norm,
            "kappa": p.kappa}
    return dataclasses.replace(report, info={**report.info, **info})


__all__ = [
    "GspProblem", "QlsProblem", "hamsim_estimate", "gsp_estimate",
    "qls_estimate",
]
