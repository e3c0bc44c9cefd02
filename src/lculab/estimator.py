"""Single-ancilla Monte-Carlo estimation of Tr[O f(H) rho f(H)^dag].

One control qubit, two independently sampled unitaries per shot: the
interference value Re<psi0|V2^dag O V1|psi0> is an unbiased estimate of the
target divided by the coefficient l1 norm squared.  A second phase with O=I
estimates the normalization, and the ratio is returned with Hoeffding-driven
repetition counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import _kernels
from .core_algebra import (
    DenseOperator,
    PauliHamiltonian,
    StateVector,
    ham_to_dense,
    spectral_norm,
)
from .lcu_decomp import (
    LcuDecomposition,
    SegmentLcu,
    apply_pauli_rotation,
    left_to_right_sum,
    term_unitaries,
    time_evolution_state_batch,
)

ENUMERATED_STATE_CAP = 50_000_000   # max M * dim complex entries in a state batch

# stream role ids for the counter hash
_ROLE_V1 = 1
_ROLE_V2 = 2
_ROLE_SHOT = 3


class NormUnderflowError(RuntimeError):
    """The estimated normalization fell at or below the resolvable floor;
    either the a-priori lower bound was invalid or T was too small."""

    def __init__(self, ell_tilde: float, floor: float):
        super().__init__(
            f"norm underflow: estimated normalization {ell_tilde!r} is at or "
            f"below the resolvable floor {floor!r}")
        self.ell_tilde = ell_tilde
        self.floor = floor


@dataclass(frozen=True)
class EstimatorConfig:
    epsilon: float
    delta: float
    mode: str = "expectation"
    repetitions_override: int | None = None
    master_seed: int = 0
    ell_star: float = 1.0

    def __post_init__(self):
        if not 0 < self.epsilon < 1 or not 0 < self.delta < 1:
            raise ValueError("epsilon and delta must lie in (0,1)")
        if self.mode not in ("shot", "expectation"):
            raise ValueError("mode must be 'shot' or 'expectation'")
        if self.ell_star <= 0:
            raise ValueError("ell_star must be positive")


@dataclass(frozen=True)
class SampleRecord:
    index: int
    term_ids: tuple
    value: float
    cost: float


class SampleTrace:
    """Per-sample records of one estimate, held as column chunks.

    Each chunk is (start, ids, values, costs): samples start, start+1, ...
    with their term ids (j1, j2) as an (n, 2) int array, interference
    values or shot outcomes, and costs.  Chunks follow each other without
    gaps from sample 0.  Iterating yields one SampleRecord per sample."""

    def __init__(self):
        self.chunks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        self._rows = 0

    def add(self, ids: np.ndarray, values: np.ndarray,
            costs: np.ndarray) -> None:
        """Append the next len(values) samples."""
        self.chunks.append((self._rows, ids, values, costs))
        self._rows += len(values)

    def __len__(self) -> int:
        return self._rows

    def __iter__(self):
        for start, ids, values, costs in self.chunks:
            yield from map(SampleRecord, range(start, start + len(values)),
                           map(tuple, ids.tolist()), values.tolist(),
                           costs.tolist())


@dataclass(frozen=True)
class EstimateReport:
    mu: float
    ell_tilde: float
    ratio: float
    t_used: int
    tau_max: float
    avg_cost: float
    empirical_std: float
    seed: int
    info: dict = field(default_factory=dict, compare=False)

    def as_dict(self) -> dict:
        return {
            "mu": self.mu, "ell_tilde": self.ell_tilde, "ratio": self.ratio,
            "T_used": self.t_used, "tau_max": self.tau_max,
            "avg_cost": self.avg_cost, "empirical_std": self.empirical_std,
            "seed": self.seed,
        }


def required_repetitions(norm_o: float, c1: float, epsilon: float, delta: float) -> int:
    """ceil(8 |O|^2 ln(2/delta) |c|_1^4 / eps^2) — the Hoeffding count."""
    if norm_o <= 0 or c1 <= 0 or epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("invalid repetition parameters")
    return math.ceil(8 * norm_o ** 2 * math.log(2 / delta) * c1 ** 4 / epsilon ** 2)


# ---------------------------------------------------------------------------
# sampleable wrappers

class PreparedLcu:
    """Enumerated decomposition bound to its realization context.  A time
    evolution costs its duration.  Its draws read `table`, the GuideTable
    of `probs`, which lives and dies with the form."""

    def __init__(self, decomp: LcuDecomposition, context):
        self.decomp = decomp
        self.context = context
        self._set_terms(decomp.coeffs, decomp.l1_norm, np.abs(decomp.durations))
        self.unit_normalized = False

    def _set_terms(self, coeffs: np.ndarray, l1_norm: float,
                   costs: np.ndarray) -> None:
        self.l1_norm = l1_norm
        self.probs = coeffs / l1_norm
        self.costs = costs
        self.probs.setflags(write=False)
        self.costs.setflags(write=False)
        self.table = _kernels.GuideTable(self.probs)
        self.tau_max = float(costs.max()) if len(costs) else 0.0
        self.avg_cost = left_to_right_sum(self.probs * costs)
        self._batch_cache: tuple | None = None   # (amplitude bytes, rows)

    @property
    def n_terms(self) -> int:
        return len(self.probs)

    @property
    def batch_nbytes(self) -> int:
        """Bytes of the state batch kept for the last input state."""
        return 0 if self._batch_cache is None else self._batch_cache[1].nbytes

    def drop_batch(self) -> None:
        self._batch_cache = None

    def _batch(self, psi0: StateVector, rows) -> np.ndarray:
        """rows(psi0), read-only, cached for the last input state.  The
        cache holds a copy of psi0's amplitudes and matches by value: an
        equal state reuses the rows, and a different one (a new state, or
        the same array written through another view) never gets stale
        rows."""
        key = psi0.amplitudes.tobytes()
        if self._batch_cache is not None and self._batch_cache[0] == key:
            return self._batch_cache[1]
        if self.n_terms * psi0.dim > ENUMERATED_STATE_CAP:
            raise MemoryError("enumerated state batch too large")
        self._batch_cache = None   # free the old rows before building new ones
        u = rows(psi0)
        u.setflags(write=False)
        self._batch_cache = (key, u)
        return u

    def states(self, psi0: StateVector) -> np.ndarray:
        """Matrix with rows U_j |psi0> for every term."""
        return self._batch(psi0, self._term_rows)

    def _term_rows(self, psi0: StateVector) -> np.ndarray:
        h = self.context
        if isinstance(h, PauliHamiltonian):
            h = ham_to_dense(h)
        return time_evolution_state_batch(self.decomp, h, psi0)


def _product_cost(factors) -> float:
    """A k-fold Pauli product with one rotation costs k+1."""
    return float(sum(len(d.paulis) + 1 for d in factors))


def _apply_product(factors, h: PauliHamiltonian, amps: np.ndarray) -> np.ndarray:
    """Apply the Pauli product rotations in `factors`, first one first."""
    for d in factors:
        amps = apply_pauli_rotation(d, h, amps)
    return amps


class ProductSampler:
    """Implicit r-fold product of one Taylor segment; draws a descriptor
    list per sample instead of enumerating the product."""

    def __init__(self, segment: SegmentLcu, r: int | None = None):
        self.segment = segment
        self.r = segment.r if r is None else r
        self.l1_norm = segment.l1_norm ** self.r
        # analytic per-segment cost: sum_k w_k (k+1) / l1
        w = segment.k_weights / segment.l1_norm
        self.avg_cost = float(self.r * sum(wk * (k + 1)
                                           for wk, k in zip(w, segment.even_ks)))
        self.tau_max = float(self.r * (max(segment.even_ks) + 1))
        self.unit_normalized = True   # the target e^{-iHt} is unitary

    def draw(self, rng) -> list:
        return [self.segment.sample(rng) for _ in range(self.r)]

    def apply(self, descriptors, psi0: StateVector) -> np.ndarray:
        return _apply_product(descriptors, self.segment.h, psi0.amplitudes)

    def cost(self, descriptors) -> float:
        return _product_cost(descriptors)

    def flatten(self, max_terms: int = 4096) -> PreparedProductLcu | None:
        """Explicit product decomposition when small enough, else None."""
        if self.segment.n_enumerable > max_terms:
            return None
        seg_terms = list(self.segment.enumerate_terms())
        flat = [(1.0, ())]
        for _ in range(self.r):
            nxt = []
            for c0, ds in flat:
                for c, d in seg_terms:
                    nxt.append((c0 * c, ds + (d,)))
            if len(nxt) > max_terms:
                return None
            flat = nxt
        return PreparedProductLcu(np.array([c for c, _ in flat]),
                                  tuple(ds for _, ds in flat), self.segment)


class PreparedProductLcu(PreparedLcu):
    """Enumerated flattening of a segment product (fast kernel path): term j
    has coefficient coeffs[j] and applies the rotations factors[j] in
    order."""

    def __init__(self, coeffs: np.ndarray, factors: tuple, segment: SegmentLcu):
        self._set_terms(coeffs, left_to_right_sum(coeffs),
                        np.array([_product_cost(ds) for ds in factors]))
        self.factors = factors
        self.segment = segment
        self.unit_normalized = True

    def states(self, psi0: StateVector) -> np.ndarray:
        return self._batch(psi0, lambda psi: np.stack(
            [_apply_product(ds, self.segment.h, psi.amplitudes)
             for ds in self.factors]))


class PerturbedLcu(PreparedLcu):
    """Enumerated decomposition whose realized unitaries are each replaced
    by a nearby unitary at operator-norm distance <= delta_u (models
    imperfect implementations)."""

    def __init__(self, decomp: LcuDecomposition, context: DenseOperator,
                 delta_u: float, rng):
        super().__init__(decomp, context)
        self._unitaries = [
            perturb_unitary(DenseOperator(u, unitary=True), delta_u, rng).entries
            for u in term_unitaries(decomp, context)
        ]
        self.delta_u = delta_u

    def states(self, psi0: StateVector) -> np.ndarray:
        return self._batch(psi0, lambda psi: np.stack(
            [m @ psi.amplitudes for m in self._unitaries]))


def prepare(lcu, context=None):
    if isinstance(lcu, LcuDecomposition):
        return PreparedLcu(lcu, context)
    if isinstance(lcu, SegmentLcu):
        return ProductSampler(lcu)
    return lcu  # already prepared


# ---------------------------------------------------------------------------
# observable handling

def observable_norm(o) -> float:
    if isinstance(o, DenseOperator):
        return spectral_norm(o.entries)
    raise TypeError("observable must be a DenseOperator")


def _shot_scale(o: DenseOperator, norm_o: float | None = None) -> float:
    """|O| for a shot-mode observable (`norm_o` when the caller has taken
    it), after checking that O^2 = I, so every measurement outcome reads
    +-|O|."""
    if spectral_norm(o.entries @ o.entries - np.eye(o.dim)) > 1e-9:
        raise ValueError("shot mode needs an involutory (+-1 valued) observable")
    return spectral_norm(o.entries) if norm_o is None else norm_o


@lru_cache
def _identity_like(dim: int) -> DenseOperator:
    """The checked identity, built once per dim; its entries are read-only."""
    return DenseOperator(np.eye(dim), hermitian=True, unitary=True)


# ---------------------------------------------------------------------------
# core sampling

def run_circuit_sample(lcu, psi0: StateVector, o: DenseOperator, mode: str,
                       stream, index: int = 0, context=None, *,
                       shot_scale: float | None = None) -> SampleRecord:
    """One pass of the single-ancilla circuit: draw V1, V2 from the
    coefficient distribution and return the interference value (expectation
    mode) or a +-|O| outcome (shot mode).

    `stream` is (master_seed, experiment, phase) for the counter hash.
    `shot_scale` is |O| for shot mode once the caller has checked O^2 = I;
    without it, every call checks O and takes |O|.  Estimates call this
    only for implicit products; for enumerated decompositions it is the
    per-sample reference that the chunked kernel must reproduce.
    """
    prepared = prepare(lcu, context)
    seed, exp_id, phase = stream
    key1 = _kernels.derive_key(seed, exp_id, phase, _ROLE_V1)
    key2 = _kernels.derive_key(seed, exp_id, phase, _ROLE_V2)

    if isinstance(prepared, ProductSampler):
        rng1 = _kernels.make_rng(seed, exp_id, phase, _ROLE_V1, index)
        rng2 = _kernels.make_rng(seed, exp_id, phase, _ROLE_V2, index)
        d1 = prepared.draw(rng1)
        d2 = prepared.draw(rng2)
        psi1 = prepared.apply(d1, psi0)
        psi2 = prepared.apply(d2, psi0)
        cost = prepared.cost(d1) + prepared.cost(d2)
        ids = (-1, -1)
    else:
        j1, j2 = _kernels.pair_draws(prepared.probs, key1, key2, index, 1,
                                     prepared.table)
        j1 = int(j1[0]); j2 = int(j2[0])
        states = prepared.states(psi0)
        psi1 = states[j1]
        psi2 = states[j2]
        cost = float(prepared.costs[j1] + prepared.costs[j2])
        ids = (j1, j2)

    value = float(np.real(np.vdot(psi2, o.entries @ psi1)))
    if mode == "shot":
        if shot_scale is None:
            shot_scale = _shot_scale(o)
        e = value
        if abs(e) > 1 + 1e-9:
            raise ValueError(f"interference value {e} outside [-1,1]")
        key_s = _kernels.derive_key(seed, exp_id, phase, _ROLE_SHOT)
        us = _kernels.counter_uniforms(key_s, index, 1)[0]
        value = 1.0 if us < (1 + e) / 2 else -1.0
        value *= shot_scale
    return SampleRecord(index=index, term_ids=ids, value=value, cost=cost)


def expectation_observable(lcu, psi0: StateVector, o: DenseOperator,
                           t_reps: int, config: EstimatorConfig, context=None,
                           experiment: int = 0, phase: int = 0,
                           trace: SampleTrace | None = None,
                           norm_o: float | None = None):
    """mu = (|c|_1^2 / T) * sum of per-sample values.

    Returns (mu, (mean, sample_std_of_values)); when `trace` is given, every
    sample is appended to it.  `norm_o` is |O| when the caller has taken it;
    shot mode then checks only O^2 = I, once per estimate.

    An enumerated decomposition (PreparedLcu and its subclasses) runs on the
    chunked counter-hash kernel in either mode.  Trace rows are read off the
    same chunks, so a traced run reports the same values as an untraced
    one.  Implicit products (ProductSampler) run `run_circuit_sample` once
    per sample.
    """
    if t_reps < 1:
        raise ValueError("T must be >= 1")
    prepared = prepare(lcu, context)
    stream = (config.master_seed, experiment, phase)
    sums = (_enumerated_sums if isinstance(prepared, PreparedLcu)
            else _per_sample_sums)
    s, s2 = sums(prepared, psi0, o, t_reps, config.mode, stream, trace,
                 norm_o)
    mean = s / t_reps
    var = max(s2 / t_reps - mean * mean, 0.0)
    mu = prepared.l1_norm ** 2 * mean
    return mu, (mean, math.sqrt(var))


def _enumerated_sums(prepared: PreparedLcu, psi0: StateVector,
                     o: DenseOperator, t_reps: int, mode: str, stream,
                     trace: SampleTrace | None,
                     norm_o: float | None) -> tuple[float, float]:
    seed, exp_id, phase = stream
    key1 = _kernels.derive_key(seed, exp_id, phase, _ROLE_V1)
    key2 = _kernels.derive_key(seed, exp_id, phase, _ROLE_V2)
    shot = None
    if mode == "shot":
        shot = (_kernels.derive_key(seed, exp_id, phase, _ROLE_SHOT),
                _shot_scale(o, norm_o))
    sink = None
    if trace is not None:
        costs = prepared.costs

        def sink(start, j1, j2, values):
            # an expectation value is the real part of a complex array:
            # copy it, so the trace holds 8 bytes a value, not 16
            trace.add(np.stack((j1, j2), axis=1),
                      np.ascontiguousarray(values), costs[j1] + costs[j2])

    u = prepared.states(psi0)
    # O = I (the normalization phase) reads the rows themselves, which
    # hold the values of their product with I, without a copy
    ou = u if np.array_equal(o.entries, np.eye(o.dim)) else u @ o.entries.T
    return _kernels.pair_accumulate(u, ou, prepared.probs, key1, key2, t_reps,
                                    shot=shot, sink=sink, table=prepared.table)


def _per_sample_sums(prepared: ProductSampler, psi0: StateVector,
                     o: DenseOperator, t_reps: int, mode: str, stream,
                     trace: SampleTrace | None,
                     norm_o: float | None) -> tuple[float, float]:
    scale = _shot_scale(o, norm_o) if mode == "shot" else None
    s = 0.0
    cs = 0.0
    s2 = 0.0
    ids, values, costs = [], [], []
    for i in range(t_reps):
        rec = run_circuit_sample(prepared, psi0, o, mode, stream, index=i,
                                 shot_scale=scale)
        if trace is not None:
            ids.append(rec.term_ids)
            values.append(rec.value)
            costs.append(rec.cost)
        y = rec.value - cs
        tt = s + y
        cs = (tt - s) - y
        s = tt
        s2 += rec.value * rec.value
    if trace is not None:
        trace.add(np.array(ids, dtype=np.intp), np.array(values),
                  np.array(costs))
    return s, s2


def single_ancilla_lcu(lcu, psi0: StateVector, o, config: EstimatorConfig,
                       context=None,
                       trace: SampleTrace | None = None,
                       norm_o: float | None = None) -> EstimateReport:
    """Two-phase estimate of Tr[O rho] with rho the normalized f(H)-evolved
    state: phase one measures the numerator, phase two (O = I) the
    normalization; returns their ratio with the Hoeffding repetition counts
    rescaled for the ratio's error budget.  A unit-normalized target skips
    phase two.  `trace` receives the samples of phase one.  `norm_o` is |O|
    when the caller has taken it; it is then not taken again."""
    prepared = prepare(lcu, context)
    # |O| enters the Hoeffding counts, the normalization floor and the shot
    # scale
    needs_norm = config.repetitions_override is None or not prepared.unit_normalized
    if norm_o is None and needs_norm:
        norm_o = observable_norm(o)
    c1 = prepared.l1_norm
    eps, delta, ell_star = config.epsilon, config.delta, config.ell_star

    if config.repetitions_override is not None:
        t_num = t_den = int(config.repetitions_override)
    else:
        t_num = required_repetitions(norm_o, c1, eps * ell_star / 3, delta)
        t_den = required_repetitions(1.0, c1, eps * ell_star / (3 * norm_o), delta)

    mu, (_, std) = expectation_observable(
        prepared, psi0, o, t_num, config, context=context, phase=0,
        trace=trace, norm_o=norm_o)

    if prepared.unit_normalized:
        ell_tilde = 1.0
        t_used = t_num
    else:
        ell_tilde, _ = expectation_observable(
            prepared, psi0, _identity_like(psi0.dim), t_den,
            replace(config, mode="expectation"), context=context, phase=1)
        t_used = t_num + t_den
        floor = eps * ell_star / (3 * norm_o)
        if ell_tilde <= floor:
            raise NormUnderflowError(ell_tilde, floor)

    ratio = mu / ell_tilde
    return EstimateReport(
        mu=mu, ell_tilde=ell_tilde, ratio=ratio, t_used=t_used,
        tau_max=prepared.tau_max, avg_cost=prepared.avg_cost,
        empirical_std=c1 ** 2 * std / math.sqrt(t_num),
        seed=config.master_seed)


def perturb_unitary(u: DenseOperator, delta_u: float, rng) -> DenseOperator:
    """Multiply by e^{i eps G} with G a random unit-spectral-norm Hermitian,
    eps tuned by bisection so the perturbed unitary sits just inside the
    requested operator-norm ball."""
    if not u.unitary:
        raise ValueError("input must be unitary")
    if not 0 < delta_u < 0.5:
        raise ValueError("delta_u must lie in (0, 0.5)")
    dim = u.dim
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g = (g + g.conj().T) / 2
    g = g / spectral_norm(g)
    evals, evecs = np.linalg.eigh(g)

    def perturbed(eps: float) -> np.ndarray:
        rot = (evecs * np.exp(1j * eps * evals)) @ evecs.conj().T
        return rot @ u.entries

    # |e^{i eps G} - I| = max |e^{i eps l} - 1| <= 2 sin(eps/2): bracket
    hi = 2 * math.asin(min(delta_u, 1.999) / 2) * 1.5
    lo = 0.0
    for _ in range(80):
        mid = (lo + hi) / 2
        dist = spectral_norm(perturbed(mid) - u.entries)
        if dist > delta_u:
            hi = mid
        elif dist >= 0.9 * delta_u:
            lo = mid
            break
        else:
            lo = mid
    return DenseOperator(perturbed(lo), unitary=True)
