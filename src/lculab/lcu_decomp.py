"""Coefficient sets and unitary families for linear-combination expansions.

Generators: Gaussian (time-evolution mixture for e^{-t H^2}), discretized
inverse (1/x as a two-index Fourier quadrature) and Taylor segments of e^{-iHt}
over Pauli products.  The Gaussian and inverse generators check their scalar
function, so the advertised target error is verified, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_algebra import (
    DenseOperator,
    PauliHamiltonian,
    StateVector,
    hermitian_eigh,
    pauli_apply,
)

SCALAR_GRID_POINTS = 2000


# ---------------------------------------------------------------------------
# term types and time-evolution decompositions

@dataclass(frozen=True)
class PauliProductRotation:
    """phase * P_{l1}...P_{lk} exp(-i * angle * P_m), indices into a
    PauliHamiltonian's term list; signs of the coefficients are already
    absorbed into phase and angle."""
    paulis: tuple
    rotation_index: int
    angle: float
    phase: complex = 1.0


def left_to_right_sum(x: np.ndarray) -> float:
    """x[0] + x[1] + ... added in that order.  np.sum adds pairwise and
    Python's sum of floats is compensated from 3.12 on; a sequential
    accumulate gives the same l1 norm, and the same Hoeffding counts, on
    every Python and numpy."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


@dataclass(frozen=True, eq=False)
class LcuDecomposition:
    """sum_j coeffs_j * phases_j * e^{-i durations_j H} for the context
    Hamiltonian H, held as three read-only arrays of one length.

    Signs and unimodular phases live in `phases`, so every coefficient is
    strictly positive and l1_norm is their sum, taken left to right.
    """

    coeffs: np.ndarray
    durations: np.ndarray
    phases: np.ndarray
    target_error: float
    info: dict = field(default_factory=dict)
    l1_norm: float = field(init=False)

    def __post_init__(self):
        arrays = {"coeffs": np.array(self.coeffs, dtype=float),
                  "durations": np.array(self.durations, dtype=float),
                  "phases": np.array(self.phases, dtype=complex)}
        if len({a.shape for a in arrays.values()}) != 1 or \
                arrays["coeffs"].ndim != 1:
            raise ValueError("coeffs, durations and phases must be 1-D "
                             "arrays of one length")
        if not np.all(arrays["coeffs"] > 0):
            raise ValueError("coefficients must be strictly positive")
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "l1_norm", left_to_right_sum(arrays["coeffs"]))

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    @property
    def terms(self) -> np.recarray:
        """The three arrays as (coeff, duration, phase) records."""
        rec = np.rec.fromarrays((self.coeffs, self.durations, self.phases),
                                names="coeff,duration,phase")
        rec.setflags(write=False)
        return rec


def apply_pauli_rotation(d: PauliProductRotation, h: PauliHamiltonian,
                         amplitudes: np.ndarray) -> np.ndarray:
    """Apply phase * P_{l1}...P_{lk} e^{-i angle P_m} to raw amplitudes."""
    pm = h.terms[d.rotation_index][1]
    out = math.cos(d.angle) * amplitudes - 1j * math.sin(d.angle) * pauli_apply(pm, amplitudes)
    for idx in reversed(d.paulis):
        out = pauli_apply(h.terms[idx][1], out)
    if d.phase != 1:
        out = d.phase * out
    return out


def term_unitaries(decomp: LcuDecomposition, h: DenseOperator):
    """Yield phase_j V e^{-i d_j Lambda} V^dag = phase_j e^{-i d_j H} for every
    term, from one checked eigendecomposition H = V Lambda V^dag."""
    evals, evecs = hermitian_eigh(h)
    for duration, phase in zip(decomp.durations.tolist(),
                               decomp.phases.tolist()):
        fvals = np.exp(-1j * duration * evals)
        yield phase * ((evecs * fvals) @ evecs.conj().T)


def realized_sum(decomp: LcuDecomposition, h: DenseOperator) -> np.ndarray:
    """Dense sum_j c_j U_j (the operator the decomposition approximates), as
    V g(Lambda) V^dag from one checked eigendecomposition H = V Lambda V^dag,
    with g the scalar symbol."""
    evals, evecs = hermitian_eigh(h)
    return (evecs * scalar_function(decomp, evals)) @ evecs.conj().T


def time_evolution_state_batch(decomp: LcuDecomposition, h: DenseOperator,
                               psi0: StateVector) -> np.ndarray:
    """Rows phase_j * exp(-i d_j H) |psi0> for every term, via a single
    eigendecomposition."""
    evals, evecs = np.linalg.eigh(h.entries)
    coeffs = evecs.conj().T @ psi0.amplitudes
    # (M, dim) phase table in the eigenbasis, then rotate back; in place,
    # so that at most two (M, dim) complex arrays are alive at once
    table = -1j * np.outer(decomp.durations, evals)
    np.exp(table, out=table)
    table *= coeffs[None, :]
    rows = table @ evecs.T
    rows *= decomp.phases[:, None]
    return rows


def scalar_function(decomp: LcuDecomposition, xs: np.ndarray) -> np.ndarray:
    """sum_j c_j phase_j e^{-i x d_j}: the scalar symbol of the
    decomposition, evaluated on a grid of eigenvalues.  A decomposition
    built by inverse_lcu (its info holds J) takes the closed form of its
    j-sums, the same symbol its calibration checked."""
    xs = np.asarray(xs, dtype=float)
    info = decomp.info
    if "J" in info:
        return _inverse_symbol(xs, info["J"], info["K"], info["delta_y"],
                               info["delta_z"])
    weights = decomp.coeffs * decomp.phases
    return np.exp(-1j * np.outer(xs, decomp.durations)) @ weights


# ---------------------------------------------------------------------------
# Gaussian mixture for e^{-t H^2}

def gaussian_lcu(t: float, gamma: float) -> LcuDecomposition:
    """Time-evolution mixture whose realized operator is within gamma of
    e^{-t H^2} for any unit-norm Hermitian H (t > 1).  info records the
    verified scalar sup error on the SCALAR_GRID_POINTS grid of [-1, 1]."""
    if t <= 1:
        raise ValueError("t must exceed 1")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0,1)")
    delta_t = 1.0 / (math.sqrt(2 * t) + math.sqrt(2 * math.log(5 / gamma)))
    big_m = math.ceil(math.sqrt(2) * (math.sqrt(t) + math.sqrt(math.log(5 / gamma)))
                      * math.sqrt(math.log(4 / gamma)))
    scale = math.sqrt(2 * t)
    norm = delta_t / math.sqrt(2 * math.pi)
    # The nominal M truncates the z-grid at sqrt(log(4/gamma)), whose tail
    # mass alone exceeds gamma; grow M (step size fixed) until the scalar
    # error actually meets the target.
    xs = np.linspace(-1.0, 1.0, SCALAR_GRID_POINTS)
    target = np.exp(-t * xs ** 2)
    for _ in range(64):
        js = range(-big_m, big_m + 1)
        dec = LcuDecomposition(
            coeffs=[norm * math.exp(-(j * delta_t) ** 2 / 2) for j in js],
            durations=np.array(js) * delta_t * scale,
            phases=np.ones(len(js)), target_error=gamma,
            info={"M": big_m, "delta_t": delta_t,
                  "tau_max": big_m * delta_t * scale, "t": t})
        err = float(np.max(np.abs(scalar_function(dec, xs) - target)))
        if err <= gamma:
            dec.info["scalar_sup_error"] = err
            return dec
        big_m = math.ceil(1.25 * big_m)
    raise RuntimeError("gaussian schedule failed to calibrate")


# ---------------------------------------------------------------------------
# discretized inverse

def _inverse_symbol(xs, big_j, big_k, dy, dz) -> np.ndarray:
    """g(x) = sum_{k != 0} w_k sum_{j < J} e^{-i x z_k dy j} with z_k = k dz
    and w_k = i dy dz z_k e^{-z_k^2/2} / sqrt(2 pi).  Each j-sum is a
    geometric series, e^{-i (J-1) theta/2} sin(J theta/2) / sin(theta/2)
    with theta = x z_k dy, so the cost is len(xs) * 2K, not len(xs) * 2KJ."""
    ks = np.arange(-big_k, big_k + 1)
    zs = ks[ks != 0] * dz
    w = dy * dz / math.sqrt(2 * math.pi) * zs * np.exp(-zs * zs / 2) * 1j
    half = np.outer(xs, zs) * (dy / 2)                 # (nx, nk), theta / 2
    s = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        dirichlet = np.where(s == 0, float(big_j), np.sin(big_j * half) / s)
    return (np.exp(-1j * (big_j - 1) * half) * dirichlet) @ w


def inverse_lcu(kappa: float, gamma: float) -> LcuDecomposition:
    """Two-index Fourier quadrature of 1/x on [-1,-1/kappa] u [1/kappa,1].

    Closed-form parameter counts are only known up to constants, so a
    calibration loop refines the grids until the scalar sup bound holds;
    final J and K are reported in info.  Terms run k-major: for each
    k != 0 in -K..K, the J terms j = 0..J-1 share the coefficient and phase
    of z_k = k dz and have durations j dy z_k.  info's J, K, delta_y and
    delta_z define the symbol that scalar_function evaluates in closed form.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0,1)")
    lg = math.log(kappa / gamma)
    big_j = math.ceil(kappa / gamma * math.sqrt(lg))
    big_k = math.ceil(kappa * math.sqrt(lg))
    y_max = kappa * math.sqrt(2 * lg)
    z_max = math.sqrt(2 * lg)
    # sup |1/x - g(x)| is checked on the two-sided eigenvalue domain
    half = np.linspace(1.0 / kappa, 1.0, SCALAR_GRID_POINTS // 2)
    xs = np.concatenate([-half, half])
    err = math.inf
    for _ in range(12):
        dy = y_max / big_j
        dz = z_max / big_k
        err = float(np.max(np.abs(1.0 / xs - _inverse_symbol(xs, big_j, big_k, dy, dz))))
        if err <= gamma:
            break
        big_j *= 2
        big_k *= 2
        y_max *= 1.25
        z_max *= 1.25
    else:
        raise RuntimeError("inverse quadrature calibration failed to converge")
    zks = [k * dz for k in range(-big_k, big_k + 1) if k != 0]
    per_k = [dy * dz / math.sqrt(2 * math.pi) * abs(zk) * math.exp(-zk * zk / 2)
             for zk in zks]
    info = {"J": big_j, "K": big_k, "delta_y": dy, "delta_z": dz,
            "scalar_sup_error": err, "tau_max": big_j * dy * big_k * dz,
            "kappa": kappa}
    return LcuDecomposition(
        coeffs=np.repeat(per_k, big_j),
        durations=np.outer(zks, np.arange(big_j) * dy).ravel(),
        phases=np.repeat(np.where(np.array(zks) > 0, 1j, -1j), big_j),
        target_error=gamma, info=info)


# ---------------------------------------------------------------------------
# Taylor segment of e^{-iHt/r} over Pauli products

class SegmentLcu:
    """Implicit decomposition of one time slice e^{-i (beta t / r) (H/beta)}.

    Never enumerates the full index set; exposes the closed-form l1 norm, a
    sampler over (k, l_1..l_k, m) tuples, and exhaustive enumeration for tiny
    instances only.
    """

    def __init__(self, h: PauliHamiltonian, t: float, r: int, bigk: int):
        if r < 1 or bigk < 0:
            raise ValueError("r must be >= 1 and bigk >= 0")
        self.h = h
        self.t = float(t)
        self.r = int(r)
        self.bigk = int(bigk)
        self.t_tilde = h.beta * self.t
        self.x = self.t_tilde / self.r
        self.even_ks = tuple(k for k in range(0, bigk + 1) if k % 2 == 0)
        self.k_weights = np.array([
            self.x ** k / math.factorial(k) * math.sqrt(1 + (self.x / (k + 1)) ** 2)
            for k in self.even_ks
        ])
        self.l1_norm = float(self.k_weights.sum())
        self.term_probs = np.array([abs(c) for c, _ in h.terms]) / h.beta
        self.term_signs = np.array([1.0 if c >= 0 else -1.0 for c, _ in h.terms])
        self.angles = {k: math.acos(1.0 / math.sqrt(1 + (self.x / (k + 1)) ** 2))
                       for k in self.even_ks}

    @property
    def n_enumerable(self) -> int:
        big_l = len(self.h.terms)
        return sum(big_l ** (k + 1) for k in self.even_ks)

    def descriptor(self, k: int, picks: tuple, m: int) -> PauliProductRotation:
        sign_prod = float(np.prod(self.term_signs[list(picks)])) if picks else 1.0
        phase = (-1j) ** k * sign_prod
        return PauliProductRotation(paulis=tuple(picks), rotation_index=m,
                                    angle=self.angles[k] * self.term_signs[m],
                                    phase=complex(phase))

    def sample(self, rng) -> PauliProductRotation:
        k = self.even_ks[rng.choice(len(self.even_ks),
                                    p=self.k_weights / self.l1_norm)]
        picks = tuple(rng.choice(len(self.term_probs), size=k, p=self.term_probs))
        m = int(rng.choice(len(self.term_probs), p=self.term_probs))
        return self.descriptor(k, picks, m)

    def enumerate_terms(self):
        """All (coefficient, descriptor) pairs; gated to tiny instances."""
        if self.n_enumerable > 10 ** 6:
            raise ValueError("segment too large to enumerate")
        import itertools
        big_l = len(self.h.terms)
        for k_idx, k in enumerate(self.even_ks):
            base = self.k_weights[k_idx]
            for picks in itertools.product(range(big_l), repeat=k):
                p_picks = float(np.prod(self.term_probs[list(picks)])) if picks else 1.0
                for m in range(big_l):
                    coef = base * p_picks * self.term_probs[m]
                    if coef > 0:
                        yield coef, self.descriptor(k, picks, m)


def taylor_truncation_order(x: float, r: int, gamma: float) -> int:
    """Smallest K with r * x^{K+1}/(K+1)! * e^x <= gamma."""
    k = 0
    while r * x ** (k + 1) / math.factorial(k + 1) * math.exp(x) > gamma:
        k += 1
        if k > 1000:
            raise RuntimeError("truncation order runaway")
    return k
