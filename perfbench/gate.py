"""Per-op correctness gate: checks each report against a dense numpy oracle
built here from the op's own flags, never from the program's code.

Statistical tolerances come from the op's eps and its repetition count T.
The sampling part is a Hoeffding half-width at confidence GATE_DELTA per
check, and the numerator check uses the empirical-Bernstein bound with
the report's std, so a correct program fails an op by chance with
probability below about 1e-6.  Every check returns a list of failure messages (empty when the op
passes) and a flag saying whether a bound was vacuous.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from scipy.linalg import expm

GATE_DELTA = 1e-6

_PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
          "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1.0, -1.0])}
_TERM = re.compile(r"([+-]?\s*[0-9.]+(?:[eE][+-]?\d+)?)\s*\*\s*([IXYZ]+)")


def pauli_terms(text: str) -> dict:
    """Pauli word -> summed coefficient of a coefficient*word sum."""
    terms = {}
    for coef, word in _TERM.findall(text):
        terms[word] = terms.get(word, 0.0) + float(coef.replace(" ", ""))
    if not terms:
        raise ValueError(f"no Pauli terms in {text!r}")
    return terms


def pauli_matrix(text: str) -> np.ndarray:
    """Dense matrix of a sum of coefficient*Pauli-string terms."""
    total = None
    for word, coef in pauli_terms(text).items():
        m = np.array([[1.0]], dtype=complex)
        for ch in word:
            m = np.kron(m, _PAULI[ch])
        total = coef * m if total is None else total + coef * m
    return total


def gsp_schedule(p: dict, norm_o: float) -> tuple[float, float]:
    """(beta, t) of the ground-state filter: beta is the l1 norm of the
    coefficients of H - (e0 - eg) I, and t = ln(8 |O|^2 (1 - eta^2) /
    (eps^2 eta^2)) / (2 (gap / beta)^2) + 1."""
    terms = pauli_terms(p["hamiltonian"])
    ident = "I" * len(next(iter(terms)))
    shift = float(p["e0"]) - float(p.get("eg", 0.0))
    terms[ident] = terms.get(ident, 0.0) - shift
    beta = sum(abs(c) for c in terms.values()) or 1.0
    eps, eta = float(p.get("eps", 0.1)), float(p["eta"])
    gap = float(p["gap"]) / beta
    t = math.log(8 * norm_o ** 2 * (1 - eta ** 2) / (eps ** 2 * eta ** 2)) \
        / (2 * gap ** 2) + 1
    return beta, t


def state_vector(text: str, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    if text == "zero":
        v[0] = 1.0
    elif text.startswith("basis:"):
        v[int(text.split(":", 1)[1])] = 1.0
    else:
        raise ValueError(f"state spec {text!r} not used by the benchmark")
    return v


def _halfwidth(c1: float, value_range: float, t: int) -> float:
    """Hoeffding half-width of c1^2 * mean of T values in [-r, r]."""
    return c1 ** 2 * value_range * math.sqrt(2 * math.log(2 / GATE_DELTA) / t)


def _bernstein(c1: float, value_range: float, std: float, t: int) -> float:
    """Empirical-Bernstein half-width (Maurer and Pontil 2009) of c1^2 *
    mean of T values in [-r, r] whose sample std is `std`."""
    log = math.log(2 / GATE_DELTA)
    return c1 ** 2 * (std * math.sqrt(2 * log / t)
                      + 7 * 2 * value_range * log / (3 * max(t - 1, 1)))


def _expectation(vec: np.ndarray, o: np.ndarray) -> float:
    return float(np.real(np.vdot(vec, o @ vec)))


def _phase_reps(sub: str, p: dict, res: dict, norm_o: float,
                required) -> tuple[int, int]:
    """(T_num, T_den) as the estimator chose them for a two-phase op."""
    if "repetitions" in p:
        return int(p["repetitions"]), int(p["repetitions"])
    eps, delta = float(p.get("eps", 0.1)), float(p.get("delta", 0.1))
    ell_star = float(p["eta"]) ** 2 if sub == "gsp" else 1.0
    c1 = res["info"]["c1"]
    return (required(norm_o, c1, eps * ell_star / 3, delta),
            required(1.0, c1, eps * ell_star / (3 * norm_o), delta))


def hoeffding_t(sub: str, p: dict, res: dict, required) -> int:
    """Repetitions the op's eps/delta requires, from the report's c1,
    summed over both phases the way the estimator sums them."""
    if sub == "walks-search":
        return int(p["trials"])
    eps, delta = float(p.get("eps", 0.1)), float(p.get("delta", 0.1))
    if sub == "decomp-check":
        c1 = res["l1_norm"]
        return 2 * required(1.0, c1, eps / 3, delta)
    norm_o = float(np.linalg.norm(pauli_matrix(p["observable"]), 2))
    c1 = res["info"]["c1"]
    if sub == "hamsim":
        return required(norm_o, c1, eps, delta)
    return sum(_phase_reps(sub, {k: v for k, v in p.items()
                                 if k != "repetitions"}, res, norm_o, required))


def _check_estimator(sub: str, p: dict, res: dict,
                     required) -> tuple[list, bool]:
    h = pauli_matrix(p["hamiltonian"])
    o = pauli_matrix(p["observable"])
    dim = h.shape[0]
    norm_o = float(np.linalg.norm(o, 2))
    eps = float(p.get("eps", 0.1))
    c1 = res["info"]["c1"]
    gamma = res["info"]["gamma"]
    reps = int(p["repetitions"]) if "repetitions" in p else None
    fails = []
    if sub == "hamsim":
        psi = expm(-1j * float(p["t"]) * h) @ state_vector(p.get("state", "zero"), dim)
        target = _expectation(psi, o)
        t_num = res["T_used"]
        tol = eps + _halfwidth(c1, norm_o, t_num)
        vacuous = tol >= 2 * norm_o
        mu_target = target
        mu_bias = norm_o * (2 * gamma + gamma ** 2)
    else:
        if sub == "gsp":
            evals, evecs = np.linalg.eigh(h)
            target = _expectation(evecs[:, 0], o)
            # numerator oracle: the schedule's filter e^{-t H'^2} applied
            # to psi0, H' = (H - (e0 - eg) I) / beta
            beta, t = gsp_schedule(p, norm_o)
            for key, ours in (("beta_rescale", beta), ("t", t)):
                if not math.isclose(res["info"][key], ours, rel_tol=1e-9):
                    fails.append(f"info.{key} {res['info'][key]:.6g} != "
                                 f"{ours:.6g} from the flags")
            shift = float(p["e0"]) - float(p.get("eg", 0.0))
            hs = (h - shift * np.eye(dim)) / beta
            vec = expm(-t * hs @ hs) @ state_vector(p["state"], dim)
            mu_bias = norm_o * (2 * gamma + gamma ** 2)
        else:
            kappa = float(p["kappa"])
            vec = np.linalg.solve(h, state_vector(p.get("b_state", "zero"), dim))
            target = _expectation(vec, o) / float(np.vdot(vec, vec).real)
            mu_bias = norm_o * (2 * kappa * gamma + gamma ** 2)
        mu_target = _expectation(vec, o)
        t_num, t_den = _phase_reps(sub, p, res, norm_o, required)
        h_num = _halfwidth(c1, norm_o, t_num)
        h_den = _halfwidth(c1, 1.0, t_den)
        ell = res["ell_tilde"]
        vacuous = ell - h_den <= 0
        tol = math.inf if vacuous else eps + (h_num + norm_o * h_den) / (ell - h_den)
        vacuous = vacuous or tol >= 2 * norm_o
    err = abs(res["ratio"] - target)
    if not err <= tol:
        fails.append(f"|ratio - oracle| = {err:.3g} > {tol:.3g}")
    # the report's empirical_std is c1^2 * std / sqrt(T_num), numerator only
    std = res["empirical_std"] * math.sqrt(t_num) / c1 ** 2
    mu_err = abs(res["mu"] - mu_target)
    mu_tol = mu_bias + _bernstein(c1, norm_o, std, t_num)
    if not mu_err <= mu_tol:
        fails.append(f"|mu - oracle numerator| = {mu_err:.3g} > {mu_tol:.3g}")
    if reps is not None and p.get("trace") == "true" and res.get("trace_rows") != reps:
        fails.append(f"trace_rows {res.get('trace_rows')} != {reps}")
    return fails, vacuous


def _check_decomp(p: dict, res: dict) -> list:
    gamma = float(p.get("gamma", 1e-2))
    fails = []
    for key in ("scalar_sup_error", "matrix_sup_error"):
        if key in res and not res[key] <= gamma:
            fails.append(f"{key} {res[key]:.3g} > gamma {gamma:.3g}")
    if ("hamiltonian" in p) != ("matrix_sup_error" in res):
        fails.append("matrix_sup_error missing or unexpected")
    if not (res["n_terms"] > 0 and res["l1_norm"] > 0):
        fails.append("empty decomposition")
    return fails


def _check_analog(sub: str, p: dict, res: dict) -> list:
    eps = float(p.get("eps", 0.1))
    fails = [] if res.get("converged") is True else ["not converged"]
    if sub == "analog-gsp":
        # state error <= eps gives fidelity >= 1 - eps^2 / 2
        if not 1 - res["fidelity_or_error"] <= eps ** 2 / 2:
            fails.append(f"fidelity {res['fidelity_or_error']:.6g} below "
                         f"1 - eps^2/2")
    else:
        h = pauli_matrix(p["hamiltonian"])
        x = np.linalg.solve(h, state_vector(p.get("b_state", "zero"), h.shape[0]))
        tol = eps * float(np.linalg.norm(x)) / res["bigT"]
        if not res["fidelity_or_error"] <= tol:
            fails.append(f"error vs H^-1 b / T {res['fidelity_or_error']:.3g} "
                         f"> {tol:.3g}")
    return fails


def _check_walks(p: dict, res: dict) -> list:
    trials = int(p["trials"])
    slack = math.sqrt(math.log(2 / GATE_DELTA) / (2 * trials))
    fails = []
    dev = abs(res["empirical_success"] - res["oracle_success"])
    if not dev <= slack:
        fails.append(f"|empirical - oracle| = {dev:.3g} > {slack:.3g}")
    if not res["theorem1_slack"] >= 0:
        fails.append(f"theorem1_slack {res['theorem1_slack']:.3g} < 0")
    if res["trials"] != trials:
        fails.append("trial count differs from the config")
    return fails


def check(op: dict, text: str, csv_lines: int | None, schema: dict,
          validate, required) -> tuple[list, bool, dict]:
    """Validate one serialized report; returns (failures, vacuous, results)."""
    sub, p = op["sub"], op["params"]
    report = json.loads(text)
    try:
        validate(report, schema)
    except ValueError as ex:
        return [f"schema: {ex}"], False, report.get("results", {})
    res = report["results"]
    vacuous = False
    if sub in ("hamsim", "gsp", "qls"):
        fails, vacuous = _check_estimator(sub, p, res, required)
        if p.get("trace") == "true" and csv_lines != res["trace_rows"] + 1:
            fails.append(f"trace CSV has {csv_lines} lines, expected "
                         f"{res['trace_rows'] + 1}")
    elif sub == "decomp-check":
        fails = _check_decomp(p, res)
    elif sub == "walks-search":
        fails = _check_walks(p, res)
    else:
        fails = _check_analog(sub, p, res)
    return fails, vacuous, res
