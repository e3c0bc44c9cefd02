"""Configuration parsing, experiment dispatch, and deterministic reporting.

Config sources merge with precedence flags > file > defaults; config files
are flat ``key=value`` text with ``#`` comments.  Reports serialize to JSON
with every float printed at 17 significant digits so values round-trip
exactly; sweeps emit plot-ready CSV rows with per-point derived seeds.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import __version__
from ._kernels import derive_key
from .analog import (
    analog_gsp,
    analog_qls_gaussian,
    analog_qls_ring,
)
from .applications import (
    GspProblem,
    QlsProblem,
    gsp_estimate,
    hamsim_estimate,
    qls_estimate,
)
from .core_algebra import (
    StateVector,
    basis_state,
    ham_to_dense,
    parse_pauli_text,
    plus_state,
)
from .estimator import SampleTrace
from .lcu_decomp import (
    gaussian_lcu,
    inverse_lcu,
    realized_sum,
)
from .walks import (
    SearchConfig,
    _SearchSchedule,
    chain_from_edgelist,
    complete_chain,
    cycle_chain,
    predicted_search_success,
    run_search_trials,
    theorem1_slack,
)


class ConfigError(ValueError):
    """Bad flags, unknown keys, type mismatches, or missing required keys."""


# exit codes for the CLI layer
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_CONVERGENCE = 4


# ---------------------------------------------------------------------------
# config schema

_COMMON_KEYS = {
    "seed": int, "eps": float, "delta": float, "mode": str,
    "out": str, "trace": bool, "config": str,
}

_SUBCOMMAND_KEYS: dict[str, dict[str, type]] = {
    "hamsim": {"hamiltonian": str, "t": float, "observable": str,
               "state": str, "repetitions": int},
    "gsp": {"hamiltonian": str, "observable": str, "gap": float,
            "eta": float, "e0": float, "eg": float, "state": str,
            "repetitions": int, "unitary_error": float},
    "qls": {"hamiltonian": str, "observable": str, "kappa": float,
            "b_state": str, "repetitions": int},
    "analog-gsp": {"hamiltonian": str, "gap": float, "eta": float,
                   "e0": float, "eg": float, "state": str},
    "analog-qls": {"hamiltonian": str, "kappa": float, "b_state": str,
                   "ancilla": str},
    "walks-search": {"graph": str, "marked": str, "algo": int,
                     "trials": int, "c_t": float},
    "decomp-check": {"kind": str, "t": float, "gamma": float,
                     "kappa": float, "hamiltonian": str},
    "sweep": {"base": str, "axis": str, "values": str},
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "hamsim": ("hamiltonian", "t", "observable"),
    "gsp": ("hamiltonian", "observable", "gap", "eta", "e0"),
    "qls": ("hamiltonian", "observable", "kappa"),
    "analog-gsp": ("hamiltonian", "gap", "eta", "e0"),
    "analog-qls": ("hamiltonian", "kappa"),
    "walks-search": ("graph", "marked"),
    "decomp-check": ("kind",),
    "sweep": ("base", "axis", "values"),
}

_DEFAULTS: dict[str, object] = {
    "seed": 0, "eps": 0.1, "delta": 0.1, "mode": "expectation",
    "trace": False, "state": "zero", "b_state": "zero", "eg": 0.0,
    "ancilla": "ring", "algo": 1, "trials": 200, "c_t": 1.0,
    "gamma": 1e-2, "t": 1.0, "kappa": 10.0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    params: dict = field(default_factory=dict)

    @property
    def master_seed(self) -> int:
        return int(self.params.get("seed", 0))


def _coerce(key: str, value, target: type):
    if isinstance(value, target):
        return value
    try:
        if target is bool:
            if isinstance(value, str):
                low = value.strip().lower()
                if low in ("true", "1", "yes"):
                    return True
                if low in ("false", "0", "no"):
                    return False
                raise ValueError(value)
            return bool(value)
        if target is int:
            out = int(str(value), 0)
            return out
        return target(value)
    except (TypeError, ValueError) as ex:
        raise ConfigError(f"key '{key}': cannot read {value!r} as "
                          f"{target.__name__}") from ex


def read_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    try:
        fh = open(path)
    except OSError as ex:
        raise ConfigError(f"cannot read config file {path}: {ex}") from ex
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            out[key] = value.strip()
    return out


def config_schema(subcommand: str) -> dict[str, type]:
    """Keys and types a subcommand accepts.  A sweep accepts every base
    subcommand's keys; each sweep point re-validates against its base."""
    schema = {**_COMMON_KEYS, **_SUBCOMMAND_KEYS[subcommand]}
    if subcommand == "sweep":
        for keys in _SUBCOMMAND_KEYS.values():
            for k, t in keys.items():
                schema.setdefault(k, t)
    return schema


def parse_config(subcommand: str, flag_params: dict,
                 config_file: str | None = None) -> ExperimentConfig:
    """Merge defaults, config-file entries, and flags (in that order of
    increasing precedence), rejecting unknown keys and bad types."""
    if subcommand not in _SUBCOMMAND_KEYS:
        raise ConfigError(f"unknown subcommand '{subcommand}'")
    # defaults fill in only the subcommand's own keys
    merged: dict = {k: v for k, v in _DEFAULTS.items()
                    if k in _COMMON_KEYS or k in _SUBCOMMAND_KEYS[subcommand]}
    schema = config_schema(subcommand)
    if config_file is not None:
        for key, value in read_config_file(config_file).items():
            if key not in schema:
                raise ConfigError(f"unknown key '{key}' for {subcommand}")
            merged[key] = _coerce(key, value, schema[key])
    for key, value in flag_params.items():
        if value is None:
            continue
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' for {subcommand}")
        merged[key] = _coerce(key, value, schema[key])
    missing = [k for k in _REQUIRED[subcommand] if k not in merged]
    if missing:
        raise ConfigError(f"{subcommand}: missing required "
                          f"key(s): {', '.join(missing)}")
    if merged.get("mode") not in (None, "shot", "expectation"):
        raise ConfigError("mode must be 'shot' or 'expectation'")
    if merged.get("trace") and subcommand not in _DISPATCH:
        raise ConfigError(f"{subcommand} draws no per-sample records; trace "
                          "applies to hamsim, gsp and qls")
    if merged.get("trace") and subcommand == "hamsim" and merged["t"] == 0:
        raise ConfigError("hamsim at t = 0 is evaluated exactly and draws no "
                          "per-sample records; trace needs t != 0")
    return ExperimentConfig(subcommand=subcommand, params=merged)


def _parse_state(text: str, n_qubits: int) -> StateVector:
    text = text.strip()
    if text == "zero":
        return basis_state(n_qubits, 0)
    if text == "plus":
        return plus_state(n_qubits)
    if text.startswith("basis:"):
        try:
            idx = int(text.split(":", 1)[1])
        except ValueError as ex:
            raise ConfigError(f"bad basis index in '{text}'") from ex
        if not 0 <= idx < 2 ** n_qubits:
            raise ConfigError(f"basis index {idx} out of range")
        return basis_state(n_qubits, idx)
    if text.startswith("amps:"):
        parts = text.split(":", 1)[1].split(",")
        amps = np.array([complex(p) for p in parts])
        nrm = np.linalg.norm(amps)
        if nrm == 0:
            raise ConfigError("zero state amplitudes")
        return StateVector(amps / nrm)
    raise ConfigError(f"unknown state spec '{text}' "
                      "(use zero|plus|basis:<i>|amps:<a,b,...>)")


def _parse_ham(text: str):
    try:
        return parse_pauli_text(text)
    except ValueError as ex:
        raise ConfigError(f"bad Pauli expression '{text}': {ex}") from ex


# ---------------------------------------------------------------------------
# serialization

def _float17(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in report")
    s = format(float(x), ".17g")
    # keep JSON-valid numbers (17g can print bare integers; that's fine)
    return s


def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits (exact round-trip)."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float17(float(obj))
    if isinstance(obj, str):
        import json as _json
        return _json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_17g(x, indent) for x in np.asarray(obj).tolist()
                 ] if isinstance(obj, np.ndarray) else [
                     dumps_17g(x, indent) for x in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        import json as _json
        items = [f"{_json.dumps(str(k))}: {dumps_17g(v, indent)}"
                 for k, v in obj.items()]
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@dataclass(frozen=True)
class RunReport:
    config: dict
    results: dict
    timings: dict
    version: str = __version__

    def as_dict(self) -> dict:
        return {"config": self.config, "results": self.results,
                "timings": self.timings, "version": self.version}

    def to_json(self) -> str:
        return dumps_17g(self.as_dict())

    def canonical_json(self) -> str:
        """Deterministic form: wall-clock timings excluded so identical
        configs produce identical text.  Kept as public API: it is the
        determinism contract the README states."""
        d = self.as_dict()
        d["timings"] = {}
        return dumps_17g(d)


def validate_report(obj: dict, schema: dict, path: str = "$") -> None:
    """Minimal JSON-Schema subset checker (type / required / properties /
    additionalProperties / enum / items) — raises ValueError on mismatch."""
    typ = schema.get("type")
    if typ is not None:
        ok = {
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
            "string": lambda v: isinstance(v, str),
            "number": lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool),
            "integer": lambda v: isinstance(v, int)
            and not isinstance(v, bool),
            "boolean": lambda v: isinstance(v, bool),
            "null": lambda v: v is None,
        }
        types = typ if isinstance(typ, list) else [typ]
        if not any(ok[t](obj) for t in types):
            raise ValueError(f"{path}: expected {typ}, got "
                             f"{type(obj).__name__}")
    if "enum" in schema and obj not in schema["enum"]:
        raise ValueError(f"{path}: {obj!r} not in enum")
    if isinstance(obj, dict):
        for key in schema.get("required", ()):
            if key not in obj:
                raise ValueError(f"{path}: missing required '{key}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in obj.items():
            if key in props:
                validate_report(value, props[key], f"{path}.{key}")
            elif extra is False:
                raise ValueError(f"{path}: unexpected key '{key}'")
            elif isinstance(extra, dict):
                validate_report(value, extra, f"{path}.{key}")
    if isinstance(obj, list) and "items" in schema:
        for i, value in enumerate(obj):
            validate_report(value, schema["items"], f"{path}[{i}]")


# ---------------------------------------------------------------------------
# dispatch

def _config_echo(config: ExperimentConfig) -> dict:
    echo = {"subcommand": config.subcommand}
    for k, v in sorted(config.params.items()):
        if k == "config":
            continue
        echo[k] = v
    return echo


def _run_hamsim(p: dict, trace: SampleTrace | None) -> dict:
    h = _parse_ham(p["hamiltonian"])
    o = ham_to_dense(_parse_ham(p["observable"]))
    psi0 = _parse_state(p["state"], h.n_qubits)
    rep = hamsim_estimate(
        h, p["t"], o, psi0, p["eps"], p["delta"], p["seed"], mode=p["mode"],
        repetitions_override=p.get("repetitions"), trace=trace)
    return {**rep.as_dict(), "info": rep.info}


def _gsp_problem(p: dict) -> GspProblem:
    h = _parse_ham(p["hamiltonian"])
    return GspProblem(hamiltonian=h, gap_lower_bound=p["gap"],
                      overlap_lower_bound=p["eta"],
                      ground_energy_estimate=p["e0"],
                      energy_precision=p["eg"],
                      initial_state=_parse_state(p["state"], h.n_qubits))


def _qls_problem(p: dict) -> QlsProblem:
    h = _parse_ham(p["hamiltonian"])
    return QlsProblem(hamiltonian=h, kappa=p["kappa"],
                      b_state=_parse_state(p["b_state"], h.n_qubits))


def _run_gsp(p: dict, trace: SampleTrace | None) -> dict:
    o = ham_to_dense(_parse_ham(p["observable"]))
    rep = gsp_estimate(_gsp_problem(p), o, p["eps"], p["delta"], p["seed"],
                       mode=p["mode"], repetitions_override=p.get("repetitions"),
                       unitary_error=p.get("unitary_error"), trace=trace)
    return {**rep.as_dict(), "info": rep.info}


def _run_qls(p: dict, trace: SampleTrace | None) -> dict:
    o = ham_to_dense(_parse_ham(p["observable"]))
    rep = qls_estimate(_qls_problem(p), o, p["eps"], p["delta"], p["seed"],
                       mode=p["mode"], repetitions_override=p.get("repetitions"),
                       trace=trace)
    return {**rep.as_dict(), "info": rep.info}


def _run_analog_gsp(p: dict) -> dict:
    out = analog_gsp(_gsp_problem(p), p["eps"])
    return {
        "bigT": out["bigT"], "success_prob": out["success_prob"],
        "fidelity_or_error": out["fidelity_vs_ground"],
        "grid": out["grid"], "converged": out["converged"], "t": out["t"],
    }


def _run_analog_qls(p: dict) -> dict:
    prob = _qls_problem(p)
    if p["ancilla"] == "ring":
        out = analog_qls_ring(prob, p["eps"])
    elif p["ancilla"] == "gaussian":
        out = analog_qls_gaussian(prob, p["eps"])
    else:
        raise ConfigError("ancilla must be 'ring' or 'gaussian'")
    comp = out["projected_component"].amplitudes
    return {
        "bigT": out["bigT"],
        "success_prob": float(np.linalg.norm(comp) ** 2),
        "fidelity_or_error": out["error_vs_oracle"], "grid": out["grid"],
        "converged": out["converged"],
    }


def _parse_graph(text: str):
    kind, _, arg = text.partition(":")
    if kind == "file":
        try:
            return chain_from_edgelist(arg)
        except OSError as ex:
            raise ConfigError(f"cannot read edge list {arg}: {ex}") from ex
    if kind not in ("cycle", "complete"):
        raise ConfigError(f"unknown graph spec '{text}' "
                          "(use cycle:N|complete:N|file:<edgelist>)")
    try:
        n = int(arg)
    except ValueError as ex:
        raise ConfigError(f"graph spec '{text}': N must be an integer") from ex
    if n < 2:
        raise ConfigError(f"graph spec '{text}': N must be at least 2")
    return cycle_chain(n) if kind == "cycle" else complete_chain(n)


def _run_walks_search(p: dict) -> dict:
    if p["trials"] < 1:
        raise ConfigError("trials must be at least 1")
    chain = _parse_graph(p["graph"])
    try:
        marked = frozenset(int(x) for x in p["marked"].split(",") if x.strip())
    except ValueError as ex:
        raise ConfigError(f"bad marked list '{p['marked']}'") from ex
    if not marked:
        raise ConfigError("marked set is empty")
    if not all(0 <= m < chain.n for m in marked):
        raise ConfigError("marked node out of range")
    algo = p["algo"]
    if algo not in (1, 2):
        raise ConfigError("algo must be 1 or 2")
    scfg = SearchConfig(c_t=p["c_t"], master_seed=p["seed"])
    sch = _SearchSchedule(chain, marked, scfg, algo)
    outcomes = run_search_trials(chain, marked, scfg, p["trials"], algo)
    emp = sum(o.found for o in outcomes) / len(outcomes)
    oracle = predicted_search_success(chain, marked, scfg, algo)
    slack = theorem1_slack(chain, marked, scfg, algo)
    return {"HT": sch.ht, "T": sch.big_t, "empirical_success": emp,
            "oracle_success": oracle, "theorem1_slack": slack,
            "trials": p["trials"], "algo": algo}


def _run_decomp_check(p: dict) -> dict:
    kind = p["kind"]
    if kind == "gaussian":
        dec = gaussian_lcu(p["t"], p["gamma"])
        params = {"t": p["t"], "gamma": p["gamma"]}
    elif kind == "inverse":
        dec = inverse_lcu(p["kappa"], p["gamma"])
        params = {"kappa": p["kappa"], "gamma": p["gamma"]}
    else:
        raise ConfigError("kind must be 'gaussian' or 'inverse'")
    out = {"kind": kind, "params": params, "l1_norm": dec.l1_norm,
           "n_terms": dec.n_terms,
           "scalar_sup_error": dec.info["scalar_sup_error"],
           "tau_max": dec.info["tau_max"]}
    ham_text = p.get("hamiltonian")
    if ham_text:
        h = _parse_ham(ham_text)
        hd = ham_to_dense(h)
        target = _decomp_matrix_oracle(kind, p, hd.entries)
        real = realized_sum(dec, hd)
        out["matrix_sup_error"] = float(np.linalg.norm(real - target, 2))
    return out


def _decomp_matrix_oracle(kind: str, p: dict, h: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(h)
    if kind == "gaussian":
        f = np.exp(-p["t"] * evals ** 2)
    else:
        f = 1.0 / evals
    return (evecs * f) @ evecs.conj().T


_DISPATCH = {
    "hamsim": _run_hamsim,
    "gsp": _run_gsp,
    "qls": _run_qls,
}
_DISPATCH_PLAIN = {
    "analog-gsp": _run_analog_gsp,
    "analog-qls": _run_analog_qls,
    "walks-search": _run_walks_search,
    "decomp-check": _run_decomp_check,
}


def run_with_records(config: ExperimentConfig):
    """Dispatch one experiment; returns (RunReport, SampleTrace or None).
    The trace is made here and filled by the estimator only when the trace
    flag is set; parse_config allows the flag only where samples are
    drawn."""
    t0 = time.perf_counter()
    p = config.params
    trace = SampleTrace() if p.get("trace") else None
    if config.subcommand in _DISPATCH:
        results = _DISPATCH[config.subcommand](p, trace)
        if trace is not None:
            results["trace_rows"] = len(trace)
    elif config.subcommand in _DISPATCH_PLAIN:
        results = _DISPATCH_PLAIN[config.subcommand](p)
    elif config.subcommand == "sweep":
        raise ConfigError("sweep is driven via run_sweep()")
    else:
        raise ConfigError(f"unknown subcommand '{config.subcommand}'")
    elapsed = time.perf_counter() - t0
    report = RunReport(config=_config_echo(config), results=results,
                       timings={"total_s": elapsed})
    return report, trace


def run(config: ExperimentConfig) -> RunReport:
    """Dispatch one experiment and wrap its payload in a RunReport."""
    return run_with_records(config)[0]


# rows of one piece of a streamed trace CSV
TRACE_SLICE_ROWS = 4096


def trace_csv(records: SampleTrace | None) -> str:
    """Per-sample CSV: index, term_ids, value, cost."""
    return "".join(trace_csv_slices(records))


def trace_csv_slices(records: SampleTrace | None):
    """The text of trace_csv(records) in pieces, header first, then at most
    TRACE_SLICE_ROWS rows a piece.  Each piece is one %-format over the
    chunk's columns; the two ids join with '|', floats print at 17
    significant digits, and lines end in CRLF, as csv.writer writes them."""
    chunks = records.chunks if records is not None else ()
    for _, _, values, costs in chunks:
        if not (np.isfinite(values).all() and np.isfinite(costs).all()):
            raise ValueError("non-finite float in report")
    yield "index,term_ids,value,cost\r\n"
    row = "%d,%d|%d,%.17g,%.17g\r\n"
    for start, ids, values, costs in chunks:
        for lo in range(0, len(values), TRACE_SLICE_ROWS):
            hi = min(lo + TRACE_SLICE_ROWS, len(values))
            cols = zip(range(start + lo, start + hi), *ids[lo:hi].T.tolist(),
                       values[lo:hi].tolist(), costs[lo:hi].tolist())
            yield (row * (hi - lo)) % tuple(chain.from_iterable(cols))


def _parse_axis_value(base: str, axis: str, text: str):
    schema = config_schema(base)
    if axis not in schema:
        raise ConfigError(f"unknown sweep axis '{axis}' for {base}")
    return _coerce(axis, text.strip(), schema[axis])


def run_sweep(config: ExperimentConfig) -> list[dict]:
    """Run the base subcommand once per axis value with a derived seed per
    point; returns flat row dicts ready for CSV."""
    p = config.params
    base = p["base"]
    if base not in _SUBCOMMAND_KEYS or base == "sweep":
        raise ConfigError(f"cannot sweep subcommand '{base}'")
    axis = p["axis"]
    values = [v for v in p["values"].split(",") if v.strip()]
    if not values:
        raise ConfigError("empty sweep values")
    rows = []
    for i, text in enumerate(values):
        value = _parse_axis_value(base, axis, text)
        point_params = {k: v for k, v in p.items()
                        if k not in ("base", "axis", "values")}
        point_params[axis] = value
        point_params["seed"] = int(
            derive_key(config.master_seed, i) % (1 << 32))
        point = parse_config(base, point_params)
        report = run(point)
        row = {"point": i, "axis": axis, "value": value,
               "seed": point_params["seed"]}
        for k, v in report.results.items():
            if isinstance(v, (int, float, bool, str, np.integer, np.floating)):
                row[k] = v
            elif isinstance(v, dict):
                for kk, vv in v.items():
                    if isinstance(vv, (int, float, bool, str)):
                        row[f"{k}.{kk}"] = vv
        rows.append(row)
    return rows


def sweep_csv(rows: list[dict]) -> str:
    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, restval="")
    writer.writeheader()
    for row in rows:
        out = {}
        for k, v in row.items():
            if isinstance(v, (float, np.floating)):
                out[k] = _float17(float(v))
            else:
                out[k] = v
        writer.writerow(out)
    return buf.getvalue()


__all__ = [
    "ConfigError", "ExperimentConfig", "RunReport", "parse_config",
    "read_config_file", "run", "run_sweep", "sweep_csv", "trace_csv",
    "trace_csv_slices",
    "dumps_17g", "validate_report",
    "EXIT_OK", "EXIT_CONFIG", "EXIT_PRECONDITION", "EXIT_CONVERGENCE",
]
