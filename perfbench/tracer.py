"""Span tracer that wraps lculab's public functions from outside the package.

`Tracer.install()` replaces each target object in every `lculab` module
namespace that binds it (a function imported into three modules is wrapped
in all three; a method is wrapped on the class that defines it), and also
every `functools.lru_cache` object built over a target.  `uninstall()` puts
the original objects back.  Nothing under `src/` changes.

A span is (group, start, end, parent span index, op id, attrs).  Spans stay
in memory; `dump()` writes them out when the run ends.  Functions called per
sample are counted, not spanned, to keep the overhead bounded.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time

# (group, module, attribute path, kind): kind "span" records a span,
# "count" only counts calls.  Groups are what the layer metrics aggregate.
TARGETS = [
    ("harness.parse", "harness", "parse_config", "span"),
    ("harness.run", "harness", "run_with_records", "span"),
    ("harness.serialize", "harness", "RunReport.to_json", "span"),
    ("harness.trace_csv", "harness", "trace_csv", "span"),
    ("applications.estimate", "applications", "hamsim_estimate", "span"),
    ("applications.estimate", "applications", "gsp_estimate", "span"),
    ("applications.estimate", "applications", "qls_estimate", "span"),
    ("lcu_decomp.build", "lcu_decomp", "gaussian_lcu", "span"),
    ("lcu_decomp.build", "lcu_decomp", "inverse_lcu", "span"),
    ("lcu_decomp.build", "lcu_decomp", "SegmentLcu.__init__", "span"),
    ("lcu_decomp.realized_sum", "lcu_decomp", "realized_sum", "span"),
    ("lcu_decomp.scalar_function", "lcu_decomp", "scalar_function", "span"),
    ("estimator.single_ancilla", "estimator", "single_ancilla_lcu", "span"),
    ("estimator.prepare", "estimator", "prepare", "span"),
    ("estimator.prepare", "estimator", "PreparedLcu.__init__", "span"),
    ("estimator.prepare", "estimator", "PreparedProductLcu.__init__", "span"),
    ("estimator.prepare", "estimator", "PerturbedLcu.__init__", "span"),
    ("estimator.states", "estimator", "PreparedLcu.states", "span"),
    ("estimator.states", "estimator", "PreparedProductLcu.states", "span"),
    ("estimator.states", "estimator", "PerturbedLcu.states", "span"),
    ("estimator.expectation", "estimator", "expectation_observable", "span"),
    ("estimator.circuit_sample", "estimator", "run_circuit_sample", "count"),
    ("kernels.pair_accumulate", "_kernels", "pair_accumulate", "span"),
    ("kernels.derive_key", "_kernels", "derive_key", "count"),
    ("kernels.pair_draws", "_kernels", "pair_draws", "count"),
    ("core_algebra.spectral_norm", "core_algebra", "spectral_norm", "span"),
    ("analog.evolve", "analog", "evolve_bilinear", "span"),
    ("analog.project", "analog", "project_ancilla", "span"),
    ("walks.build_walk", "walks", "WalkOperator.__init__", "span"),
    ("walks.trials", "walks", "run_search_trials", "span"),
    ("walks.oracle", "walks", "predicted_search_success", "span"),
    ("walks.oracle", "walks", "theorem1_slack", "span"),
]


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _note_build(args, kwargs, result, counts_before, counts):
    if result is None or not hasattr(result, "l1_norm"):
        return None          # SegmentLcu.__init__ builds no term list
    info = getattr(result, "info", {}) or {}
    attrs = {"n_terms": len(result.terms), "l1": float(result.l1_norm)}
    if "J" in info:
        attrs["kind"] = "inverse"
        if "scalar_sup_error" in info and result.target_error > 0:
            attrs["sup_over_gamma"] = info["scalar_sup_error"] / result.target_error
    return attrs


def _note_expectation(args, kwargs, result, counts_before, counts):
    key = "estimator.circuit_sample"
    return {"phase": int(_arg(args, kwargs, 7, "phase", 0)),
            "general": counts.get(key, 0) - counts_before.get(key, 0)}


def _note_accumulate(args, kwargs, result, counts_before, counts):
    u = _arg(args, kwargs, 0, "u")
    probs = _arg(args, kwargs, 2, "probs")
    return {"draws": int(_arg(args, kwargs, 5, "total")), "m": len(probs),
            "dim": int(u.shape[1])}


def _note_evolve(args, kwargs, result, counts_before, counts):
    anc = _arg(args, kwargs, 2, "ancillas")
    anc = list(anc) if isinstance(anc, (list, tuple)) else [anc]
    return {"n_anc": len(anc), "n": int(anc[0].grid.n)}


def _note_trials(args, kwargs, result, counts_before, counts):
    return {"trials": int(_arg(args, kwargs, 3, "n_trials"))}


NOTES = {
    "lcu_decomp.build": _note_build,
    "estimator.expectation": _note_expectation,
    "kernels.pair_accumulate": _note_accumulate,
    "analog.evolve": _note_evolve,
    "walks.trials": _note_trials,
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a target, or None if it is gone."""
    try:
        owner = importlib.import_module(f"lculab.{module}")
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # a method must be defined on this class itself, not inherited
    if isinstance(owner, type):
        fn = owner.__dict__.get(parts[-1])
    else:
        fn = getattr(owner, parts[-1], None)
    return None if fn is None else (owner, parts[-1], fn)


def _scan(originals: dict):
    """Yield (namespace, name, value, original) for every lculab binding
    whose value is one of `originals` (id -> object) or is built over one
    (`__wrapped__`, as an lru_cache is): module attributes, and members of
    the classes each module defines."""
    for modname, mod in list(sys.modules.items()):
        if not (modname == "lculab" or modname.startswith("lculab.")):
            continue
        for name, value in list(vars(mod).items()):
            for v in (value, getattr(value, "__wrapped__", None)):
                if id(v) in originals:
                    yield mod, name, value, originals[id(v)]
                    break
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in list(vars(value).items()):
                    if id(member) in originals:
                        yield value, attr, member, member


def bindings() -> dict:
    """(namespace, name) -> object for every binding of a target or of a
    cache built over one; used to check that nothing is left wrapped."""
    found = (_resolve(module, path) for _, module, path, _ in TARGETS)
    originals = {id(f[2]): f[2] for f in found if f}
    return {(ns, name): value for ns, name, value, _ in _scan(originals)}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.calls: dict = {}
        self.missing: list = []
        self.op = "setup"
        self._patches: list = []

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, group, fn, cache=None):
        note = NOTES.get(group)
        spans, stack, counts, calls = self.spans, self.stack, self.counts, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            before = dict(counts) if note else None
            misses = cache.cache_info().misses if cache is not None else 0
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (group, t0, t1, parent, self.op, None)
            if cache is not None and cache.cache_info().misses == misses:
                spans[idx] = ("cache_hit", t0, t1, parent, self.op, None)
                return result
            calls[group] = calls.get(group, 0) + 1
            if note:
                attrs = note(args, kwargs, result, before, counts)
                spans[idx] = (group, t0, t1, parent, self.op, attrs)
            return result
        return wrapper

    def _count_wrapper(self, group, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[group] = counts.get(group, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals, groups, wrappers = {}, {}, {}
        for group, module, path, kind in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"lculab.{module}.{path}")
                continue
            orig = found[2]
            originals[id(orig)], groups[id(orig)] = orig, group
            wrappers[id(orig)] = (self._count_wrapper(group, orig)
                                  if kind == "count"
                                  else self._span_wrapper(group, orig))
        for ns, name, value, orig in list(_scan(originals)):
            if value is orig:
                self._patch(ns, name, value, wrappers[id(orig)])
            elif hasattr(value, "cache_info"):
                self._patch(ns, name, value, self._span_wrapper(
                    groups[id(orig)], value, cache=value))

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def group_spans(self, group: str, setup: bool = False) -> list[int]:
        """Spans of `group`; those made during set-up only when `setup`."""
        return [i for i, s in enumerate(self.spans)
                if s[0] == group and (setup or s[4] != "setup")]

    def outer_time(self, group: str, setup: bool = False) -> float:
        """Wall time inside `group`, counting nested spans of the same group
        once."""
        total = 0.0
        for i in self.group_spans(group, setup):
            name, t0, t1, parent, _, _ = self.spans[i]
            p = parent
            while p >= 0 and self.spans[p][0] != group:
                p = self.spans[p][3]
            if p < 0:
                total += t1 - t0
        return total

    def self_time(self, group: str) -> float:
        """Duration of the group's spans minus the part their child spans
        cover."""
        child = {}
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        return sum(self.spans[i][2] - self.spans[i][1] - child.get(i, 0.0)
                   for i in self.group_spans(group))

    def attrs(self, group: str, setup: bool = False) -> list[tuple[float, dict]]:
        return [(self.spans[i][2] - self.spans[i][1], self.spans[i][5] or {})
                for i in self.group_spans(group, setup)]

    def dump(self, path: str) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name,
                                     "start": round(t0 - base, 9),
                                     "end": round(t1 - base, 9),
                                     "parent": parent, "op": op,
                                     **({"attrs": attrs} if attrs else {})})
                         + "\n")
            fh.write(json.dumps({"counts": self.counts, "calls": self.calls,
                                 "missing": self.missing}) + "\n")


def median(values) -> float:
    """statistics.median, and 0.0 for an empty list (missing_layers then
    names the metric)."""
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer, n_ops: int, t_used: int, walk_ops: int) -> dict:
    """Per-layer values from one traced pass.  Times are seconds per traced
    op; counts are totals over the pass, which is a fixed op list, so they
    repeat exactly for a seed.  Only the decomposition-build metrics include
    the traced set-up, where the sampling workloads build theirs."""
    per_op = 1.0 / max(n_ops, 1)
    m = {}
    m["harness.self_s"] = (tr.self_time("harness.parse") + tr.self_time("harness.run")) * per_op
    m["harness.serialize_s"] = tr.outer_time("harness.serialize") * per_op
    m["harness.trace_csv_s"] = tr.outer_time("harness.trace_csv") * per_op
    m["applications.self_s"] = tr.self_time("applications.estimate") * per_op

    builds = tr.attrs("lcu_decomp.build", setup=True)
    made = [a for _, a in builds if "n_terms" in a]
    build_time = sum(d for d, a in builds if "n_terms" in a)
    m["lcu_decomp.build_s"] = tr.outer_time("lcu_decomp.build", setup=True) * per_op
    m["lcu_decomp.terms_per_s"] = (sum(a["n_terms"] for a in made) / build_time
                                   if build_time > 0 else 0.0)
    m["lcu_decomp.n_terms"] = median([a["n_terms"] for a in made])
    m["lcu_decomp.realized_sum_s"] = tr.outer_time("lcu_decomp.realized_sum") * per_op
    m["lcu_decomp.scalar_function_s"] = tr.outer_time("lcu_decomp.scalar_function") * per_op
    inverse = [a for a in made if a.get("kind") == "inverse"]
    m["lcu_decomp.l1_norm.inverse"] = median([a["l1"] for a in inverse])
    m["lcu_decomp.sup_error_over_gamma"] = median(
        [a["sup_over_gamma"] for a in inverse if "sup_over_gamma" in a])

    m["estimator.prepare_s"] = tr.outer_time("estimator.prepare") * per_op
    m["estimator.state_batch_s"] = tr.outer_time("estimator.states") * per_op
    phases = tr.attrs("estimator.expectation")
    m["estimator.phase0_s"] = sum(d for d, a in phases if a.get("phase") == 0) * per_op
    m["estimator.phase1_s"] = sum(d for d, a in phases if a.get("phase") == 1) * per_op
    general = [(d, a["general"]) for d, a in phases if a.get("general")]
    n_general = sum(n for _, n in general)
    m["estimator.general_us_per_sample"] = (sum(d for d, _ in general) / n_general * 1e6
                                            if n_general else 0.0)
    m["estimator.general_samples"] = tr.counts.get("estimator.circuit_sample", 0)

    acc = tr.attrs("kernels.pair_accumulate")
    draws = sum(a["draws"] for _, a in acc)
    m["estimator.fast_path_ratio"] = draws / t_used if t_used else 0.0
    m["kernels.pair_accumulate_s"] = sum(d for d, _ in acc) * per_op
    for label, small in (("small_m", True), ("large_m", False)):
        part = [(d, a["draws"]) for d, a in acc if (a["m"] <= 4096) == small]
        n = sum(k for _, k in part)
        m[f"kernels.ns_per_sample.{label}"] = (sum(d for d, _ in part) / n * 1e9
                                               if n else 0.0)
    # computed, not measured: per draw, two gathered state rows of `dim`
    # complex128 entries, two uniforms, and two binary searches over M
    # cumulative probabilities
    m["kernels.bytes_per_sample"] = (
        sum(a["draws"] * (2 * 16 * a["dim"] + 2 * 8 + 2 * 8 * math.ceil(math.log2(max(a["m"], 2))))
            for _, a in acc) / draws if draws else 0.0)
    m["kernels.derive_key_calls"] = tr.counts.get("kernels.derive_key", 0)
    m["kernels.pair_draws_calls"] = tr.counts.get("kernels.pair_draws", 0)

    m["core_algebra.spectral_norm_calls"] = tr.calls.get("core_algebra.spectral_norm", 0)
    m["core_algebra.spectral_norm_s"] = tr.outer_time("core_algebra.spectral_norm") * per_op

    m["analog.evolve_s"] = tr.outer_time("analog.evolve") * per_op
    m["analog.project_s"] = tr.outer_time("analog.project") * per_op
    # two-ancilla runs come in (base, refined) pairs within one op
    ratios, pending = [], {}
    for i in tr.group_spans("analog.evolve"):
        _, _, _, _, op, attrs = tr.spans[i]
        if attrs and attrs["n_anc"] == 2:
            if op in pending:
                ratios.append(attrs["n"] / pending.pop(op))
            else:
                pending[op] = attrs["n"]
    m["analog.refine_points_ratio"] = median(ratios)

    walk_per_op = 1.0 / max(walk_ops, 1)
    m["walks.build_walk_s"] = tr.outer_time("walks.build_walk") * walk_per_op
    m["walks.builds_per_op"] = tr.calls.get("walks.build_walk", 0) * walk_per_op
    trials = tr.attrs("walks.trials")
    n_trials = sum(a["trials"] for _, a in trials)
    m["walks.ms_per_trial"] = (sum(d for d, _ in trials) / n_trials * 1e3
                               if n_trials else 0.0)
    m["walks.oracle_s"] = tr.outer_time("walks.oracle") * walk_per_op
    return m


# metric -> (target groups it reads, workloads that must exercise it)
SAMPLING = ("sample-fast", "sample-general")
ALL = SAMPLING + ("build", "walks-search")
SOURCES = {
    "harness.self_s": (("harness.parse", "harness.run"), ALL),
    "harness.serialize_s": (("harness.serialize",), ALL),
    "harness.trace_csv_s": (("harness.trace_csv",), ("sample-general",)),
    "applications.self_s": (("applications.estimate",), SAMPLING),
    "applications.decomp_cache_hit_ratio": (("applications.estimate",), SAMPLING),
    "lcu_decomp.build_s": (("lcu_decomp.build",), ("sample-fast", "build")),
    "lcu_decomp.terms_per_s": (("lcu_decomp.build",), ("sample-fast", "build")),
    "lcu_decomp.n_terms": (("lcu_decomp.build",), ("sample-fast", "build")),
    "lcu_decomp.realized_sum_s": (("lcu_decomp.realized_sum",), ("build",)),
    "lcu_decomp.scalar_function_s": (("lcu_decomp.scalar_function",), ("build",)),
    "lcu_decomp.l1_norm.inverse": (("lcu_decomp.build",), ("sample-fast", "build")),
    "lcu_decomp.sup_error_over_gamma": (("lcu_decomp.build",), ("sample-fast", "build")),
    "estimator.prepare_s": (("estimator.prepare",), SAMPLING),
    "estimator.state_batch_s": (("estimator.states",), SAMPLING),
    "estimator.phase0_s": (("estimator.expectation",), SAMPLING),
    "estimator.phase1_s": (("estimator.expectation",), SAMPLING),
    "estimator.general_us_per_sample": (("estimator.expectation",), ("sample-general",)),
    "estimator.general_samples": (("estimator.circuit_sample",), ("sample-general",)),
    "estimator.fast_path_ratio": (("kernels.pair_accumulate",), SAMPLING),
    "kernels.pair_accumulate_s": (("kernels.pair_accumulate",), SAMPLING),
    "kernels.ns_per_sample.small_m": (("kernels.pair_accumulate",), SAMPLING),
    "kernels.ns_per_sample.large_m": (("kernels.pair_accumulate",), ("sample-fast",)),
    "kernels.bytes_per_sample": (("kernels.pair_accumulate",), SAMPLING),
    "kernels.derive_key_calls": (("kernels.derive_key",), ("sample-general",)),
    "kernels.pair_draws_calls": (("kernels.pair_draws",), ("sample-general",)),
    "core_algebra.spectral_norm_calls": (("core_algebra.spectral_norm",),
                                         ("sample-general", "walks-search")),
    "core_algebra.spectral_norm_s": (("core_algebra.spectral_norm",),
                                     ("sample-general", "walks-search")),
    "analog.evolve_s": (("analog.evolve",), ("build",)),
    "analog.project_s": (("analog.project",), ("build",)),
    "analog.refine_points_ratio": (("analog.evolve",), ("build",)),
    "walks.build_walk_s": (("walks.build_walk",), ("walks-search",)),
    "walks.builds_per_op": (("walks.build_walk",), ("walks-search",)),
    "walks.ms_per_trial": (("walks.trials",), ("walks-search",)),
    "walks.oracle_s": (("walks.oracle",), ("walks-search",)),
}


def missing_layers(tr: Tracer, workload: str, values: dict) -> dict:
    """metric -> reason, for each metric whose source name is gone or that
    read nothing on a workload that should exercise it."""
    gone = {g for g, module, path, _ in TARGETS
            if f"lculab.{module}.{path}" in tr.missing}
    out = {}
    for metric, (groups, workloads) in SOURCES.items():
        lost = [g for g in groups if g in gone]
        if lost:
            names = [f"lculab.{mod}.{path}" for g, mod, path, _ in TARGETS
                     if g in lost and f"lculab.{mod}.{path}" in tr.missing]
            out[metric] = "name gone: " + ", ".join(names)
        elif workload in workloads and values.get(metric, 0) == 0:
            out[metric] = f"zero calls on {workload}"
    return out
