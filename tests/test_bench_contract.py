"""perfbench/tracer.py wraps lculab functions from outside the package by
name; a renamed or removed target silently drops its per-layer metric, so
every target must stay resolvable."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from lculab import (
    _kernels,
    analog,
    applications,
    core_algebra,
    estimator,
    harness,
    lcu_decomp,
    walks,
)
from lculab.harness import parse_config, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("target", tracer.TARGETS,
                         ids=lambda t: f"{t[1]}.{t[2]}")
def test_tracer_resolves_target(target):
    _, module, path, _ = target
    assert tracer._resolve(module, path) is not None


def test_traced_arguments_keep_their_positions():
    # the tracer's notes read these arguments by position or keyword
    acc = list(inspect.signature(_kernels.pair_accumulate).parameters)
    assert acc[:6] == ["u", "ou", "probs", "key1", "key2", "total"]
    exp = list(inspect.signature(estimator.expectation_observable).parameters)
    assert exp.index("phase") == 7
    trials = list(inspect.signature(walks.run_search_trials).parameters)
    assert trials.index("n_trials") == 3
    evolve = list(inspect.signature(analog.evolve_bilinear).parameters)
    assert evolve.index("ancillas") == 2


@pytest.mark.parametrize("build,args", [
    (lcu_decomp.gaussian_lcu, (4.0, 1e-2)),
    (lcu_decomp.inverse_lcu, (2.0, 1e-1)),
])
def test_build_note_reads_resolve(build, args):
    # _note_build reads these attributes of every decomposition it sees
    result = build(*args)
    assert len(result.terms) == result.n_terms > 0
    assert isinstance(result.l1_norm, float) and result.l1_norm > 0
    assert isinstance(result.info, dict)
    assert result.target_error == args[1]
    note = tracer._note_build(args, {}, result, {}, {})
    assert note["n_terms"] == result.n_terms
    assert note["l1"] == result.l1_norm


def test_walks_search_op_reaches_traced_layers(monkeypatch):
    # walks.build_walk and core_algebra.spectral_norm are required layers on
    # walks-search: an op must still call both, or their metrics read zero
    calls = {"build": 0, "norm": 0}
    init, norm = walks.WalkOperator.__init__, core_algebra.spectral_norm

    def counted_init(self, *args, **kwargs):
        calls["build"] += 1
        return init(self, *args, **kwargs)

    def counted_norm(*args, **kwargs):
        calls["norm"] += 1
        return norm(*args, **kwargs)

    monkeypatch.setattr(walks.WalkOperator, "__init__", counted_init)
    monkeypatch.setattr(core_algebra, "spectral_norm", counted_norm)
    run(parse_config("walks-search", {"graph": "cycle:6", "marked": "0",
                                      "trials": "20"}))
    assert calls["build"] >= 1
    assert calls["norm"] >= 1


def test_analog_qls_op_reaches_traced_layers(monkeypatch):
    # analog.project_s reads project_ancilla spans, and
    # analog.refine_points_ratio pairs the two two-ancilla evolve spans of
    # one op: the second must have twice the points of the first
    sizes, projects = [], []
    evolve, project = analog.evolve_bilinear, analog.project_ancilla

    def spy_evolve(h, psi0, ancillas, bigT):
        sizes.append(tuple(a.grid.n for a in ancillas))
        return evolve(h, psi0, ancillas, bigT)

    def spy_project(state, targets):
        projects.append(len(targets))
        return project(state, targets)

    monkeypatch.setattr(analog, "evolve_bilinear", spy_evolve)
    monkeypatch.setattr(analog, "project_ancilla", spy_project)
    run(parse_config("analog-qls", {"hamiltonian": "0.6*Z+0.4*X",
                                    "kappa": "2", "ancilla": "ring"}))
    assert len(sizes) == 2 and all(len(s) == 2 for s in sizes)
    (n, _), (n2, _) = sizes
    assert n2 == 2 * n
    assert projects == [2, 2]


def test_warm_qls_op_reaches_traced_layers(monkeypatch):
    # estimator.prepare_s and estimator.state_batch_s read the prepare and
    # PreparedLcu.states spans: an op whose prepared form and state batch
    # are cached must still call both, or the metrics read zero
    config = parse_config("qls", {"hamiltonian": "0.75*ZZ+0.25*XX",
                                  "kappa": "2", "observable": "1.0*ZI",
                                  "repetitions": "200"})
    run(config)
    hits = applications._cached_prepared.cache_info().hits
    calls = {"prepare": 0, "states": 0}
    prepare, states = estimator.prepare, estimator.PreparedLcu.states

    def counted_prepare(*args, **kwargs):
        calls["prepare"] += 1
        return prepare(*args, **kwargs)

    def counted_states(self, *args, **kwargs):
        calls["states"] += 1
        return states(self, *args, **kwargs)

    monkeypatch.setattr(estimator, "prepare", counted_prepare)
    monkeypatch.setattr(estimator.PreparedLcu, "states", counted_states)
    run(config)
    assert applications._cached_prepared.cache_info().hits == hits + 1
    assert calls["prepare"] >= 1
    assert calls["states"] >= 1


@pytest.mark.parametrize("workload", sorted(workloads.BLOCKS))
def test_traced_round_reads_every_required_layer(workload):
    # one round of the workload as perfbench/run.py traces it: an op is
    # parse_config -> run_with_records -> to_json, plus trace_csv when it
    # sets trace.  A layer the ops no longer reach reads zero and would be
    # dropped from the benchmark's result line.
    ops = workloads.round_ops(workload, 1, 0)
    caches = [v for v in vars(applications).values()
              if hasattr(v, "cache_clear")]
    tr = tracer.Tracer()
    tr.install()
    try:
        for cache in caches:
            cache.cache_clear()
        t_used = 0
        for i, op in enumerate(ops):
            tr.op = i
            cfg = harness.parse_config(op["sub"], op["params"])
            report, trace = harness.run_with_records(cfg)
            report.to_json()
            if cfg.params.get("trace"):
                harness.trace_csv(trace)
            if op["sub"] in ("hamsim", "gsp", "qls"):
                t_used += report.results["T_used"]
        infos = [c.cache_info() for c in caches]
    finally:
        tr.uninstall()
    walk_ops = sum(op["sub"] == "walks-search" for op in ops)
    values = tracer.layer_metrics(tr, len(ops), t_used, walk_ops)
    hits, misses = sum(i.hits for i in infos), sum(i.misses for i in infos)
    values["applications.decomp_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    assert tracer.missing_layers(tr, workload, values) == {}
