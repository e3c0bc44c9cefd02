"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_op_list_is_a_pure_function_of_the_seed():
    for name in workloads.BLOCKS:
        first = [workloads.round_ops(name, 7, r) for r in range(3)]
        again = [workloads.round_ops(name, 7, r) for r in range(3)]
        assert first == again
        assert workloads.warmup_ops(name) == workloads.warmup_ops(name)


def test_different_seeds_give_different_op_seeds():
    for name in workloads.BLOCKS:
        one = [op["params"]["seed"] for op in workloads.round_ops(name, 1, 0)]
        two = [op["params"]["seed"] for op in workloads.round_ops(name, 2, 0)]
        assert not set(one) & set(two)
        # every round keeps the same op mix
        mix = sorted(json.dumps({**op, "params": {**op["params"], "seed": 0}},
                                sort_keys=True)
                     for op in workloads.round_ops(name, 1, 0))
        mix2 = sorted(json.dumps({**op, "params": {**op["params"], "seed": 0}},
                                 sort_keys=True)
                      for op in workloads.round_ops(name, 2, 5))
        assert mix == mix2


def test_untraced_run_leaves_every_wrapped_name_untouched(monkeypatch):
    before = tracer.bindings()
    assert len(before) > len(tracer.TARGETS)   # re-exports are found too
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "build",
                                      "--seed", "3", "--seconds", "0"])
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main() == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    after = tracer.bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_tracer_wraps_every_binding_and_restores_them():
    before = tracer.bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        during = tracer.bindings()
        from lculab import applications, core_algebra, estimator
        assert estimator.spectral_norm is core_algebra.spectral_norm
        assert estimator.expectation_observable is applications.expectation_observable
        assert not tr.missing
    finally:
        tr.uninstall()
    # no original object stays bound while tracing
    assert all(during.get(k) is not v for k, v in before.items())
    after = tracer.bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_missing_layer_is_named_not_reported_as_zero(monkeypatch):
    targets = [t for t in tracer.TARGETS if t[0] != "walks.build_walk"]
    targets.append(("walks.build_walk", "walks", "no_such_builder", "span"))
    monkeypatch.setattr(tracer, "TARGETS", targets)
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    values = tracer.layer_metrics(tr, 1, 0, 1)
    missing = tracer.missing_layers(tr, "walks-search", values)
    assert missing["walks.build_walk_s"] == "name gone: lculab.walks.no_such_builder"
    assert missing["walks.ms_per_trial"] == "zero calls on walks-search"
    assert "walks.build_walk_s" in tracer.missing_layers(tr, "build", values)
