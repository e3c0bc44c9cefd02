"""lculab benchmark: closed-loop, one-client workloads over `lculab.harness`.

    python3 perfbench/run.py --workload sample-fast --seed 1 --seconds 20 --trace 0

Run from the repository root.  One op is what `lculab <sub> --out` does after
process start: parse_config -> run_with_records -> RunReport.to_json, plus
trace_csv when the op sets trace.  Ops run back to back in whole rounds
(see workloads.py) until `--seconds` have passed; every op is then checked
by the correctness gate (gate.py), outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed op list
twice, untraced and then traced (tracer.py), and prints the per-layer
metrics plus the tracing overhead.  Lines starting with '#' are for people;
the last line is the JSON result.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))

SETUP_REPEATS = 3
MIN_OPS = 100            # p90 then has at least ten samples beyond it
# rounds per pass of a --trace 1 run; each pass is the same fixed op list
TRACE_ROUNDS = {"sample-fast": 5, "sample-general": 2, "build": 3,
                "walks-search": 2}
ESTIMATORS = ("hamsim", "gsp", "qls")
# ops whose eps/delta fixes a repetition count (see gate.hoeffding_t)
COUNTED = ESTIMATORS + ("decomp-check", "walks-search")


class Runner:
    """Runs the ops of one workload and checks their reports."""

    def __init__(self, workload: str):
        sys.path.insert(0, str(ROOT / "src"))
        from lculab import applications, estimator, harness
        import gate
        import workloads
        self.harness, self.estimator, self.gate = harness, estimator, gate
        self.workloads, self.workload = workloads, workload
        with open(ROOT / "docs" / "report_schema.json") as fh:
            self.schema = json.load(fh)
        self.caches = [v for v in vars(applications).values()
                       if hasattr(v, "cache_clear")]

    def run_op(self, op) -> tuple[str, int | None]:
        h = self.harness
        cfg = h.parse_config(op["sub"], op["params"])
        report, records = h.run_with_records(cfg)
        text = report.to_json()
        csv_lines = None
        if cfg.params.get("trace"):
            csv_lines = h.trace_csv(records).count("\n")
        return text, csv_lines

    def setup(self) -> float:
        """Empty the decomposition caches and run the warm-up ops."""
        t0 = time.perf_counter()
        for cache in self.caches:
            cache.cache_clear()
        for op in self.workloads.warmup_ops(self.workload):
            try:
                self.run_op(op)
            except Exception as ex:  # the timed ops count the failure
                print(f"# warm-up op failed: {op['sub']}: {ex!r}")
        return time.perf_counter() - t0

    def timed(self, ops) -> list[tuple]:
        """(op, seconds, report text, CSV lines, error) per op."""
        out = []
        for op in ops:
            t0 = time.perf_counter()
            try:
                text, csv_lines = self.run_op(op)
                err = None
            except Exception as ex:
                text, csv_lines, err = None, None, f"{type(ex).__name__}: {ex}"
            out.append((op, time.perf_counter() - t0, text, csv_lines, err))
        return out

    def check(self, done) -> tuple[list, int]:
        """Gate every op; returns (parsed results, None for a failed op)
        and the failure count."""
        results, failed, vacuous = [], 0, 0
        for op, _, text, csv_lines, err in done:
            res = None
            fails = [err] if err else None
            if not err:
                try:
                    fails, vac, res = self.gate.check(
                        op, text, csv_lines, self.schema,
                        self.harness.validate_report,
                        self.estimator.required_repetitions)
                except (KeyError, TypeError) as ex:
                    fails, vac = [f"report lacks a field the gate reads: {ex!r}"], False
                vacuous += vac
            if fails:
                failed += 1
                if failed <= 10:
                    print(f"# FAILED {op['sub']} {json.dumps(op['params'])}: "
                          f"{'; '.join(fails)}")
                res = None
            results.append(res)
        if vacuous:
            print(f"# {vacuous} ops had a vacuous Hoeffding ratio bound; their "
                  f"numerator check still applies")
        return results, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # BLAS threads are capped before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    if not (ROOT / "src" / "lculab" / "harness.py").is_file():
        print(f"lculab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload)
    import_s = time.perf_counter() - PROCESS_START
    if args.workload not in runner.workloads.BLOCKS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(runner.workloads.BLOCKS)}", file=sys.stderr)
        return 2
    import numpy
    import scipy
    import importlib.util
    numba = "absent" if importlib.util.find_spec("numba") is None else "present"
    print(f"# machine: python {platform.python_version()}, numpy "
          f"{numpy.__version__}, scipy {scipy.__version__}, nproc {NPROC}, BLAS "
          f"threads capped at {NPROC}, numba {numba}")
    if args.trace:
        return traced_run(runner, args)

    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    done, rounds = [], 0
    t_start = time.perf_counter()
    while True:
        done += runner.timed(runner.workloads.round_ops(args.workload, args.seed, rounds))
        rounds += 1
        if time.perf_counter() - t_start >= args.seconds and len(done) >= MIN_OPS:
            break
    wall = time.perf_counter() - t_start

    results, failed = runner.check(done)
    times = [d for _, d, *_ in done]
    ok = [(op, res) for (op, *_), res in zip(done, results) if res is not None]
    draws = sum(_draws(op, res) for op, res in ok)
    hoeff = [runner.gate.hoeffding_t(op["sub"], op["params"], res,
                                     runner.estimator.required_repetitions)
             for op, res in ok if op["sub"] in COUNTED]
    print(f"# {len(done)} ops in {rounds} rounds, {wall:.2f} s; set-ups "
          f"{[round(s, 3) for s in setups]} s after {import_s:.3f} s of imports")
    print(f"# fail_ratio {failed}/{len(done)} = {failed / len(done):.4g}")
    _per_kind(done)
    _emit(done, failed, {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
        "ops_per_s": (len(done) / wall, "1/s"),
        "samples_per_s": (draws / sum(times), "1/s"),
        "hoeffding_T": (statistics.median(hoeff) if hoeff else 0, "count"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })
    return 0


def _draws(op, res) -> float:
    """Monte-Carlo draws of one op: T_used for estimators, trials for
    walks-search; a build op draws nothing and counts as one."""
    if op["sub"] in ESTIMATORS:
        return res["T_used"]
    if op["sub"] == "walks-search":
        return res["trials"]
    return 1


def _per_kind(done) -> None:
    kinds = {}
    for op, d, *_ in done:
        p = op["params"]
        key = " ".join([op["sub"]] + [f"{k}={p[k]}" for k in
                                      ("graph", "algo", "kind", "ancilla", "t",
                                       "kappa", "mode", "trace", "repetitions")
                                      if k in p])
        kinds.setdefault(key, []).append(d)
    for key, ds in sorted(kinds.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"#   {statistics.median(ds):9.4f} s median over {len(ds):4d}  {key}")


def _emit(done, failed, metrics) -> None:
    print(json.dumps({
        "correct": failed == 0, "attempted": len(done), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def traced_run(runner: Runner, args) -> int:
    import tracer as tracing
    ops = [op for r in range(TRACE_ROUNDS[args.workload])
           for op in runner.workloads.round_ops(args.workload, args.seed, r)]
    runner.setup()
    plain = runner.timed(ops)
    tr = tracing.Tracer()
    tr.install()
    try:
        runner.setup()   # empties the caches, and with them their hit counts
        tr.counts.clear()
        tr.calls.clear()
        traced = []
        for i, op in enumerate(ops):
            tr.op = i
            traced += runner.timed([op])
        infos = [c.cache_info() for c in runner.caches]
    finally:
        tr.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))

    results, failed = runner.check(plain + traced)
    ok = [(op, res) for (op, *_), res in zip(traced, results[len(plain):])
          if res is not None]
    t_used = sum(res["T_used"] for op, res in ok if op["sub"] in ESTIMATORS)
    walk_ops = sum(op["sub"] == "walks-search" for op in ops)
    values = tracing.layer_metrics(tr, len(ops), t_used, walk_ops)
    hits, misses = sum(i.hits for i in infos), sum(i.misses for i in infos)
    values["applications.decomp_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    p50_plain = statistics.median(d for _, d, *_ in plain)
    p50_traced = statistics.median(d for _, d, *_ in traced)
    values["trace.overhead_ratio"] = p50_traced / p50_plain
    print(f"# traced pass: {len(ops)} ops; op_s.p50 traced {p50_traced:.4f} s / "
          f"untraced {p50_plain:.4f} s = overhead {values['trace.overhead_ratio']:.3f}")
    print(f"# spans: {len(tr.spans)}; calls {json.dumps(tr.calls)}; counts "
          f"{json.dumps(tr.counts)}")
    missing = tracing.missing_layers(tr, args.workload, values)
    for metric, why in missing.items():
        print(f"# MISSING LAYER {metric}: {why}")
        print(f"missing layer {metric}: {why}", file=sys.stderr)
    bypassed = [k for k, (_, exercised) in tracing.SOURCES.items()
                if args.workload not in exercised and k not in missing
                and values[k] == 0]
    if bypassed:
        print(f"# bypassed by {args.workload} by design, reading 0: "
              f"{', '.join(bypassed)}")
    with open(ROOT / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    _emit(plain + traced, failed,
          {k: (v, units[k]) for k, v in values.items() if k not in missing})
    return 0


if __name__ == "__main__":
    sys.exit(main())
