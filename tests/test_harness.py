import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lculab
from lculab import __version__, cli
from lculab.applications import hamsim_estimate
from lculab.core_algebra import DenseOperator, parse_pauli_text, plus_state
from lculab.estimator import SampleTrace
from lculab.harness import (
    ConfigError,
    dumps_17g,
    parse_config,
    read_config_file,
    run,
    run_sweep,
    sweep_csv,
    trace_csv,
    trace_csv_slices,
    validate_report,
)
from trace_oracle import reference_trace_csv

SCHEMA = json.load(open("docs/report_schema.json"))


def _without_version(text: str) -> str:
    """Canonical report text with its `version` field removed, so a version
    bump leaves a golden comparison otherwise byte for byte."""
    head, sep, tail = text.rpartition(', "version": "')
    assert sep and tail.endswith('"}') and '"' not in tail[:-2]
    return head + "}"


HAMSIM_FLAGS = {"hamiltonian": "0.5*Z+0.3*X", "t": "1.0",
                "observable": "1.0*Z", "repetitions": "500"}


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config("hamsim", dict(HAMSIM_FLAGS))
        assert cfg.params["seed"] == 0
        assert cfg.params["eps"] == 0.1
        assert cfg.params["mode"] == "expectation"
        assert cfg.params["state"] == "zero"

    def test_flags_override_file(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("seed=5\neps=0.2  # inline comment\n\n")
        cfg = parse_config("hamsim", {**HAMSIM_FLAGS, "seed": "9"}, str(f))
        assert cfg.params["seed"] == 9      # flag wins
        assert cfg.params["eps"] == 0.2     # file beats default

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("hamsim", {**HAMSIM_FLAGS, "kappa": "3"})

    def test_unknown_file_key_rejected(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("bogus=1\n")
        with pytest.raises(ConfigError):
            parse_config("hamsim", dict(HAMSIM_FLAGS), str(f))

    def test_duplicate_file_key_rejected(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("seed=1\nseed=2\n")
        with pytest.raises(ConfigError):
            read_config_file(str(f))

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config("hamsim", {"t": "1.0"})

    def test_bad_type(self):
        with pytest.raises(ConfigError):
            parse_config("hamsim", {**HAMSIM_FLAGS, "t": "soon"})

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            parse_config("hamsim", {**HAMSIM_FLAGS, "mode": "fast"})

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError):
            parse_config("frobnicate", {})

    def test_malformed_file_line(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("seed 5\n")
        with pytest.raises(ConfigError):
            read_config_file(str(f))


class TestSerialization:
    @given(st.floats(allow_nan=False, allow_infinity=False,
                     min_value=-1e300, max_value=1e300))
    @settings(max_examples=200, deadline=None)
    def test_float_round_trip_exact(self, x):
        assert json.loads(dumps_17g(x)) == x

    def test_nested_structure(self):
        obj = {"a": [1, 2.5, "x", None, True],
               "b": {"c": np.float64(0.1), "d": np.int64(3)}}
        back = json.loads(dumps_17g(obj))
        assert back == {"a": [1, 2.5, "x", None, True],
                        "b": {"c": 0.1, "d": 3}}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dumps_17g(float("nan"))

    def test_validate_report_catches_missing(self):
        with pytest.raises(ValueError):
            validate_report({"config": {}}, SCHEMA)


@pytest.fixture(scope="module")
def hamsim_report():
    return run(parse_config("hamsim", dict(HAMSIM_FLAGS)))


class TestRunReports:
    def test_schema_valid(self, hamsim_report):
        validate_report(json.loads(hamsim_report.to_json()), SCHEMA)

    def test_config_echoed(self, hamsim_report):
        assert hamsim_report.config["subcommand"] == "hamsim"
        assert hamsim_report.config["hamiltonian"] == "0.5*Z+0.3*X"

    def test_timings_present_but_canonical_excludes(self, hamsim_report):
        assert "total_s" in hamsim_report.timings
        canon = json.loads(hamsim_report.canonical_json())
        assert canon["timings"] == {}

    def test_identical_seed_identical_canonical_json(self):
        a = run(parse_config("hamsim", dict(HAMSIM_FLAGS)))
        b = run(parse_config("hamsim", dict(HAMSIM_FLAGS)))
        assert a.canonical_json() == b.canonical_json()

    def test_different_seed_changes_results(self):
        a = run(parse_config("hamsim", dict(HAMSIM_FLAGS)))
        b = run(parse_config("hamsim", {**HAMSIM_FLAGS, "seed": "1"}))
        assert a.results["mu"] != b.results["mu"]

    def test_eps_halving_quadruples_repetitions(self):
        flags = {k: v for k, v in HAMSIM_FLAGS.items() if k != "repetitions"}
        t_coarse = run(parse_config(
            "hamsim", {**flags, "eps": "0.2"})).results["T_used"]
        t_fine = run(parse_config(
            "hamsim", {**flags, "eps": "0.1"})).results["T_used"]
        # c1 also shifts slightly with eps through the truncation budget
        assert 3.8 <= t_fine / t_coarse <= 4.6

    def test_walks_search_report(self):
        rep = run(parse_config("walks-search",
                               {"graph": "cycle:8", "marked": "0",
                                "trials": "200"}))
        r = rep.results
        assert 0 <= r["empirical_success"] <= 1
        assert r["theorem1_slack"] >= 0
        validate_report(json.loads(rep.to_json()), SCHEMA)

    # canonical reports as lculab 0.2.0 wrote them with the dense walk.  The
    # matrix-free walk of 0.3.0 keeps the draws and every other field exact;
    # the two oracle values come from walk states that agree to rounding.
    WALKS_GOLDEN = {
        ("cycle:6", "1"): (
            '{"config": {"subcommand": "walks-search", "algo": 1, '
            '"c_t": 1, "delta": 0.10000000000000001, '
            '"eps": 0.10000000000000001, "graph": "cycle:6", '
            '"marked": "0", "mode": "expectation", "seed": 3, '
            '"trace": false, "trials": 60}, "results": {"HT": 14, "T": 14, '
            '"empirical_success": 0.26666666666666666, '
            '"oracle_success": 0.33762193211524721, '
            '"theorem1_slack": 2.494951198902438, "trials": 60, '
            '"algo": 1}, "timings": {}, "version": "0.2.0"}'
        ),
        ("complete:4", "2"): (
            '{"config": {"subcommand": "walks-search", "algo": 2, '
            '"c_t": 1, "delta": 0.10000000000000001, '
            '"eps": 0.10000000000000001, "graph": "complete:4", '
            '"marked": "0", "mode": "expectation", "seed": 3, '
            '"trace": false, "trials": 60}, "results": {"HT": 6, "T": 6, '
            '"empirical_success": 0.51666666666666672, '
            '"oracle_success": 0.43920605786462596, '
            '"theorem1_slack": 0.51617354977779972, "trials": 60, '
            '"algo": 2}, "timings": {}, "version": "0.2.0"}'
        ),
    }

    @pytest.mark.parametrize("graph,algo", sorted(WALKS_GOLDEN))
    def test_walks_search_golden(self, graph, algo):
        rep = run(parse_config("walks-search",
                               {"graph": graph, "marked": "0", "algo": algo,
                                "seed": "3", "trials": "60"}))
        got = json.loads(_without_version(rep.canonical_json()))
        want = json.loads(_without_version(self.WALKS_GOLDEN[(graph, algo)]))
        for key in ("oracle_success", "theorem1_slack"):
            assert abs(got["results"].pop(key) - want["results"].pop(key)) \
                <= 1e-14
        assert got == want

    def test_walks_search_at_node_cap(self):
        # 60 trials: Hoeffding at delta = 1e-6 bounds |empirical - oracle|
        start = time.monotonic()
        for graph, algo in (("cycle:64", "1"), ("cycle:64", "2"),
                            ("complete:64", "1"), ("complete:64", "2")):
            r = run(parse_config("walks-search",
                                 {"graph": graph, "marked": "0", "algo": algo,
                                  "trials": "60"})).results
            assert r["theorem1_slack"] >= 0, graph
            assert abs(r["empirical_success"] - r["oracle_success"]) \
                <= math.sqrt(math.log(2 / 1e-6) / 120), graph
        assert time.monotonic() - start < 60.0

    @pytest.mark.parametrize("graph", ["cycle:65", "complete:65"])
    def test_walks_search_beyond_node_cap_rejected(self, graph, capsys):
        code = cli.main(["walks-search", "--graph", graph, "--marked", "0"])
        assert code == 3
        assert "capped at 64 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--graph", "cycle:8", "--trials", "0"], "trials must be at least 1"),
        (["--graph", "cycle:8", "--trials", "-3"], "trials must be at least 1"),
        (["--graph", "cycle:abc"], "N must be an integer"),
        (["--graph", "complete:1"], "N must be at least 2"),
        (["--graph", "cycle:0"], "N must be at least 2"),
        (["--graph", "file:no/such/edgelist.txt"], "cannot read edge list"),
    ])
    def test_walks_search_bad_input_is_config_error(self, flags, message,
                                                    capsys):
        code = cli.main(["walks-search", "--marked", "0", *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_decomp_check_report(self):
        rep = run(parse_config("decomp-check",
                               {"kind": "gaussian", "t": "9.0",
                                "gamma": "1e-3",
                                "hamiltonian": "0.5*Z"}))
        r = rep.results
        assert r["scalar_sup_error"] <= 1e-3
        assert r["matrix_sup_error"] <= 1e-3
        validate_report(json.loads(rep.to_json()), SCHEMA)

    def test_analog_qls_report(self):
        rep = run(parse_config("analog-qls",
                               {"hamiltonian": "0.6*ZZ+0.4*XX",
                                "kappa": "5.0", "eps": "0.05"}))
        assert rep.results["converged"] is True
        validate_report(json.loads(rep.to_json()), SCHEMA)


class TestSweep:
    def test_tau_max_monotone_in_t(self):
        cfg = parse_config("sweep", {
            "base": "decomp-check", "axis": "t", "values": "2,4,8,16",
            "kind": "gaussian", "gamma": "1e-3"})
        rows = run_sweep(cfg)
        taus = [row["tau_max"] for row in rows]
        assert all(a < b for a, b in zip(taus, taus[1:]))

    def test_derived_seeds_distinct(self):
        cfg = parse_config("sweep", {
            "base": "hamsim", "axis": "t", "values": "0.5,1.0,1.5",
            "hamiltonian": "0.5*Z+0.3*X", "observable": "1.0*Z",
            "repetitions": "200"})
        rows = run_sweep(cfg)
        seeds = [row["seed"] for row in rows]
        assert len(set(seeds)) == 3

    def test_csv_shape(self):
        cfg = parse_config("sweep", {
            "base": "decomp-check", "axis": "t", "values": "2,4",
            "kind": "gaussian", "gamma": "1e-2"})
        text = sweep_csv(run_sweep(cfg))
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("point,axis,value,seed")

    def test_bad_axis(self):
        cfg = parse_config("sweep", {
            "base": "decomp-check", "axis": "zeta", "values": "1,2"})
        with pytest.raises(ConfigError):
            run_sweep(cfg)


GSP_FLAGS = {"hamiltonian": "0.5*II-0.5*ZZ+0.1*XI", "gap": "1.0",
             "eta": "0.7", "e0": "-0.0099", "eg": "0.01", "state": "basis:0",
             "observable": "1.0*ZI", "repetitions": "2000"}


class TestTrace:
    @pytest.mark.parametrize("sub,flags", [
        ("gsp", GSP_FLAGS),
        ("gsp", {**GSP_FLAGS, "mode": "shot", "repetitions": "200"}),
        ("hamsim", HAMSIM_FLAGS),
        ("hamsim", {**HAMSIM_FLAGS, "mode": "shot"}),
    ])
    def test_trace_changes_no_reported_value(self, sub, flags):
        plain = run(parse_config(sub, dict(flags))).results
        traced = run(parse_config(sub, {**flags, "trace": True})).results
        assert traced.pop("trace_rows") == int(flags["repetitions"])
        assert traced == plain

    def test_trace_rows_match_repetitions(self):
        cfg = parse_config("hamsim", {**HAMSIM_FLAGS, "trace": True,
                                      "repetitions": "50"})
        from lculab.harness import run_with_records
        report, records = run_with_records(cfg)
        assert len(records) == 50
        text = trace_csv(records)
        lines = text.strip().splitlines()
        assert lines[0] == "index,term_ids,value,cost"
        assert len(lines) == 51


# one traced op per estimator path; gsp holds more rows than one CSV slice
TRACED_OPS = {
    "gsp": ("gsp", {**GSP_FLAGS, "repetitions": "5000"}),
    "gsp-shot": ("gsp", {**GSP_FLAGS, "mode": "shot", "repetitions": "300"}),
    "gsp-perturbed": ("gsp", {**GSP_FLAGS, "unitary_error": "0.05",
                              "repetitions": "300"}),
    "qls": ("qls", {"hamiltonian": "0.75*ZZ+0.25*XX", "kappa": "2",
                    "observable": "1.0*ZI", "repetitions": "2000"}),
    "qls-shot": ("qls", {"hamiltonian": "0.75*ZZ+0.25*XX", "kappa": "2",
                         "observable": "1.0*ZI", "mode": "shot",
                         "repetitions": "300"}),
    "hamsim": ("hamsim", HAMSIM_FLAGS),
    # three qubits: the Taylor product is sampled unflattened, ids -1|-1
    "hamsim-unflattened": ("hamsim", {
        "hamiltonian": "0.3*XII+0.4*ZZI+0.2*IXZ+0.1*YYX", "t": "3",
        "observable": "1.0*ZII", "repetitions": "12"}),
}


class TestTraceCsv:
    """trace_csv against the csv.writer reference, byte for byte."""

    @staticmethod
    def _traced(sub, flags):
        from lculab.harness import run_with_records
        return run_with_records(parse_config(sub, {**flags, "trace": True}))

    @pytest.mark.parametrize("name", sorted(TRACED_OPS))
    def test_matches_reference(self, name):
        report, records = self._traced(*TRACED_OPS[name])
        text = trace_csv(records)
        assert len(records) == report.results["trace_rows"]
        assert text == reference_trace_csv(records)
        assert all(ids.shape[1] == 2 for _, ids, _, _ in records.chunks)
        term_ids = [line.split(",")[1] for line in text.splitlines()[1:]]
        assert all(t.count("|") == 1 for t in term_ids)
        unflat = report.results["info"].get("flattened") is False
        assert (term_ids[0] == "-1|-1") == unflat

    def test_chunk_and_slice_boundaries(self, monkeypatch):
        from lculab import _kernels, harness
        sub, flags = TRACED_OPS["gsp"]
        _, whole = self._traced(sub, flags)
        monkeypatch.setattr(_kernels, "CHUNK", 1700)
        monkeypatch.setattr(harness, "TRACE_SLICE_ROWS", 300)
        _, chunked = self._traced(sub, flags)
        assert len(chunked.chunks) == 3
        pieces = list(trace_csv_slices(chunked))
        assert max(p.count("\n") for p in pieces) == 300
        assert "".join(pieces) == trace_csv(whole) == reference_trace_csv(whole)

    def test_dense_observable_rows_carry_two_ids(self):
        # a two-term observable, 0.5*Z + 0.5*X, given as one dense matrix:
        # every row names the two drawn term ids and nothing more
        o = DenseOperator(np.array([[0.5, 0.5], [0.5, -0.5]]), hermitian=True)
        records = SampleTrace()
        hamsim_estimate(parse_pauli_text("0.5*Z+0.3*X"), 1.0, o,
                        plus_state(1), 0.2, 0.1, seed=5,
                        repetitions_override=300, trace=records)
        text = trace_csv(records)
        assert len(records) == 300
        assert text == reference_trace_csv(records)
        assert all(line.split(",")[1].count("|") == 1
                   for line in text.splitlines()[1:])

    @pytest.mark.parametrize("column", ["value", "cost"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, column, bad):
        values, costs = np.array([0.5, -0.25]), np.array([1.0, 2.0])
        (values if column == "value" else costs)[1] = bad
        trace = SampleTrace()
        trace.add(np.array([[0, 1], [1, 0]]), values, costs)
        for write in (trace_csv, reference_trace_csv):
            with pytest.raises(ValueError, match="non-finite"):
                write(trace)

    def test_cli_trace_memory_stays_flat(self, tmp_path):
        # the README gsp example at its own Hoeffding T (89,784 rows): the
        # trace's columns add 32 bytes a row, and the CSV streams to the
        # file a slice at a time
        argv = ["gsp", "--hamiltonian", "0.5*II-0.5*ZZ+0.1*XI",
                "--observable", "1.0*ZI", "--gap", "1.0", "--eta", "0.7",
                "--e0", "-0.0099", "--eg", "0.01", "--state", "basis:0"]
        plain = argv + ["--out", str(tmp_path / "plain.json")]
        traced = argv + ["--trace", "--out", str(tmp_path / "r.json")]
        assert cli.main(plain) == 0   # warms the decomposition caches
        peaks = []
        for args in (plain, traced):
            tracemalloc.start()
            try:
                assert cli.main(args) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 5 * 2 ** 20
        from lculab.harness import run_with_records
        flags = {k[2:]: v for k, v in zip(argv[1::2], argv[2::2])}
        _, records = run_with_records(parse_config("gsp", {**flags,
                                                           "trace": True}))
        assert len(records) == 89_784
        written = (tmp_path / "r.json.trace.csv").read_bytes().decode()
        assert written == trace_csv(records)


# canonical reports as lculab 0.2.0 wrote them, one per estimator path and
# decomposition kind, with avg_cost as 0.7.1 sums it in fixed order: a
# refactor of the decompositions or the estimator must keep every draw and
# every reported value bit-identical (the version field is compared apart)
README_GSP = {"hamiltonian": "0.5*II-0.5*ZZ+0.1*XI", "observable": "1.0*ZI",
              "gap": "1.0", "eta": "0.7", "e0": "-0.0099", "eg": "0.01",
              "state": "basis:0", "seed": "3"}
QLS_TRACE = {"hamiltonian": "0.75*ZZ+0.25*XX", "kappa": "2",
             "observable": "1.0*ZI", "trace": True, "repetitions": "2000",
             "seed": "3"}
REPORT_GOLDEN = {
    "qls-trace": (
        "qls", QLS_TRACE,
        '{"config": {"subcommand": "qls", "b_state": "zero", '
        '"delta": 0.10000000000000001, "eps": 0.10000000000000001, '
        '"hamiltonian": "0.75*ZZ+0.25*XX", "kappa": 2, '
        '"mode": "expectation", "observable": "1.0*ZI", '
        '"repetitions": 2000, "seed": 3, "trace": true}, '
        '"results": {"mu": 2.2001092947009608, '
        '"ell_tilde": 2.8772650897796406, "ratio": 0.76465296941737804, '
        '"T_used": 4000, "tau_max": 36.767104344048278, '
        '"avg_cost": 5.4560851486214954, '
        '"empirical_std": 0.51002471442540287, "seed": 3, '
        '"info": {"gamma": 0.0055555555555555558, "J": 1748, "K": 10, '
        '"tau_max_formula": 36.788150196563471, '
        '"c1": 6.7378574330285401, "kappa": 2}, "trace_rows": 2000}, '
        '"timings": {}, "version": "0.2.0"}'
    ),
    "gsp-expectation": (
        "gsp", {**README_GSP, "repetitions": "1000"},
        '{"config": {"subcommand": "gsp", "delta": 0.10000000000000001, '
        '"e0": -0.0099000000000000008, "eg": 0.01, '
        '"eps": 0.10000000000000001, "eta": 0.69999999999999996, '
        '"gap": 1, "hamiltonian": "0.5*II-0.5*ZZ+0.1*XI", '
        '"mode": "expectation", "observable": "1.0*ZI", '
        '"repetitions": 1000, "seed": 3, "state": "basis:0", '
        '"trace": false}, "results": {"mu": 0.97047670842848799, '
        '"ell_tilde": 0.98915922399498646, "ratio": 0.98111273178948477, '
        '"T_used": 2000, "tau_max": 12.051482666191799, '
        '"avg_cost": 2.5716817296763472, '
        '"empirical_std": 0.00063673397450460245, "seed": 3, '
        '"info": {"t": 5.216926697975147, '
        '"gamma": 0.0016333333333333332, "M": 27, '
        '"delta_t": 0.13818291537667299, '
        '"tau_max_formula": 12.051482666191799, '
        '"beta_rescale": 1.1199000000000001, '
        '"c1": 0.99985707541914881}}, "timings": {}, '
        '"version": "0.2.0"}'
    ),
    "gsp-shot": (
        "gsp", {**README_GSP, "mode": "shot", "repetitions": "200"},
        '{"config": {"subcommand": "gsp", "delta": 0.10000000000000001, '
        '"e0": -0.0099000000000000008, "eg": 0.01, '
        '"eps": 0.10000000000000001, "eta": 0.69999999999999996, '
        '"gap": 1, "hamiltonian": "0.5*II-0.5*ZZ+0.1*XI", '
        '"mode": "shot", "observable": "1.0*ZI", "repetitions": 200, '
        '"seed": 3, "state": "basis:0", "trace": false}, '
        '"results": {"mu": 0.97971988784041875, '
        '"ell_tilde": 0.98921154587326243, "ratio": 0.99040482486032388, '
        '"T_used": 400, "tau_max": 12.051482666191799, '
        '"avg_cost": 2.5716817296763472, '
        '"empirical_std": 0.014067225312670862, "seed": 3, '
        '"info": {"t": 5.216926697975147, '
        '"gamma": 0.0016333333333333332, "M": 27, '
        '"delta_t": 0.13818291537667299, '
        '"tau_max_formula": 12.051482666191799, '
        '"beta_rescale": 1.1199000000000001, '
        '"c1": 0.99985707541914881}}, "timings": {}, '
        '"version": "0.2.0"}'
    ),
    "hamsim-flattened": (
        "hamsim", {"hamiltonian": "0.3*X+0.4*Z", "t": "1.0",
                   "observable": "1.0*Z", "eps": "0.05", "delta": "0.05",
                   "seed": "1"},
        '{"config": {"subcommand": "hamsim", '
        '"delta": 0.050000000000000003, "eps": 0.050000000000000003, '
        '"hamiltonian": "0.3*X+0.4*Z", "mode": "expectation", '
        '"observable": "1.0*Z", "seed": 1, "state": "zero", "t": 1, '
        '"trace": false}, "results": {"mu": 0.82030893186120446, '
        '"ell_tilde": 1, "ratio": 0.82030893186120446, "T_used": 56995, '
        '"tau_max": 5, "avg_cost": 1.3666970090738273, '
        '"empirical_std": 0.0055284671934804535, "seed": 1, '
        '"info": {"r": 1, "K": 4, "c1": 1.4823383494032227, '
        '"gamma": 0.0083333333333333332, "tau_max_bound": 5, '
        '"flattened": true}}, "timings": {}, "version": "0.2.0"}'
    ),
    "decomp-check-gaussian": (
        "decomp-check", {"kind": "gaussian", "t": "25", "gamma": "1e-3",
                         "hamiltonian": "0.5*Z"},
        '{"config": {"subcommand": "decomp-check", '
        '"delta": 0.10000000000000001, "eps": 0.10000000000000001, '
        '"gamma": 0.001, "hamiltonian": "0.5*Z", "kappa": 10, '
        '"kind": "gaussian", "mode": "expectation", "seed": 0, "t": 25, '
        '"trace": false}, "results": {"kind": "gaussian", '
        '"params": {"t": 25, "gamma": 0.001}, '
        '"l1_norm": 0.99985322628054418, "n_terms": 85, '
        '"scalar_sup_error": 0.00014675873625935587, '
        '"tau_max": 26.520431941187621, '
        '"matrix_sup_error": 4.313612313026384e-07}, "timings": {}, '
        '"version": "0.2.0"}'
    ),
    "decomp-check-inverse": (
        "decomp-check", {"kind": "inverse", "kappa": "2", "gamma": "1e-1",
                         "hamiltonian": "0.75*Z+0.25*X"},
        '{"config": {"subcommand": "decomp-check", '
        '"delta": 0.10000000000000001, "eps": 0.10000000000000001, '
        '"gamma": 0.10000000000000001, "hamiltonian": "0.75*Z+0.25*X", '
        '"kappa": 2, "kind": "inverse", "mode": "expectation", '
        '"seed": 0, "t": 1, "trace": false}, '
        '"results": {"kind": "inverse", "params": {"kappa": 2, '
        '"gamma": 0.10000000000000001}, "l1_norm": 4.7992403009160123, '
        '"n_terms": 1120, "scalar_sup_error": 0.022781281854814761, '
        '"tau_max": 18.723326709712445, '
        '"matrix_sup_error": 0.0023366605748183738}, "timings": {}, '
        '"version": "0.2.0"}'
    ),
}

QLS_TRACE_HEAD = (
    'index,term_ids,value,cost\r\n'
    '0,25758|13857,-0.35287775808865895,23.767081245411401\r\n'
    '1,17248|22392,0.12593826881383302,12.130829389759258\r\n'
    '2,19781|15856,0.31496642981127509,2.5886398593691693\r\n'
    '3,5433|13579,0.4045234488564402,11.263740266133164\r\n'
    '4,20185|13856,0.0062013337015200398,14.256460493794105\r\n'
    '5,20033|12565,0.54483328006998277,5.4656078981965299\r\n'
    '6,18739|22047,0.7036344284403111,9.411705244795872\r\n'
    '7,27500|13207,-0.42700656044791419,22.293871569347644\r\n'
    '8,23847|16524,-0.17165288785415439,11.120628469029828\r\n'
    '9,10545|26351,0.028463990244899338,2.1340494450409246\r\n'
    '10,16493|17310,0.092585981855086305,4.9226249033044596\r\n'
    '11,16873|26534,-0.057644556209373227,6.36637038584694\r\n'
    '12,23066|21387,0.19636873619936357,5.4740262392026082\r\n'
    '13,20304|19997,-0.20503174036309108,7.7659195781075061\r\n'
    '14,21707|7855,-0.00014886933253394075,15.512897888951336\r\n'
    '15,14250|19468,0.02657080020508483,2.1298402745378855\r\n'
    '16,25035|22270,0.10499863909153512,14.094407429427092\r\n'
    '17,19300|12276,-0.91435348273639461,0.55561050640118737\r\n'
    '18,21313|13224,-0.51688548220785069,8.3657263747906043\r\n'
)


class TestReportGolden:
    @pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
    def test_canonical_report(self, name):
        sub, flags, expected = REPORT_GOLDEN[name]
        got = run(parse_config(sub, dict(flags))).canonical_json()
        assert json.loads(got)["version"] == __version__
        assert _without_version(got) == _without_version(expected)

    def test_canonical_reports_on_one_blas_thread(self):
        # BLAS may split a long dot product across its threads; no report
        # value may depend on how many it has
        script = ("import json, sys\n"
                  "from lculab.harness import parse_config, run\n"
                  "for sub, flags in json.load(sys.stdin):\n"
                  "    print(run(parse_config(sub, flags)).canonical_json())\n")
        src = str(Path(lculab.__file__).resolve().parent.parent)
        env = {**os.environ, "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH"))))}
        cases = [(sub, flags) for sub, flags, _ in REPORT_GOLDEN.values()]
        out = subprocess.run([sys.executable, "-c", script],
                             input=json.dumps(cases), env=env, text=True,
                             capture_output=True, check=True, timeout=60)
        for (_, _, expected), got in zip(REPORT_GOLDEN.values(),
                                         out.stdout.splitlines(), strict=True):
            assert _without_version(got) == _without_version(expected)

    def test_qls_trace_head(self):
        from lculab.harness import run_with_records
        _, records = run_with_records(parse_config("qls", dict(QLS_TRACE)))
        head = "".join(trace_csv(records).splitlines(keepends=True)[:20])
        assert head == QLS_TRACE_HEAD


class TestCli:
    def test_success_writes_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main(["hamsim", "--hamiltonian", "0.5*Z+0.3*X",
                         "--t", "1.0", "--observable", "1.0*Z",
                         "--repetitions", "300", "--out", str(out)])
        assert code == 0
        validate_report(json.loads(out.read_text()), SCHEMA)

    def test_stdout_when_no_out(self, capsys):
        code = cli.main(["decomp-check", "--kind", "gaussian",
                         "--t", "4.0", "--gamma", "1e-2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["kind"] == "gaussian"

    def test_config_error_exit_2(self, capsys):
        assert cli.main(["hamsim", "--t", "1.0"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_duplicate_flag_exit_2(self, capsys):
        code = cli.main(["hamsim", "--hamiltonian", "Z", "--t", "1.0",
                         "--t", "2.0", "--observable", "Z"])
        assert code == 2

    def test_bad_flag_exit_2(self):
        assert cli.main(["hamsim", "--frobnicate", "1"]) == 2

    def test_precondition_exit_3(self, capsys):
        # gaussian inverse ancilla requires a positive spectrum
        code = cli.main(["analog-qls", "--hamiltonian", "0.6*ZZ+0.4*XX",
                         "--kappa", "5.0", "--ancilla", "gaussian"])
        assert code == 3
        assert "precondition" in capsys.readouterr().err

    def test_convergence_exit_4(self, capsys):
        code = cli.main(["analog-qls", "--hamiltonian", "0.55*II+0.45*ZI",
                         "--kappa", "10.0", "--ancilla", "gaussian",
                         "--eps", "0.01"])
        assert code == 4
        assert "convergence" in capsys.readouterr().err

    def test_trace_file_written(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["hamsim", "--hamiltonian", "0.5*Z", "--t", "1.0",
                         "--observable", "1.0*Z", "--repetitions", "20",
                         "--trace", "--out", str(out)])
        assert code == 0
        trace = (tmp_path / "r.json.trace.csv").read_text()
        assert trace.splitlines()[0] == "index,term_ids,value,cost"
        assert len(trace.strip().splitlines()) == 21

    @pytest.mark.parametrize("argv", [
        ["walks-search", "--graph", "cycle:6", "--marked", "0",
         "--trials", "20"],
        ["decomp-check", "--kind", "gaussian", "--t", "2.0"],
        ["analog-gsp", "--hamiltonian", "0.5*II-0.5*ZZ+0.1*XI",
         "--gap", "1.0", "--eta", "0.7", "--e0", "-0.0099"],
        ["analog-qls", "--hamiltonian", "0.6*ZZ+0.4*XX", "--kappa", "5"],
        ["sweep", "--base", "hamsim", "--axis", "t", "--values", "1,2",
         "--hamiltonian", "0.5*Z", "--observable", "1.0*Z"],
        # t = 0 is evaluated exactly, without samples
        ["hamsim", "--hamiltonian", "0.5*Z", "--t", "0",
         "--observable", "1.0*Z"],
    ], ids=lambda argv: argv[0])
    def test_trace_without_samples_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert cli.main(argv + ["--trace", "--out", str(out)]) == 2
        assert "no per-sample records" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_csv_output(self, tmp_path):
        out = tmp_path / "s.csv"
        code = cli.main(["sweep", "--base", "decomp-check", "--axis", "t",
                         "--values", "2,4", "--kind", "gaussian",
                         "--gamma", "1e-2", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("point,axis,value,seed")

    def test_config_file_flag(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("hamiltonian=0.5*Z\nt=1.0\nobservable=1.0*Z\n"
                     "repetitions=100\n")
        out = tmp_path / "r.json"
        code = cli.main(["hamsim", "--config", str(f), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["t"] == 1.0
