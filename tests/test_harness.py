import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lculab import cli
from lculab.harness import (
    ConfigError,
    dumps_17g,
    parse_config,
    read_config_file,
    run,
    run_sweep,
    sweep_csv,
    trace_csv,
    validate_report,
)

SCHEMA = json.load(open("docs/report_schema.json"))

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

    # canonical reports as lculab 0.2.0 wrote them: a refactor of the
    # search must keep the walk draws and every reported value bit-identical
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
        assert rep.canonical_json() == self.WALKS_GOLDEN[(graph, algo)]

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
