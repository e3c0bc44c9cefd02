"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 precondition violation
(including normalization underflow), 4 convergence failure.
"""

from __future__ import annotations

import argparse
import sys

from .analog import ConvergenceError
from .estimator import NormUnderflowError
from .harness import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_PRECONDITION,
    _SUBCOMMAND_KEYS,
    ConfigError,
    config_schema,
    parse_config,
    run_sweep,
    run_with_records,
    sweep_csv,
    trace_csv_slices,
)

# help text and choices, one entry per config key; which subcommand takes
# which key, and each key's type, come from the harness schema
_FLAG_DOCS = {
    "seed": dict(help="master seed"),
    "eps": dict(help="target accuracy"),
    "delta": dict(help="failure probability"),
    "mode": dict(choices=["shot", "expectation"], help="sampling mode"),
    "out": dict(help="write the JSON report here"),
    "trace": dict(help="emit a per-sample CSV next to the report "
                       "(hamsim, gsp and qls)"),
    "config": dict(help="flat key=value config file"),
    "hamiltonian": dict(help="Pauli text, e.g. 0.3*X+0.4*Z "
                             "(decomp-check: optional dense check)"),
    "t": dict(help="evolution time"),
    "observable": dict(help="observable as Pauli text"),
    "state": dict(help="zero|plus|basis:<i>|amps:<...>"),
    "repetitions": dict(help="override the repetition count"),
    "gap": dict(help="spectral gap lower bound"),
    "eta": dict(help="ground-state overlap lower bound"),
    "e0": dict(help="ground energy estimate"),
    "eg": dict(help="ground energy precision"),
    "unitary_error": dict(help="perturb every sampled unitary this much"),
    "kappa": dict(help="condition number"),
    "b_state": dict(help="right-hand side state, as --state"),
    "ancilla": dict(choices=["ring", "gaussian"]),
    "graph": dict(help="cycle:N|complete:N|file:<edgelist>"),
    "marked": dict(help="comma-separated node ids"),
    "algo": dict(choices=[1, 2]),
    "trials": dict(help="number of search trials"),
    "c_t": dict(help="multiplier on the hitting time for T"),
    "kind": dict(choices=["gaussian", "inverse"]),
    "gamma": dict(help="target sup error of the decomposition"),
    "base": dict(help="subcommand to sweep"),
    "axis": dict(help="parameter to vary"),
    "values": dict(help="comma-separated axis values"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lculab")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMAND_KEYS:
        sp = subs.add_parser(name)
        for key, kind in config_schema(name).items():
            kw = dict(action="store_true") if kind is bool else dict(type=kind)
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            default=None, **kw, **_FLAG_DOCS[key])
    return parser


def _check_duplicate_flags(argv: list[str]) -> None:
    seen = set()
    for token in argv:
        if not token.startswith("--"):
            continue
        name = token.split("=", 1)[0]
        if name in seen:
            raise ConfigError(f"duplicate flag {name}")
        seen.add(name)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _check_duplicate_flags(argv)
        try:
            ns = parser.parse_args(argv)
        except SystemExit as ex:
            # argparse exits 2 on bad flags, matching our config-error code;
            # --help exits 0
            return int(ex.code) if ex.code else EXIT_OK
        flag_params = {k: v for k, v in vars(ns).items()
                       if k not in ("subcommand",) and v is not None}
        config_file = flag_params.pop("config", None)
        config = parse_config(ns.subcommand, flag_params, config_file)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if config.subcommand == "sweep":
            rows = run_sweep(config)
            text = sweep_csv(rows)
            _emit(text, config.params.get("out"))
            return EXIT_OK
        report, records = run_with_records(config)
        _emit(report.to_json() + "\n", config.params.get("out"))
        out = config.params.get("out")
        if config.params.get("trace") and out:
            with open(out + ".trace.csv", "w") as fh:
                fh.writelines(trace_csv_slices(records))
        return EXIT_OK
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    except NormUnderflowError as ex:
        print(f"precondition violation: {ex}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as ex:
        print(f"convergence failure: {ex}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as ex:
        print(f"precondition violation: {ex}", file=sys.stderr)
        return EXIT_PRECONDITION


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
