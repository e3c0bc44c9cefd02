"""Print one digest line per benchmark op, so that two trees can be compared
for bit-identical reports and traces:

    python3 tools/report_digests.py sample-fast sample-general build walks-search > a.txt
    python3 tools/report_digests.py --write

Run the first form from the root of each tree and `diff` the outputs.  The
second rewrites `tests/report_digests.txt`, the corpus that
`tests/test_report_digests.py` reruns; nothing else writes it.

The first line names the stack: the lculab version and the Python, numpy
and scipy versions.  Each other line holds the workload, the op key, the
sha256 of the canonical report with `version` removed (so a version bump
moves only the first line) and the sha256 of its trace CSV (`-` for an op
without a trace).  The ops are `perfbench/workloads.round_ops` for seeds 1
and 2, rounds 0 and 1.
"""

import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "report_digests.txt"
WORKLOADS = ("sample-fast", "sample-general", "build", "walks-search")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import lculab  # noqa: E402
from lculab import harness  # noqa: E402


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stack() -> str:
    """The header line: the versions every digest was taken with."""
    return (f"# lculab {lculab.__version__} python {platform.python_version()}"
            f" numpy {numpy.__version__} scipy {scipy.__version__}")


def ops(workload: str) -> list[dict]:
    return [op for seed in (1, 2) for index in (0, 1)
            for op in workloads.round_ops(workload, seed, index)]


def report_digest(report: harness.RunReport) -> str:
    """sha256 of `report.canonical_json()` without its `version` field."""
    d = report.as_dict()
    d["timings"] = {}
    del d["version"]
    return sha(harness.dumps_17g(d))


def digest_lines(workload: str) -> list[str]:
    lines = []
    for op in ops(workload):
        cfg = harness.parse_config(op["sub"], op["params"])
        report, trace = harness.run_with_records(cfg)
        csv = sha(harness.trace_csv(trace)) if trace is not None else "-"
        key = json.dumps(op, sort_keys=True, separators=(",", ":"))
        lines.append(f"{workload} {key} {report_digest(report)} {csv}")
    return lines


def main(argv: list[str]) -> None:
    write = argv[:1] == ["--write"]
    names = WORKLOADS if write else argv
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown or (write and len(argv) > 1):
        sys.exit(f"usage: report_digests.py --write | WORKLOAD...  "
                 f"(workloads: {', '.join(WORKLOADS)})")
    lines = [stack()] + [line for name in names for line in digest_lines(name)]
    if write:
        CORPUS.write_text("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
