"""Print one digest line per benchmark op, so that two trees can be compared
for bit-identical reports and traces:

    python3 tools/report_digests.py sample-fast sample-general build > a.txt

Run it from the root of each tree and `diff` the outputs.  Each line holds
the op key, the sha256 of the report's `canonical_json()` and the sha256 of
its trace CSV (`-` for an op without a trace).  The ops are
`perfbench/workloads.round_ops` for seeds 1 and 2, rounds 0 and 1.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from lculab import harness  # noqa: E402
import workloads  # noqa: E402


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


for workload in sys.argv[1:]:
    for seed in (1, 2):
        for index in (0, 1):
            for op in workloads.round_ops(workload, seed, index):
                cfg = harness.parse_config(op["sub"], op["params"])
                report, trace = harness.run_with_records(cfg)
                csv = sha(harness.trace_csv(trace)) if trace is not None else "-"
                key = json.dumps(op, sort_keys=True, separators=(",", ":"))
                print(workload, key, sha(report.canonical_json()), csv)
