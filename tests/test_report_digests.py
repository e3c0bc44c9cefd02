"""tools/report_digests.py reads perfbench/workloads.round_ops and the harness
from outside the package; a change to either that breaks it fails here."""

import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from lculab.harness import parse_config, run

ROOT = Path(__file__).resolve().parent.parent
SHA256 = re.compile("[0-9a-f]{64}")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_digest_line_per_op():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), "build"],
        capture_output=True, text=True, check=True, timeout=60)
    ops = [op for seed in (1, 2) for index in (0, 1)
           for op in _workloads().round_ops("build", seed, index)]
    lines = out.stdout.splitlines()
    assert len(lines) == len(ops)
    for op, line in zip(ops, lines):
        workload, key, report, csv = line.split(" ")
        assert workload == "build"
        assert json.loads(key) == op
        assert SHA256.fullmatch(report)
        assert csv == "-"
    # the digest is of the same canonical report an in-process run gives
    first = run(parse_config(ops[0]["sub"], ops[0]["params"]))
    assert lines[0].split(" ")[2] \
        == hashlib.sha256(first.canonical_json().encode()).hexdigest()
