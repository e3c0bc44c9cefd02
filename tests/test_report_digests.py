"""Bit-identity as a test: every benchmark op of the four workloads is rerun
and compared with the digest corpus `tests/report_digests.txt`.

A change that moves a report value or a trace byte fails here, naming each
moved op.  If that move is meant, regenerate the corpus with
`python3 tools/report_digests.py --write`, bump the version and list the
moved ops in CHANGES.md.  A corpus taken on another stack fails too: the
digests hold only for the versions its header names."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lculab.harness import parse_config, run

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_digests.py"
SHA256 = re.compile("[0-9a-f]{64}")


def _tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digests = _tool()
HEADER, *LINES = digests.CORPUS.read_text().splitlines()


def _corpus(workload: str) -> list[str]:
    return [line for line in LINES if line.split(" ", 1)[0] == workload]


def _moved(want: list[str], got: list[str]) -> list[str]:
    """One message per op whose report or trace digest differs, and one per
    op found on only one side."""
    def by_key(lines):
        return {" ".join(line.split(" ")[:2]): line.split(" ")[2:]
                for line in lines}
    want, got = by_key(want), by_key(got)
    out = []
    for key in want.keys() | got.keys():
        if key not in got or key not in want:
            out.append(f"{key}: only in the {'corpus' if key in want else 'run'}")
            continue
        parts = [name for name, a, b in zip(("report", "trace"), want[key],
                                            got[key]) if a != b]
        if parts:
            out.append(f"{key}: {' and '.join(parts)} moved")
    return sorted(out)


def test_corpus_was_taken_on_this_stack():
    assert HEADER == digests.stack(), (
        f"corpus stack {HEADER!r}, running stack {digests.stack()!r}: "
        "regenerate with tools/report_digests.py --write")


def test_one_digest_line_per_op():
    for workload in digests.WORKLOADS:
        lines = _corpus(workload)
        ops = digests.ops(workload)
        assert len(lines) == len(ops), workload
        for op, line in zip(ops, lines):
            _, key, report, csv = line.split(" ")
            assert json.loads(key) == op
            assert SHA256.fullmatch(report)
            traced = op["params"].get("trace") == "true"
            assert SHA256.fullmatch(csv) if traced else csv == "-"
    # the digest is of the canonical report an in-process run gives, with
    # its version field cut from the text
    _, key, report, _ = _corpus("build")[0].split(" ")
    op = json.loads(key)
    text = run(parse_config(op["sub"], op["params"])).canonical_json()
    head, sep, tail = text.rpartition(', "version": "')
    assert sep and tail.endswith('"}')
    assert report == hashlib.sha256((head + "}").encode()).hexdigest()


@pytest.mark.parametrize("workload", digests.WORKLOADS)
def test_every_op_reproduces_its_digests(workload):
    moved = _moved(_corpus(workload), digests.digest_lines(workload))
    assert not moved, "\n".join(moved)


def test_digests_on_one_blas_thread():
    # BLAS may split a long dot product across its threads; no report or
    # trace may depend on how many it has
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    workloads = ("sample-fast", "walks-search")
    out = subprocess.run([sys.executable, str(TOOL), *workloads], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    header, *lines = out.stdout.splitlines()
    assert header == digests.stack()
    want = [line for w in workloads for line in _corpus(w)]
    moved = _moved(want, lines)
    assert not moved, "\n".join(moved)
