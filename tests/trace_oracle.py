"""Reference for the tests of `lculab.harness.trace_csv`: the per-sample
CSV written one record at a time through `csv.writer`, with every float at
17 significant digits and a non-finite value or cost rejected."""

import csv
import io
import math


def _float17(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in report")
    return format(float(x), ".17g")


def reference_trace_csv(records) -> str:
    """index, term_ids ('|'-joined), value, cost; one row per record."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "term_ids", "value", "cost"])
    for rec in records or ():
        writer.writerow([rec.index, "|".join(str(t) for t in rec.term_ids),
                         _float17(rec.value), _float17(rec.cost)])
    return buf.getvalue()
