#!/usr/bin/env python3
"""Compare two result sets of ``run.py --out``, or show the spread of one.

    python3 benchmarks/suite/compare.py A.json B.json
    python3 benchmarks/suite/compare.py A.json

With two sets: one row per (workload, end-to-end metric) with both medians
and quartiles, how much worse B reads than A as a share of A's median, the
metric's bound from ``BENCHMARK.json`` and a verdict:

* ``worse`` / ``better`` -- B's median differs from A's by more than the bound;
* ``unresolved`` -- the spread (the wider interquartile range, as a share of
  A's median) exceeds the bound and the two ranges overlap, so the sets
  cannot tell a regression from noise;
* ``same`` -- anything else.

The exit code is 1 if any row is ``worse``.  With one set: the spread of
each metric against its bound, exit code 1 if a spread exceeds its bound.
``setup_s`` is judged on its medians only.

Medians and quartiles are taken over a set's runs when it has at least
three (``run.py --runs N``); otherwise over the repetitions of its one run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, Iterator, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

Stat = Tuple[float, float, float, int]      # median, q1, q3, samples


def load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        record = json.load(fh)
    if record.get("traced"):
        raise SystemExit(f"{path}: a traced set carries no end-to-end numbers")
    if record.get("noisy"):
        print(f"warning: {path} was recorded under load and is marked noisy",
              file=sys.stderr)
    return record


def stat(runs: List[Dict[str, Any]], metric: str) -> Stat:
    if len(runs) >= 3:
        values = [run["metrics"][metric]["value"] for run in runs]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3, len(values)
    m = runs[-1]["metrics"][metric]
    return m["value"], m["q1"], m["q3"], m["n"]


def rows(record: Dict[str, Any], bench: Dict[str, Any]) -> Iterator[Tuple[str, Dict[str, Any], Stat]]:
    for name, workload in record["workloads"].items():
        for metric in bench["end_to_end"]:
            yield name, metric, stat(workload["runs"], metric["name"])


def spread_report(record: Dict[str, Any], bench: Dict[str, Any]) -> int:
    print(f"{'workload':12s} {'metric':12s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>4s} {'spread':>8s} {'bound':>6s}")
    wide = 0
    for name, metric, (med, q1, q3, n) in rows(record, bench):
        spread = (q3 - q1) / med
        flag = ""
        if spread > metric["bound"] and metric["name"] != "setup_s":
            wide += 1
            flag = "  WIDE"
        print(f"{name:12s} {metric['name']:12s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {n:4d} {spread:8.2%} {metric['bound']:6.2f}{flag}")
    return 1 if wide else 0


def verdict(a: Stat, b: Stat, metric: Dict[str, Any]) -> Tuple[float, str]:
    (a_med, a_q1, a_q3, _), (b_med, b_q1, b_q3, _) = a, b
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / a_med
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / a_med
    overlap = a_q1 <= b_q3 and b_q1 <= a_q3
    bound = metric["bound"]
    if spread > bound and overlap and metric["name"] != "setup_s":
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "same"


def compare(a: Dict[str, Any], b: Dict[str, Any], bench: Dict[str, Any]) -> int:
    print(f"{'workload':12s} {'metric':12s} {'A median [q1..q3]':>38s} "
          f"{'B median [q1..q3]':>38s} {'worse by':>9s} {'bound':>6s}  verdict")
    b_rows = {(name, metric["name"]): s for name, metric, s in rows(b, bench)}
    worse = 0
    for name, metric, a_stat in rows(a, bench):
        b_stat = b_rows.get((name, metric["name"]))
        if b_stat is None:
            continue
        worse_by, word = verdict(a_stat, b_stat, metric)
        worse += word == "worse"
        cells = [f"{med:.6g} [{q1:.6g}..{q3:.6g}]"
                 for med, q1, q3, _n in (a_stat, b_stat)]
        print(f"{name:12s} {metric['name']:12s} {cells[0]:>38s} {cells[1]:>38s} "
              f"{worse_by:+9.2%} {metric['bound']:6.2f}  {word}")
    return 1 if worse else 0


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    records = [load(path) for path in argv]
    if len(records) == 1:
        return spread_report(records[0], bench)
    return compare(records[0], records[1], bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
