#!/usr/bin/env python3
"""Compare two end-to-end benchmark reports (``e2e.py --report``).

Usage::

    python3 benchmarks/e2e/e2e_compare.py A.json B.json

``A`` is the baseline and ``B`` the candidate.  For every workload in
both reports and every end-to-end metric of ``BENCHMARK.json``, prints
each side's median and quartiles over its runs, then a verdict that
uses the metric's bound and direction:

* ``worse`` / ``better``: B's median moved past the bound, measured as
  a share of A's median, in the metric's bad / good direction;
* ``same``: B's median is within the bound of A's;
* ``unresolved``: either side's spread (interquartile range over
  median) is wider than the bound, unless every run of one side beats
  every run of the other.

A workload whose rows digest differs is flagged "simulated results
changed".  Exits 1 when any verdict is ``worse``, else 0.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them; a
    lone value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cell(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def _spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> tuple[str, float]:
    """(verdict, change) of candidate runs ``b`` against baseline runs
    ``a``; ``change`` is the median's move as a share of A's median,
    positive when worse."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    if med_a:
        change = sign * (med_b - med_a) / abs(med_a)
    else:
        change = 0.0 if med_b == med_a else sign * float("inf")
    b_wins = all(sign * (y - x) < 0 for x in a for y in b)
    a_wins = all(sign * (x - y) < 0 for x in a for y in b)
    if max(_spread(a), _spread(b)) > bound and not (a_wins or b_wins):
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(report_a: dict, report_b: dict, metrics: list[dict]
            ) -> tuple[list[str], int]:
    """Rendered comparison lines and the number of worse verdicts."""
    lines = [f"{'workload':<16} {'metric':<14} {'A median [q1, q3]':>32} "
             f"{'B median [q1, q3]':>32} {'change':>8}  verdict"]
    worse = 0
    wl_a, wl_b = report_a["workloads"], report_b["workloads"]
    for workload in [w for w in wl_a if w in wl_b]:
        a, b = wl_a[workload], wl_b[workload]
        for metric in metrics:
            name = metric["name"]
            va, vb = a["samples"][name], b["samples"][name]
            result, change = verdict(va, vb, metric["bound"],
                                     metric["better"])
            worse += result == "worse"
            lines.append(f"{workload:<16} {name:<14} {_cell(va):>32} "
                         f"{_cell(vb):>32} {change:>+8.2%}  {result}")
        if a["digest"] != b["digest"]:
            lines.append(f"{workload:<16} simulated results changed "
                         f"(rows digest {a['digest']} -> {b['digest']})")
    return lines, worse


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="e2e_compare",
        description="Verdicts of report B against baseline report A.")
    p.add_argument("a", type=Path, help="baseline report")
    p.add_argument("b", type=Path, help="candidate report")
    args = p.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    lines, worse = compare(json.loads(args.a.read_text()),
                           json.loads(args.b.read_text()), metrics)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
