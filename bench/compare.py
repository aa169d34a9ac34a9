"""Compare two benchmark result files against the bounds in
``BENCHMARK.json``.

    python bench/compare.py BASE.json CANDIDATE.json

Both files are written by ``python bench/run.py [--out FILE]``.  For
every workload and end-to-end metric the table shows each side's median
with its interquartile range, the change of the candidate's median
relative to the base's, and a verdict:

* ``worse``: even the ends of the two IQRs most favourable to the
  candidate put it beyond the metric's bound;
* ``better``: even the ends least favourable to the candidate show an
  improvement;
* ``within bound``: the least favourable ends are no worse than the
  bound;
* ``unresolved``: the IQRs straddle the bound, so one run of each side
  cannot tell.

Exit status: 1 when any row is ``worse`` or missing, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def worsening(base: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is than ``base``, as a share of
    ``base`` (negative: better)."""
    change = (candidate - base) / base
    return change if better == "lower" else -change


def verdict(base: dict[str, float], candidate: dict[str, float],
            better: str, bound: float) -> tuple[float, str]:
    """The median's change and the verdict for one metric."""
    change = worsening(base["value"], candidate["value"], better)
    if better == "lower":
        favourable = worsening(base["q3"], candidate["q1"], better)
        unfavourable = worsening(base["q1"], candidate["q3"], better)
    else:
        favourable = worsening(base["q1"], candidate["q3"], better)
        unfavourable = worsening(base["q3"], candidate["q1"], better)
    if favourable > bound:
        return change, "worse"
    if unfavourable < 0:
        return change, "better"
    if unfavourable <= bound:
        return change, "within bound"
    return change, "unresolved"


def compare(base: dict[str, Any], candidate: dict[str, Any],
            benchmark: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric)."""
    rows = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for metric in benchmark["end_to_end"]:
            row = {"workload": name, "metric": metric["name"],
                   "unit": metric["unit"], "bound": metric["bound"]}
            sides = []
            for result in (base, candidate):
                record = result["workloads"].get(name, {})
                sides.append(record.get("end_to_end", {}).get(metric["name"]))
            if None in sides:
                row.update(verdict="missing", base=sides[0],
                           candidate=sides[1], change=None)
            else:
                change, outcome = verdict(sides[0], sides[1],
                                          metric["better"], metric["bound"])
                row.update(verdict=outcome, base=sides[0],
                           candidate=sides[1], change=change)
            rows.append(row)
    return rows


def describe(side: dict[str, float] | None) -> str:
    if side is None:
        return "-"
    return f"{side['value']:.4g} [{side['q1']:.4g}..{side['q3']:.4g}]"


def render(rows: list[dict[str, Any]]) -> str:
    """The comparison as a Markdown table."""
    lines = ["| workload | metric | unit | base median [IQR] | "
             "candidate median [IQR] | change | bound | verdict |",
             "|---|---|---|---|---|---|---|---|"]
    for row in rows:
        change = "-" if row["change"] is None else f"{row['change']:+.1%}"
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['unit']} | "
            f"{describe(row['base'])} | {describe(row['candidate'])} | "
            f"{change} | {row['bound']:.0%} | {row['verdict']} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two bench/run.py result files against the "
                    "bounds in BENCHMARK.json.  A positive change is a "
                    "worsening.")
    parser.add_argument("base", help="result file of the base commit")
    parser.add_argument("candidate", help="result file of the candidate")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    rows = compare(json.loads(Path(args.base).read_text()),
                   json.loads(Path(args.candidate).read_text()), benchmark)
    print(render(rows))
    failing = [row for row in rows if row["verdict"] in ("worse", "missing")]
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
