"""Benchmark report diffing (the CI regression gate).

``repro bench --diff old.json new.json`` compares two ``BENCH_*.json``
reports structurally:

* **config changes are errors** -- a diff between runs that measured
  different things (different suite, seed, sizes, corpus) is
  meaningless, so mismatched config keys and removed/renamed report
  keys fail the diff (exit 1);
* **performance changes are warnings** -- wall-clock timings on shared
  CI runners are noisy, so a timing regression never fails the build;
  it is surfaced in the rendered table (and the job summary) for a
  human to judge;
* **added keys are notes** -- report enrichment (a new measurement in
  a newer version of the harness) must not fail the first diff against
  an older artifact.

Thresholds: a ``*_seconds`` value warns when it grows past 30% (and
the old value is large enough to be meaningful), a ``speedup`` warns
when it loses more than 30%, a ``cost``/``overhead_vs_native`` warns
past 10% (operation counts are deterministic, so the band is tight),
and a True boolean (``traces_match``, ``traces_identical``) turning
False warns.  The ``trace_summary`` subtree is observational (its row
set depends on sampling and scheduling) and is skipped entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Keys that pin down *what* was measured; a mismatch means the two
#: reports are not comparable.
CONFIG_KEYS = frozenset({
    "suite", "schema", "operator", "seed", "rows", "statements",
    "programs", "employees_per_division", "chunk_size", "pathology_rate",
    "strategy_order",
})

#: Observational subtrees excluded from the diff.
SKIPPED_KEYS = frozenset({"trace_summary"})

TIME_REGRESSION_RATIO = 1.30
TIME_FLOOR_SECONDS = 0.005
SPEEDUP_REGRESSION_RATIO = 0.70
COST_REGRESSION_RATIO = 1.10


@dataclass
class BenchDiff:
    """The outcome of comparing two benchmark reports."""

    #: ``(path, old, new, status)`` for every compared measurement.
    rows: list[tuple[str, Any, Any, str]] = field(default_factory=list)
    #: Structural/config mismatches: the diff is invalid (exit 1).
    errors: list[str] = field(default_factory=list)
    #: Performance regressions: surfaced, never fatal.
    warnings: list[str] = field(default_factory=list)
    #: Benign additions/improvements.
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the reports were structurally comparable."""
        return not self.errors


def diff_reports(old: dict[str, Any], new: dict[str, Any]) -> BenchDiff:
    """Compare two report dicts (see the module docstring for rules).

    Reports carry a ``bench_format`` shape-version key (absent in
    format-1 reports).  When the two formats differ, the reports are
    *structurally* incomparable by design -- the harness changed what
    it measures -- so the diff notes the migration and skips the
    structural comparison instead of failing the first run after a
    format bump.
    """
    old_format = old.get("bench_format", 1)
    new_format = new.get("bench_format", 1)
    if old_format != new_format:
        diff = BenchDiff()
        diff.notes.append(
            f"bench_format changed {old_format} -> {new_format}: "
            "report shapes are not comparable; skipping the "
            "structural diff (the new report becomes the baseline)"
        )
        return diff
    diff = BenchDiff()
    _walk(old, new, "", diff)
    return diff


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _walk(old: Any, new: Any, path: str, diff: BenchDiff) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key, old_value in old.items():
            if key in SKIPPED_KEYS:
                continue
            if key not in new:
                diff.errors.append(
                    f"{_join(path, key)}: present in the old report, "
                    "missing from the new one"
                )
                continue
            _walk(old_value, new[key], _join(path, key), diff)
        for key in new:
            if key not in old and key not in SKIPPED_KEYS:
                diff.notes.append(
                    f"{_join(path, key)}: new measurement, no baseline"
                )
        return
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            diff.errors.append(
                f"{path}: list length changed {len(old)} -> {len(new)}"
            )
            return
        for index, (old_item, new_item) in enumerate(zip(old, new)):
            _walk(old_item, new_item, f"{path}[{index}]", diff)
        return
    _leaf(old, new, path, diff)


def _leaf(old: Any, new: Any, path: str, diff: BenchDiff) -> None:
    key = path.rsplit(".", 1)[-1]
    if key in CONFIG_KEYS:
        if old != new:
            diff.errors.append(
                f"{path}: configuration changed {old!r} -> {new!r}"
            )
        return
    if isinstance(old, bool) or isinstance(new, bool):
        if isinstance(old, bool) is not isinstance(new, bool):
            diff.errors.append(
                f"{path}: type changed {type(old).__name__} -> "
                f"{type(new).__name__}"
            )
        elif old is True and new is False:
            diff.warnings.append(f"{path}: regressed True -> False")
            diff.rows.append((path, old, new, "regressed"))
        elif old is False and new is True:
            diff.notes.append(f"{path}: now True")
        return
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        _compare_number(key, old, new, path, diff)
        return
    if type(old) is not type(new):
        diff.errors.append(
            f"{path}: type changed {type(old).__name__} -> "
            f"{type(new).__name__}"
        )


def _compare_number(key: str, old: float, new: float, path: str,
                    diff: BenchDiff) -> None:
    if key.endswith("_seconds") or key == "seconds":
        status = "ok"
        if old >= TIME_FLOOR_SECONDS and new > old * TIME_REGRESSION_RATIO:
            status = "slower"
            diff.warnings.append(
                f"{path}: {old:.4f}s -> {new:.4f}s "
                f"(+{(new / old - 1) * 100:.0f}%)"
            )
        diff.rows.append((path, old, new, status))
    elif key == "speedup":
        status = "ok"
        if new < old * SPEEDUP_REGRESSION_RATIO:
            status = "slower"
            diff.warnings.append(
                f"{path}: speedup fell {old:.2f}x -> {new:.2f}x"
            )
        diff.rows.append((path, old, new, status))
    elif key in ("cost", "overhead_vs_native"):
        status = "ok"
        if new > old * COST_REGRESSION_RATIO:
            status = "costlier"
            diff.warnings.append(
                f"{path}: cost grew {old} -> {new} "
                f"(+{(new / old - 1) * 100:.0f}%)" if old else
                f"{path}: cost grew {old} -> {new}"
            )
        diff.rows.append((path, old, new, status))
    # Plain counters (metrics snapshots) change legitimately with any
    # code change; they carry no verdict.


def _show(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def render_markdown(diff: BenchDiff, old_label: str = "baseline",
                    new_label: str = "current") -> str:
    """A GitHub-flavoured-markdown rendering for ``$GITHUB_STEP_SUMMARY``."""
    lines = ["### Benchmark diff", ""]
    if diff.errors:
        lines.append("**Errors (reports not comparable):**")
        lines.extend(f"- {error}" for error in diff.errors)
        lines.append("")
    if diff.warnings:
        lines.append("**Regressions (warn-only):**")
        lines.extend(f"- {warning}" for warning in diff.warnings)
        lines.append("")
    flagged = [row for row in diff.rows if row[3] != "ok"]
    shown = flagged if flagged else diff.rows
    if shown:
        lines.append(f"| measurement | {old_label} | {new_label} | status |")
        lines.append("|---|---|---|---|")
        lines.extend(
            f"| {path} | {_show(old)} | {_show(new)} | {status} |"
            for path, old, new, status in shown
        )
        lines.append("")
    if diff.notes:
        lines.append("**Notes:**")
        lines.extend(f"- {note}" for note in diff.notes)
        lines.append("")
    if not (diff.errors or diff.warnings or diff.rows or diff.notes):
        lines.append("No measurements compared.")
    return "\n".join(lines).rstrip() + "\n"


def diff_report_files(old_path: str | Path,
                      new_path: str | Path) -> BenchDiff:
    """Load two ``BENCH_*.json`` files and diff them."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    return diff_reports(old, new)
