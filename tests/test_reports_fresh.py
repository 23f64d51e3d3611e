"""The committed ``reports/`` sections must be present and fresh.

A section whose file is missing or empty, is not valid JSON where JSON
is expected, or no longer names every fixture or strategy the current
code ships fails here.  Regenerating the report (from ``benchmarks/``)
in the same change as the code is the fix, not skipping the check.
"""

import json
import shutil
from pathlib import Path

from repro.adversaries import default_search_portfolio

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORTS_DIR = REPO_ROOT / "reports"


def _adversary_report_markers() -> list[str]:
    """Names the committed adversary report must mention to be fresh:
    every strategy in the shipped default portfolio, the shared
    transposition-table section, and one row per fault budget the
    fault-matrix section sweeps."""
    # Mirrors benchmarks.bench_adversary.FAULT_BUDGETS (benchmarks/ is
    # not a package); widen both together when the sweep grows.
    fault_budgets = ["crash:1", "loss:1", "dup:1", "crash:1,loss:1"]
    return (sorted({s.name for s in default_search_portfolio()})
            + ["transposition", "fault matrix", "occupancy"]
            + fault_budgets)


def _scale_curve_markers() -> list[str]:
    """Rows the committed scale curve must contain to be fresh.

    Mirrors ``benchmarks.bench_scale.CURVE_SIZES``; widen both together
    when the curve grows.  The sizes past the scalar cliff are exactly
    what proves the batched engine kept the curve bending, so each one
    is a marker.
    """
    return ([f'"n": {n}' for n in (5, 6, 7, 8, 9)]
            + ['"batched_seconds"'])


def expected_sections() -> dict[str, tuple[Path, list[str]]]:
    """Committed report sections and the markers that prove freshness."""
    return {
        "adversary_search": (
            REPORTS_DIR / "adversary_search.txt",
            _adversary_report_markers(),
        ),
        "parallel_sweep": (
            REPORTS_DIR / "parallel_sweep.txt",
            ["ExecutionPlan"],
        ),
        "scale_stress": (
            REPORTS_DIR / "scale_stress.json",
            ['"case"', '"seconds"', '"max_message_bits"'],
        ),
        "scale_curve": (
            REPORTS_DIR / "scale_curve.json",
            _scale_curve_markers(),
        ),
    }


def check_sections() -> list[str]:
    """Problems with the committed ``reports/`` sections ([] = fresh)."""
    problems = []
    for name, (path, markers) in expected_sections().items():
        if not path.exists():
            problems.append(f"section {name!r}: {path} is missing")
            continue
        text = path.read_text()
        if not text.strip():
            problems.append(f"section {name!r}: {path} is empty")
            continue
        if path.suffix == ".json":
            try:
                json.loads(text)
            except ValueError as exc:
                problems.append(
                    f"section {name!r}: {path} is not valid JSON ({exc})"
                )
                continue
        for marker in markers:
            if marker not in text:
                problems.append(
                    f"section {name!r}: {path} is stale — it does not "
                    f"mention {marker!r} (regenerate it from benchmarks/)"
                )
    return problems


def test_committed_sections_are_fresh():
    assert check_sections() == []


def test_missing_and_stale_sections_fail(tmp_path, monkeypatch):
    reports = tmp_path / "reports"
    reports.mkdir()
    monkeypatch.setitem(globals(), "REPORTS_DIR", reports)
    expected = expected_sections()
    problems = check_sections()
    assert len(problems) == len(expected)
    assert all("missing" in p for p in problems)

    for name, (path, _) in expected.items():
        if name == "parallel_sweep":
            continue
        shutil.copy(REPO_ROOT / "reports" / path.name, reports / path.name)
    (reports / "parallel_sweep.txt").write_text("out of date\n")
    problems = check_sections()
    assert len(problems) == 1 and "stale" in problems[0]

    # dropping a strategy name makes the adversary report stale too
    text = (reports / "adversary_search.txt").read_text()
    (reports / "adversary_search.txt").write_text(
        text.replace("branch-and-bound", "x")
    )
    problems = check_sections()
    assert any("branch-and-bound" in p for p in problems)
