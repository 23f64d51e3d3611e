"""tools/bench_report.py: rendering and the drift gate."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_report():
    spec = importlib.util.spec_from_file_location(
        "bench_report", REPO_ROOT / "tools" / "bench_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trajectory(names=("a", "b")):
    result = {n: {"seconds": 0.5, "speedup_vs_seed": 2.0} for n in names}
    return {
        "seed_baseline_seconds": {n: 1.0 for n in names},
        "runs": [{"timestamp": "t0", "results": dict(result)}],
    }


class TestLatestRunGate:
    def test_complete_latest_run_passes(self, bench_report):
        assert bench_report.check_latest_run(trajectory()) == []

    def test_dropped_benchmark_is_loud(self, bench_report):
        data = trajectory()
        data["runs"].append({"timestamp": "t1", "results": {
            "a": {"seconds": 0.4, "speedup_vs_seed": 2.5}
        }})
        problems = bench_report.check_latest_run(data)
        assert len(problems) == 1 and "'b'" in problems[0]

    def test_benchmark_in_previous_run_counts(self, bench_report):
        data = trajectory(names=("a",))
        data["runs"][0]["results"]["extra"] = {
            "seconds": 1.0, "speedup_vs_seed": 1.0,
        }
        data["runs"].append({"timestamp": "t1", "results": {
            "a": {"seconds": 0.4, "speedup_vs_seed": 2.5}
        }})
        assert any("extra" in p for p in bench_report.check_latest_run(data))

    def test_deliberate_removal_heals_after_one_fresh_run(self, bench_report):
        # 'extra' lived only in ancient history (not the seed baseline,
        # not the previous run): the gate must not pin it forever.
        data = trajectory(names=("a",))
        data["runs"][0]["results"]["extra"] = {
            "seconds": 1.0, "speedup_vs_seed": 1.0,
        }
        fresh = {"a": {"seconds": 0.4, "speedup_vs_seed": 2.5}}
        data["runs"].append({"timestamp": "t1", "results": dict(fresh)})
        data["runs"].append({"timestamp": "t2", "results": dict(fresh)})
        assert bench_report.check_latest_run(data) == []

    def test_empty_trajectory_has_no_latest_to_check(self, bench_report):
        assert bench_report.check_latest_run({"runs": []}) == []


class TestMachineMetadata:
    def test_same_machine_runs_are_quiet(self, bench_report):
        data = trajectory()
        machine = {"cpu_count": 4, "python": "3.12.0", "numpy": "2.0.0"}
        data["runs"][0]["machine"] = dict(machine)
        data["runs"].append({"timestamp": "t1", "machine": dict(machine),
                             "results": data["runs"][0]["results"]})
        assert bench_report.cross_machine_notes(data) == []

    def test_different_machine_is_flagged(self, bench_report):
        data = trajectory()
        data["runs"][0]["machine"] = {"cpu_count": 1, "python": "3.11.7",
                                      "numpy": "2.4.0"}
        data["runs"].append({
            "timestamp": "t1",
            "machine": {"cpu_count": 8, "python": "3.11.7", "numpy": "2.4.0"},
            "results": data["runs"][0]["results"],
        })
        notes = bench_report.cross_machine_notes(data)
        assert len(notes) == 1
        assert "different machine" in notes[0] and "8 cpu" in notes[0]

    def test_metadata_free_history_is_flagged(self, bench_report):
        data = trajectory()  # run 0 predates machine metadata
        data["runs"].append({
            "timestamp": "t1",
            "machine": {"cpu_count": 1, "python": "3.11.7", "numpy": "2.4.0"},
            "results": data["runs"][0]["results"],
        })
        notes = bench_report.cross_machine_notes(data)
        assert len(notes) == 1 and "predates machine metadata" in notes[0]

    def test_render_shows_latest_machine(self, bench_report):
        data = trajectory()
        data["runs"][-1]["machine"] = {"cpu_count": 2, "python": "3.11.7",
                                       "numpy": "2.4.0"}
        out = bench_report.render(data)
        assert "latest machine: 2 cpu, py 3.11.7, numpy 2.4.0" in out


class TestSectionGate:
    def test_committed_sections_are_fresh(self, bench_report):
        # The repository's own reports must pass their own gate.
        assert bench_report.check_sections() == []

    def test_missing_and_stale_sections_fail(self, bench_report, tmp_path,
                                             monkeypatch):
        reports = tmp_path / "reports"
        reports.mkdir()
        monkeypatch.setattr(bench_report, "REPORTS_DIR", reports)
        expected = bench_report.expected_sections()
        problems = bench_report.check_sections()
        assert len(problems) == len(expected)
        assert all("missing" in p for p in problems)

        for name, (path, _) in expected.items():
            if name == "parallel_sweep":
                continue
            shutil.copy(REPO_ROOT / "reports" / path.name,
                        reports / path.name)
        (reports / "parallel_sweep.txt").write_text("out of date\n")
        problems = bench_report.check_sections()
        assert len(problems) == 1 and "stale" in problems[0]

        # dropping a strategy name makes the adversary report stale too
        text = (reports / "adversary_search.txt").read_text()
        (reports / "adversary_search.txt").write_text(
            text.replace("branch-and-bound", "x")
        )
        problems = bench_report.check_sections()
        assert any("branch-and-bound" in p for p in problems)


class TestMain:
    def test_fails_on_stale_unless_allowed(self, bench_report, tmp_path,
                                           monkeypatch, capsys):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(trajectory()))
        monkeypatch.setattr(bench_report, "REPORTS_DIR",
                            tmp_path / "no-reports")
        assert bench_report.main([str(path)]) == 1
        assert "DRIFT" in capsys.readouterr().err
        assert bench_report.main([str(path), "--allow-stale"]) == 0

    def test_passes_on_fresh_repo_state(self, bench_report, capsys):
        assert bench_report.main([]) == 0
        out = capsys.readouterr().out
        assert "Performance trajectory" in out
