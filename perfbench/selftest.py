"""The benchmark's own tests, at the tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They check that every workload runs, passes its gate, and prints exactly
the metrics ``BENCHMARK.json`` declares, each with its unit.  They also
check that corrupted outputs trip each gate and make the command fail,
and that the command refuses to run without the program's sources.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run, workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".perfbench_work"


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_prints_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in DECLARED["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    assert set(printed) == set(declared)
    for name, entry in printed.items():
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], (int, float))
    metric_lines = {line.split()[0]: line.split()[-1] for line in lines
                    if line.split() and line.split()[0] in declared}
    assert metric_lines == declared
    assert any(line.startswith("manifest {") for line in lines)
    if not trace:
        assert all(entry["value"] > 0 for entry in printed.values())


def _tiny(cls):
    WORK.mkdir(exist_ok=True)
    workload = cls(5, "tiny", WORK)
    workload.prepare()
    return workload


def test_exhaustive_gate_trips_on_a_flipped_execution_count():
    workload = _tiny(workloads.Exhaustive)
    from repro.runtime import SerialBackend

    outcomes = workload._run(workload.plans, SerialBackend,
                             workloads.Stopwatch(False))
    assert workload._gate(outcomes) == []
    bad = copy.deepcopy(outcomes)
    bad[1].report.executions += 1
    assert any("executions" in f for f in workload._gate(bad))


def test_search_gate_trips_on_a_wrong_witness_and_a_changed_report():
    workload = _tiny(workloads.Search)
    first = workload.run_pass()
    second = workload.run_pass()
    assert workload.finish([first, second]) == []
    outcomes = copy.deepcopy(workload._last_outcomes)
    witnesses = outcomes[0].report.witnesses
    witnesses[0] = dataclasses.replace(witnesses[0],
                                       bits=witnesses[0].bits + 1)
    assert workloads._replay_witnesses(workload.plans, outcomes)
    second.digests[0] = "0" * 64
    assert any("differs" in f for f in workload.finish([first, second]))


def test_campaign_gate_trips_when_the_hit_report_changes():
    workload = _tiny(workloads.CampaignWorkload)
    cold, hit, warm, _ = workload._phases(workloads.Stopwatch(False), [])
    assert workload._gate(cold, hit, warm) == []
    hit.cells[0].report.executions += 1
    assert "hit report differs from cold" in workload._gate(cold, hit, warm)


def test_cli_gate_trips_on_changed_stdout_and_a_failed_command():
    workload = _tiny(workloads.Cli)

    def done(stdout, code=0):
        return subprocess.CompletedProcess([], code, stdout, "")

    ok = [("stress", done("[  2 tasks via process-pool] OK in 0.12s\n"))]
    assert workload._gate(ok)[0] == []
    same = [("stress", done("[  2 tasks via serial] OK in 0.31s\n"))]
    assert workload._gate(same)[0] == []
    changed = [("stress", done("[  2 tasks via serial] FAILED\n"))]
    assert workload._gate(changed)[0]
    failed = [("stress", done("[  2 tasks via serial] OK in 0.31s\n", 1))]
    assert workload._gate(failed)[0]


def test_a_gate_breach_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(workloads.Exhaustive, "_gate",
                        lambda self, outcomes: ["planted breach"])
    code = run.main(["--workload", "exhaustive", "--seed", "5",
                     "--seconds", "1", "--trace", "0", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_counts_are_compared_only_under_the_same_source_key(monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", WORK / "selftest-counts")
    shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    assert run.check_counts("w", {"steps": 10}, "parent") == []
    assert run.check_counts("w", {"steps": 7}, "change") == []
    assert run.check_counts("w", {"steps": 10}, "parent") == []
    assert run.check_counts("w", {"steps": 7}, "change") == []
    assert run.check_counts("w", {"steps": 8}, "change")
    shutil.rmtree(run.WORK_DIR, ignore_errors=True)


def test_tracing_installs_wrappers_only_when_the_code_imports_a_module():
    script = (
        "import sys\n"
        "from perfbench.tracing import Recorder, install\n"
        "rec = Recorder()\n"
        "patches = install(rec)\n"
        "assert 'repro.core.execution' not in sys.modules\n"
        "from repro.core.execution import ExecutionState\n"
        "original = ExecutionState.advance.__wrapped__\n"
        "assert rec.aggregate()['bench.install']['calls'] >= 1\n"
        "patches.undo()\n"
        "assert ExecutionState.advance is original\n"
    )
    env = workloads.subprocess_env(WORK)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT), str(ROOT / "src")))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_refuses_to_run_without_the_program_sources():
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = _run("--workload", "search", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
