"""Run sessions: JSONL stream, manifest, schema validation."""

import json

import pytest

from repro.analysis.checkers import default_checker
from repro.core.models import MODELS_BY_NAME
from repro.graphs import generators as gen
from repro.protocols.build import DegenerateBuildProtocol
from repro.runtime.plan import ExecutionPlan
from repro.telemetry import (
    RunTelemetry,
    TraceSchemaError,
    tracing_enabled,
    validate_trace,
    validate_trace_lines,
)


def _plan(sizes=(4, 6)):
    proto = DegenerateBuildProtocol(2)
    graphs = [gen.random_k_degenerate(n, 2, seed=0) for n in sizes]
    return ExecutionPlan.build(
        proto, [MODELS_BY_NAME["SIMASYNC"]], graphs, mode="stress",
        checker=default_checker(proto), exhaustive_threshold=5,
        bit_budget=lambda n: 4096)


def _traced_run(tmp_path, sizes=(4, 6)):
    path = tmp_path / "run.jsonl"
    plan = _plan(sizes)
    with RunTelemetry(path, command="test", argv=["--x"]) as session:
        with session.activate():
            plan.run(telemetry=session)
    return path, session


class TestSessionLifecycle:
    def test_session_toggles_tracing_and_restores(self, tmp_path):
        assert not tracing_enabled()
        session = RunTelemetry(tmp_path / "run.jsonl")
        assert tracing_enabled()
        session.finish()
        assert not tracing_enabled()

    def test_finish_is_idempotent(self, tmp_path):
        session = RunTelemetry(tmp_path / "run.jsonl")
        first = session.finish()
        assert session.finish("error") is first
        assert first["status"] == "ok"

    def test_exit_on_exception_marks_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with RunTelemetry(tmp_path / "run.jsonl") as session:
                raise RuntimeError("boom")
        assert session.finish()["status"] == "error"


class TestStreamAndManifest:
    def test_stream_validates_and_counts(self, tmp_path):
        path, session = _traced_run(tmp_path)
        manifest = validate_trace(path)
        assert manifest["run_id"] == session.run_id
        assert manifest["tasks"] == 2
        assert manifest["traced_tasks"] == 2
        assert manifest["store_hits"] == 0
        assert manifest["plans"][0]["tasks"] == 2
        assert len(manifest["plans"][0]["spec_digest"]) == 16

    def test_sibling_manifest_matches_stream_tail(self, tmp_path):
        path, session = _traced_run(tmp_path)
        lines = path.read_text().splitlines()
        tail = json.loads(lines[-1])
        assert tail["type"] == "manifest"
        sibling = json.loads(
            (tmp_path / "run.manifest.json").read_text())
        tail.pop("type")
        assert sibling == tail

    def test_kernel_fold_matches_task_lines(self, tmp_path):
        path, session = _traced_run(tmp_path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kernels = [r["kernel"] for r in records
                   if r["type"] == "task" and "kernel" in r]
        manifest = records[-1]
        total = sum(k["steps"] for k in kernels)
        assert manifest["kernel"]["steps"] == total > 0

    def test_store_hits_recorded(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunTelemetry(path) as session:
            session.record_hit(0, fingerprint="abcdef0123456789deadbeef")
        manifest = validate_trace(path)
        assert manifest["store_hits"] == 1
        records = [json.loads(line) for line in path.read_text().splitlines()]
        (hit,) = [r for r in records if r["type"] == "store-hit"]
        assert hit["fingerprint"] == "abcdef012345"  # 12-char prefix


class TestSchemaRejections:
    def _lines(self, tmp_path):
        path, _ = _traced_run(tmp_path, sizes=(4,))
        return path.read_text().splitlines()

    def test_missing_run_start(self, tmp_path):
        lines = self._lines(tmp_path)
        with pytest.raises(TraceSchemaError):
            validate_trace_lines(lines[1:])

    def test_missing_manifest(self, tmp_path):
        lines = self._lines(tmp_path)
        with pytest.raises(TraceSchemaError):
            validate_trace_lines(lines[:-1])

    def test_unknown_record_type(self, tmp_path):
        lines = self._lines(tmp_path)
        lines.insert(1, json.dumps({"type": "mystery"}))
        with pytest.raises(TraceSchemaError):
            validate_trace_lines(lines)

    @pytest.mark.parametrize("kind", ["mystery", "gauge"])
    def test_unknown_metric_type(self, tmp_path, kind):
        lines = self._lines(tmp_path)
        manifest = json.loads(lines[-1])
        manifest["metrics"]["x"] = {"type": kind, "value": 1}
        lines[-1] = json.dumps(manifest)
        with pytest.raises(TraceSchemaError, match="unknown type"):
            validate_trace_lines(lines)

    def test_task_count_mismatch(self, tmp_path):
        lines = self._lines(tmp_path)
        manifest = json.loads(lines[-1])
        manifest["tasks"] += 1
        lines[-1] = json.dumps(manifest)
        with pytest.raises(TraceSchemaError):
            validate_trace_lines(lines)

    def test_bad_json_line(self, tmp_path):
        lines = self._lines(tmp_path)
        lines.insert(1, "{not json")
        with pytest.raises(TraceSchemaError):
            validate_trace_lines(lines)

    def test_run_id_mismatch_against_sibling(self, tmp_path):
        path, _ = _traced_run(tmp_path, sizes=(4,))
        sibling = tmp_path / "run.manifest.json"
        manifest = json.loads(sibling.read_text())
        manifest["run_id"] = "ffffffffffff"
        sibling.write_text(json.dumps(manifest))
        with pytest.raises(TraceSchemaError):
            validate_trace(path)
