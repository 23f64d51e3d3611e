"""The four workloads: timed passes, correctness gates and traced runs.

A workload is prepared once in-process (inputs generated from the seed,
plans or specs built), then measured in whole *passes* over the same
inputs.  Every pass returns a :class:`PassResult`: wall time, the
workload's units of work, per-cell latencies, the gate's failures, a
digest of the outputs and the deterministic counts.  ``traced()`` runs
the separate traced pass and returns the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import inputs
from .clock import Stopwatch
from .tracing import LAYERS, Recorder, install, layer_of

__all__ = ["PassResult", "WORKLOADS", "quantile"]

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent

#: The CI sed that strips the backend tag from ``stress`` listings.
_BACKEND_TAG = re.compile(r" tasks via [a-z-]*\]")
#: Wall-clock readings printed in command output (E16's "in 0.03s").
_WALL_READING = re.compile(r"\b\d+\.\d+s\b")


def normalise_stdout(text: str) -> str:
    """Command stdout with the parts that may differ between identical
    runs replaced: the backend tag and printed wall-clock times."""
    return _WALL_READING.sub("<t>s", _BACKEND_TAG.sub(" tasks]", text))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _kernel_json(stats) -> dict:
    from repro.telemetry import KernelStats

    return (stats or KernelStats()).to_jsonable()


def _fold_kernel(stats):
    """Fold KernelStats snapshots (``None`` entries skipped)."""
    from repro.telemetry import KernelAccumulator

    acc = KernelAccumulator()
    for item in stats:
        acc.add(item)
    return acc.kernel


def _outcomes_kernel(outcomes) -> dict:
    """Folded KernelStats of task outcomes, as JSON-ready counts."""
    return _kernel_json(_fold_kernel(o.kernel_stats for o in outcomes))


def _report_json(report) -> dict:
    from repro.campaigns.store import report_to_jsonable, witness_to_jsonable

    return {"report": report_to_jsonable(report),
            "witnesses": [witness_to_jsonable(w) for w in report.witnesses]}


@dataclass
class PassResult:
    """One measured pass over a workload's inputs."""

    #: Consecutive laps covering the pass, in reference-speed seconds,
    #: and the same laps' raw wall times (see ``clock.py``).
    segments: list[float]
    raw_segments: list[float]
    #: The probe readings around those laps.
    probes: list[float]
    units: int
    #: Per-cell latencies (reference-speed seconds), in the same cell
    #: order on every pass; the segments themselves unless a workload
    #: also laps outside its cells.
    latencies: list[float]
    attempted: int
    failures: list[str] = field(default_factory=list)
    #: Per-cell output digests, compared across passes.
    digests: list[str] = field(default_factory=list)
    #: Deterministic counts, which must repeat exactly.
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.raw_segments)


class Workload:
    """Shared shape; subclasses fill in ``prepare``/``run_pass``/``traced``."""


    def __init__(self, seed: int, size: str, work: Path) -> None:
        self.seed = seed
        self.size = size
        self.work = work

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Let lazy imports and caches settle before timing: a user pays
        them once per command, not once per pass.  Default: one whole
        untimed pass."""
        self.run_pass()

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def finish(self, passes: list[PassResult]) -> list[str]:
        """Untimed checks over every pass; returns failure messages.

        Outputs must repeat exactly across passes, cell by cell."""
        failures = []
        first = passes[0]
        for k, other in enumerate(passes[1:], start=2):
            for i, (a, b) in enumerate(zip(first.digests, other.digests)):
                if a != b:
                    failures.append(
                        f"pass {k} cell {i}: output differs from pass 1")
            if other.counts != first.counts:
                failures.append(f"pass {k}: deterministic counts differ "
                                "from pass 1")
        return failures

    def traced(self) -> dict:
        raise NotImplementedError


def _layer_metrics(rec: Recorder, traced_wall: float, ref_wall: float,
                   kernel: dict, extra: dict) -> dict:
    """Per-layer metrics from one traced pass (``rec`` holds a single
    ``bench.*`` root whose self time is the unattributed share)."""
    agg = rec.aggregate()

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in agg.items():
        layer_self[layer_of(name)] += row["self_s"]
    counts = rec.counts
    explored = {s: counts.get(f"adversaries.{s}.explored", 0)
                for s in ("greedy", "beam", "bnb", "deadlock")}
    probes = kernel["table_hits"] + kernel["table_misses"]
    rows = counts.get("campaigns.frontiers.rows", 0)
    m = {
        "graphs.generate_s": total("graphs.generate"),
        "runtime.plan.build_s": total("runtime.plan.build"),
        "runtime.plan.tasks": counts.get("runtime.plan.tasks", 0),
        "core.advance.calls": calls("core.advance"),
        "core.advance.s": total("core.advance"),
        "core.result.calls": calls("core.result"),
        "core.result.self_s": self_s("core.result"),
        "core.config_key.calls": calls("core.config_key"),
        "core.config_key.s": total("core.config_key"),
        "core.suffix_bound.calls": calls("core.suffix_bound"),
        "core.suffix_bound.s": total("core.suffix_bound"),
        "core.steps": kernel["steps"],
        "core.batch.children": kernel["batch_children"],
        "core.batch.occupancy": (kernel["batch_kept"]
                                 / kernel["batch_children"]
                                 if kernel["batch_children"] else 0.0),
        "protocols.output.calls": calls("protocols.output"),
        "protocols.output.s": total("protocols.output"),
        "protocols.activate.s": total("protocols.activate"),
        "protocols.message.s": total("protocols.message"),
        "encoding.payload_key.calls": calls("encoding.payload_key"),
        "encoding.payload_key.s": total("encoding.payload_key"),
        "analysis.checker.calls": calls("analysis.checker"),
        "analysis.checker.s": total("analysis.checker"),
        "adversaries.restarts": kernel["restarts"],
        "adversaries.bnb.bound_prunes": kernel["bound_prunes"],
        "adversaries.bnb.prune_ratio": (kernel["bound_prunes"]
                                        / explored["bnb"]
                                        if explored["bnb"] else 0.0),
        "adversaries.table.probes": probes,
        "adversaries.table.hit_rate": (kernel["table_hits"] / probes
                                       if probes else 0.0),
        "adversaries.replay.s": total("adversaries.replay"),
        "adversaries.minimize.s": total("adversaries.minimize"),
        "adversaries.minimize.replays": counts.get(
            "adversaries.minimize.replays", 0),
        "campaigns.fingerprint.calls": calls("campaigns.fingerprint"),
        "campaigns.fingerprint.s": total("campaigns.fingerprint"),
        "campaigns.store.get.calls": calls("campaigns.store.get"),
        "campaigns.store.get.p50_ms": 1000 * quantile(
            rec.durations("campaigns.store.get"), 0.5),
        "campaigns.store.put.calls": calls("campaigns.store.put"),
        "campaigns.store.put.p50_ms": 1000 * quantile(
            rec.durations("campaigns.store.put"), 0.5),
        "campaigns.frontiers.load_s": total("campaigns.frontiers.load"),
        "campaigns.frontiers.put_s": total("campaigns.frontiers.put"),
        "campaigns.frontiers.rows": rows,
        "campaigns.frontiers.hits": kernel["frontier_hits"],
        "campaigns.frontiers.hit_ratio": (kernel["frontier_hits"] / rows
                                          if rows else 0.0),
        "campaigns.trajectories.s": total("campaigns.trajectories"),
        "campaigns.store.db_bytes": 0,
        "campaigns.cold_cells_per_s": 0.0,
        "campaigns.hit_cells_per_s": 0.0,
        "campaigns.warm_cells_per_s": 0.0,
        "runtime.sharding.lower_s": total("runtime.sharding.lower"),
        "runtime.sharding.lots": counts.get("runtime.sharding.lots", 0),
        "runtime.sharding.imbalance": 0.0,
        "runtime.sharding.fallbacks": 0,
        "runtime.backends.wait_s": self_s("runtime.backends.wait"),
        "runtime.backends.pickle_bytes": 0,
        "trace.overhead_ratio": traced_wall / ref_wall,
        "trace.unattributed_share": layer_self["unattributed"] / traced_wall,
    }
    for strategy, n in explored.items():
        m[f"adversaries.{strategy}.s"] = total(f"adversaries.{strategy}")
        m[f"adversaries.{strategy}.explored"] = n
    for layer, seconds in layer_self.items():
        if layer != "unattributed":
            m[f"layer.{layer}.self_s"] = seconds
    m.update(extra)
    return m


def _traced_pass(body, scope: str = "all", capture: bool = False):
    """Run ``body(rec)`` under one ``bench.pass`` root with the layer
    wrappers installed; returns ``(rec, wall, body result)``."""
    rec = Recorder()
    rec.capture = capture
    patches = install(rec, scope)
    try:
        start = time.perf_counter()
        with rec.span("bench.pass"):
            result = body(rec)
        wall = time.perf_counter() - start
    finally:
        patches.undo()
    return rec, wall, result


# ----------------------------------------------------------------------
# exhaustive
# ----------------------------------------------------------------------

class Exhaustive(Workload):
    """Checked enumeration of every schedule, lot-sharded over two
    process workers."""


    def prepare(self) -> None:
        from repro.core.simulator import count_executions

        self.groups = inputs.exhaustive_groups(self.seed, self.size)
        self.plans = [inputs.build_plan(g, inputs.generate(g), "exhaustive")
                      for g in self.groups]
        # The gate's truth: the public counter on the batched core, an
        # engine independent of the scalar enumeration being measured.
        self.truth = [
            [count_executions(t.graph, t.protocol, t.model, batch=True)
             for t in plan.tasks]
            for plan in self.plans
        ]

    def warm_up(self) -> None:
        from repro.runtime import ProcessPoolBackend

        for plan in self.plans:
            list(ProcessPoolBackend(jobs=2).run(plan.tasks[:1]))

    @staticmethod
    def _run(plans, backend_factory, watch: Stopwatch):
        """One backend run, and one lap, per cell: probing between cells
        is only sound while no pool worker is alive."""
        outcomes = []
        for plan in plans:
            for task in plan.tasks:
                outcomes += backend_factory().run([task])
                watch.lap()
        return outcomes
    def _gate(self, outcomes) -> list[str]:
        failures = []
        truth = [count for counts in self.truth for count in counts]
        if len(outcomes) != len(truth):
            return [f"{len(outcomes)} outcomes for {len(truth)} cells"]
        for i, (outcome, expected) in enumerate(zip(outcomes, truth)):
            report = outcome.report
            if not report.ok:
                failures.append(f"cell {i}: report not ok: "
                                f"{report.summary()}")
            if report.executions != expected:
                failures.append(f"cell {i}: {report.executions} executions, "
                                f"count_executions says {expected}")
        return failures

    def run_pass(self) -> PassResult:
        from repro.runtime import ProcessPoolBackend

        watch = Stopwatch()
        outcomes = self._run(
            self.plans, lambda: ProcessPoolBackend(jobs=2), watch)
        return PassResult(
            segments=watch.scaled, raw_segments=watch.raw,
            probes=watch.probes,
            units=sum(o.report.executions for o in outcomes),
            latencies=watch.scaled,
            attempted=len(outcomes),
            failures=self._gate(outcomes),
            digests=[_digest(_report_json(o.report)) for o in outcomes],
            counts={"executions": [o.report.executions for o in outcomes],
                    "kernel": _outcomes_kernel(outcomes)},
        )

    def _serial_body(self, rec):
        from repro.runtime import SerialBackend

        plans = []
        for group in self.groups:
            with _maybe_span(rec, "graphs.generate"):
                graphs = inputs.generate(group)
            plans.append(inputs.build_plan(group, graphs, "exhaustive"))
        return self._run(plans, SerialBackend, Stopwatch(False))

    def traced(self) -> dict:
        """Worker-side layers come from a traced *serial* pass over the
        same cells; sharding and backend numbers from a jobs=2 pass
        traced on the parent side only."""
        from repro.runtime import ProcessPoolBackend

        start = time.perf_counter()
        self._serial_body(None)
        ref_wall = time.perf_counter() - start
        rec, wall, outcomes = _traced_pass(self._serial_body)
        pool, _, _ = _traced_pass(
            lambda r: self._run(self.plans,
                                lambda: ProcessPoolBackend(jobs=2),
                                Stopwatch(False)),
            scope="parent", capture=True)
        metrics = _layer_metrics(rec, wall, ref_wall,
                                 _outcomes_kernel(outcomes),
                                 _pool_metrics(pool))
        return {"metrics": metrics, "recorder": rec,
                "failures": self._gate(outcomes),
                "attempted": len(outcomes),
                "counts": {"executions": [o.report.executions
                                          for o in outcomes]}}


@contextmanager
def _maybe_span(rec, name: str):
    if rec is None:
        yield
    else:
        with rec.span(name):
            yield


def _pool_metrics(rec: Recorder) -> dict:
    """Sharding and backend numbers of a parent-traced process-pool pass.

    Lot imbalance is max/mean of the schedules each lot enumerated,
    per sharded cell, worst cell reported; pickle bytes are computed by
    pickling every shipped work item and every returned output."""
    agg = rec.aggregate()
    items = rec.captured["items"]
    outputs = rec.captured["outputs"]
    lots: dict[int, list[int]] = {}
    for item, output in zip(items, outputs):
        kind, payload = item
        if kind != "shard" or output[0] != "ok":
            continue
        weight = sum(part[0].executions for part in output[1].values())
        lots.setdefault(id(payload[0]), []).append(weight)
    imbalance = max(
        (max(w) / (sum(w) / len(w)) for w in lots.values() if sum(w)),
        default=0.0)
    pickled = sum(len(pickle.dumps(x)) for x in items) + sum(
        len(pickle.dumps(x)) for x in outputs)
    return {
        "runtime.sharding.lower_s": agg.get(
            "runtime.sharding.lower", {}).get("total_s", 0.0),
        "runtime.sharding.lots": rec.counts.get("runtime.sharding.lots", 0),
        "runtime.sharding.imbalance": imbalance,
        # Parent-side task executions inside a pool pass are exactly the
        # serial fallbacks: the pool never runs a task in the parent.
        "runtime.sharding.fallbacks": agg.get(
            "runtime.plan.execute", {}).get("calls", 0),
        "runtime.backends.wait_s": agg.get(
            "runtime.backends.wait", {}).get("self_s", 0.0),
        "runtime.backends.pickle_bytes": pickled,
    }


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

class Search(Workload):
    """Stress-mode adversary search on the serial backend."""


    def prepare(self) -> None:
        self.groups = inputs.search_groups(self.seed, self.size)
        self.plans = [inputs.build_plan(g, inputs.generate(g), "stress")
                      for g in self.groups]

    def warm_up(self) -> None:
        from repro.runtime import SerialBackend

        for plan in self.plans:
            list(SerialBackend().run(plan.tasks[:1]))

    @staticmethod
    def _run(plans, watch: Stopwatch):
        """One lap per cell: the outcome inter-arrival."""
        from repro.runtime import SerialBackend

        outcomes = []
        for plan in plans:
            for outcome in SerialBackend().run(plan.tasks):
                watch.lap()
                outcomes.append(outcome)
        return outcomes

    @staticmethod
    def _gate(outcomes) -> list[str]:
        return [f"cell {i}: report not ok: {o.report.summary()}"
                for i, o in enumerate(outcomes) if not o.report.ok]

    def run_pass(self) -> PassResult:
        watch = Stopwatch()
        outcomes = self._run(self.plans, watch)
        self._last_outcomes = outcomes
        return PassResult(
            segments=watch.scaled, raw_segments=watch.raw,
            probes=watch.probes,
            units=len(outcomes),
            latencies=watch.scaled,
            attempted=len(outcomes), failures=self._gate(outcomes),
            digests=[_digest(_report_json(o.report)) for o in outcomes],
            counts={"executions": sum(o.report.executions for o in outcomes),
                    "kernel": _outcomes_kernel(outcomes)},
        )

    def finish(self, passes) -> list[str]:
        """Besides repeating exactly, every witness must replay to the
        bits and deadlock verdict it records."""
        return super().finish(passes) + _replay_witnesses(
            self.plans, self._last_outcomes)

    def traced(self) -> dict:
        def body(rec):
            plans = []
            for group in self.groups:
                with _maybe_span(rec, "graphs.generate"):
                    graphs = inputs.generate(group)
                plans.append(inputs.build_plan(group, graphs, "stress"))
            return self._run(plans, Stopwatch(False))

        start = time.perf_counter()
        body(None)
        ref_wall = time.perf_counter() - start
        rec, wall, outcomes = _traced_pass(body)
        kernel = _outcomes_kernel(outcomes)
        explored = {k: v for k, v in rec.counts.items()
                    if k.endswith(".explored")}
        return {"metrics": _layer_metrics(rec, wall, ref_wall, kernel, {}),
                "recorder": rec,
                "failures": self._gate(outcomes),
                "attempted": len(outcomes),
                "counts": {"kernel": kernel, "explored": explored}}


def _replay_witnesses(plans, outcomes) -> list[str]:
    from repro.core.execution import replay_schedule

    tasks = [task for plan in plans for task in plan.tasks]
    failures = []
    for i, (task, outcome) in enumerate(zip(tasks, outcomes)):
        for w in outcome.report.witnesses:
            result = replay_schedule(w.graph, task.protocol, task.model,
                                     w.schedule, task.bit_budget,
                                     faults=w.faults)
            if (result.max_message_bits != w.bits
                    or result.corrupted != w.deadlock):
                failures.append(
                    f"cell {i}: {w.strategy} witness replays to "
                    f"{result.max_message_bits} bits/deadlock="
                    f"{result.corrupted}, records {w.bits}/{w.deadlock}")
    return failures


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

def _lapping_backend(watch: Stopwatch, latencies: list):
    """A serial backend that closes one lap per executed cell (the
    outcome inter-arrival, store commit of the previous cell included)."""
    from repro.runtime import SerialBackend

    class LappingBackend(SerialBackend):
        def run(self, tasks):
            for outcome in super().run(tasks):
                latencies.append(watch.lap())
                yield outcome

    return LappingBackend()


def _campaign_bytes(result) -> str:
    """The merged report, every cell report and every witness,
    canonically serialised (the ``tools/warm_smoke.py`` comparison)."""
    return _digest({
        "report": _report_json(result.report),
        "cells": [_report_json(cell.report) for cell in result.cells],
    })


class CampaignWorkload(Workload):
    """A fresh store: cold run, pure-cache re-run, then a warm re-run
    from preloaded frontiers after dropping the cached results."""


    def prepare(self) -> None:
        from repro.campaigns import Campaign

        self.spec = inputs.campaign_spec(self.seed, self.size)
        self.campaign = Campaign(self.spec)
        self.tasks = sum(len(plan.tasks) for _, plan in self.spec.plans())
        self.db = self.work / "campaign.db"

    def _phases(self, watch: Stopwatch, latencies: list):
        """Cold, hit and warm runs; returns the three results and each
        phase's scaled seconds."""
        from repro.campaigns import ResultStore

        for path in (self.db, Path(f"{self.db}-journal")):
            if path.exists():
                path.unlink()
        backend = _lapping_backend(watch, latencies)
        bounds = [0]
        with ResultStore(self.db) as store:
            cold = self.campaign.run(store, backend=backend,
                                     warm_frontiers=True)
            watch.lap()
            bounds.append(len(watch.scaled))
            hit = self.campaign.run(store, backend=backend,
                                    warm_frontiers=True)
            watch.lap()
            bounds.append(len(watch.scaled))
            store.gc([])
            warm = self.campaign.run(store, backend=backend,
                                     warm_frontiers=True)
        watch.lap()
        bounds.append(len(watch.scaled))
        phase_s = [sum(watch.scaled[a:b]) for a, b in zip(bounds, bounds[1:])]
        return cold, hit, warm, phase_s

    def _gate(self, cold, hit, warm) -> list[str]:
        failures = []
        tasks = self.tasks
        if cold.executed != tasks:
            failures.append(f"cold: {cold.hits} hits on a fresh store")
        if hit.hits != tasks:
            failures.append(f"hit: {hit.hits}/{tasks} hits")
        if warm.executed != tasks:
            failures.append(f"warm: {warm.hits} hits after gc")
        if not cold.ok:
            failures.append(f"cold report not ok: {cold.report.summary()}")
        cold_bytes = _campaign_bytes(cold)
        if _campaign_bytes(hit) != cold_bytes:
            failures.append("hit report differs from cold")
        if _campaign_bytes(warm) != cold_bytes:
            failures.append("warm report differs from cold")
        cold_steps = cold.kernel.steps if cold.kernel else 0
        warm_steps = warm.kernel.steps if warm.kernel else 0
        if not warm_steps < cold_steps:
            failures.append(f"warm run took {warm_steps} kernel steps, "
                            f"cold {cold_steps}: not fewer")
        return failures

    def run_pass(self) -> PassResult:
        watch = Stopwatch()
        latencies: list[float] = []
        cold, hit, warm, phase_s = self._phases(watch, latencies)
        return PassResult(
            segments=watch.scaled, raw_segments=watch.raw,
            probes=watch.probes,
            units=3 * self.tasks,
            latencies=latencies,
            attempted=3 * self.tasks,
            failures=self._gate(cold, hit, warm),
            digests=[_campaign_bytes(cold)],
            counts={"cold": _kernel_json(cold.kernel),
                    "warm": _kernel_json(warm.kernel),
                    "tasks": self.tasks},
            extra={"phase_s": phase_s},
        )

    def traced(self) -> dict:
        ref = self.run_pass()
        rec, wall, (cold, hit, warm, _) = _traced_pass(
            lambda r: self._phases(Stopwatch(False), []))
        kernel = _kernel_json(_fold_kernel([cold.kernel, warm.kernel]))
        cold_s, hit_s, warm_s = ref.extra["phase_s"]
        extra = {
            "campaigns.store.db_bytes": self.db.stat().st_size,
            "campaigns.cold_cells_per_s": self.tasks / cold_s,
            "campaigns.hit_cells_per_s": self.tasks / hit_s,
            "campaigns.warm_cells_per_s": self.tasks / warm_s,
        }
        return {"metrics": _layer_metrics(rec, wall, ref.wall_s, kernel,
                                          extra),
                "recorder": rec,
                "failures": self._gate(cold, hit, warm) + ref.failures,
                "attempted": 3 * self.tasks,
                "counts": {"cold": _kernel_json(cold.kernel),
                           "warm": _kernel_json(warm.kernel)}}


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

def subprocess_env(work: Path) -> dict:
    """The environment every spawned interpreter gets: ``src`` on the
    path and temporary files kept inside the checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


class Cli(Workload):
    """Real commands as fresh subprocesses, start-up included."""


    def prepare(self) -> None:
        self.store = self.work / "cli-campaign.db"
        self.commands = inputs.cli_commands(
            self.seed, str(self.store.relative_to(ROOT)))
        self.env = subprocess_env(self.work)
        self.first: dict[str, str] = {}

    def _session(self, launcher, watch: Stopwatch):
        """Every command once, one lap each; also returns the wall clock
        at each spawn and exit."""
        if self.store.exists():
            self.store.unlink()
        outputs, clocks = [], []
        for label, argv in self.commands:
            spawned_at = time.time()
            proc = subprocess.run(
                [sys.executable, *launcher(label), *argv], cwd=ROOT,
                env=self.env, capture_output=True, text=True, timeout=170)
            clocks.append((spawned_at, time.time()))
            watch.lap()
            outputs.append((label, proc))
        return outputs, clocks

    def _gate(self, outputs) -> tuple[list[str], list[str], dict]:
        failures, digests, kernels = [], [], {}
        for label, proc in outputs:
            stdout = normalise_stdout(proc.stdout)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-400:]}")
            first = self.first.setdefault(label, stdout)
            if stdout != first:
                failures.append(f"{label}: stdout differs from the first "
                                "session")
            digests.append(_digest(stdout))
            kernels[label] = [line.strip() for line in proc.stderr.splitlines()
                              if line.strip().startswith("kernel:")]
        return failures, digests, kernels

    def run_pass(self) -> PassResult:
        watch = Stopwatch()
        outputs, _ = self._session(lambda label: ["-m", "repro"], watch)
        failures, digests, kernels = self._gate(outputs)
        return PassResult(
            segments=watch.scaled, raw_segments=watch.raw,
            probes=watch.probes,
            units=len(outputs),
            latencies=watch.scaled, attempted=len(outputs),
            failures=failures, digests=digests,
            counts={"kernel_lines": kernels},
        )

    def traced(self) -> dict:
        """Each command runs under ``tracecli.py``, which installs the
        same wrappers inside the command's interpreter and reports its
        span folds back.  Spawn to launcher start and launcher finish to
        exit are charged to ``imports.interpreter``; what remains
        unattributed is the launcher's own bookkeeping."""
        ref = self.run_pass()
        dumps = self.work / "tracecli"
        dumps.mkdir(parents=True, exist_ok=True)
        launcher = str(PERF_DIR / "tracecli.py")
        watch = Stopwatch(False)
        outputs, clocks = self._session(
            lambda label: [launcher, str(dumps / f"{label}.json")], watch)
        failures, _, _ = self._gate(outputs)
        rec = Recorder()
        kernel = None
        for (label, _), (spawned_at, exited_at) in zip(self.commands,
                                                      clocks):
            data = json.loads((dumps / f"{label}.json").read_text())
            rec.merge_dump(data)
            rec.charge("imports.interpreter",
                       (data["started_at"] - spawned_at)
                       + (exited_at - data["finished_at"]))
            kernel = _merge_kernel(kernel, data["kernel"])
        wall = sum(watch.raw)
        rec.charge("bench.pass", wall - sum(rec.self_time))
        return {"metrics": _layer_metrics(rec, wall, ref.wall_s, kernel, {}),
                "recorder": rec,
                "failures": failures + ref.failures,
                "attempted": len(outputs),
                "counts": {"kernel": kernel}}


def _merge_kernel(a, b):
    if a is None:
        return dict(b)
    return {k: a[k] + b[k] for k in a}


WORKLOADS = {
    "exhaustive": Exhaustive,
    "search": Search,
    "campaign": CampaignWorkload,
    "cli": Cli,
}
