"""ExecutionPlan.run: the one loop that consumes backend outcomes.

Per executed outcome the loop commits to the store, folds the kernel
counters and writes the trace line, in that order, before the next
outcome is awaited; store hits never reach the backend.  The store is
duck-typed, so these tests drive the loop through a dict-backed one
that can die after k commits.
"""

import json

import pytest

from repro.analysis.checkers import default_checker
from repro.core.models import MODELS_BY_NAME
from repro.graphs import generators as gen
from repro.protocols.build import DegenerateBuildProtocol
from repro.runtime import ExecutionPlan, SerialBackend
from repro.telemetry import KernelAccumulator, RunTelemetry


def _plan(sizes=(4, 5, 6)):
    """Two exhaustive cells (n <= 5) and one searched cell (n = 6)."""
    proto = DegenerateBuildProtocol(2)
    graphs = [gen.random_k_degenerate(n, 2, seed=0) for n in sizes]
    return ExecutionPlan.build(
        proto, [MODELS_BY_NAME["SIMASYNC"]], graphs, mode="stress",
        checker=default_checker(proto), exhaustive_threshold=5,
        bit_budget=lambda n: 4096)


class DictStore:
    """Duck-typed store: one row per fingerprint, a log of every
    commit, and (with ``die_after``) a failure on commit k + 1."""

    def __init__(self, die_after=None):
        self.rows = {}
        self.commits = []
        self.frontier_loads = []
        self.frontier_puts = []
        self.die_after = die_after
        #: Called with the outcome index at each commit (trace probes).
        self.on_commit = None

    def fingerprint(self, task):
        return f"fp-{task.index}-{task.graph.n}"

    def get(self, fingerprint):
        return self.rows.get(fingerprint)

    def put_outcome(self, fingerprint, outcome, campaign=None):
        if self.die_after is not None and len(self.commits) >= self.die_after:
            raise RuntimeError("store full")
        if self.on_commit is not None:
            self.on_commit(outcome.index)
        self.commits.append((fingerprint, outcome.index, campaign))
        self.rows[fingerprint] = outcome.report

    def load_frontiers(self, cell_key):
        self.frontier_loads.append(cell_key)
        return []

    def put_frontiers(self, cell_key, rows):
        self.frontier_puts.append(cell_key)


class RecordingBackend(SerialBackend):
    """A serial backend that logs the task indices it was handed."""

    def __init__(self):
        self.handed = []

    def run(self, tasks):
        tasks = list(tasks)
        self.handed.append([task.index for task in tasks])
        return super().run(tasks)


class CountingKernel(KernelAccumulator):
    def __init__(self):
        super().__init__()
        self.added = 0

    def add(self, stats):
        self.added += 1
        super().add(stats)


@pytest.fixture(scope="module")
def plan():
    return _plan()


@pytest.fixture(scope="module")
def uninterrupted(plan):
    return plan.run(store=DictStore())


class TestStorelessRun:
    def test_every_task_executes_and_nothing_is_a_hit(self, plan):
        run = plan.run()
        assert run.hits == 0
        assert [o.index for o in run.outcomes] == [0, 1, 2]
        assert run.reports == tuple(o.report for o in run.outcomes)
        assert run.report == plan.verification_report()

    def test_warm_frontiers_needs_a_store(self, plan):
        with pytest.raises(ValueError):
            plan.run(warm_frontiers=True)


class TestStoreBackedRun:
    def test_commits_in_task_order_with_the_campaign_label(self, plan):
        store = DictStore()
        run = plan.run(store=store, campaign="c")
        assert store.commits == [
            (store.fingerprint(task), task.index, "c") for task in plan.tasks
        ]
        assert run.hits == 0 and len(run.outcomes) == 3
        assert run.report == plan.verification_report()

    def test_store_hits_never_reach_the_backend(self, plan):
        store = DictStore()
        plan.run(store=store)
        backend = RecordingBackend()
        again = plan.run(backend, store=store)
        assert backend.handed == [[]]
        assert again.hits == 3 and again.outcomes == ()
        assert len(store.commits) == 3  # the hit pass committed nothing

    def test_partial_store_executes_only_the_misses(self, plan):
        store = DictStore()
        plan.run(store=store)
        del store.rows[store.fingerprint(plan.tasks[1])]
        backend = RecordingBackend()
        run = plan.run(backend, store=store)
        assert backend.handed == [[1]]
        assert run.hits == 2 and [o.index for o in run.outcomes] == [1]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_store_failure_after_k_commits_keeps_exactly_k_rows(
            self, plan, uninterrupted, k):
        store = DictStore(die_after=k)
        with pytest.raises(RuntimeError, match="store full"):
            plan.run(store=store)
        assert len(store.rows) == k
        assert [index for _, index, _ in store.commits] == list(range(k))

        store.die_after = None
        backend = RecordingBackend()
        resumed = plan.run(backend, store=store)
        assert resumed.hits == k
        assert backend.handed == [list(range(k, 3))]
        assert resumed.report == uninterrupted.report
        assert vars(resumed.report) == vars(uninterrupted.report)

    def test_warm_frontiers_load_search_misses_and_commit_their_rows(self):
        from repro.campaigns import warm_smoke_campaign
        from repro.campaigns.frontiers import task_cell_key

        _, plan = next(warm_smoke_campaign().plans())
        search = [task for task in plan.tasks if task.mode == "search"]
        assert search
        store = DictStore()
        run = plan.run(store=store, warm_frontiers=True)
        keys = [task_cell_key(task) for task in search]
        assert store.frontier_loads == keys
        assert store.frontier_puts == keys  # the cold search recorded rows
        assert run.report == plan.verification_report()


class TestKernelCounters:
    def test_add_once_per_executed_outcome_never_for_a_hit(self, plan):
        store = DictStore()
        cold = CountingKernel()
        plan.run(store=store, kernel=cold)
        assert cold.added == 3
        assert cold.kernel is not None  # the searched cell reports one

        del store.rows[store.fingerprint(plan.tasks[2])]
        warm = CountingKernel()
        plan.run(store=store, kernel=warm)
        assert warm.added == 1

        hit = CountingKernel()
        plan.run(store=store, kernel=hit)
        assert hit.added == 0 and hit.kernel is None

    def test_an_uncommitted_outcome_is_not_counted(self, plan):
        kernel = CountingKernel()
        with pytest.raises(RuntimeError):
            plan.run(store=DictStore(die_after=1), kernel=kernel)
        assert kernel.added == 1

    def test_counters_match_the_storeless_run(self, plan):
        plain = KernelAccumulator()
        plan.run(kernel=plain)
        stored = KernelAccumulator()
        plan.run(store=DictStore(), kernel=stored)
        assert stored.kernel == plain.kernel


class TestTraceOrder:
    def _records(self, path):
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    def test_plan_then_hits_then_tasks_each_after_its_commit(
            self, plan, tmp_path):
        store = DictStore()
        plan.run(store=store)
        del store.rows[store.fingerprint(plan.tasks[1])]
        del store.rows[store.fingerprint(plan.tasks[2])]
        path = tmp_path / "run.jsonl"
        seen_at_commit = {}

        def probe(index):
            seen_at_commit[index] = [
                r.get("index") for r in self._records(path)
                if r["type"] == "task"
            ]

        store.on_commit = probe
        with RunTelemetry(path, command="test") as session:
            with session.activate():
                plan.run(store=store, telemetry=session)
        records = self._records(path)
        stream = [(r["type"], r.get("index")) for r in records
                  if r["type"] in ("plan", "store-hit", "task")]
        assert stream == [("plan", None), ("store-hit", 0),
                          ("task", 1), ("task", 2)]
        # at each commit, that outcome's task line did not exist yet
        assert seen_at_commit == {1: [], 2: [1]}
        assert records[-1]["type"] == "manifest"
        assert records[-1]["store_hits"] == 1 and records[-1]["tasks"] == 2
