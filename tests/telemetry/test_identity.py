"""The observation-only invariant, pinned.

Telemetry must never change what the engine computes: for every
jobs x beam-pass x faults combination, the merged report with tracing ON is
field-identical to the report with tracing OFF, and the deterministic
kernel counters a task reports are exactly the ``SearchContext.snapshot``
of an identical hand-driven search.
"""

import json
import os
import sys
from dataclasses import fields, replace

import pytest

from repro.adversaries import (
    BeamSearchAdversary,
    GreedyBitsAdversary,
    SearchContext,
    TranspositionTable,
    default_search_portfolio,
)
from repro.adversaries.kernel import SearchStats
from repro.analysis.checkers import default_checker
from repro.campaigns.frontiers import decode_rows, encode_rows
from repro.core.models import MODELS_BY_NAME
from repro.graphs import generators as gen
from repro.protocols.build import DegenerateBuildProtocol
from repro.runtime import ProcessPoolBackend, SerialBackend
from repro.runtime.plan import ExecutionPlan
from repro.telemetry import (
    KernelStats,
    TaskCollection,
    metrics,
    set_tracing,
    tracer,
)


def _portfolio(batch):
    """The default portfolio with its beam pinned to one pass."""
    return [BeamSearchAdversary(width=8, restarts=1, seed=0, batch=batch)
            if isinstance(strategy, BeamSearchAdversary) else strategy
            for strategy in default_search_portfolio()]


def _stress_plan(sizes=(4, 6), faults=None, batch=True):
    proto = DegenerateBuildProtocol(2)
    graphs = [gen.random_k_degenerate(n, 2, seed=0) for n in sizes]
    return ExecutionPlan.build(
        proto, [MODELS_BY_NAME["SIMASYNC"]], graphs, mode="stress",
        adversaries=_portfolio(batch),
        checker=default_checker(proto), exhaustive_threshold=5,
        bit_budget=lambda n: 4096, faults=faults)


def _report_key(report):
    return json.dumps(vars(report), sort_keys=True, default=repr)


def _run(plan, backend):
    return [task.execute() for task in plan.tasks] if backend is None \
        else list(backend.run(list(plan.tasks)))


class TestTraceOnEqualsTraceOff:
    @pytest.mark.parametrize("jobs", [None, 2])
    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("faults", [None, "crash:1"])
    def test_reports_field_identical(self, jobs, batch, faults):
        backend = (None if jobs is None
                   else ProcessPoolBackend(jobs=jobs, chunk_size=1))
        plan = _stress_plan(faults=faults, batch=batch)

        set_tracing(False)
        off = _run(_stress_plan(faults=faults, batch=batch), backend)
        set_tracing(True)
        try:
            on = _run(plan, backend)
        finally:
            set_tracing(False)

        assert [_report_key(o.report) for o in off] \
            == [_report_key(o.report) for o in on]
        # tracing decorates the outcome but never the result
        assert all(o.telemetry is None for o in off)
        assert all(o.telemetry is not None for o in on)

    def test_kernel_stats_equal_on_and_off(self):
        plan_off = _stress_plan(sizes=(6,))
        plan_on = _stress_plan(sizes=(6,))
        set_tracing(False)
        (off,) = _run(plan_off, None)
        set_tracing(True)
        try:
            (on,) = _run(plan_on, None)
        finally:
            set_tracing(False)
        assert off.kernel_stats is not None
        assert off.kernel_stats == on.kernel_stats

    def test_kernel_stats_equal_serial_and_process(self):
        plan = _stress_plan(sizes=(6,))
        serial = _run(_stress_plan(sizes=(6,)), SerialBackend())
        pooled = _run(plan, ProcessPoolBackend(jobs=2, chunk_size=1))
        assert [o.kernel_stats for o in serial] \
            == [o.kernel_stats for o in pooled]


def _fresh_rows(rows):
    """Independent copies of frontier rows (``preload`` marks and the
    searches update the entry objects it is handed)."""
    return decode_rows([(key, entry) for _, key, entry in encode_rows(rows)])


def _hand_driven(faults, table, export=False):
    """The stress cell of ``_stress_plan(sizes=(6,))``, searched by
    hand through one context (``export``: drain the table's dirty rows,
    as a warm-frontier task does for the store)."""
    graph = gen.random_k_degenerate(6, 2, seed=0)
    context = SearchContext(table=table)
    for strategy in _portfolio(True):
        strategy.search(graph, DegenerateBuildProtocol(2),
                        MODELS_BY_NAME["SIMASYNC"], 4096, context=context,
                        faults=faults)
    if export:
        table.export_dirty()
    return context


class TestKernelIsTheContextSnapshot:
    def test_every_search_counter_is_a_kernel_field(self):
        names = {f.name for f in fields(KernelStats)}
        assert set(SearchStats.__slots__) <= names

    @pytest.mark.parametrize("faults", [None, "crash:1"])
    def test_no_table_cell(self, faults):
        (task,) = _stress_plan(sizes=(6,), faults=faults).tasks
        outcome = task.execute()
        context = _hand_driven(faults, None)
        assert outcome.kernel_stats == context.snapshot()
        assert outcome.kernel_stats.tables == 0
        assert outcome.kernel_stats.steps == context.stats.steps

    @pytest.mark.parametrize("faults", [None, "crash:1"])
    def test_shared_table_cell(self, faults):
        (task,) = _stress_plan(sizes=(6,), faults=faults).tasks
        outcome = replace(task, share_table=True).execute()
        context = _hand_driven(faults, TranspositionTable())
        assert outcome.kernel_stats == context.snapshot()
        assert outcome.kernel_stats.tables == 1
        assert outcome.kernel_stats.table_hits == context.table.hits

    def test_warm_frontier_cell(self):
        (task,) = _stress_plan(sizes=(6,), faults="crash:1").tasks
        cold = replace(task, frontiers=()).execute()
        assert cold.frontiers
        warm = replace(task, frontiers=_fresh_rows(cold.frontiers)).execute()
        table = TranspositionTable()
        table.preload(_fresh_rows(cold.frontiers))
        context = _hand_driven("crash:1", table, export=True)
        assert warm.kernel_stats == context.snapshot()
        assert warm.kernel_stats.tables == 1
        assert warm.kernel_stats.frontier_hits > 0

    def test_unbound_table_is_not_counted(self):
        graph = gen.random_k_degenerate(6, 2, seed=0)
        context = SearchContext()
        GreedyBitsAdversary().search(graph, DegenerateBuildProtocol(2),
                                     MODELS_BY_NAME["SIMASYNC"], 4096,
                                     context=context)
        (task,) = _stress_plan(sizes=(6,), faults="crash:1").tasks
        context.table = TranspositionTable()
        context.table.preload(
            _fresh_rows(replace(task, frontiers=()).execute().frontiers))
        assert len(context.table) > 0
        kernel = context.snapshot()
        assert kernel.searches == 1
        assert kernel.tables == 0
        assert kernel.table_entries == 0

    def test_untouched_context_snapshots_to_none(self):
        assert SearchContext(table=TranspositionTable()).snapshot() is None


class TestFinalizeIdentity:
    def test_untraced_exhaustive_outcome_is_the_same_object(self):
        # nothing observed -> finalize returns the identical outcome, so
        # sharded-vs-serial equality comparisons stay byte-for-byte
        plan = _stress_plan(sizes=(4,))
        (task,) = plan.tasks
        collect = TaskCollection(task)
        with collect:
            outcome = task._run_cell(collect)
        assert collect.finalize(outcome) is outcome


class TestUntracedPathIsFree:
    #: Telemetry entry points an untraced ``execute()`` may call, as
    #: (module, function): the per-task seam, the kernel snapshot's
    #: truth test, the module-level guards that read the active tracer
    #: and return, and the shared no-op span they hand back.
    ALLOWED = {
        ("collect", "TaskCollection.__init__"),
        ("collect", "TaskCollection.__enter__"),
        ("collect", "TaskCollection.__exit__"),
        ("collect", "TaskCollection.observe_context"),
        ("collect", "TaskCollection.finalize"),
        ("stats", "KernelStats.__bool__"),
        ("tracer", "active"), ("tracer", "span"), ("tracer", "event"),
        ("tracer", "count"), ("tracer", "observe"),
        ("tracer", "_NullSpan.__enter__"), ("tracer", "_NullSpan.__exit__"),
        ("tracer", "_NullSpan.set"),
    }

    @pytest.mark.parametrize("faults", [None, "crash:1"])
    def test_execute_builds_nothing_and_calls_only_guards(self, faults,
                                                          monkeypatch):
        """With tracing off, executing the stress cells constructs no
        tracer, span, span record or metric, and enters the telemetry
        package only through :attr:`ALLOWED`."""
        built = []
        for cls in (tracer.Tracer, tracer.Span, tracer.SpanRecord,
                    metrics.MetricsRegistry, metrics.Counter,
                    metrics.Histogram):
            def recording(self, *args, _init=cls.__init__, _name=cls.__name__,
                          **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", recording)

        package = os.path.dirname(tracer.__file__) + os.sep
        entered = set()

        def profile(frame, event, arg):
            if (event != "call"
                    or not frame.f_code.co_filename.startswith(package)
                    or frame.f_back.f_code.co_filename.startswith(package)):
                return
            module = os.path.basename(frame.f_code.co_filename)[:-3]
            name = frame.f_code.co_name
            owner = frame.f_locals.get("self")
            if owner is not None:
                name = f"{type(owner).__name__}.{name}"
            entered.add((module, name))

        tasks = list(_stress_plan(faults=faults).tasks)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for task in tasks:
                task.execute()
        finally:
            sys.setprofile(previous)
        assert built == []
        assert entered <= self.ALLOWED, entered - self.ALLOWED
        assert ("tracer", "span") in entered
