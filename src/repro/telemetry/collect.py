"""Per-task observation scope: the ``ExecutionTask.execute`` seam.

A :class:`TaskCollection` is the one object a task opens around its
cell.  It always keeps the cell's ``SearchContext`` and, on the way
out, takes its deterministic kernel snapshot
(``SearchContext.snapshot``: search counters plus the counters of the
context's table, once bound); and — only when
:func:`~repro.telemetry.tracer.tracing_enabled` — it hosts a per-task
:class:`~repro.telemetry.tracer.Tracer` whose frozen payload rides home
in ``TaskOutcome.telemetry``.  Workers never write shared files: the
collection's output is plain picklable data on the outcome, folded by
the parent exactly like reports.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from .tracer import Tracer, _pop_active, _push_active, tracing_enabled

__all__ = ["TaskCollection"]


class TaskCollection:
    """Observation scope for one task execution (context manager)."""

    def __init__(self, task: Any) -> None:
        self.task = task
        self.tracer: Optional[Tracer] = (
            Tracer() if tracing_enabled() else None
        )
        self._context: Any = None
        self._prev_active = None
        self._span = None

    def __enter__(self) -> "TaskCollection":
        if self.tracer is not None:
            self._prev_active = _push_active(self.tracer)
            task = self.task
            self._span = self.tracer.span(
                "task",
                index=task.index,
                mode=task.mode,
                protocol=task.protocol.name,
                model=task.model_name,
                n=task.graph.n,
                faults=task.faults,
            )
            self._span.__enter__()
        return self

    def __exit__(self, *exc_info) -> bool:
        if self._span is not None:
            self._span.__exit__(*exc_info)
        if self.tracer is not None:
            _pop_active(self._prev_active)
        return False

    def observe_context(self, context) -> None:
        """Keep the cell's ``SearchContext``, whose snapshot
        :meth:`finalize` attaches (observation-only: nothing is read
        back into the search)."""
        self._context = context

    def finalize(self, outcome):
        """Attach the captured snapshot/payload to ``outcome``.

        Returns the *identical* object when nothing was observed, so
        cells that never touch the search kernel produce outcomes
        byte-equal to their pre-telemetry selves.
        """
        context = self._context
        kernel = context.snapshot() if context is not None else None
        telemetry = self.tracer.finish() if self.tracer is not None else None
        if kernel is None and telemetry is None:
            return outcome
        return replace(outcome, kernel_stats=kernel, telemetry=telemetry)
