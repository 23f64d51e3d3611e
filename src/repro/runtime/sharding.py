"""Intra-cell sharding: fan one heavy exhaustive task across workers.

The process backend's unit of distribution used to be the whole
:class:`~repro.runtime.plan.ExecutionTask` — fine for wide sweeps, but a
single heavy cell (one n! enumeration) still ran on one core.  This
module lowers such a cell into *sub-tasks*: a bounded parent expansion
(:func:`repro.core.batch.expand_enumeration_units`) splits the schedule
tree at a uniform prefix depth, LPT-weighted lots of subtree prefixes
ship to workers as picklable :class:`~repro.core.batch.ScheduleLot`
replays, and the parent reassembles per-prefix partial aggregates in
exact DFS unit order, so the merged :class:`TaskOutcome` is
field-identical to ``task.execute()``.

Sharding is a backend concern, like chunking: it adds no task attribute,
so campaign fingerprints cannot see it (a sharded cell is the same work)
and any failure — expansion error, worker error, merge surprise — falls
back to executing the task in the parent, the serial authority, which
raises or aggregates at exactly the right point.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Any, Optional

from ..telemetry import tracer as _trace
from .results import TaskOutcome

__all__ = ["SHARD_MIN_N", "shardable", "lower", "reassemble"]

#: Smallest instance worth splitting: below this the schedule tree is
#: cheaper to enumerate than to expand, partition, pickle and merge.
SHARD_MIN_N = 6


def shardable(task) -> bool:
    """Whether a task's cell can be split into schedule-prefix lots.

    Only full exhaustive enumerations qualify: ``exhaustive_limit``
    truncates mid-stream (a global count no lot can see), and search /
    scheduler cells run their strategies serially inside one worker.
    """
    return (task.mode == "exhaustive"
            and task.exhaustive_limit is None
            and task.graph.n >= SHARD_MIN_N)


def lower(tasks: Sequence[Any], jobs: int):
    """Lower tasks into a mixed work-item list plus a reassembly layout.

    Items are ``("task", task)`` (execute whole, unchanged) or
    ``("shard", (task, prefixes))`` (one lot of one cell).  The layout
    holds one entry per task: ``("task",)`` or ``("shard", units,
    lot_count)`` with the parent-side DFS unit list the merge walks.
    """
    from ..core import batch as _batch

    items: list = []
    layout: list = []
    for task in tasks:
        units = None
        if shardable(task) and _batch.np is not None:
            try:
                units = _batch.expand_enumeration_units(
                    task.graph, task.protocol, task.model, task.bit_budget,
                    task.faults, min_prefixes=2 * jobs)
            except Exception:  # noqa: BLE001 - serial path raises it right
                units = None
        prefixes = ([payload for kind, payload in units if kind == "prefix"]
                    if units is not None else [])
        if len(prefixes) < 2:
            items.append(("task", task))
            layout.append(("task",))
            continue
        weights = _batch._prefix_weights(prefixes, task.graph.n, task.faults)
        partition = _batch.partition_weighted(weights, jobs * 2)
        lots = [
            tuple(prefixes[i] for i in idx.tolist())
            for idx in partition
        ]
        if _trace.active() is not None:
            lot_weights = [float(sum(weights[i] for i in idx.tolist()))
                           for idx in partition]
            mean = sum(lot_weights) / len(lot_weights)
            _trace.event(
                "shard.lots",
                index=task.index,
                lots=len(lots),
                prefixes=len(prefixes),
                max_weight=max(lot_weights),
                imbalance=(max(lot_weights) / mean) if mean else 0.0,
            )
        for lot in lots:
            items.append(("shard", (task, lot)))
        layout.append(("shard", units, len(lots)))
    return items, layout


def reassemble(tasks: Sequence[Any], layout: Sequence[Any],
               outputs) -> Iterator[TaskOutcome]:
    """Fold submission-ordered item outputs back into task outcomes.

    Items were laid out task-major, so each task's outputs arrive
    contiguously; sharded tasks merge their per-prefix partials in DFS
    unit order, and any lot error or merge failure re-runs the task
    serially in this process — the authority on results *and* on where
    exceptions surface.
    """
    it = iter(outputs)
    for task, entry in zip(tasks, layout):
        if entry[0] == "task":
            yield next(it)
            continue
        _, units, lot_count = entry
        partials: dict = {}
        failed = False
        for _ in range(lot_count):
            status, value = next(it)
            if status != "ok":
                failed = True
            elif not failed:
                partials.update(value)
        if failed:
            _trace.count("shard.fallbacks")
            _trace.event("shard.fallback", index=task.index,
                         reason="lot-error")
            yield task.execute()
            continue
        try:
            with _trace.span("shard.reassemble", index=task.index,
                             lots=lot_count):
                outcome = task._merge_shards(units, partials)
        except Exception:  # noqa: BLE001 - serial authority decides
            _trace.count("shard.fallbacks")
            _trace.event("shard.fallback", index=task.index,
                         reason="merge-error")
            outcome = task.execute()
        yield outcome
