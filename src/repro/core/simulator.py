"""Round-based execution drivers for the four whiteboard models.

Semantics (Section 2 of the paper, observable form):

1. **Activation round.**  In simultaneous models every awake node becomes
   active immediately; in free models each awake node decides from the
   (empty) whiteboard.  In asynchronous models the node's single message
   is computed *now* and frozen.
2. **Write events.**  While unwritten nodes remain: the adversary picks
   one active, unwritten node; its message (frozen value in asynchronous
   models, recomputed from the current board in synchronous ones) is
   appended to the whiteboard and the node terminates.  After each write,
   awake nodes re-examine the board and may activate (free models).
3. **Deadlock.**  If unwritten nodes remain but none is active, the
   configuration is *corrupted* (the paper's failed final configuration)
   and no output is produced.

Those semantics live in one place — the
:class:`~repro.core.execution.ExecutionState` step machine — and this
module is its classic drivers:

* :func:`run` walks one schedule chosen live by a
  :class:`~repro.core.schedulers.Scheduler`;
* :func:`all_executions` enumerates *every* schedule by depth-first
  search over adversary choices (:func:`executions_below`), turning the
  paper's "for all adversaries" quantifier into a finite check on small
  graphs.  Each branch point takes a :meth:`~repro.core.execution.
  ExecutionState.snapshot`, applies one choice, recurses, and restores —
  for stateless protocols (the default) that is O(1) checkpoint/undo, so
  every edge of the schedule tree is executed exactly once; stateful
  protocol adapters are restored by replay, which is always correct;
* :func:`count_executions` sizes the schedule tree.

Guided searches that *don't* want to visit the whole tree (greedy,
beam, branch-and-bound adversaries) drive the same machine from
:mod:`repro.adversaries`.  The deliberately naive replay-from-scratch
reference the engine is pinned against lives with the tests
(``tests/replay_reference.py``).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Optional, Union

from ..faults.spec import FaultSpec
from ..graphs.labeled_graph import LabeledGraph
from .execution import ExecutionState, RunResult
from .models import ModelSpec
from .protocol import Protocol
from .schedulers import Scheduler

__all__ = ["RunResult", "run", "all_executions", "count_executions",
           "executions_below"]


def run(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    scheduler: Scheduler,
    bit_budget: Optional[int] = None,
    faults: Union[None, str, FaultSpec] = None,
) -> RunResult:
    """Execute ``protocol`` on ``graph`` under ``model`` with the given
    adversary.

    Parameters
    ----------
    bit_budget:
        Optional hard cap (in bits) on every message; exceeding it raises
        :class:`~repro.core.errors.MessageTooLarge`.  ``None`` records
        sizes without enforcing.
    faults:
        Optional fault budget (spec string or
        :class:`~repro.faults.spec.FaultSpec`); fault events then appear
        among the scheduler's candidates as negative integers.
    """
    state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                   faults=faults)
    sched = scheduler.fresh()
    while not state.terminal:
        writer = sched.choose(state.candidates, state.board,
                              state.activation_round)
        state.advance(writer)
    return state.result()


def executions_below(state: ExecutionState) -> Iterator[RunResult]:
    """Every terminal result in the schedule subtree rooted at ``state``.

    Depth-first, ascending choice order at every branch: each branch
    point takes a snapshot, applies one choice, recurses, and restores,
    so ``state`` is back where it started once the walk is exhausted.
    :func:`all_executions` walks from the initial configuration; shard
    workers walk from replayed schedule prefixes.
    """
    if state.terminal:
        yield state.result()
        return
    for choice in state.candidates:
        checkpoint = state.snapshot()
        state.advance(choice)
        yield from executions_below(state)
        state.restore(checkpoint)


def all_executions(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    bit_budget: Optional[int] = None,
    limit: Optional[int] = None,
    faults: Union[None, str, FaultSpec] = None,
) -> Iterator[RunResult]:
    """Enumerate every execution (one per distinct adversary schedule).

    Depth-first over the tree of adversary choices, ascending choice
    order at every branch.  For simultaneous models on an ``n``-node
    graph this yields exactly ``n!`` runs, so cap usage at ``n <= 7`` or
    pass ``limit``.

    One live :class:`~repro.core.execution.ExecutionState` is steered
    through the whole tree with snapshot/restore branching: stateless
    protocols (``fresh()`` returns ``self``) undo in O(1) per backtrack,
    stateful ones restore by replay.  Both produce the same results in
    the same order (pinned against a replay-from-scratch reference by
    tests).

    With a ``faults`` budget the same DFS enumerates the *joint* fault ×
    schedule space — every way the adversary can interleave crashes,
    losses, and duplications with writes — which is the exact ground
    truth the guided fault adversaries are tested against.
    """
    state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                   faults=faults)
    produced = 0
    for result in executions_below(state):
        yield result
        produced += 1
        if limit is not None and produced >= limit:
            return


def count_executions(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    faults: Union[None, str, FaultSpec] = None,
    batch: bool = False,
) -> int:
    """Number of distinct schedules (size of the adversary's choice tree).

    ``batch=True`` counts terminal configurations breadth-wise on the
    batched core without materialising a single :class:`RunResult` —
    the pure-enumeration fast path — falling back to the scalar walk
    for unsupported cells or on a captured violation.
    """
    if batch:
        from .batch import BatchAborted, batch_supported, batched_count_executions

        if batch_supported(graph, protocol, model):
            try:
                return batched_count_executions(graph, protocol, model,
                                                faults=faults)
            except BatchAborted:
                pass  # scalar rerun raises at the right point
    return sum(1 for _ in all_executions(graph, protocol, model,
                                         faults=faults))
