"""Replay-from-scratch enumeration: the naive reference the engine is
tested against.

:func:`repro.core.simulator.all_executions` steers one live
``ExecutionState`` through the schedule tree with snapshot/restore
branching.  :func:`all_executions_replay` instead rebuilds a fresh
state for every probed prefix and replays each choice, so it shares no
checkpoint/undo code with the engine.  Both must yield the same results
in the same order.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Optional, Union

from repro.core.execution import ExecutionState, RunResult
from repro.core.models import ModelSpec
from repro.core.protocol import Protocol
from repro.faults.spec import FaultSpec
from repro.graphs.labeled_graph import LabeledGraph


def all_executions_replay(
    graph: LabeledGraph,
    protocol: Protocol,
    model: ModelSpec,
    bit_budget: Optional[int],
    faults: Union[None, str, FaultSpec] = None,
) -> Iterator[RunResult]:
    """Replay-from-scratch DFS in ascending choice order.

    Every probed prefix rebuilds a fresh state and replays each choice,
    so each schedule-tree edge executes once per node below it.
    """
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                       faults=faults)
        for choice in prefix:
            state.advance(choice)
        if state.terminal:
            yield state.result()
        else:
            # Reversed so the natural (ascending) order is explored first.
            for c in reversed(state.candidates):
                stack.append(prefix + (c,))
