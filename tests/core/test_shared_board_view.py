"""One board snapshot per activation pass, and the BFS parse cache.

Every node awake in one activation pass reads the same whiteboard
snapshot.  The scalar engine hands all of them the same
:class:`~repro.core.whiteboard.BoardView`, and
:func:`~repro.protocols.bfs.parse_board` caches its last result on the
identity of ``board.payloads``.  These tests pin

* that every ``wants_to_activate`` / ``message`` call within one pass
  sees the same ``board.payloads`` object;
* the cache contract: the same tuple returns the cached state, an
  equal-content distinct tuple a freshly parsed, equal one;
* that the BFS-family protocols still agree with the independent
  reference replay on random schedules.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.core.execution import ExecutionState
from repro.core.models import ASYNC, SYNC
from repro.core.protocol import NodeView, Protocol
from repro.core.reference import replay, validate_run
from repro.core.schedulers import RandomScheduler
from repro.core.simulator import run
from repro.core.whiteboard import BoardView
from repro.graphs import generators as gen
from repro.protocols.bfs import (BipartiteBfsAsyncProtocol, EobBfsProtocol,
                                 parse_board)
from repro.protocols.connectivity import ConnectivityProtocol


class RecordingProtocol(Protocol):
    """Activates nodes a few at a time and records the board object
    every call saw, keyed by the board length (one pass per length)."""

    designed_for = "ASYNC"
    name = "recording"

    def __init__(self) -> None:
        self.seen: dict[int, list[tuple[str, tuple]]] = {}

    def _see(self, kind: str, view: NodeView) -> None:
        self.seen.setdefault(len(view.board), []).append(
            (kind, view.board.payloads))

    def wants_to_activate(self, view: NodeView) -> bool:
        self._see("wants", view)
        return view.node <= 2 * (len(view.board) + 1)

    def message(self, view: NodeView):
        self._see("message", view)
        return (view.node, len(view.board))

    def output(self, board: BoardView, n: int):
        return tuple(board)


def test_one_pass_shares_one_board_snapshot():
    proto = RecordingProtocol()
    state = ExecutionState.initial(gen.random_graph(8, 0.4, seed=2),
                                   proto, ASYNC)
    while not state.terminal:
        state.advance(state.candidates[0])
    assert state.done
    kinds = set()
    shared = 0
    for calls in proto.seen.values():
        first = calls[0][1]
        assert all(payloads is first for _, payloads in calls)
        kinds.update(kind for kind, _ in calls)
        shared = max(shared, len(calls))
    # Non-vacuous: several calls of both kinds shared one snapshot.
    assert kinds == {"wants", "message"}
    assert shared > 2


def _bfs_board() -> BoardView:
    g = gen.random_even_odd_bipartite(7, 0.5, seed=4)
    result = run(g, EobBfsProtocol(), ASYNC, RandomScheduler(0))
    assert result.success and len(result.board) == 7
    return result.board.view()


def test_parse_board_caches_the_same_tuple():
    board = _bfs_board()
    state = parse_board(board)
    assert parse_board(BoardView(board.payloads)) is state
    # Shared between readers, so immutable.
    with pytest.raises(FrozenInstanceError):
        state.invalid_seen = True
    assert isinstance(state.written, frozenset)
    assert all(isinstance(e.records, tuple) for e in state.epochs)


def test_parse_board_reparses_an_equal_distinct_tuple():
    board = _bfs_board()
    state = parse_board(board)
    copy = tuple(list(board.payloads))
    assert copy is not board.payloads
    fresh = parse_board(BoardView(copy))
    assert fresh is not state
    assert fresh == state


PROTOCOL_CELLS = [
    pytest.param(EobBfsProtocol(), ASYNC,
                 lambda s: gen.random_even_odd_bipartite(7, 0.5, seed=s),
                 id="eob-bfs"),
    pytest.param(EobBfsProtocol(), ASYNC,
                 lambda s: gen.random_connected_graph(6, 0.5, seed=s),
                 id="eob-bfs-not-eob"),
    pytest.param(BipartiteBfsAsyncProtocol(), ASYNC,
                 lambda s: gen.random_even_odd_bipartite(7, 0.5, seed=s),
                 id="bfs-bipartite-async"),
    pytest.param(ConnectivityProtocol(), SYNC,
                 lambda s: gen.random_graph(7, 0.3, seed=s),
                 id="connectivity"),
]


@pytest.mark.parametrize("proto,model,make_graph", PROTOCOL_CELLS)
@pytest.mark.parametrize("seed", range(6))
def test_scalar_runs_match_reference_replay(proto, model, make_graph, seed):
    graph = make_graph(seed)
    result = run(graph, proto, model, RandomScheduler(seed))
    assert validate_run(graph, proto, model, result) == []
    final = replay(graph, proto, model, result.write_order)[-1]
    if result.success:
        assert result.output == proto.output(BoardView(final.board),
                                             graph.n)
