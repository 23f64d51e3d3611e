"""The serial exact searches across models, fault and step budgets.

Branch-and-bound and the deadlock DFS carry the "for every adversary
schedule" claims above the exhaustive threshold, and both run serially.
Each case pins one of them, on a small instance per model family
(simultaneous-asynchronous, simultaneous-synchronous, free synchronous
and free asynchronous), against exhaustive enumeration of the joint
fault × schedule space:

* the unbudgeted branch-and-bound maximum is the exhaustive maximum;
* its witness replays to exactly the recorded accounting;
* bounding without a table keeps the witness and never adds work
  (``explored`` and kernel steps), and a shared table keeps the witness;
* the deadlock DFS is sound under every step budget, exact when
  unbudgeted, and deterministic run to run.
"""

from __future__ import annotations

import pytest

from repro.adversaries import (
    BranchAndBoundAdversary,
    DeadlockAdversary,
    SearchContext,
    TranspositionTable,
)
from repro.core.execution import replay_schedule
from repro.core.models import ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.core.simulator import all_executions
from repro.graphs import generators as gen
from repro.graphs.families import family
from repro.graphs.labeled_graph import LabeledGraph
from repro.protocols.bfs import BipartiteBfsAsyncProtocol, EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol

FIXTURES = [
    pytest.param(gen.random_k_degenerate(5, 2, seed=0),
                 DegenerateBuildProtocol(2), SIMASYNC, id="build-simasync"),
    pytest.param(gen.random_k_degenerate(5, 2, seed=1),
                 DegenerateBuildProtocol(2), SIMSYNC, id="build-simsync"),
    pytest.param(gen.random_connected_graph(5, 0.5, seed=3),
                 EobBfsProtocol(), SYNC, id="eob-sync"),
    # Deadlock verdicts that are positive, not vacuously negative: a
    # single crash starves the first instance; the disconnected second
    # one deadlocks without faults, a few writes deep.
    pytest.param(family("even-odd-bipartite").sample_in_class(5, 0),
                 EobBfsProtocol(), ASYNC, id="eob-async"),
    pytest.param(LabeledGraph(5, [(1, 2), (1, 3), (2, 3), (4, 5)]),
                 BipartiteBfsAsyncProtocol(), ASYNC, id="bipartite-async"),
]

FAULTS = [None, "crash:1", "crash:1,loss:1"]


def _stats_tuple(stats):
    return (stats.steps, stats.searches, stats.restarts,
            stats.batch_children, stats.batch_kept)


def _witness_fields(witness):
    return (witness.schedule, witness.bits, witness.total_bits,
            witness.deadlock)


def _search(strategy, graph, proto, model, faults, table=None):
    ctx = SearchContext(table=table)
    witness = strategy.search(graph, proto, model, context=ctx,
                              faults=faults)
    return witness, _stats_tuple(ctx.stats)


def _exhaustive_truth(graph, proto, model, faults):
    """(some schedule deadlocks, worst (deadlock, bits, total) rank)."""
    deadlock = False
    worst = (False, -1, -1)
    for run in all_executions(graph, proto, model, faults=faults):
        deadlock |= run.corrupted
        worst = max(worst, (run.corrupted, run.max_message_bits,
                            run.total_bits))
    return deadlock, worst


def _assert_replays(witness, graph, proto, model, faults):
    replayed = replay_schedule(graph, proto, model, witness.schedule,
                               faults=faults)
    assert replayed.max_message_bits == witness.bits
    assert replayed.total_bits == witness.total_bits
    assert replayed.corrupted == witness.deadlock


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", FAULTS)
class TestBranchAndBoundSerial:
    def test_matches_exhaustive_maximum(self, graph, proto, model, faults):
        _, worst = _exhaustive_truth(graph, proto, model, faults)
        witness = BranchAndBoundAdversary(restarts=0).search(
            graph, proto, model, faults=faults)
        assert (witness.deadlock, witness.bits, witness.total_bits) == worst

    def test_witness_replays_to_recorded_accounting(self, graph, proto,
                                                    model, faults):
        witness = BranchAndBoundAdversary(restarts=0).search(
            graph, proto, model, faults=faults)
        _assert_replays(witness, graph, proto, model, faults)

    def test_table_free_bounds_keep_the_witness(self, graph, proto, model,
                                                faults):
        ctx_on, ctx_off = SearchContext(), SearchContext()
        bounded = BranchAndBoundAdversary(restarts=0, bounds=True).search(
            graph, proto, model, context=ctx_on, faults=faults)
        plain = BranchAndBoundAdversary(restarts=0, bounds=False).search(
            graph, proto, model, context=ctx_off, faults=faults)
        assert _witness_fields(bounded) == _witness_fields(plain)
        assert bounded.explored <= plain.explored
        assert ctx_on.stats.steps <= ctx_off.stats.steps
        assert ctx_off.stats.bound_prunes == 0
        if model is SIMASYNC and faults == "crash:1":
            # The faulted BUILD tree branches, and its frozen messages
            # give finite bounds: pruning must actually engage.
            assert ctx_on.stats.bound_prunes > 0

    def test_shared_table_keeps_the_witness(self, graph, proto, model,
                                            faults):
        plain, _ = _search(BranchAndBoundAdversary(restarts=0),
                           graph, proto, model, faults)
        tabled, _ = _search(BranchAndBoundAdversary(restarts=0),
                            graph, proto, model, faults,
                            table=TranspositionTable())
        assert _witness_fields(tabled) == _witness_fields(plain)


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("max_steps", [None, 500, 50])
def test_deadlock_search_sound_under_step_budgets(graph, proto, model,
                                                  faults, max_steps):
    truth, _ = _exhaustive_truth(graph, proto, model, faults)
    witness, stats = _search(DeadlockAdversary(max_steps=max_steps),
                             graph, proto, model, faults)
    _assert_replays(witness, graph, proto, model, faults)
    # A found deadlock is real; within an unlimited budget the search
    # also finds one whenever one exists.
    assert witness.deadlock <= truth
    if max_steps is None:
        assert witness.deadlock == truth
    again = _search(DeadlockAdversary(max_steps=max_steps),
                    graph, proto, model, faults)
    assert again == (witness, stats)
