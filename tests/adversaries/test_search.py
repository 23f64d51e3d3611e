"""Adversary searches vs. exhaustive ground truth on small fixtures.

Acceptance contract: on every exhaustively-checkable fixture, each
search strategy's worst witness matches the exhaustive maximum (bits),
and the deadlock seeker finds a deadlock iff one exists.  Every witness
must be *sound* everywhere: its schedule replays to a terminal run with
exactly the claimed accounting.
"""

import inspect
import math
import pickle

import pytest

from repro.adversaries import (
    AdversarySearch,
    BeamSearchAdversary,
    BranchAndBoundAdversary,
    DeadlockAdversary,
    GreedyBitsAdversary,
    SearchContext,
    TranspositionTable,
    default_search_portfolio,
    worst_witness,
)
from repro.core.execution import replay_schedule
from repro.core.models import ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.core.protocol import NodeView, Protocol
from repro.core.simulator import all_executions
from repro.graphs import generators as gen
from repro.graphs.labeled_graph import LabeledGraph
from repro.protocols.bfs import BipartiteBfsAsyncProtocol, EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol


class EchoProtocol(Protocol):
    """Writes (id, #messages on the board): board-sensitive bits."""

    name = "echo"

    def message(self, view: NodeView):
        return (view.node, len(view.board))

    def output(self, board, n):
        return tuple(board)


class PickyActivation(Protocol):
    """Node v activates once v-1 nodes have written."""

    name = "picky"

    def wants_to_activate(self, view: NodeView) -> bool:
        return len(view.board) >= view.node - 1

    def message(self, view: NodeView):
        return (view.node,)

    def output(self, board, n):
        return tuple(p[0] for p in board)


def _fixture(tag, graph, protocol_factory, model):
    return pytest.param(graph, protocol_factory, model, id=tag)


#: Exhaustively-checkable fixtures (n <= 6).  The disconnected bipartite
#: instance deadlocks under ASYNC; the rest always complete.
FIXTURES = [
    _fixture("build-simasync", gen.random_k_degenerate(5, 2, seed=3),
             lambda: DegenerateBuildProtocol(2), SIMASYNC),
    _fixture("echo-simsync", gen.path_graph(4), EchoProtocol, SIMSYNC),
    _fixture("echo-sync-picky", gen.path_graph(4), PickyActivation, SYNC),
    _fixture("eob-bfs-async", gen.random_even_odd_bipartite(6, 0.5, seed=1),
             EobBfsProtocol, ASYNC),
    _fixture("bipartite-deadlock",
             LabeledGraph(5, [(1, 2), (1, 3), (2, 3), (4, 5)]),
             BipartiteBfsAsyncProtocol, ASYNC),
]

#: Strategies that are exact on every small fixture: branch-and-bound
#: sweeps the whole tree; a beam wider than any prefix level at n <= 6
#: cannot prune the optimum.
EXACT = [
    pytest.param(lambda: BranchAndBoundAdversary(), id="branch-and-bound"),
    pytest.param(lambda: BeamSearchAdversary(width=720, restarts=0),
                 id="beam-exhaustive-width"),
]

#: Heuristic strategies, exact on these fixtures (checked below) but not
#: in general.
HEURISTIC = [
    pytest.param(lambda: GreedyBitsAdversary(restarts=4), id="greedy"),
    pytest.param(lambda: BeamSearchAdversary(width=8), id="beam-8"),
]


def ground_truth(graph, protocol_factory, model):
    bits = 0
    deadlock = False
    for result in all_executions(graph, protocol_factory(), model):
        bits = max(bits, result.max_message_bits)
        deadlock |= result.corrupted
    return bits, deadlock


class TestAgainstExhaustive:
    @pytest.mark.parametrize("make_strategy", EXACT + HEURISTIC)
    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_witness_is_sound(self, graph, protocol_factory, model,
                              make_strategy):
        """Every witness replays to exactly the claimed accounting."""
        witness = make_strategy().search(graph, protocol_factory(), model)
        replayed = replay_schedule(graph, protocol_factory(), model,
                                   witness.schedule)
        assert replayed.max_message_bits == witness.bits
        assert replayed.total_bits == witness.total_bits
        assert replayed.corrupted == witness.deadlock
        exhaustive_bits, _ = ground_truth(graph, protocol_factory, model)
        assert witness.bits <= exhaustive_bits

    @pytest.mark.parametrize("make_strategy", EXACT)
    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_exact_strategies_match_exhaustive_max(
            self, graph, protocol_factory, model, make_strategy):
        exhaustive_bits, has_deadlock = ground_truth(
            graph, protocol_factory, model)
        witness = make_strategy().search(graph, protocol_factory(), model)
        if witness.deadlock:
            assert has_deadlock
        else:
            assert witness.bits == exhaustive_bits

    @pytest.mark.parametrize("make_strategy", HEURISTIC)
    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_heuristics_match_exhaustive_max_on_fixtures(
            self, graph, protocol_factory, model, make_strategy):
        exhaustive_bits, has_deadlock = ground_truth(
            graph, protocol_factory, model)
        witness = make_strategy().search(graph, protocol_factory(), model)
        if witness.deadlock:
            assert has_deadlock
        else:
            assert witness.bits == exhaustive_bits

    def test_portfolio_beats_enumeration_on_simasync_build(self):
        """On the 720-schedule n=6 SIMASYNC BUILD cell every
        bit-maximising strategy reaches the exhaustive maximum, bnb
        answers in one n-step descent, and the whole portfolio steps
        fewer configurations than enumerating the 1,956-edge schedule
        tree."""
        g = gen.random_k_degenerate(6, 2, seed=0)
        truth, _ = ground_truth(g, lambda: DegenerateBuildProtocol(2),
                                SIMASYNC)
        context = SearchContext()
        for strategy in default_search_portfolio():
            witness = strategy.search(g, DegenerateBuildProtocol(2),
                                      SIMASYNC, context=context)
            assert not witness.deadlock
            if strategy.name != "deadlock-dfs":
                assert witness.bits == truth, strategy.name
            if strategy.name == "branch-and-bound":
                assert witness.explored == g.n
        tree_edges = sum(math.perm(6, k) for k in range(1, 7))
        assert context.stats.steps < tree_edges

    def test_simasync_collapse_skips_the_table(self):
        """The SIMASYNC collapse answers before the sweep starts: the
        tree never branches, so bnb takes one n-step descent and does
        not even probe or store the root in a shared table."""
        g = gen.random_k_degenerate(6, 2, seed=0)
        truth, _ = ground_truth(g, lambda: DegenerateBuildProtocol(2),
                                SIMASYNC)
        context = SearchContext(table=TranspositionTable())
        witness = BranchAndBoundAdversary().search(
            g, DegenerateBuildProtocol(2), SIMASYNC, context=context)
        kernel = context.snapshot()
        assert witness.bits == truth and witness.explored == g.n
        assert kernel.table_probes == kernel.table_stores == 0

    @pytest.mark.parametrize("graph,protocol_factory,model", FIXTURES)
    def test_deadlock_seeker_iff_deadlock_exists(self, graph,
                                                 protocol_factory, model):
        _, has_deadlock = ground_truth(graph, protocol_factory, model)
        witness = DeadlockAdversary().search(graph, protocol_factory(), model)
        assert witness.deadlock == has_deadlock
        replayed = replay_schedule(graph, protocol_factory(), model,
                                   witness.schedule)
        assert replayed.corrupted == witness.deadlock


class TestStrategyMechanics:
    def test_portfolio_is_picklable(self):
        for strategy in default_search_portfolio():
            clone = pickle.loads(pickle.dumps(strategy))
            assert clone.name == strategy.name

    def test_portfolio_search_signatures_match_base(self):
        """Every strategy runs serially: its ``search`` takes exactly the
        keyword-only parameters of ``AdversarySearch.search`` and no
        extra knob (such as a private ``jobs=`` fan-out)."""

        def keyword_only(search):
            return [name for name, param
                    in inspect.signature(search).parameters.items()
                    if param.kind is inspect.Parameter.KEYWORD_ONLY]

        expected = keyword_only(AdversarySearch.search)
        for strategy in default_search_portfolio():
            assert keyword_only(type(strategy).search) == expected, \
                strategy.name

    def test_deterministic_per_seed(self):
        g = gen.random_even_odd_bipartite(6, 0.5, seed=1)
        for make in (lambda: GreedyBitsAdversary(restarts=3, seed=9),
                     lambda: BeamSearchAdversary(width=4, restarts=2, seed=9)):
            a = make().search(g, EobBfsProtocol(), ASYNC)
            b = make().search(g, EobBfsProtocol(), ASYNC)
            assert a == b

    def test_budgeted_bnb_is_anytime(self):
        g = gen.path_graph(6)
        witness = BranchAndBoundAdversary(max_steps=10, restarts=1).search(
            g, EchoProtocol(), SIMSYNC)
        # Truncated search still returns a sound, replayable witness.
        replayed = replay_schedule(g, EchoProtocol(), SIMSYNC,
                                   witness.schedule)
        assert replayed.max_message_bits == witness.bits

    def test_deadlock_budget_returns_completion(self):
        g = gen.random_even_odd_bipartite(6, 0.5, seed=1)
        witness = DeadlockAdversary(max_steps=5).search(
            g, EobBfsProtocol(), ASYNC)
        assert not witness.deadlock
        replay_schedule(g, EobBfsProtocol(), ASYNC, witness.schedule)

    def test_worst_witness_ranking(self):
        from repro.adversaries.base import Witness

        small = Witness("a", (1,), 5, 9, False, 1)
        big = Witness("b", (2,), 7, 9, False, 1)
        dead = Witness("c", (3,), 1, 1, True, 1)
        assert worst_witness(small, big) is big
        assert worst_witness(big, dead) is dead
        with pytest.raises(ValueError):
            worst_witness(None)

    def test_stateful_protocols_supported(self):
        from repro.hierarchy.adapters import FreezeAtActivation

        g = gen.path_graph(4)
        proto = FreezeAtActivation(EchoProtocol())
        exhaustive_bits, _ = ground_truth(
            g, lambda: FreezeAtActivation(EchoProtocol()), SYNC)
        witness = BranchAndBoundAdversary().search(g, proto, SYNC)
        assert witness.bits == exhaustive_bits
