"""Tests for the graph-sketching connectivity protocols (AGM extension)."""

import pytest

from repro.core import SIMASYNC, MinIdScheduler, RandomScheduler, run
from repro.core.simulator import all_executions
from repro.encoding import l0_sampling
from repro.graphs import generators as gen
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.properties import connected_components, is_connected
from repro.protocols.sketching import (
    SketchConnectivityProtocol,
    SketchEngine,
    SketchSpanningForestProtocol,
    SketchSpec,
    edge_slot,
    slot_edge,
)


class TestEdgeSlots:
    def test_bijection(self):
        n = 9
        seen = set()
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                slot = edge_slot(u, v, n)
                assert 1 <= slot <= n * (n - 1) // 2
                assert slot not in seen
                seen.add(slot)
                assert slot_edge(slot, n) == (u, v)
        assert len(seen) == n * (n - 1) // 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            edge_slot(3, 3, 5)
        with pytest.raises(ValueError):
            edge_slot(0, 2, 5)
        with pytest.raises(ValueError):
            slot_edge(0, 5)
        with pytest.raises(ValueError):
            slot_edge(99, 5)


class TestBoundaryCancellation:
    def test_component_sum_is_boundary(self):
        """The AGM identity: summing member sketches leaves exactly the
        boundary edges (interior ones cancel)."""
        from repro.core.protocol import NodeView
        from repro.core.whiteboard import BoardView

        g = LabeledGraph(6, [(1, 2), (2, 3), (1, 3), (3, 4), (5, 6)])
        spec = SketchSpec(6, shared_seed=11)
        empty = BoardView(())
        part = {1, 2, 3}
        combined = None
        for v in part:
            s = spec.node_sketches(NodeView(v, g.neighbors(v), 6, empty))[0]
            combined = s if combined is None else combined.combine(s)
        got = combined.sample()
        assert got is not None
        slot, weight = got
        assert slot_edge(slot, 6) == (3, 4)  # the unique boundary edge
        assert weight == 1  # 3 is the smaller endpoint

    def test_whole_component_sums_to_zero(self):
        from repro.core.protocol import NodeView
        from repro.core.whiteboard import BoardView

        g = gen.complete_graph(5)
        spec = SketchSpec(5, shared_seed=4)
        empty = BoardView(())
        combined = None
        for v in g.nodes():
            s = spec.node_sketches(NodeView(v, g.neighbors(v), 5, empty))[0]
            combined = s if combined is None else combined.combine(s)
        assert combined.is_zero


class TestPublicCoinCaching:
    def test_each_coin_is_hashed_once(self, monkeypatch):
        """A cold pass of message construction hashes each public coin
        at most once, and a warm pass over the same graph hashes none:
        per-update rehashing shows up as a repeated coin."""
        hash64 = l0_sampling._hash64
        coins = []

        def counting(seed, *key):
            coins.append((seed, *key))
            return hash64(seed, *key)

        monkeypatch.setattr(l0_sampling, "_hash64", counting)
        g = gen.random_connected_graph(96, 0.08, seed=96)
        engine = SketchEngine(SketchSpec(96, 42))

        def node_states():
            return [engine.node_states(v, g.neighbors(v)) for v in g.nodes()]

        cold = node_states()
        assert coins and len(coins) == len(set(coins))
        coins.clear()
        assert node_states() == cold
        assert coins == []


class TestConnectivityProtocol:
    def test_random_graphs(self):
        for seed in range(15):
            g = gen.random_graph(11, 0.25, seed=seed)
            want = 1 if is_connected(g) else 0
            p = SketchConnectivityProtocol(shared_seed=seed * 13 + 1)
            r = run(g, p, SIMASYNC, RandomScheduler(seed))
            assert r.success and r.output == want, seed

    def test_structured_instances(self):
        cases = [
            (gen.complete_graph(8), 1),
            (gen.path_graph(10), 1),
            (gen.two_cliques(4), 0),
            (LabeledGraph(6), 0),
            (LabeledGraph(1), 1),
        ]
        for g, want in cases:
            p = SketchConnectivityProtocol(shared_seed=7)
            assert run(g, p, SIMASYNC, MinIdScheduler()).output == want

    def test_schedule_independent(self):
        g = gen.random_graph(5, 0.5, seed=2)
        p = SketchConnectivityProtocol(shared_seed=3)
        outputs = {r.output for r in all_executions(g, p, SIMASYNC, limit=30)}
        assert len(outputs) == 1

    def test_polylog_messages(self):
        """Message size grows polylogarithmically: doubling n several
        times must not scale bits linearly."""
        bits = {}
        for n in (8, 16, 32):
            g = gen.random_connected_graph(n, 0.2, seed=n)
            p = SketchConnectivityProtocol(shared_seed=1)
            bits[n] = run(g, p, SIMASYNC, MinIdScheduler()).max_message_bits
        assert bits[32] < 4 * bits[8]  # linear would be ~4x on its own; the
        # polylog factors grow too, so allow that much but no more


class TestSpanningForestProtocol:
    def test_forest_connects_components_exactly(self):
        for seed in range(12):
            g = gen.random_graph(12, 0.25, seed=seed)
            p = SketchSpanningForestProtocol(shared_seed=seed * 7 + 1)
            r = run(g, p, SIMASYNC, RandomScheduler(seed))
            forest = LabeledGraph(g.n, r.output)
            assert connected_components(forest) == connected_components(g), seed
            assert forest.m == g.n - len(connected_components(g))

    def test_forest_edges_are_graph_edges(self):
        g = gen.random_connected_graph(10, 0.3, seed=4)
        p = SketchSpanningForestProtocol(shared_seed=5)
        r = run(g, p, SIMASYNC, MinIdScheduler())
        for u, v in r.output:
            assert g.has_edge(u, v)

    def test_tree_input(self):
        t = gen.random_tree(9, seed=6)
        p = SketchSpanningForestProtocol(shared_seed=2)
        r = run(t, p, SIMASYNC, MinIdScheduler())
        assert r.output == t.edge_set()

    def test_incomplete_board_rejected(self):
        from repro.core.whiteboard import BoardView

        p = SketchSpanningForestProtocol(shared_seed=1)
        with pytest.raises(ValueError):
            p.output(BoardView(()), 3)


class TestSlotEdgeBoundaries:
    def test_first_slot(self):
        for n in (2, 3, 9, 96):
            assert slot_edge(1, n) == (1, 2)

    def test_last_slot(self):
        for n in (2, 3, 9, 96):
            assert slot_edge(n * (n - 1) // 2, n) == (n - 1, n)

    def test_one_past_the_end_rejected_upfront(self):
        for n in (2, 5, 96):
            with pytest.raises(ValueError, match="out of range"):
                slot_edge(n * (n - 1) // 2 + 1, n)

    def test_zero_and_negative_rejected(self):
        with pytest.raises(ValueError, match="start at 1"):
            slot_edge(0, 5)
        with pytest.raises(ValueError, match="start at 1"):
            slot_edge(-3, 5)

    def test_degenerate_n(self):
        """n < 2 admits no edges at all."""
        for n in (0, 1):
            with pytest.raises(ValueError):
                slot_edge(1, n)

    def test_closed_form_matches_bijection_large_n(self):
        n = 150  # far past where the old O(n) walk was the bottleneck
        for slot in (1, 2, n - 1, n, 5000, n * (n - 1) // 2):
            u, v = slot_edge(slot, n)
            assert edge_slot(u, v, n) == slot
