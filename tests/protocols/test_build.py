"""Tests for Theorem 2's BUILD protocol (forests and k-degenerate graphs)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ALL_MODELS, SIMASYNC, MinIdScheduler, RandomScheduler, run
from repro.core.simulator import all_executions
from repro.core.whiteboard import BoardView
from repro.encoding.power_sums import SubsetLookupTable, power_sums
from repro.graphs import generators as gen
from repro.graphs.degeneracy import degeneracy
from repro.graphs.labeled_graph import LabeledGraph
from repro.protocols import build
from repro.protocols.build import (
    NOT_IN_CLASS,
    DegenerateBuildProtocol,
    ForestBuildProtocol,
    decode_build_board,
)


class TestForestProtocol:
    def test_reconstructs_trees(self):
        for seed in range(5):
            t = gen.random_tree(12, seed=seed)
            r = run(t, ForestBuildProtocol(), SIMASYNC, RandomScheduler(seed))
            assert r.success and r.output == t

    def test_reconstructs_forests(self):
        f = gen.random_forest(14, 4, seed=2)
        r = run(f, ForestBuildProtocol(), SIMASYNC, MinIdScheduler())
        assert r.output == f

    def test_edgeless(self):
        g = LabeledGraph(5)
        r = run(g, ForestBuildProtocol(), SIMASYNC, MinIdScheduler())
        assert r.output == g

    def test_single_node(self):
        g = LabeledGraph(1)
        r = run(g, ForestBuildProtocol(), SIMASYNC, MinIdScheduler())
        assert r.output == g

    def test_message_format_matches_paper(self):
        """Section 3.1: the triple (ID, degree, sum of neighbour IDs)."""
        t = gen.star_graph(4)
        r = run(t, ForestBuildProtocol(), SIMASYNC, MinIdScheduler())
        payloads = {p[0]: p for p in r.board.view()}
        assert payloads[1] == (1, 3, 2 + 3 + 4)
        assert payloads[3] == (3, 1, 1)

    def test_rejects_cycles(self):
        r = run(gen.cycle_graph(6), ForestBuildProtocol(), SIMASYNC, MinIdScheduler())
        assert r.output == NOT_IN_CLASS

    def test_rejects_dense_graphs(self):
        r = run(gen.complete_graph(5), ForestBuildProtocol(), SIMASYNC, MinIdScheduler())
        assert r.output == NOT_IN_CLASS


class TestDegenerateProtocol:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reconstructs_k_degenerate(self, k):
        for seed in range(3):
            g = gen.random_k_degenerate(13, k, seed=seed)
            r = run(g, DegenerateBuildProtocol(k), SIMASYNC, RandomScheduler(seed))
            assert r.output == g

    def test_structured_families(self):
        cases = [
            (gen.grid_graph(3, 4), 2),
            (gen.petersen_graph(), 3),
            (gen.cycle_graph(9), 2),
            (gen.complete_bipartite(2, 6), 2),
        ]
        for g, k in cases:
            assert degeneracy(g) <= k
            r = run(g, DegenerateBuildProtocol(k), SIMASYNC, MinIdScheduler())
            assert r.output == g

    def test_works_in_all_models(self):
        g = gen.random_k_degenerate(9, 2, seed=1)
        p = DegenerateBuildProtocol(2)
        for model in ALL_MODELS:
            r = run(g, p, model, RandomScheduler(4))
            assert r.success and r.output == g, model

    def test_schedule_independent_exhaustively(self):
        g = gen.random_k_degenerate(4, 2, seed=5)
        outputs = {r.output for r in all_executions(g, DegenerateBuildProtocol(2), SIMASYNC)}
        assert outputs == {g}

    def test_recognition_rejects_outside_class(self):
        """The robustness remark after Theorem 2: K5 has degeneracy 4."""
        r = run(gen.complete_graph(5), DegenerateBuildProtocol(2), SIMASYNC,
                MinIdScheduler())
        assert r.output == NOT_IN_CLASS

    def test_k_zero_only_edgeless(self):
        r = run(LabeledGraph(4), DegenerateBuildProtocol(0), SIMASYNC, MinIdScheduler())
        assert r.output == LabeledGraph(4)
        r = run(gen.path_graph(3), DegenerateBuildProtocol(0), SIMASYNC, MinIdScheduler())
        assert r.output == NOT_IN_CLASS

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            DegenerateBuildProtocol(-1)
        with pytest.raises(ValueError):
            DegenerateBuildProtocol(2, decoder="magic")

    def test_lookup_decoder_agrees(self):
        g = gen.random_k_degenerate(8, 2, seed=7)
        newton = run(g, DegenerateBuildProtocol(2, decoder="newton"), SIMASYNC,
                     MinIdScheduler())
        lookup = run(g, DegenerateBuildProtocol(2, decoder="lookup"), SIMASYNC,
                     MinIdScheduler())
        assert newton.output == lookup.output == g

    def test_message_size_lemma1(self):
        """Lemma 1: messages are O(k^2 log n) bits — check the concrete
        bound (k(k+1) + 2) log2(n+1) plus codec overhead."""
        for k in (1, 2, 3):
            for n in (16, 64, 256):
                g = gen.random_k_degenerate(n, k, seed=n)
                r = run(g, DegenerateBuildProtocol(k), SIMASYNC, MinIdScheduler())
                # each of k+2 fields costs <= 2*(k+1)*log2(n+1)+3 bits in
                # the gamma codec; allow the structural constant.
                bound = (k + 2) * (2 * (k + 1) * math.log2(n + 1) + 5) + 10
                assert r.max_message_bits <= bound


class TestDecoderRobustness:
    """Adversarially malformed boards must be rejected, never mis-decoded."""

    def _board(self, payloads):
        from repro.core.whiteboard import BoardView

        return BoardView(tuple(payloads))

    def test_wrong_arity(self):
        board = self._board([(1, 0), (2, 0)])
        assert decode_build_board(board, 2, 1) == NOT_IN_CLASS

    def test_duplicate_author(self):
        board = self._board([(1, 0, 0), (1, 0, 0)])
        assert decode_build_board(board, 2, 1) == NOT_IN_CLASS

    def test_missing_author(self):
        board = self._board([(1, 0, 0)])
        assert decode_build_board(board, 2, 1) == NOT_IN_CLASS

    def test_out_of_range_id(self):
        board = self._board([(1, 0, 0), (5, 0, 0)])
        assert decode_build_board(board, 2, 1) == NOT_IN_CLASS

    def test_negative_degree(self):
        board = self._board([(1, -1, 0), (2, 0, 0)])
        assert decode_build_board(board, 2, 1) == NOT_IN_CLASS

    def test_phantom_neighbor(self):
        # node 1 claims neighbour 2, but node 2 claims degree 0
        board = self._board([(1, 1, 2), (2, 0, 0)])
        assert decode_build_board(board, 2, 1) == NOT_IN_CLASS

    def test_non_integer_fields(self):
        board = self._board([(1, 0, "x"), (2, 0, 0)])
        assert decode_build_board(board, 2, 1) == NOT_IN_CLASS


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=14),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_build_roundtrip_property(n, k, seed):
    g = gen.random_k_degenerate(n, k, seed=seed)
    r = run(g, DegenerateBuildProtocol(k), SIMASYNC, RandomScheduler(seed))
    assert r.output == g


def build_board(g, k):
    """The SIMASYNC BUILD messages of ``g``, in ID order."""
    return [(v, len(g.neighbors(v))) + power_sums(sorted(g.neighbors(v)), k)
            for v in g.nodes()]


def same_output(a, b):
    return type(a) is type(b) and a == b


class TestDecodeCache:
    """``decode_build_board`` caches its last decode on the order-free,
    type-exact multiset of the board; the uncached body is ``_decode``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10 ** 6),
        st.randoms(use_true_random=False),
        st.sampled_from(["drop", "dup", "float", "bool", "str"]),
    )
    def test_cached_equals_uncached(self, n, k, seed, rnd, variant):
        g = gen.random_k_degenerate(n, k, seed=seed)
        payloads = build_board(g, k)
        boards = []
        for _ in range(3):
            rnd.shuffle(payloads)
            boards.append(list(payloads))
        twin = list(boards[-1])
        i = rnd.randrange(n)
        if variant == "drop":
            del twin[i]
        elif variant == "dup":
            twin.insert(rnd.randrange(n + 1), twin[i])
        else:
            # A lookalike: one field swapped for a non-int that may
            # compare equal to it, e.g. (1.0, 0, 0) == (1, 0, 0).
            f = rnd.randrange(k + 2)
            swap = {"float": float(twin[i][f]), "bool": twin[i][f] == 1,
                    "str": "x"}[variant]
            twin[i] = twin[i][:f] + (swap,) + twin[i][f + 1:]
        # Each variant right after its valid twin, then the twin again:
        # a key that confused the two would serve the wrong decode.
        for payloads in boards + [twin, boards[-1], twin]:
            board = BoardView(tuple(payloads))
            expected = build._decode(board, n, k, None)
            assert same_output(decode_build_board(board, n, k), expected)
        assert same_output(build._decode(BoardView(tuple(boards[0])), n, k,
                                         None), g)

    def test_permuted_board_is_a_hit(self, monkeypatch):
        g = gen.random_k_degenerate(7, 2, seed=3)
        payloads = build_board(g, 2)
        first = decode_build_board(BoardView(tuple(payloads)), 7, 2)
        calls = []
        monkeypatch.setattr(build, "_decode",
                            lambda *args: calls.append(args))
        again = decode_build_board(BoardView(tuple(reversed(payloads))), 7, 2)
        assert again is first and first == g and calls == []

    @pytest.mark.parametrize("swap", [1.0, True])
    def test_equal_lookalike_is_not_served_the_twin(self, swap):
        valid = BoardView(((1, 0, 0), (2, 0, 0)))
        assert decode_build_board(valid, 2, 1) == LabeledGraph(2)
        lookalike = BoardView(((swap, 0, 0), (2, 0, 0)))
        assert lookalike.payloads == valid.payloads
        assert same_output(decode_build_board(lookalike, 2, 1),
                           build._decode(lookalike, 2, 1, None))
        assert build._last_decode[0] == (2, 1, valid.payloads)

    def test_lookup_decoder_never_reads_or_writes_the_cache(self, monkeypatch):
        g = gen.random_k_degenerate(6, 2, seed=4)
        board = BoardView(tuple(build_board(g, 2)))
        key = (6, 2, tuple(sorted(board.payloads)))
        poisoned = (key, "poisoned")
        monkeypatch.setattr(build, "_last_decode", poisoned)
        assert decode_build_board(board, 6, 2) == "poisoned"  # the cache is live
        lookup = SubsetLookupTable(6, 2)
        assert decode_build_board(board, 6, 2, lookup=lookup) == g
        assert DegenerateBuildProtocol(2, decoder="lookup").output(board, 6) == g
        assert build._last_decode is poisoned

    def test_exceptions_are_not_cached(self, monkeypatch):
        board = BoardView(tuple(build_board(gen.path_graph(3), 1)))

        def boom(*args):
            raise RuntimeError("decode failed")

        monkeypatch.setattr(build, "decode_power_sums", boom)
        monkeypatch.setattr(build, "_last_decode", (None, None))
        with pytest.raises(RuntimeError):
            decode_build_board(board, 3, 1)
        assert build._last_decode == (None, None)
        monkeypatch.undo()
        assert decode_build_board(board, 3, 1) == gen.path_graph(3)
