"""Equivalence tests for the batched structure-of-arrays core.

The scalar :class:`~repro.core.execution.ExecutionState` is the only
semantic authority; :mod:`repro.core.batch` is an equivalence-pinned
accelerator.  Every test here therefore compares the batched engine
against the scalar engine *field for field* — full ``RunResult``
dataclass equality (board entries, activation rounds, bit accounting,
crashes, decode errors) for every terminal lane, the exact set of
schedules, per-lane violations, and dedupe keys that partition lanes
exactly like scalar configuration digests — across all four timing
models and the fault spectrum.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.core.batch import (
    BatchedExecutionState,
    _BatchCell,
    batch_supported,
    partition_lots,
)
from repro.core.execution import ExecutionState, replay_schedule
from repro.core.models import ALL_MODELS, ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.core.simulator import all_executions, count_executions
from repro.faults.spec import resolve_faults
from repro.graphs import generators as gen
from repro.protocols.bfs import EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol

if not batch_supported(gen.cycle_graph(3), DegenerateBuildProtocol(2),
                       SIMASYNC):
    pytest.skip("batched core unsupported (numpy < 2.0)",
                allow_module_level=True)


FIXTURES = [
    pytest.param(gen.random_k_degenerate(5, 2, seed=0),
                 DegenerateBuildProtocol(2), SIMASYNC, id="build-simasync"),
    pytest.param(gen.random_k_degenerate(5, 2, seed=1),
                 DegenerateBuildProtocol(2), SIMSYNC, id="build-simsync"),
    pytest.param(gen.path_graph(5), EobBfsProtocol(), ASYNC,
                 id="eob-async"),
    pytest.param(gen.random_connected_graph(5, 0.5, seed=3),
                 EobBfsProtocol(), SYNC, id="eob-sync"),
]

FAULTS = [None, "crash:1", "crash:1,loss:1", "dup:1"]


def _batched_walk(graph, proto, model, bit_budget=None, faults=None):
    """Step the batched frontier generation by generation to the end of
    the schedule tree.  Returns ``(terminals, dead)``: the ``(batch,
    lane)`` pairs of every terminal lane and of every lane killed by a
    captured violation (dead lanes are not expanded further)."""
    cell = _BatchCell(graph, proto, model, bit_budget, resolve_faults(faults))
    frontier = BatchedExecutionState.root(cell)
    terminals, dead = [], []
    while frontier.size:
        dead += [(frontier, lane) for lane in sorted(frontier.violations)]
        live = ~frontier.dead
        terminal = frontier.terminal_mask() & live
        terminals += [(frontier, lane)
                      for lane in np.nonzero(terminal)[0].tolist()]
        rest = np.nonzero(live & ~terminal)[0]
        if rest.size == 0:
            break
        frontier = frontier.compact(rest)
        lanes, choices = frontier.expansion()
        frontier = frontier.fork(lanes, choices)
    return terminals, dead


def _raised(fn):
    """``(type, message)`` of what ``fn()`` raises."""
    with pytest.raises(Exception) as excinfo:
        fn()
    return type(excinfo.value), str(excinfo.value)


def _assert_lanes_match_replay(graph, proto, model, terminals, dead,
                               bit_budget=None, faults=None):
    """Every terminal lane's result equals the scalar replay of its
    schedule, and every dead lane carries exactly the exception that
    replay raises.  Returns the terminal results keyed by schedule."""
    def replay(schedule):
        return replay_schedule(graph, proto, model, schedule, bit_budget,
                               faults=faults)

    for batch, lane in dead:
        exc = batch.violations[lane]
        schedule = batch.schedule_of(lane)
        assert _raised(lambda: replay(schedule)) == (type(exc), str(exc))
    results = {}
    for batch, lane in terminals:
        schedule = batch.schedule_of(lane)
        result = batch.result_of(lane)
        assert result == replay(schedule)  # full dataclass equality
        results[schedule] = result
    assert len(results) == len(terminals)  # no schedule walked twice
    return results


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", FAULTS)
def test_all_executions_field_identical(graph, proto, model, faults):
    """The batched walk reaches exactly the scalar enumeration's
    schedules, and each terminal lane decodes to the scalar result."""
    scalar = list(all_executions(graph, proto, model, faults=faults))
    terminals, dead = _batched_walk(graph, proto, model, faults=faults)
    assert not dead
    results = _assert_lanes_match_replay(graph, proto, model, terminals,
                                         dead, faults=faults)
    assert results == {r.schedule: r for r in scalar}


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", [None, "crash:1"])
def test_count_executions_identical(graph, proto, model, faults):
    assert (count_executions(graph, proto, model, faults=faults, batch=True)
            == count_executions(graph, proto, model, faults=faults))


def _partition(keys) -> list:
    """Lane indices grouped by equal key, in first-seen order."""
    groups: dict = {}
    for lane, key in enumerate(keys):
        groups.setdefault(key, []).append(lane)
    return list(groups.values())


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", [None, "crash:1"])
def test_dedupe_keys_partition_like_config_keys(graph, proto, model, faults):
    """Two lanes share a batched dedupe key iff their scalar
    ``config_key()`` digests are equal, along every generation of a
    breadth-first walk (the beam's dedupe currency); the per-batch key
    builder agrees with the per-lane method."""
    spec = resolve_faults(faults)
    cell = _BatchCell(graph, proto, model, None, spec)
    batch = BatchedExecutionState.root(cell, track_bp=True)
    scalars = [ExecutionState.initial(graph, proto, model, faults=spec)]
    for _ in range(4):
        keys = [batch.dedupe_key_of(lane) for lane in range(batch.size)]
        build = batch._dedupe_key_builder()
        assert [build(lane) for lane in range(batch.size)] == keys
        assert _partition(keys) == _partition(
            s.config_key() for s in scalars)
        lanes, choices = batch.expansion()
        if lanes.size == 0:
            break
        batch = batch.fork(lanes, choices)
        scalars = [scalars[p].copy().advance(c)
                   for p, c in zip(lanes.tolist(), choices.tolist())]


def test_bit_budget_violation_matches_scalar():
    """A tight budget kills lanes with the scalar engine's exception,
    and the violation the scalar enumeration raises first is one of
    them."""
    g = gen.random_k_degenerate(5, 2, seed=0)
    proto = DegenerateBuildProtocol(2)
    terminals, dead = _batched_walk(g, proto, SIMASYNC, bit_budget=8)
    assert dead
    _assert_lanes_match_replay(g, proto, SIMASYNC, terminals, dead,
                               bit_budget=8)
    scalar = _raised(lambda: list(all_executions(g, proto, SIMASYNC,
                                                 bit_budget=8)))
    assert scalar in {(type(b.violations[lane]), str(b.violations[lane]))
                      for b, lane in dead}


class _UndecodableBuild(DegenerateBuildProtocol):
    """BUILD whose decoder always raises."""

    def output(self, board, n):
        raise ValueError("undecodable board")


@pytest.mark.parametrize("faults", [None, "crash:1"])
def test_decoder_exception_rule_matches_scalar(faults):
    """A decoder exception propagates from a reliable run and becomes
    the ``output_error`` verdict of a faulted one, on both engines."""
    graph = gen.cycle_graph(4)
    proto = _UndecodableBuild(2)
    terminals, _ = _batched_walk(graph, proto, SIMASYNC, faults=faults)
    batch, lane = terminals[0]
    schedule = batch.schedule_of(lane)

    def replay():
        return replay_schedule(graph, proto, SIMASYNC, schedule,
                               faults=faults)

    if faults is None:
        expected = (ValueError, "undecodable board")
        assert _raised(lambda: batch.result_of(lane)) == expected
        assert _raised(replay) == expected
    else:
        result = batch.result_of(lane)
        assert result == replay()
        assert result.output is None
        assert result.output_error == "ValueError: undecodable board"


def test_partition_lots_covers_expansion():
    g = gen.random_k_degenerate(6, 2, seed=0)
    cell = _BatchCell(g, DegenerateBuildProtocol(2), SIMASYNC, None,
                      resolve_faults(None))
    root = BatchedExecutionState.root(cell)
    lanes, choices = root.expansion()
    children = root.fork(lanes, choices)
    for lots in (1, 2, 3, children.size, children.size + 5):
        parts = partition_lots(children, lots)
        assert 1 <= len(parts) <= min(lots, children.size)
        covered = sorted(lane for part in parts for lane in part.tolist())
        assert covered == list(range(children.size))
        # LPT balance: no lot exceeds the ideal share by more than the
        # largest single subtree weight.
        weights = children.subtree_weights().tolist()
        lot_weights = [sum(weights[i] for i in part.tolist())
                       for part in parts]
        if len(parts) > 1:
            assert max(lot_weights) <= (sum(weights) / len(parts)
                                        + max(weights))


def test_partition_weighted_more_lots_than_items():
    """Requesting more lots than items degrades to one singleton lot per
    item (empty groups are dropped, never returned)."""
    from repro.runtime.sharding import partition_weighted

    parts = partition_weighted([3.0, 1.0, 2.0], 8)
    assert len(parts) == 3
    assert sorted(i for part in parts for i in part.tolist()) == [0, 1, 2]
    assert all(part.size == 1 for part in parts)


def test_partition_weighted_single_item_and_empty():
    from repro.runtime.sharding import partition_weighted

    [only] = partition_weighted([7.0], 4)
    assert only.tolist() == [0]
    assert partition_weighted([], 4) == []
    assert partition_weighted(np.zeros(0), 1) == []


def test_partition_weighted_equal_weights_deterministic():
    """All-equal weights: the stable descending sort keeps index order,
    so the greedy deals indices round-robin — the same grouping every
    call, pinned here so process-sharded lots are reproducible."""
    from repro.runtime.sharding import partition_weighted

    first = partition_weighted([1.0] * 6, 2)
    second = partition_weighted([1.0] * 6, 2)
    assert [p.tolist() for p in first] == [p.tolist() for p in second]
    assert [p.tolist() for p in first] == [[0, 2, 4], [1, 3, 5]]


def test_partition_lots_single_lane_and_empty_frontier():
    """A one-lane frontier yields one singleton lot; a fully-compacted
    (empty) frontier yields no lots at all."""
    g = gen.random_k_degenerate(4, 2, seed=0)
    cell = _BatchCell(g, DegenerateBuildProtocol(2), SIMASYNC, None,
                      resolve_faults(None))
    root = BatchedExecutionState.root(cell)
    assert root.size == 1
    [only] = partition_lots(root, 3)
    assert only.tolist() == [0]
    empty = root.compact(np.zeros(0, dtype=np.int64))
    assert partition_lots(empty, 2) == []


def test_partition_lots_weights_follow_compact():
    """``subtree_weights`` is recomputed from the surviving lanes after
    ``compact()``: partitioning the compacted frontier equals
    partitioning the surviving lanes' weights directly."""
    g = gen.random_k_degenerate(5, 2, seed=0)
    cell = _BatchCell(g, DegenerateBuildProtocol(2), SIMASYNC, None,
                      resolve_faults(None))
    root = BatchedExecutionState.root(cell)
    lanes, choices = root.expansion()
    children = root.fork(lanes, choices)
    keep = np.arange(0, children.size, 2, dtype=np.int64)
    surviving = children.compact(keep)
    expected = children.subtree_weights()[keep]
    assert surviving.subtree_weights().tolist() == expected.tolist()
    from repro.runtime.sharding import partition_weighted

    direct = [p.tolist() for p in partition_weighted(expected, 2)]
    via_lots = [p.tolist() for p in partition_lots(surviving, 2)]
    assert via_lots == direct


@st.composite
def _random_cells(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    kind = draw(st.sampled_from(["kdeg", "cycle", "conn"]))
    seed = draw(st.integers(min_value=0, max_value=6))
    if kind == "kdeg":
        graph = gen.random_k_degenerate(n, min(2, n - 1), seed=seed)
        proto = DegenerateBuildProtocol(min(2, n - 1))
    elif kind == "cycle":
        graph = gen.cycle_graph(max(n, 3))
        proto = DegenerateBuildProtocol(2)
    else:
        graph = gen.random_connected_graph(n, 0.6, seed=seed)
        proto = EobBfsProtocol()
    model = draw(st.sampled_from(ALL_MODELS))
    faults = draw(st.sampled_from([None, "crash:1", "loss:1", "dup:1"]))
    budget = draw(st.sampled_from([None, None, 48]))
    return graph, proto, model, faults, budget


@given(_random_cells())
@settings(max_examples=40, deadline=None)
def test_random_cells_batched_equals_scalar(cell):
    graph, proto, model, faults, budget = cell
    try:
        scalar = list(all_executions(graph, proto, model, bit_budget=budget,
                                     faults=faults))
        scalar_exc = None
    except Exception as exc:  # budget violations must match too
        scalar, scalar_exc = None, exc
    terminals, dead = _batched_walk(graph, proto, model, bit_budget=budget,
                                    faults=faults)
    results = _assert_lanes_match_replay(graph, proto, model, terminals,
                                         dead, bit_budget=budget,
                                         faults=faults)
    if scalar_exc is None:
        assert not dead
        assert results == {r.schedule: r for r in scalar}
        if budget is None:
            assert (count_executions(graph, proto, model, faults=faults,
                                     batch=True) == len(scalar))
    else:
        assert (type(scalar_exc), str(scalar_exc)) in {
            (type(b.violations[lane]), str(b.violations[lane]))
            for b, lane in dead}
