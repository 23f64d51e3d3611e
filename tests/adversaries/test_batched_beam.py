"""Field-identity tests for the batched beam-search pass.

``BeamSearchAdversary`` steps its whole frontier through the batched
structure-of-arrays core when the cell supports it; these tests pin the
batched pass to the scalar pass *field for field* — same witness
(schedule, bits, deadlock, ``explored``), same step accounting, same
exceptions at the same generation index, same stress reports — across
strategy fixtures, scoring hooks, fault budgets, and beam shapes.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.adversaries import BeamSearchAdversary, SearchContext
from repro.adversaries.scoring import ScoreHook, resolve_score
from repro.core.batch import batch_supported
from repro.core.models import ASYNC, SIMASYNC, SIMSYNC, SYNC
from repro.graphs import generators as gen
from repro.protocols.bfs import EobBfsProtocol
from repro.protocols.build import DegenerateBuildProtocol

if not batch_supported(gen.cycle_graph(3), DegenerateBuildProtocol(2),
                       SIMASYNC):
    pytest.skip("batched core unsupported (numpy < 2.0)",
                allow_module_level=True)


FIXTURES = [
    pytest.param(gen.cycle_graph(6), DegenerateBuildProtocol(2), SIMASYNC,
                 id="cycle6-build-simasync"),
    pytest.param(gen.path_graph(6), EobBfsProtocol(), SIMSYNC,
                 id="path6-bfs-simsync"),
    pytest.param(gen.complete_graph(5), DegenerateBuildProtocol(2), ASYNC,
                 id="k5-build-async"),
    pytest.param(gen.random_connected_graph(6, 0.5, seed=3),
                 EobBfsProtocol(), SYNC, id="rand6-bfs-sync"),
]


def _search(batch, graph, proto, model, *, score=None, width=4, restarts=2,
            bit_budget=None, faults=None, max_steps=None):
    adv = BeamSearchAdversary(width=width, restarts=restarts, seed=0,
                              score=score, batch=batch)
    ctx = SearchContext(max_steps=max_steps)
    witness = adv.search(graph, proto, model, bit_budget,
                         context=ctx, faults=faults)
    return witness, ctx.snapshot()


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
@pytest.mark.parametrize("score", ["bits-greedy", "deadlock-first",
                                   "decode-failure"])
def test_witness_field_identical(graph, proto, model, score):
    scalar, s_stats = _search(False, graph, proto, model, score=score)
    batched, b_stats = _search(True, graph, proto, model, score=score)
    assert batched == scalar  # dataclass equality covers explored too
    assert b_stats.steps == s_stats.steps


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
@pytest.mark.parametrize("width,restarts", [(1, 0), (2, 3), (8, 2), (64, 1)])
def test_beam_shapes_field_identical(graph, proto, model, width, restarts):
    scalar, s_stats = _search(False, graph, proto, model,
                              width=width, restarts=restarts)
    batched, b_stats = _search(True, graph, proto, model,
                               width=width, restarts=restarts)
    assert batched == scalar
    assert b_stats.steps == s_stats.steps


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
@pytest.mark.parametrize("faults", ["crash:1", "crash:1,loss:1", "dup:1"])
def test_faulted_searches_field_identical(graph, proto, model, faults):
    scalar, s_stats = _search(False, graph, proto, model, faults=faults)
    batched, b_stats = _search(True, graph, proto, model, faults=faults)
    assert batched == scalar
    assert b_stats.steps == s_stats.steps


@pytest.mark.parametrize("graph,proto,model", FIXTURES)
def test_bit_budget_violations_match(graph, proto, model):
    try:
        scalar, _ = _search(False, graph, proto, model, bit_budget=4)
        scalar_exc = None
    except Exception as exc:
        scalar, scalar_exc = None, exc
    try:
        batched, _ = _search(True, graph, proto, model, bit_budget=4)
        batched_exc = None
    except Exception as exc:
        batched, batched_exc = None, exc
    if scalar_exc is None:
        assert batched == scalar
    else:
        assert type(batched_exc) is type(scalar_exc)
        assert str(batched_exc) == str(scalar_exc)


@pytest.mark.parametrize("max_steps", [1, 7, 40, 200])
def test_context_budget_exhaustion_matches(max_steps):
    g = gen.cycle_graph(6)
    proto = DegenerateBuildProtocol(2)
    scalar, s_stats = _search(False, g, proto, SIMASYNC,
                              max_steps=max_steps)
    batched, b_stats = _search(True, g, proto, SIMASYNC,
                               max_steps=max_steps)
    # OutOfBudget is swallowed into the incumbent witness by search()
    # (the ascending-completion fallback may legitimately spend past
    # the cap); accounting and fallback witness must still agree.
    assert batched == scalar
    assert b_stats.steps == s_stats.steps


def test_batch_occupancy_recorded():
    g = gen.cycle_graph(6)
    _, stats = _search(True, g, DegenerateBuildProtocol(2), SIMASYNC,
                       width=8, restarts=1)
    assert stats.batch_children > 0
    assert 0.0 < stats.batch_occupancy <= 1.0
    _, scalar_stats = _search(False, g, DegenerateBuildProtocol(2), SIMASYNC)
    assert scalar_stats.batch_children == 0
    assert scalar_stats.batch_occupancy == 0.0


def test_wide_beam_steps_every_child_batched():
    """A width-128 beam never drops to the scalar pass: every step it
    takes is a batched child."""
    g = gen.random_k_degenerate(6, 2, seed=0)
    _, stats = _search(True, g, DegenerateBuildProtocol(2), SIMASYNC,
                       width=128, restarts=4)
    assert stats.batch_children == stats.steps > 0


def test_wide_beam_stress_plan_steps_every_child_batched():
    """Run as stress cells through ``execute()``, a width-720 beam over
    three n=6 cells still steps every child batched."""
    from repro.runtime import ExecutionPlan

    plan = ExecutionPlan.build(
        DegenerateBuildProtocol(2), SIMASYNC,
        [gen.random_k_degenerate(6, 2, seed=s) for s in range(3)],
        mode="stress",
        adversaries=[BeamSearchAdversary(width=720, restarts=4, seed=0)],
        checker=lambda graph, output, result: output == graph,
        exhaustive_threshold=4,
        minimize_witnesses=False,
    )
    for task in plan.tasks:
        kernel = task.execute().kernel_stats
        assert kernel.batch_children == kernel.steps > 0


def test_batch_knob_fingerprint_private():
    """The batch preference is an accelerator knob, not a semantic
    parameter: it must stay out of the public primitive attributes that
    campaign fingerprints harvest."""
    def primitives(adv):
        return {k: (v.name if isinstance(v, ScoreHook) else v)
                for k, v in vars(adv).items() if not k.startswith("_")}

    on = BeamSearchAdversary(width=4, batch=True)
    off = BeamSearchAdversary(width=4, batch=False)
    assert primitives(on) == primitives(off)
    assert on.batch is True and off.batch is False
    assert BeamSearchAdversary(width=4).batch is True


def test_custom_score_subclass_falls_back_to_scalar():
    """A hook subclass overriding ``prefix_score`` without the batched
    twin must disable the batched pass (the MRO-consistency guard), and
    the search still answers."""

    class Doubled(type(resolve_score("bits-greedy"))):
        name = "doubled"

        def prefix_score(self, state):
            board = state.board
            return (2 * board.max_bits(), board.total_bits())

    hook = Doubled()
    assert not hook.supports_batch()
    adv = BeamSearchAdversary(width=4, restarts=1, seed=0, score=hook,
                              batch=True)
    g = gen.cycle_graph(5)
    assert not adv._use_batch(g, DegenerateBuildProtocol(2), SIMASYNC)
    witness = adv.search(g, DegenerateBuildProtocol(2), SIMASYNC)
    assert witness.schedule  # scalar fallback produced a real witness


def test_stock_hooks_support_batch():
    for name in ("bits-greedy", "deadlock-first", "decode-failure"):
        assert resolve_score(name).supports_batch(), name


def test_stress_plan_reports_identical():
    """Whole stress plans report alike whichever pass their beam uses."""
    from repro.runtime import ExecutionPlan

    def checker(graph, output, result):
        return output == graph

    def build(batch):
        return ExecutionPlan.build(
            DegenerateBuildProtocol(2), SIMASYNC,
            [gen.random_k_degenerate(n, 2, seed=0) for n in (5, 6)],
            mode="stress",
            adversaries=[BeamSearchAdversary(width=8, restarts=2, seed=0,
                                             batch=batch)],
            checker=checker,
            exhaustive_threshold=4,
            minimize_witnesses=False,
        )

    scalar = build(False).verification_report()
    batched = build(True).verification_report()
    assert batched.ok == scalar.ok
    assert batched.summary() == scalar.summary()
    assert [(w.strategy, w.model_name, w.schedule, w.bits, w.deadlock,
             w.faults) for w in batched.witnesses] == \
           [(w.strategy, w.model_name, w.schedule, w.bits, w.deadlock,
             w.faults) for w in scalar.witnesses]
