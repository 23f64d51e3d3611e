"""Beam search over schedule prefixes."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional, Union

from ..core.execution import ExecutionState
from ..core.models import ModelSpec
from ..core.protocol import Protocol
from ..graphs.labeled_graph import LabeledGraph
from ..faults.spec import FaultSpec, resolve_faults
from .base import AdversarySearch, Witness, worst_witness
from .kernel import OutOfBudget, SearchContext, complete_ascending
from .scoring import ScoreHook, resolve_score
from .transposition import TranspositionTable

__all__ = ["BeamSearchAdversary"]


class BeamSearchAdversary(AdversarySearch):
    """Breadth-first over schedule prefixes, keeping the ``width`` most
    promising per depth.

    Each frontier state is an independent :class:`ExecutionState` fork
    (:meth:`~repro.core.execution.ExecutionState.copy`); expanding it
    applies every adversary choice once.  Prefixes are ranked worst-first
    by the :class:`~repro.adversaries.scoring.ScoreHook` prefix score
    (default: largest message so far, board total) — a deadlocked or
    completed child leaves the frontier and competes for the returned
    witness directly, so terminal worst cases are never pruned away,
    only unfinished prefixes are.

    For stateless protocols the sorted frontier is **deduplicated by
    configuration digest** (:meth:`~repro.core.execution.ExecutionState.
    config_key`) before truncation: two prefixes that digest to the
    same configuration have identical futures, so keeping the
    better-sorted one loses nothing and frees a beam slot for a
    genuinely different prefix.

    The first pass ranks deterministically (ties towards the
    lexicographically smaller schedule); every *restart* re-runs the
    whole beam with a seeded random tiebreak, which lets equal-scoring
    prefixes survive in a different order and escape ties that hide the
    optimum.  Cost per pass: at most ``width · n`` expansions of at most
    ``n`` children each.

    When the cell supports the batched structure-of-arrays core
    (:func:`repro.core.batch.batch_supported`) and the scoring hook has
    a vectorized twin, the whole frontier is stepped as one
    :class:`~repro.core.batch.BatchedExecutionState` per generation —
    field-identical witnesses, step accounting and exceptions, just
    faster.  ``batch=False`` pins the scalar reference (the equivalence
    tests and the regression bench A/B the two passes); the knob is
    underscore-private so campaign fingerprints never see it.
    """

    name = "beam"

    def __init__(self, width: int = 8, restarts: int = 1, seed: int = 0,
                 score: Union[None, str, ScoreHook] = None,
                 batch: bool = True) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {restarts}")
        self.width = width
        self.restarts = restarts
        self.seed = seed
        self.score = resolve_score(score)
        #: Primitive mirror of the hook for campaign fingerprints.
        self.score_name = self.score.name
        # Stored underscore-private on purpose: the batched pass is an
        # equivalence-pinned accelerator, not a semantic knob, so it
        # must NOT enter campaign fingerprints (which harvest public
        # primitive attributes).  True = batched when supported,
        # False = always scalar.
        self._batch = batch

    @property
    def batch(self) -> bool:
        """Whether the batched pass is used where the cell supports it."""
        return self._batch

    def _use_batch(self, graph, protocol, model) -> bool:
        if not self._batch:
            return False
        from ..core.batch import batch_supported

        return (batch_supported(graph, protocol, model)
                and self.score.supports_batch())

    def search(
        self,
        graph: LabeledGraph,
        protocol: Protocol,
        model: ModelSpec,
        bit_budget: Optional[int] = None,
        *,
        context: Optional[SearchContext] = None,
        faults: Union[None, str, FaultSpec] = None,
    ) -> Witness:
        spec = resolve_faults(faults)
        ctx = SearchContext.ensure(context)
        if ctx.table is not None:
            ctx.table.bind(graph, protocol, model, bit_budget, faults=spec)
        ctx.stats.searches += 1
        meter = ctx.meter(None)
        cell = None
        if self._use_batch(graph, protocol, model):
            from ..core.batch import _BatchCell

            # One cell per search: restarts share the interned message
            # records, view trie, and dedupe chains.  Built here so any
            # round-0 protocol exception surfaces exactly where the
            # scalar pass would raise it (uncaught below).
            cell = _BatchCell(graph, protocol, model, bit_budget, spec)
        best: Optional[Witness] = None
        try:
            for attempt in range(1 + self.restarts):
                rng = ctx.rng(self.seed, attempt) if attempt else None
                if attempt:
                    ctx.stats.restarts += 1
                if cell is not None:
                    witness = self._pass_batched(cell, rng, ctx, meter)
                else:
                    witness = self._pass(graph, protocol, model, bit_budget,
                                         rng, ctx, meter, spec)
                best = witness if best is None else worst_witness(best, witness)
        except OutOfBudget:
            pass  # context budget exhausted: return the incumbent
        if best is None:
            state = ExecutionState.initial(graph, protocol, model, bit_budget,
                                           faults=spec)
            complete_ascending(state, meter)
            best = self._witness(state, meter.spent)
        return replace(best, explored=meter.spent)

    def _pass(
        self,
        graph: LabeledGraph,
        protocol: Protocol,
        model: ModelSpec,
        bit_budget: Optional[int],
        rng: Optional[random.Random],
        ctx: SearchContext,
        meter,
        faults: FaultSpec = None,
    ) -> Witness:
        best: Optional[Witness] = None
        hook = self.score
        table = ctx.table
        initial = ExecutionState.initial(graph, protocol, model, bit_budget,
                                         faults=faults)
        if initial.terminal:  # 0 writes: deadlock at round 0, or n == 0
            return self._witness(initial, meter.spent)
        dedupe = initial.stateless
        frontier = [initial]
        while frontier:
            scored = []
            for state in frontier:
                for choice in state.candidates:
                    meter.spend()
                    child = state.copy().advance(choice)
                    if child.terminal:
                        witness = self._witness(child, meter.spent)
                        best = (witness if best is None
                                else worst_witness(best, witness))
                    else:
                        tiebreak = (rng.random() if rng is not None
                                    else 0.0)
                        scored.append((
                            tuple(-part for part in hook.prefix_score(child))
                            + (tiebreak, child.schedule),
                            child,
                        ))
            scored.sort(key=lambda item: item[0])
            frontier = []
            seen: set = set()
            for _, state in scored:
                if dedupe:
                    key = TranspositionTable.key_for(state)
                    if key in seen:
                        continue
                    seen.add(key)
                frontier.append(state)
                if len(frontier) >= self.width:
                    break
        if best is None:
            # Unreachable for a well-formed engine (the initial state of a
            # deadlocked instance is itself terminal-free only if some
            # prefix terminates), but guard against protocol bugs.
            raise RuntimeError("beam search found no terminal configuration")
        return best

    def _pass_batched(self, cell, rng: Optional[random.Random],
                      ctx: SearchContext, meter) -> Witness:
        """One beam pass on the batched core — field-identical to
        :meth:`_pass` (pinned by ``tests/adversaries/test_batched_beam``):
        same meter spending, same rng draws, same witness folds and
        ``explored`` counts, same dedupe/truncation, and per-lane
        violations re-raised at exactly the scalar generation index.
        """
        import numpy as np

        from ..core.batch import BatchedExecutionState

        hook = self.score
        best: Optional[Witness] = None
        frontier = BatchedExecutionState.root(
            cell, track_sched=True, track_bp=True,
            track_views=getattr(hook, "batch_needs_views", False))
        # frontier_rank[i] = position of lane i's schedule in the sorted
        # order of all frontier schedules.  Within a generation every
        # schedule has the same length, so children order exactly like
        # (parent schedule, choice); the parent component therefore only
        # needs the parents' *relative* order, which the previous
        # generation already computed — no schedule tuples are ever
        # materialized or sorted in the hot loop.
        frontier_rank = np.zeros(1, dtype=np.int64)

        def _terminal_witness(batch, lane, explored):
            return Witness(
                strategy=self.name,
                schedule=batch.schedule_of(lane),
                bits=int(batch.maxb[lane]),
                total_bits=int(batch.totb[lane]),
                deadlock=batch.deadlocked_at(lane),
                explored=explored,
            )

        if bool(frontier.terminal_mask()[0]):  # 0 writes possible
            return _terminal_witness(frontier, 0, meter.spent)
        while frontier.size:
            lanes, choices = frontier.expansion()
            children = frontier.fork(lanes, choices)
            total = children.size
            first_viol = children.first_violation()
            # The scalar pass interleaves meter.spend() with each child
            # advance, so a budget raise at child j beats a violation at
            # child j (spend-before-advance) and any violation beats the
            # budget of every later child.
            if meter.limit is None and meter.context_limit is None:
                if first_viol is not None:
                    meter.charge(first_viol + 1)
                    raise children.violations[first_viol]
                meter.charge(total)
            else:
                for j in range(total):
                    meter.spend()
                    if first_viol is not None and j == first_viol:
                        raise children.violations[j]
            spent_before = meter.spent - total
            done = children.done_mask()
            terminal = done | (children.write_mask() == np.uint64(0))
            term_idx = np.nonzero(terminal)[0]
            if term_idx.size:
                done_l = done.tolist()
                maxb_l = children.maxb.tolist()
                totb_l = children.totb.tolist()
                # Folding terminals lane-by-lane through worst_witness
                # keeps the FIRST maximal lane; max() over the rank
                # tuples with the same tie rule picks the same lane, so
                # only one Witness is built per generation.
                top = max(
                    term_idx.tolist(),
                    key=lambda j: (not done_l[j], maxb_l[j], totb_l[j],
                                   -j),
                )
                witness = Witness(
                    strategy=self.name,
                    schedule=children.schedule_of(top),
                    bits=maxb_l[top],
                    total_bits=totb_l[top],
                    deadlock=not done_l[top],
                    explored=spent_before + top + 1,
                )
                best = (witness if best is None
                        else worst_witness(best, witness))
            live = np.nonzero(~terminal)[0]
            ctx.stats.batch_children += total
            ctx.stats.batch_kept += int(term_idx.size)
            if live.size == 0:
                break
            live_l = live.tolist()
            scores = hook.batch_prefix_scores(children, live_l)
            parent_rank = frontier_rank[lanes[live]]
            choice_col = choices[live].astype(np.int64)
            if rng is None:
                tiebreak = np.zeros(live.size)
            else:
                tiebreak = np.array([rng.random() for _ in live_l])
            # Ascending sort on (-score parts..., tiebreak, schedule):
            # np.lexsort keys are lowest-priority first, and compares
            # column-wise exactly like the scalar tuple sort (the
            # (parent_rank, choice) pair is unique per child, so the
            # total order is strict and stability cannot differ).
            score_cols = [np.asarray(col, dtype=np.int64)
                          for col in zip(*scores)]
            order = np.lexsort(
                (choice_col, parent_rank, tiebreak)
                + tuple(-col for col in reversed(score_cols)))
            dedupe_key = children._dedupe_key_builder()
            seen: set = set()
            keep: list[int] = []
            for pos in order.tolist():
                j = live_l[pos]
                key = dedupe_key(j)
                if key in seen:
                    continue
                seen.add(key)
                keep.append(j)
                if len(keep) >= self.width:
                    break
            ctx.stats.batch_kept += len(keep)
            keep_arr = np.array(keep, dtype=np.int64)
            # Next generation's parent ranks: the kept children, ordered
            # by (parent rank, choice) — i.e. by schedule tuple.
            order_kept = np.lexsort((choices[keep_arr].astype(np.int64),
                                     frontier_rank[lanes[keep_arr]]))
            frontier_rank = np.empty(keep_arr.size, dtype=np.int64)
            frontier_rank[order_kept] = np.arange(keep_arr.size)
            frontier = children.compact(keep_arr)
        if best is None:
            raise RuntimeError("beam search found no terminal configuration")
        return best
