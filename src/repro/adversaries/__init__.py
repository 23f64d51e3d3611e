"""Searchable adversary strategies over the stepwise execution core.

"For every adversary" is checkable by brute force only up to ``n ≈ 7``;
above that, this package replaces the exhaustive quantifier with *guided
search* over schedule prefixes, each strategy steering one
:class:`~repro.core.execution.ExecutionState` and returning a concrete,
replayable worst :class:`~repro.adversaries.base.Witness` schedule:

* :class:`GreedyBitsAdversary` — one-step-lookahead bit maximisation
  with seeded random-restart tie-breaking; linear cost.
* :class:`BeamSearchAdversary` — width-bounded best-first frontier over
  prefixes, random-restart tiebreaks.
* :class:`BranchAndBoundAdversary` — exact sweep with structural
  pruning (SIMASYNC and frozen-tail collapses), anytime under a step
  budget with randomised restart passes.
* :class:`DeadlockAdversary` — complete deadlock-reachability DFS with
  starvation-first child ordering and configuration memoisation.

Since the search-kernel refactor the strategies are thin policies over
one shared kernel (:mod:`repro.adversaries.kernel`): a
:class:`SearchContext` carries budgets, seeded RNG streams, stats and —
when sharing is on — one :class:`TranspositionTable`
(:mod:`repro.adversaries.transposition`) of per-configuration completion
values keyed by the engine's canonical
:meth:`~repro.core.execution.ExecutionState.config_key`, so pruning
knowledge transfers between strategies inside a stress cell.  What the
greedy and beam policies *optimise* is pluggable too: a
:class:`~repro.adversaries.scoring.ScoreHook` (``bits-greedy`` by
default) swaps the badness measure without touching search mechanics.

The ``stress`` plan mode (:mod:`repro.runtime.plan`) runs
:func:`default_search_portfolio` on every instance too large for
exhaustive enumeration; tests pin each strategy against the exhaustive
ground truth on small fixtures, table on and off.
"""

from .base import (
    AdversarySearch,
    Witness,
    minimize_schedule,
    minimize_witness,
    schedule_forces,
    witness_rank,
    worst_witness,
)
from .beam import BeamSearchAdversary
from .bnb import BranchAndBoundAdversary
from .deadlock import DeadlockAdversary
from .greedy import GreedyBitsAdversary
from .kernel import BudgetMeter, OutOfBudget, SearchContext, SearchStats
from .scoring import (
    SCORE_HOOKS,
    BitsGreedyScore,
    DeadlockFirstScore,
    DecodeFailureScore,
    ScoreHook,
    register_score_hook,
    resolve_score,
)
from .transposition import Completion, TableEntry, TranspositionTable

__all__ = [
    "AdversarySearch",
    "Witness",
    "witness_rank",
    "worst_witness",
    "schedule_forces",
    "minimize_schedule",
    "minimize_witness",
    "BeamSearchAdversary",
    "BranchAndBoundAdversary",
    "DeadlockAdversary",
    "GreedyBitsAdversary",
    "default_search_portfolio",
    "SearchContext",
    "SearchStats",
    "BudgetMeter",
    "OutOfBudget",
    "TranspositionTable",
    "TableEntry",
    "Completion",
    "ScoreHook",
    "BitsGreedyScore",
    "DeadlockFirstScore",
    "DecodeFailureScore",
    "SCORE_HOOKS",
    "register_score_hook",
    "resolve_score",
]


def default_search_portfolio(seed: int = 0,
                             score=None) -> list[AdversarySearch]:
    """The standard strategy portfolio used by ``stress`` plans.

    Budgets keep every strategy polynomial-ish at large ``n`` while the
    branch-and-bound pass stays exact on small instances.  ``score``
    (a :class:`~repro.adversaries.scoring.ScoreHook`, a registry name,
    or ``None`` for the default bits-greedy measure) is threaded into
    the greedy and beam policies.
    """
    return [
        GreedyBitsAdversary(restarts=4, seed=seed, score=score),
        BeamSearchAdversary(width=8, restarts=1, seed=seed, score=score),
        BranchAndBoundAdversary(max_steps=5000, restarts=2, seed=seed),
        DeadlockAdversary(max_steps=5000),
    ]
