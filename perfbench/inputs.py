"""Seeded inputs for the four workloads.

Everything a workload feeds the program is derived here from the
benchmark's ``--seed``: graph seeds, campaign specs and CLI arguments.
The program only ever sees the generated graphs, specs and arguments,
so a later claim can be re-checked on a seed nobody tuned against.

Two sizes exist: ``full`` (the measured shape) and ``tiny`` (the
self-test shape, seconds per workload).  Repro modules are imported
inside functions so that the set-up probe times the imports a workload
really pays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "CellGroup",
    "exhaustive_groups",
    "search_groups",
    "campaign_spec",
    "cli_commands",
    "generate",
    "build_plan",
]

#: CLI instance families, mirrored from ``repro stress --family``.
_FAMILY_BUILDERS = {
    "k-degenerate": lambda gen, n, s: gen.random_k_degenerate(n, 2, seed=s),
    "connected": lambda gen, n, s: gen.random_connected_graph(n, 0.3, seed=s),
    "eob": lambda gen, n, s: gen.random_even_odd_bipartite(n, 0.4, seed=s),
}


@dataclass(frozen=True)
class CellGroup:
    """One census protocol over a list of ``(n, graph seed)`` instances."""

    key: str
    family: str
    instances: tuple[tuple[int, int], ...]
    faults: Optional[str] = None
    share_table: bool = False


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _draw(rng: random.Random, sizes, per_size: int) -> tuple:
    return tuple((n, rng.randrange(1 << 30))
                 for n in sizes for _ in range(per_size))


def exhaustive_groups(seed: int, size: str = "full") -> list[CellGroup]:
    """BUILD on k-degenerate graphs and the rooted MIS on connected
    graphs, all at n=7 (5040 schedules a cell, lot-sharded); tiny keeps
    one n=6 cell so lot sharding still runs."""
    rng = _rng(seed, "exhaustive")
    if size == "tiny":
        build = _draw(rng, (5,), 2) + _draw(rng, (6,), 1)
        mis = _draw(rng, (5,), 2)
    else:
        build = _draw(rng, (7,), 8)
        mis = _draw(rng, (7,), 6)
    return [
        CellGroup("build-degenerate", "k-degenerate", build),
        CellGroup("mis-greedy", "connected", mis),
    ]


def search_groups(seed: int, size: str = "full") -> list[CellGroup]:
    """Above-threshold search cells: EOB-BFS, crash-faulted BUILD and
    table-sharing bipartite BFS."""
    rng = _rng(seed, "search")
    if size == "tiny":
        sizes, per_async, per_build = (6, 7), 2, 1
    else:
        sizes, per_async, per_build = (8, 9, 10), 15, 4
    return [
        CellGroup("eob-bfs", "eob", _draw(rng, sizes, per_async)),
        CellGroup("build-degenerate", "k-degenerate",
                  _draw(rng, sizes, per_build), faults="crash:1"),
        CellGroup("bfs-bipartite-async", "eob",
                  _draw(rng, sizes, per_async), share_table=True),
    ]


def generate(group: CellGroup) -> list:
    """The group's graphs, in instance order."""
    from repro.graphs import generators as gen

    build = _FAMILY_BUILDERS[group.family]
    return [build(gen, n, s) for n, s in group.instances]


def build_plan(group: CellGroup, graphs: list, mode: str):
    """The plan a ``stress``/exhaustive sweep builds for ``group``."""
    from repro.analysis.checkers import default_checker
    from repro.core.models import MODELS_BY_NAME
    from repro.protocols.census import CENSUS_BY_KEY
    from repro.runtime import ExecutionPlan

    entry = CENSUS_BY_KEY[group.key]
    extra = {}
    if mode == "stress":
        extra = dict(exhaustive_threshold=5, faults=group.faults,
                     share_table=group.share_table)
    return ExecutionPlan.build(
        entry.instantiate(), MODELS_BY_NAME[entry.model], graphs,
        mode=mode, checker=default_checker(group.key), keep_runs=False,
        **extra,
    )


def campaign_spec(seed: int, size: str = "full"):
    """About 140 cheap campaign cells: BUILD over degenerate2 graphs,
    bipartite BFS over even-odd graphs and the Corollary 4 odd-cycle
    probe, whose deadlocks are the measurement."""
    from repro.campaigns import CampaignCell, CampaignSpec

    rng = _rng(seed, "campaign")
    if size == "tiny":
        build_sizes, bfs_sizes, probe_sizes, count = (4, 5, 6), (5, 6), (5,), 2
    else:
        build_sizes, bfs_sizes, probe_sizes, count = (
            (4, 5, 6, 7, 8, 9), (5, 6, 7), (5, 7, 9), 18)
    seeds = tuple(sorted(rng.sample(range(1 << 20), count)))
    return CampaignSpec(
        name="perfbench",
        cells=(
            CampaignCell("build-degenerate", "degenerate2",
                         sizes=build_sizes, seeds=seeds),
            CampaignCell("bfs-bipartite-async", "even-odd-bipartite",
                         sizes=bfs_sizes, seeds=seeds),
            CampaignCell("bfs-bipartite-async", "odd-cycle-probe",
                         sizes=probe_sizes, seeds=(0,), allow_deadlock=True),
        ),
        mode="stress",
        exhaustive_threshold=5,
    )


def cli_commands(seed: int, store: str) -> list[tuple[str, list[str]]]:
    """The command session, as ``(label, argv after 'python -m repro')``:
    the CI stress smoke shape on a seeded instance, ``campaign run
    --quick`` cold then cache-hit on ``store``, and ``reproduce-all
    --quick --jobs 2``."""
    graph_seed = _rng(seed, "cli").randrange(1 << 20)
    return [
        ("stress", ["stress", "--protocol", "build-degenerate",
                    "--protocol", "eob-bfs", "--family", "k-degenerate",
                    "--sizes", "4", "8", "--seeds", str(graph_seed),
                    "--threshold", "4", "--jobs", "2"]),
        ("campaign-cold", ["campaign", "run", "--quick", "--store", store]),
        ("campaign-hit", ["campaign", "run", "--quick", "--store", store,
                          "--expect-hit-rate", "1.0"]),
        ("reproduce-all", ["reproduce-all", "--quick", "--jobs", "2"]),
    ]
