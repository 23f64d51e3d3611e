"""Deterministic kernel statistics: metrics that must equal the
engine's own accounting.

Unlike spans (timing — nondeterministic by nature), a
:class:`KernelStats` snapshot is a pure function of the work a cell
did: write-event steps, searches, restarts, batched lane accounting,
transposition-table counters.  The search kernel produces it —
``repro.adversaries.kernel.SearchContext.snapshot`` copies the live
``SearchStats`` slots by name and adds the table counters of the
context's table once a strategy bound it — and every search task takes
one *always*, traced or not, so the numbers are identical across
serial/process backends and traced/untraced runs.

Leaf module: stdlib only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["KernelStats", "KernelAccumulator"]


@dataclass(frozen=True)
class KernelStats:
    """Frozen fold of a cell's deterministic search-kernel counters.

    The fields up to ``bound_prunes`` are the slots of
    ``repro.adversaries.kernel.SearchStats``, by name; the ``table_*``
    and ``frontier_*`` fields are the counters of the cell's bound
    transposition table, and ``tables`` counts such tables.  All sums,
    so :meth:`merge` is associative and a campaign can fold thousands
    of cells into one line.
    """

    steps: int = 0
    searches: int = 0
    restarts: int = 0
    batch_children: int = 0
    batch_kept: int = 0
    bound_prunes: int = 0
    table_hits: int = 0
    table_misses: int = 0
    table_stores: int = 0
    table_entries: int = 0
    tables: int = 0
    frontier_hits: int = 0
    frontier_stores: int = 0

    @property
    def batch_occupancy(self) -> float:
        """Fraction of batch-stepped lanes that survived compaction;
        0.0 when no batched stepping happened."""
        if not self.batch_children:
            return 0.0
        return self.batch_kept / self.batch_children

    @property
    def table_probes(self) -> int:
        return self.table_hits + self.table_misses

    @property
    def table_hit_rate(self) -> float:
        probes = self.table_probes
        return self.table_hits / probes if probes else 0.0

    def __bool__(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))

    def merge(self, other: "KernelStats") -> "KernelStats":
        return KernelStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

    def to_jsonable(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_jsonable(cls, data: dict) -> "KernelStats":
        names = {f.name for f in fields(cls)}
        return cls(**{k: int(v) for k, v in data.items() if k in names})

    def summary(self) -> str:
        """The end-of-run kernel line (stress / campaign summaries)."""
        parts = [f"{self.steps} steps", f"{self.searches} searches"]
        if self.restarts:
            parts.append(f"{self.restarts} restarts")
        if self.batch_children:
            parts.append(f"batch occupancy {self.batch_occupancy:.2f}")
        if self.bound_prunes:
            parts.append(f"{self.bound_prunes} bound prunes")
        if self.tables:
            parts.append(
                f"table hit-rate {self.table_hit_rate:.2f} "
                f"({self.table_probes} probes, "
                f"{self.table_entries} entries)"
            )
        if self.frontier_hits or self.frontier_stores:
            parts.append(
                f"frontiers {self.frontier_hits} hits / "
                f"{self.frontier_stores} stores"
            )
        return ", ".join(parts)


class KernelAccumulator:
    """Mutable driving-process fold of per-task :class:`KernelStats`
    (CLI end-of-run summaries, campaign meta persistence)."""

    def __init__(self) -> None:
        self.kernel: Optional[KernelStats] = None

    def add(self, stats: Optional[KernelStats]) -> None:
        if stats is None:
            return
        self.kernel = (
            stats if self.kernel is None else self.kernel.merge(stats)
        )
