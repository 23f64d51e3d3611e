"""Cross-run witness trajectories: the campaign subsystem's output.

A single stress sweep answers "how bad can the adversary be *today*";
what the ROADMAP asks for is the *series* — per instance family, how the
worst known bits/deadlock witnesses evolve across campaign generations
(and therefore across PRs, since the store persists).  Every completed
:meth:`~repro.campaigns.runner.Campaign.run` appends one **generation**:
for each (protocol, model, family, n) key, the extremal witness of that
run — a deadlock if any cell found one (deadlock outranks any finite
message, matching :func:`repro.adversaries.witness_rank`), otherwise the
bits maximum, both with their raw and minimised schedules.

Rows contain no timestamps or other nondeterminism: a killed-and-resumed
campaign records *exactly* the rows the uninterrupted run would have —
the property the acceptance tests pin.

:func:`render_trajectories` is the human view (``repro campaign
report``);
:func:`diff_generations` is the machine view of what moved between two
generations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..graphs.codec import to_graph6
from ..runtime.results import VerificationReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import CampaignCell, CampaignSpec
    from .store import ResultStore

__all__ = [
    "TrajectoryPoint",
    "extremal_points",
    "record_generation",
    "trajectory_points",
    "diff_generations",
    "render_trajectories",
]


@dataclass(frozen=True)
class TrajectoryPoint:
    """One extremal record: the worst known witness for one key."""

    campaign: str
    generation: int
    protocol: str
    model: str
    family: str
    n: int
    bits: int
    deadlock: bool
    strategy: str
    schedule: tuple[int, ...]
    minimal_schedule: Optional[tuple[int, ...]]
    graph6: str

    @property
    def key(self) -> tuple[str, str, str, int]:
        return (self.protocol, self.model, self.family, self.n)

    @property
    def outcome(self) -> str:
        return "DEADLOCK" if self.deadlock else f"{self.bits} bits"


def extremal_points(
    campaign: str,
    generation: int,
    cells: Iterable[tuple["CampaignCell", VerificationReport]],
) -> list[TrajectoryPoint]:
    """Reduce per-cell reports to one extremal point per key.

    Witness-carrying (stress) cells contribute their worst witness per
    instance size; witness-free (verify) cells fall back to the bits
    maxima in ``max_bits_by_n`` with an empty schedule, so campaigns in
    either mode leave a trajectory.
    """
    points: dict[tuple, TrajectoryPoint] = {}

    def offer(point: TrajectoryPoint) -> None:
        current = points.get(point.key)
        if current is None or (point.deadlock, point.bits) > (
            current.deadlock, current.bits
        ):
            points[point.key] = point

    for cell, report in cells:
        for witness in report.witnesses:
            offer(TrajectoryPoint(
                campaign=campaign,
                generation=generation,
                protocol=report.protocol_name,
                model=witness.model_name,
                family=cell.family,
                n=witness.graph.n,
                bits=witness.bits,
                deadlock=witness.deadlock,
                strategy=witness.strategy,
                schedule=witness.schedule,
                minimal_schedule=witness.minimal_schedule,
                graph6=to_graph6(witness.graph),
            ))
        if not report.witnesses:
            for n, bits in report.max_bits_by_n.items():
                offer(TrajectoryPoint(
                    campaign=campaign,
                    generation=generation,
                    protocol=report.protocol_name,
                    model=report.model_name,
                    family=cell.family,
                    n=n,
                    bits=bits,
                    deadlock=False,
                    strategy="report",
                    schedule=(),
                    minimal_schedule=None,
                    graph6="",
                ))
    return sorted(points.values(), key=lambda p: p.key)


def _point_to_row(point: TrajectoryPoint) -> tuple:
    return (
        point.campaign,
        point.generation,
        point.protocol,
        point.model,
        point.family,
        point.n,
        point.bits,
        int(point.deadlock),
        point.strategy,
        json.dumps(list(point.schedule)),
        (None if point.minimal_schedule is None
         else json.dumps(list(point.minimal_schedule))),
        point.graph6,
    )


def _point_from_row(row: tuple) -> TrajectoryPoint:
    (campaign, generation, protocol, model, family, n, bits, deadlock,
     strategy, schedule, minimal, graph6) = row
    return TrajectoryPoint(
        campaign=campaign,
        generation=generation,
        protocol=protocol,
        model=model,
        family=family,
        n=n,
        bits=bits,
        deadlock=bool(deadlock),
        strategy=strategy,
        schedule=tuple(json.loads(schedule)),
        minimal_schedule=None if minimal is None else tuple(json.loads(minimal)),
        graph6=graph6,
    )


def record_generation(
    store: "ResultStore",
    spec: "CampaignSpec",
    cells: Iterable[tuple["CampaignCell", VerificationReport]],
) -> int:
    """Append one generation of extremal points; returns its number."""
    generation = store.latest_generation(spec.name) + 1
    points = extremal_points(spec.name, generation, cells)
    store.add_trajectory_rows(_point_to_row(p) for p in points)
    return generation


def trajectory_points(
    store: "ResultStore",
    campaign: str,
    generation: Optional[int] = None,
) -> list[TrajectoryPoint]:
    """Stored points for a campaign (one generation, or the full series)."""
    return [
        _point_from_row(row)
        for row in store.trajectory_rows(campaign, generation)
    ]


def diff_generations(
    store: "ResultStore", campaign: str, old: int, new: int
) -> list[str]:
    """Human-readable deltas between two generations (empty = identical
    extremal records, the unchanged-re-run expectation)."""
    before = {p.key: p for p in trajectory_points(store, campaign, old)}
    after = {p.key: p for p in trajectory_points(store, campaign, new)}
    lines: list[str] = []
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key), after.get(key)
        label = "{}/{} {} n={}".format(*key)
        if a is None:
            lines.append(f"+ {label}: {b.outcome} (new key)")
        elif b is None:
            lines.append(f"- {label}: {a.outcome} (key dropped)")
        elif (a.bits, a.deadlock, a.schedule, a.minimal_schedule) != (
            b.bits, b.deadlock, b.schedule, b.minimal_schedule
        ):
            lines.append(f"~ {label}: {a.outcome} -> {b.outcome}")
    return lines


def render_trajectories(
    store: "ResultStore", campaign: Optional[str] = None
) -> str:
    """ASCII view of every recorded series (one campaign or all)."""
    names = [campaign] if campaign is not None else store.campaigns()
    lines: list[str] = []
    for name in names:
        points = trajectory_points(store, name)
        lines.append(f"campaign {name!r}: "
                     f"{store.latest_generation(name)} generation(s)")
        if not points:
            lines.append("  (no trajectory recorded)")
            continue
        header = (f"  {'gen':>4} {'protocol':<24} {'model':<9} "
                  f"{'family':<20} {'n':>4} {'worst':>10} "
                  f"{'strategy':<20} schedule (minimal)")
        lines.append(header)
        lines.append("  " + "-" * (len(header) + 8))
        for point in sorted(points, key=lambda p: (p.generation, p.key)):
            schedule = ",".join(map(str, point.schedule)) or "-"
            if point.minimal_schedule is not None and (
                point.minimal_schedule != point.schedule
            ):
                schedule += " (" + ",".join(map(str, point.minimal_schedule)) + ")"
            if len(schedule) > 44:
                schedule = schedule[:41] + "..."
            lines.append(
                f"  {point.generation:>4} {point.protocol:<24} "
                f"{point.model:<9} {point.family:<20} {point.n:>4} "
                f"{point.outcome:>10} {point.strategy:<20} {schedule}"
            )
    return "\n".join(lines) if lines else "(no campaigns recorded)"
