"""The BUILD decode cache is invisible to exhaustive census reports.

``decode_build_board`` remembers its last decode under the board's
order-free multiset.  These tests run exhaustive SIMASYNC cells of the
BUILD-decoding protocols under every fault budget twice: once as shipped,
and once with the cache reset before every decode.  Reports, witnesses,
kernel counters and schedule counts must be field-identical.
"""

from __future__ import annotations

import pytest

from repro.analysis.checkers import default_checker
from repro.campaigns.store import report_to_jsonable, witness_to_jsonable
from repro.core import SIMASYNC
from repro.core.simulator import count_executions
from repro.graphs import generators as gen
from repro.protocols import build
from repro.protocols.census import CENSUS_BY_KEY
from repro.runtime import ExecutionPlan

GRAPH = gen.random_k_degenerate(6, 2, seed=0)


def census_cells(key, faults):
    proto = CENSUS_BY_KEY[key].instantiate()
    plan = ExecutionPlan.build(
        proto, SIMASYNC, [GRAPH], mode="stress", checker=default_checker(key),
        exhaustive_threshold=6, keep_runs=False, faults=faults,
    )
    assert all(task.mode == "exhaustive" for task in plan.tasks)
    cells = []
    for task in plan.tasks:
        outcome = task.execute()
        cells.append((
            report_to_jsonable(outcome.report),
            [witness_to_jsonable(w) for w in outcome.report.witnesses],
            outcome.kernel_stats,
        ))
    return cells, count_executions(GRAPH, proto, SIMASYNC, faults=faults)


@pytest.mark.parametrize("faults", [None, "crash:1", "loss:1", "dup:1"])
@pytest.mark.parametrize("key", ["build-degenerate", "triangle-degenerate"])
def test_cache_never_changes_a_report(monkeypatch, key, faults):
    decodes = []
    real_decode = build._decode

    def counting_decode(*args):
        decodes.append(args)
        return real_decode(*args)

    monkeypatch.setattr(build, "_decode", counting_decode)
    cached = census_cells(key, faults)
    cached_decodes = len(decodes)

    real_key = build._multiset_key

    def resetting_key(*args):
        build._last_decode = (None, None)
        return real_key(*args)

    monkeypatch.setattr(build, "_multiset_key", resetting_key)
    decodes.clear()
    uncached = census_cells(key, faults)

    assert cached == uncached
    # Non-vacuous: the shipped run decoded strictly fewer boards.
    assert 0 < cached_decodes < len(decodes)
