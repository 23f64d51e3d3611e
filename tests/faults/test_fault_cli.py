"""CLI surface of the fault zoo: flags, claims, graceful degradation."""

import pytest

from repro.cli import build_parser, main
from repro.runtime.backends import Backend, SerialBackend


class TestParser:
    def test_stress_accepts_fault_budgets(self):
        args = build_parser().parse_args(
            ["stress", "--protocol", "eob-bfs", "--faults", "crash:2,loss:1"]
        )
        assert args.faults == "crash:2,loss:1"

    def test_campaign_run_and_gc_accept_fault_budgets(self):
        p = build_parser()
        for cmd in ("run", "gc"):
            args = p.parse_args(
                ["campaign", cmd, "--store", "x.db",
                 "--protocol", "build-degenerate", "--faults", "dup:1"]
            )
            assert args.faults == "dup:1"

    def test_claims_subcommand(self):
        args = build_parser().parse_args(
            ["campaign", "claims", "--protocol", "eob-bfs", "--trace"]
        )
        assert args.campaign_command == "claims"
        assert args.protocols == ["eob-bfs"]
        assert args.store is None and args.trace

    def test_malformed_fault_spec_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="stress"):
            main(["stress", "--protocol", "eob-bfs",
                  "--faults", "crashes:1"])


class TestStressFaults:
    def test_fault_budget_exits_nonzero_on_violation(self, capsys):
        # crash:1 starves the even side of the bipartite fixture — the
        # deadlock shows up as a minimised, replayable witness.
        code = main(["stress", "--protocol", "eob-bfs",
                     "--family", "eob",
                     "--sizes", "4", "--faults", "crash:1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DEADLOCK" in out

    def test_sim_protocol_fails_safely_without_deadlock(self, capsys):
        # Crashes corrupt outputs (the decoder misses the crashed node's
        # entry), which stress reports as FAILURES — but SIM activation
        # terminates crashed nodes, so no deadlock witness ever appears.
        code = main(["stress", "--protocol", "subgraph-f",
                     "--sizes", "4", "--faults", "crash:1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILURES" in out
        assert "DEADLOCK" not in out


class TestClaimsCommand:
    def test_full_run_reports_the_violated_claim(self, capsys):
        code = main(["campaign", "claims", "--trace"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATED" in out and "HOLDS" in out
        assert "witness refuting eob-bfs" in out
        assert "fault claims hold (checked exhaustively)" in out

    def test_holding_protocol_exits_zero(self, capsys):
        code = main(["campaign", "claims",
                     "--protocol", "build-degenerate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VIOLATED" not in out

    def test_protocol_without_claims_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="claims"):
            main(["campaign", "claims", "--protocol", "two-cliques"])


def interrupting_run(original):
    """Patchable stand-in for Backend.run: one outcome, then ^C."""

    def run(backend, tasks):
        for i, outcome in enumerate(original(backend, tasks)):
            if i >= 1:
                raise KeyboardInterrupt
            yield outcome

    return run


class TestGracefulDegradation:
    CMD = ["campaign", "run", "--name", "resume",
           "--protocol", "build-degenerate", "--family", "degenerate2",
           "--sizes", "4", "--seeds", "0", "1"]

    def test_interrupt_commits_partial_and_resumes(self, tmp_path,
                                                   monkeypatch, capsys):
        store = str(tmp_path / "resume.db")
        monkeypatch.setattr(Backend, "run", interrupting_run(Backend.run))
        code = main(self.CMD + ["--store", store])
        out = capsys.readouterr().out
        assert code == 130
        assert "interrupted (KeyboardInterrupt)" in out
        assert "1 executed outcome(s) committed" in out
        assert "re-run the same command to resume" in out

        monkeypatch.undo()
        code = main(self.CMD + ["--store", store])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 tasks, 1 hits, 1 executed" in out

        # a third, unchanged run replays entirely from cache
        code = main(self.CMD + ["--store", store,
                                "--expect-hit-rate", "1.0"])
        assert code == 0
        assert "(100% cached)" in capsys.readouterr().out

    def test_warm_interrupt_counts_outcomes_not_frontier_rows(
            self, tmp_path, monkeypatch, capsys):
        store = str(tmp_path / "warm.db")
        monkeypatch.setattr(Backend, "run", interrupting_run(Backend.run))
        code = main(["campaign", "run", "--name", "warm-resume",
                     "--protocol", "bfs-bipartite-async",
                     "--family", "even-odd-bipartite", "--sizes", "6",
                     "--seeds", "0", "1", "--threshold", "5",
                     "--warm-frontiers", "--store", store])
        out = capsys.readouterr().out
        assert code == 130
        assert "1 executed outcome(s) committed" in out

    def test_stress_interrupt_without_store_discards(self, monkeypatch,
                                                     capsys):
        def explode(self, tasks):
            raise KeyboardInterrupt
            yield  # pragma: no cover

        monkeypatch.setattr(SerialBackend, "run", explode)
        code = main(["stress", "--protocol", "build-degenerate",
                     "--sizes", "4"])
        out = capsys.readouterr().out
        assert code == 130
        assert "no --store, so partial results are discarded" in out
