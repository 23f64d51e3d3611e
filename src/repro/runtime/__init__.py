"""The unified execution runtime: plans, backends, results.

Every sweep in this repository — the verification harness, the E1–E18
experiment registry, the CLI's ``sweep`` command, the parallel
benchmarks — is the same shape: enumerate (graph × protocol × model ×
scheduler) cells, execute them independently, merge the results
deterministically.  This package is that shape, factored once:

* :mod:`~repro.runtime.plan` — :class:`ExecutionPlan` builds the cell
  product into picklable :class:`ExecutionTask` specs, and its ``run``
  is the one loop over backend outcomes: store hits served, each
  executed outcome committed, counted and traced in task order, the
  reports folded into a :class:`PlanRun`.
* :mod:`~repro.runtime.backends` — :class:`SerialBackend` and the
  chunk-sharded :class:`ProcessPoolBackend` execute any plan with
  identical, deterministic results.
* :mod:`~repro.runtime.results` — :class:`TaskOutcome` and the
  canonical :class:`VerificationReport` with its ``merge`` fold.

Future sharding/caching/distribution work plugs in as new backends; the
plan and report invariants (see ROADMAP.md, "Execution runtime") stay
fixed.
"""

from .backends import Backend, ProcessPoolBackend, SerialBackend, resolve_backend
from .plan import Checker, ExecutionPlan, ExecutionTask, PlanRun
from .results import Failure, TaskOutcome, VerificationReport, WitnessRecord

__all__ = [
    "Backend",
    "ProcessPoolBackend",
    "SerialBackend",
    "resolve_backend",
    "Checker",
    "ExecutionPlan",
    "ExecutionTask",
    "PlanRun",
    "Failure",
    "TaskOutcome",
    "VerificationReport",
    "WitnessRecord",
]
