"""Run one ``python -m repro`` command with the layer wrappers installed.

Usage (from the repository root)::

    python3 perfbench/tracecli.py OUT.json <repro arguments...>

Times ``import repro.cli``, installs :func:`perfbench.tracing.install`
inside this interpreter (each module's wrappers go in when the command
imports it), runs ``repro.cli.main`` and writes the span
folds, counters, the folded kernel statistics of the command and the
wall clock at launcher start and finish to ``OUT.json``, and the
command's spans beside it (``Recorder.write``).  Its stdout,
stderr and exit code are the command's own.
"""

from __future__ import annotations

import time

#: Wall clock when the launcher starts: the caller charges the time from
#: spawn to here to interpreter start-up.
STARTED_AT = time.time()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import Recorder, install

    rec = Recorder()
    with rec.span("imports.repro_cli"):
        import repro.cli
    with rec.span("bench.install"):
        patches = install(rec)
        handed = _watch_kernel_stats(patches)
    try:
        with rec.span("cli.main"):
            code = repro.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        patches.undo()
        data = rec.dump()
        data["kernel"] = _fold(handed)
        data["started_at"] = STARTED_AT
        rec.write(Path(out).with_suffix(".trace"))
        data["finished_at"] = time.time()
        Path(out).write_text(json.dumps(data))
    sys.stdout.flush()
    return code or 0


def _watch_kernel_stats(patches) -> list:
    """Every KernelStats the command hands its accumulators, collected
    once ``repro.telemetry.stats`` is imported."""
    handed: list = []

    def wrap(stats) -> None:
        original = stats.KernelAccumulator.add

        def add(self, item):
            if item is not None:
                handed.append(item)
            return original(self, item)

        patches.set(stats.KernelAccumulator, "add", add)

    patches.on_import("repro.telemetry.stats", wrap)
    return handed


def _fold(handed: list) -> dict:
    from repro.telemetry import KernelAccumulator, KernelStats

    acc = KernelAccumulator()
    for item in handed:
        acc.add(item)
    return (acc.kernel or KernelStats()).to_jsonable()


if __name__ == "__main__":
    sys.exit(main())
