"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {exhaustive,search,campaign,cli} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

``--trace 0`` measures the end-to-end metrics with nothing wrapped,
over a number of whole passes that ``--seconds`` fixes
(:func:`pass_count`); ``--trace 1`` is the separate traced run that
prints the per-layer metrics.  Either way every output is checked; the
last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` and the exit code is nonzero when any check
failed.  Metric names and units
come from ``BENCHMARK.json``.  Scratch files (stores, traces, counts,
manifests) go to ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
PERF_DIR = ROOT / "perfbench"
WORK_DIR = ROOT / ".perfbench_work"

#: Fresh-interpreter set-up probes per run (the median is ``setup_s``).
SETUP_SPAWNS = 7
#: Fresh ``import repro.cli`` probes per traced run.
IMPORT_SPAWNS = 3
#: Nominal wall seconds of one full-size pass, per workload, as
#: measured on the 2-CPU host the benchmark was written on.  A run makes
#: ``--seconds`` over this many passes (at least two), so the count
#: depends on the arguments only, never on how fast the code under test
#: is: every segment's fastest reading is taken over the same number of
#: passes on every commit.
NOMINAL_PASS_S = {"exhaustive": 4.5, "search": 10.0, "campaign": 5.0,
                  "cli": 2.5}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exhaustive", "search", "campaign", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def spawn_probes(workload: str, seed: int, size: str, env: dict,
                 spawns: int) -> tuple[list[tuple], list[dict]]:
    """Spawn the set-up probe ``spawns`` times; returns, per spawn, the
    raw spawn-to-ready time with the clock probes read before and after
    it (see ``clock.py``), and the probes' own splits."""
    from perfbench.clock import probe

    readings, splits = [], []
    for _ in range(spawns):
        before = probe()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PERF_DIR / "probe.py"), workload,
             str(seed), size],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
        readings.append((ready, before, probe()))
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
        splits.append(json.loads(line))
    return readings, splits


def peak_rss_mb() -> float:
    """Largest RSS of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit():
    """The checkout's commit, or ``None`` outside a git work tree (git
    may not look above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def pass_count(workload: str, seconds: float) -> int:
    """Passes per run: fixed by ``--seconds`` (at least two, so outputs
    can be compared across passes)."""
    return max(2, int(seconds / NOMINAL_PASS_S[workload]))


def end_to_end(passes, setup_readings) -> dict:
    """End-to-end metrics from whole passes over identical inputs.

    Every segment (a cell, a command, a campaign phase boundary) is
    timed on every pass, in reference-speed seconds (``clock.py``), and
    its fastest reading is kept: what the probes miss on a shared host
    (stolen CPU, a contended disk under SQLite commits) only ever adds
    time.  The pass time is the sum of those minima; the latency
    quantiles are taken over the per-cell minima."""
    from perfbench.clock import scaled
    from perfbench.workloads import quantile

    segments = [min(col) for col in zip(*(p.segments for p in passes))]
    cells = [min(col) for col in zip(*(p.latencies for p in passes))]
    pass_s = sum(segments)
    return {
        "setup_s": median(scaled(*r) for r in setup_readings),
        "work_per_s": passes[0].units / pass_s,
        "pass_s": pass_s,
        "cell_p50_s": quantile(cells, 0.5),
        "cell_p90_s": quantile(cells, 0.9),
        "peak_rss_mb": peak_rss_mb(),
    }


def source_digest() -> str:
    """Digest of every file under ``src/repro`` and ``perfbench``.

    Deterministic counts are only compared between runs of exactly the
    same program and benchmark.  ``code_version_salt()`` is not enough
    for that: it covers only the execution-relevant subpackages and can
    be overridden by an environment variable."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", PERF_DIR):
        for path in sorted(base.rglob("*")):
            if (not path.is_file() or "__pycache__" in path.parts
                    or path.suffix == ".pyc"):
                continue
            data = path.read_bytes()
            digest.update(f"{path.relative_to(ROOT)}\0{len(data)}\0"
                          .encode())
            digest.update(data)
    return digest.hexdigest()[:16]


def check_counts(name: str, counts: dict, key: str) -> list[str]:
    """Deterministic counts must repeat exactly between two runs of the
    same sources on the same inputs.  The first run under ``key``
    records them; a run under another key neither reads nor replaces
    that record."""
    path = WORK_DIR / "counts" / f"{name}-{key}.json"
    if path.exists():
        if json.loads(path.read_text()) != counts:
            return [f"deterministic counts differ from the run recorded "
                    f"in {path.relative_to(ROOT)}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return []


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from perfbench.clock import probe
    from perfbench.workloads import WORKLOADS, subprocess_env

    WORK_DIR.mkdir(exist_ok=True)
    env = subprocess_env(WORK_DIR)
    os.environ["TMPDIR"] = env["TMPDIR"]
    tempfile.tempdir = env["TMPDIR"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    calib_start = probe()
    workload = WORKLOADS[args.workload](args.seed, args.size, WORK_DIR)
    failures: list[str] = []
    attempted = 0
    metrics: dict = {}
    counts: dict = {}
    passes = []
    setup_readings = []
    try:
        if args.trace:
            workload.prepare()
            traced = workload.traced()
            failures += traced["failures"]
            attempted = traced["attempted"]
            counts = traced["counts"]
            _, splits = spawn_probes("cli", args.seed, args.size, env,
                                     IMPORT_SPAWNS)
            metrics = dict(traced["metrics"])
            metrics["imports.repro_cli_s"] = median(
                s["import_s"] for s in splits)
            metrics["imports.modules"] = median(s["modules"] for s in splits)
            metrics["imports.numpy_loaded"] = max(
                s["numpy_loaded"] for s in splits)
            traced["recorder"].write(WORK_DIR / f"trace-{args.workload}")
        else:
            setup_readings, _ = spawn_probes(args.workload, args.seed,
                                             args.size, env, SETUP_SPAWNS)
            workload.prepare()
            workload.warm_up()
            passes = [workload.run_pass() for _ in
                      range(pass_count(args.workload, args.seconds))]
            attempted = sum(p.attempted for p in passes)
            for p in passes:
                failures += p.failures
            failures += workload.finish(passes)
            counts = passes[0].counts
            metrics = end_to_end(passes, setup_readings)
    except Exception:  # noqa: BLE001 - any crash is a failed run
        traceback.print_exc()
        failures.append("the run raised")
        attempted += 1
    calib_end = probe()
    if args.trace:
        metrics["machine.calib_s"] = calib_start

    from repro.campaigns import code_version_salt

    sources = source_digest()
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    if counts:
        failures += check_counts(tag, counts, sources)
    manifest = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_scaled_s": [sum(p.segments) for p in passes],
        "segments_raw_s": [p.raw_segments for p in passes],
        "segments_scaled_s": [p.segments for p in passes],
        "segments_probe_s": [p.probes for p in passes],
        "setup_readings_s": setup_readings,
        "python": sys.version.split()[0],
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "code_version_salt": code_version_salt(),
        "source_digest": sources,
        "git_commit": git_commit(),
        "calib_start_s": calib_start,
        "calib_end_s": calib_end,
        "counts": counts,
    }
    (WORK_DIR / f"manifest-{tag}.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True))
    print("manifest " + json.dumps(
        {k: v for k, v in manifest.items() if not k.startswith("segments")},
        sort_keys=True))
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)

    unknown = sorted(set(metrics) - set(units))
    missing = sorted(set(units) - set(metrics))
    if metrics and (unknown or missing):
        raise SystemExit(f"perfbench: metrics not as declared in "
                         f"BENCHMARK.json: unknown {unknown}, "
                         f"missing {missing}")
    for name in units:
        if name in metrics:
            print(f"{name:<36} {metrics[name]:>16.6g} {units[name]}")
    failed = min(len(failures), max(attempted, 1))
    correct = not failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
