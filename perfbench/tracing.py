"""The traced run's span recorder and the layer wrappers it installs.

Spans are recorded from the benchmark's own files: :func:`install`
wraps the public calls behind each layer *where their callers look them
up* (a class attribute, or the module global of a module that imported
a function by name), and :meth:`Patches.undo` puts every original back.
Nothing under ``src/`` changes.

Each span keeps its name, start, end and parent in flat arrays; self
time (span time minus the time its direct children cover) is folded per
name as spans close, and the arrays are written out once, when the run
ends.  Generators are traced per ``next()`` call, so a lazily consumed
backend is charged for the work it does, not for creating an iterator.
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

__all__ = ["Recorder", "Patches", "install", "layer_of", "LAYERS"]

#: Layer of a span, by longest matching name prefix.  Every span the
#: wrappers open belongs to exactly one layer; ``bench.*`` spans are the
#: benchmark's own roots, whose self time is the unattributed share.
_PREFIX_LAYERS = (
    ("imports.", "imports"),
    ("graphs.", "graphs"),
    ("runtime.plan.", "runtime.plan"),
    ("runtime.sharding.", "runtime.sharding"),
    ("runtime.backends.", "runtime.backends"),
    ("core.batch.", "core.batch"),
    ("core.", "core.execution"),
    ("protocols.", "protocols"),
    ("encoding.", "encoding"),
    ("analysis.", "analysis.checkers"),
    ("adversaries.", "adversaries"),
    ("campaigns.fingerprint", "campaigns.store"),
    ("campaigns.store.", "campaigns.store"),
    ("campaigns.frontiers.", "campaigns.frontiers"),
    ("campaigns.trajectories", "campaigns.trajectories"),
    ("campaigns.runner", "campaigns.runner"),
    ("cli.", "cli"),
    ("bench.", "unattributed"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in _PREFIX_LAYERS))

#: Spans whose per-call durations a traced ``cli`` command reports back.
_PER_CALL = ("campaigns.store.get", "campaigns.store.put")


def layer_of(name: str) -> str:
    for prefix, layer in _PREFIX_LAYERS:
        if name.startswith(prefix):
            return layer
    raise KeyError(f"span {name!r} has no layer")


class Recorder:
    """In-memory spans plus per-name call/total/self folds and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.captured: dict[str, list] = defaultdict(list)
        self.capture = False
        self._merged_durations: dict[str, list] = defaultdict(list)
        self._stack = [-1]
        self._child = [0.0]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            layer_of(name)  # unknown names fail at install time
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        child = self._child.pop()
        duration = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - child
        self._child[-1] += duration

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        own = [] if nid is None else [
            self.span_end[i] - self.span_start[i]
            for i, k in enumerate(self.span_name) if k == nid]
        return own + self._merged_durations.get(name, [])

    def merge_dump(self, data: dict) -> None:
        """Fold another process's :meth:`dump` into the per-name folds
        (its individual spans stay in its own trace file)."""
        for name, row in data["aggregate"].items():
            nid = self.intern(name)
            self.calls[nid] += row["calls"]
            self.total[nid] += row["total_s"]
            self.self_time[nid] += row["self_s"]
        for key, value in data["counts"].items():
            self.counts[key] += value
        for name, values in data["durations"].items():
            self._merged_durations[name].extend(values)

    def charge(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` measured outside any span to ``name``."""
        nid = self.intern(name)
        self.calls[nid] += 1
        self.total[nid] += seconds
        self.self_time[nid] += seconds

    def dump(self) -> dict:
        """The per-name folds, counters and the per-call durations of
        the spans whose median is reported, as JSON-ready data for
        :meth:`merge_dump`."""
        return {"aggregate": self.aggregate(), "counts": dict(self.counts),
                "durations": {name: self.durations(name)
                              for name in _PER_CALL}}

    def aggregate(self) -> dict[str, dict[str, float]]:
        """``{span name: {calls, total_s, self_s}}``."""
        return {
            name: {"calls": self.calls[i], "total_s": self.total[i],
                   "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, prefix: Path) -> None:
        """Write the spans: ``<prefix>.spans`` holds four native arrays
        back to back (name id int32, parent index int64, start and end
        float64 perf-counter seconds); ``<prefix>.json`` names them."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{prefix}.spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        header = {
            "spans": len(self.span_name),
            "layout": ["name:int32", "parent:int64", "start:float64",
                       "end:float64"],
            "names": self.names,
            "aggregate": self.aggregate(),
            "counts": dict(self.counts),
        }
        Path(f"{prefix}.json").write_text(json.dumps(header, indent=1))


def _traced_call(rec: Recorder, nid: int, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return wrapper


def _traced_iter(rec: Recorder, nid: int, iterator, capture=None):
    """Re-yield ``iterator``, timing each ``next()`` as one span."""
    iterator = iter(iterator)
    while True:
        idx = rec.open(nid)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            rec.close(idx)
        if capture is not None and rec.capture:
            rec.captured[capture].append(item)
        yield item


class Patches:
    """Attribute replacements that :meth:`undo` reverts in reverse order,
    and post-import hooks that :meth:`undo` removes."""

    def __init__(self) -> None:
        self._undo: list = []
        self._hooks: dict[str, list] = {}
        self._finder = None

    def on_import(self, name: str, apply) -> None:
        """Call ``apply(module)`` once module ``name`` is imported: now
        if it already is, else right after it first executes.  Nothing
        is imported on the caller's behalf."""
        module = sys.modules.get(name)
        if module is not None:
            apply(module)
            return
        self._hooks.setdefault(name, []).append(apply)
        if self._finder is None:
            self._finder = _PostImportFinder(self._hooks)
            sys.meta_path.insert(0, self._finder)

    def set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had, old))

    def undo(self) -> None:
        if self._finder is not None:
            sys.meta_path.remove(self._finder)
            self._finder = None
        self._hooks.clear()
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


class _PostImportFinder(importlib.abc.MetaPathFinder):
    """Finds a hooked module with the other finders and wraps its loader
    so that the module's hooks run right after it executes."""

    def __init__(self, hooks: dict[str, list]) -> None:
        self.hooks = hooks

    def find_spec(self, name, path, target=None):
        if name not in self.hooks:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                spec.loader = _HookedLoader(spec.loader,
                                            self.hooks.pop(name))
                return spec
        return None


class _HookedLoader(importlib.abc.Loader):
    def __init__(self, loader, hooks: list) -> None:
        self.loader = loader
        self.hooks = hooks

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module) -> None:
        self.loader.exec_module(module)
        for apply in self.hooks:
            apply(module)

    def __getattr__(self, attr):
        return getattr(self.loader, attr)


def _raw(owner, attr: str):
    """The attribute as stored on the first class of the MRO that has it
    (so classmethods stay classmethod objects)."""
    for klass in getattr(owner, "__mro__", (owner,)):
        if attr in vars(klass):
            return vars(klass)[attr]
    raise AttributeError(f"{owner!r} has no attribute {attr!r}")


class _Installer:
    def __init__(self, rec: Recorder, patches: Patches) -> None:
        self.rec = rec
        self.patches = patches
        self._planned: list = []

    def call(self, owner, attr: str, name: str) -> None:
        self._planned.append(("call", owner, attr, name, _raw(owner, attr)))

    def gen(self, owner, attr: str, name: str, capture=None,
            eager: bool = False) -> None:
        """Trace a function returning an iterator: one span per
        ``next()``, plus one around the call itself when ``eager``."""
        self._planned.append(
            ("gen", owner, attr, name, _raw(owner, attr), capture, eager))

    def custom(self, owner, attr: str, make) -> None:
        self._planned.append(("custom", owner, attr, make,
                              _raw(owner, attr)))

    def apply(self) -> Patches:
        # Originals were resolved before any patch, so a subclass never
        # wraps its parent's wrapper.
        rec = self.rec
        for kind, owner, attr, name_or_make, raw, *extra in self._planned:
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            if kind == "call":
                new = _traced_call(rec, rec.intern(name_or_make), fn)
            elif kind == "gen":
                capture, eager = extra
                nid = rec.intern(name_or_make)
                new = _gen_wrapper(rec, nid, fn, capture, eager)
            else:
                new = name_or_make(fn)
            self.patches.set(owner, attr, classmethod(new) if is_cm else new)


def _gen_wrapper(rec, nid, fn, capture, eager):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if eager:
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
        else:
            result = fn(*args, **kwargs)
        return _traced_iter(rec, nid, result, capture)
    return wrapper


_STRATEGIES = (
    ("GreedyBitsAdversary", "greedy"),
    ("BeamSearchAdversary", "beam"),
    ("BranchAndBoundAdversary", "bnb"),
    ("DeadlockAdversary", "deadlock"),
)


def install(rec: Recorder, scope: str = "all") -> Patches:
    """Wrap every layer boundary (``scope="all"``) or only the
    parent-side dispatch of a process-pool pass (``scope="parent"``:
    plan build, task execution, sharding and the backend).  Returns the
    patches; call ``undo()`` to remove them.

    Each module's wrappers go in when the module is imported: at once if
    it already is, otherwise right after the traced code first imports
    it, inside a ``bench.install`` span (unattributed).  Installing
    therefore imports nothing the traced code would not."""
    patches = Patches()
    groups = _PARENT_GROUPS + (_ENGINE_GROUPS if scope == "all" else ())
    for name, group in groups:
        patches.on_import(name, functools.partial(
            _apply_group, rec, patches, group,
            deferred=name not in sys.modules))
    return patches


def _apply_group(rec: Recorder, patches: Patches, group, module,
                 deferred: bool) -> None:
    ins = _Installer(rec, patches)
    with rec.span("bench.install") if deferred else nullcontext():
        group(ins, rec, module)
        ins.apply()


def _plan_group(ins, rec, plan) -> None:
    ins.custom(plan.ExecutionPlan, "build",
               lambda fn: _build_wrapper(rec, fn))
    ins.call(plan.ExecutionTask, "execute", "runtime.plan.execute")


def _backends_group(ins, rec, backends) -> None:
    ins.gen(backends.Backend, "run", "runtime.backends.run", eager=True)
    ins.gen(backends.ProcessPoolBackend, "run", "runtime.backends.run",
            eager=True)
    ins.gen(backends.ProcessPoolBackend, "map", "runtime.backends.wait",
            capture="outputs")


def _sharding_group(ins, rec, sharding) -> None:
    ins.custom(sharding, "lower", lambda fn: _lower_wrapper(rec, fn))
    ins.gen(sharding, "reassemble", "runtime.sharding.reassemble")


_PARENT_GROUPS = (
    ("repro.runtime.plan", _plan_group),
    ("repro.runtime.backends", _backends_group),
    ("repro.runtime.sharding", _sharding_group),
)


def _build_wrapper(rec: Recorder, fn):
    nid = rec.intern("runtime.plan.build")

    @functools.wraps(fn)
    def build(*args, **kwargs):
        idx = rec.open(nid)
        try:
            built = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        rec.count("runtime.plan.tasks", len(built.tasks))
        return built
    return build


def _lower_wrapper(rec: Recorder, fn):
    nid = rec.intern("runtime.sharding.lower")

    @functools.wraps(fn)
    def lower(tasks, jobs):
        idx = rec.open(nid)
        try:
            items, layout = fn(tasks, jobs)
        finally:
            rec.close(idx)
        lots = sum(1 for kind, _ in items if kind == "shard")
        rec.count("runtime.sharding.lots", lots)
        if rec.capture:
            rec.captured["items"].extend(items)
        return items, layout
    return lower


def _execution_group(ins, rec, execution) -> None:
    state = execution.ExecutionState
    for attr in ("initial", "advance", "result", "config_key",
                 "suffix_bound", "snapshot", "restore"):
        ins.call(state, attr, f"core.{attr}")
    ins.call(execution, "payload_key", "encoding.payload_key")


def _batch_group(ins, rec, batch) -> None:
    lanes = batch.BatchedExecutionState
    for attr in ("root", "advance_all", "fork", "compact", "result_of"):
        ins.call(lanes, attr, f"core.batch.{attr}")
    ins.call(batch, "payload_key", "encoding.payload_key")


def _census_group(ins, rec, census) -> None:
    classes = {type(entry.instantiate()) for entry in census.CENSUS}
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        ins.call(cls, "output", "protocols.output")
        ins.call(cls, "wants_to_activate", "protocols.activate")
        ins.call(cls, "message", "protocols.message")


def _checkers_group(ins, rec, checkers) -> None:
    for obj in vars(checkers).values():
        if (isinstance(obj, type) and obj.__module__ == checkers.__name__
                and "__call__" in vars(obj)):
            ins.call(obj, "__call__", "analysis.checker")


def _adversaries_group(ins, rec, adversaries) -> None:
    for cls_name, short in _STRATEGIES:
        ins.custom(getattr(adversaries, cls_name), "search",
                   lambda fn, short=short: _search_wrapper(rec, short, fn))
    table = adversaries.TranspositionTable
    ins.call(table, "lookup", "adversaries.table.lookup")
    ins.call(table, "get", "adversaries.table.get")


def _adversary_base_group(ins, rec, base) -> None:
    ins.call(base, "minimize_schedule", "adversaries.minimize")
    ins.custom(base, "schedule_forces",
               lambda fn: _counting(rec, "adversaries.minimize.replays", fn))


def _plan_engine_group(ins, rec, plan) -> None:
    ins.call(plan, "replay_schedule", "adversaries.replay")


def _families_group(ins, rec, families) -> None:
    ins.call(families.GraphClass, "sample_in_class", "graphs.generate")


def _store_group(ins, rec, store) -> None:
    rs = store.ResultStore
    ins.call(rs, "__init__", "campaigns.store.open")
    ins.call(rs, "fingerprint", "campaigns.fingerprint")
    ins.call(rs, "get", "campaigns.store.get")
    ins.call(rs, "put", "campaigns.store.put")
    ins.call(rs, "gc", "campaigns.store.gc")
    ins.call(rs, "set_meta", "campaigns.store.meta")
    ins.custom(rs, "load_frontiers", lambda fn: _load_frontiers(rec, fn))
    ins.call(rs, "put_frontiers", "campaigns.frontiers.put")


def _runner_group(ins, rec, runner) -> None:
    ins.call(runner, "record_generation", "campaigns.trajectories")
    ins.call(runner.Campaign, "run", "campaigns.runner")


_ENGINE_GROUPS = (
    ("repro.core.execution", _execution_group),
    ("repro.core.batch", _batch_group),
    ("repro.protocols.census", _census_group),
    ("repro.analysis.checkers", _checkers_group),
    ("repro.adversaries", _adversaries_group),
    ("repro.adversaries.base", _adversary_base_group),
    ("repro.runtime.plan", _plan_engine_group),
    ("repro.graphs.families", _families_group),
    ("repro.campaigns.store", _store_group),
    ("repro.campaigns.runner", _runner_group),
)


def _search_wrapper(rec: Recorder, short: str, fn):
    nid = rec.intern(f"adversaries.{short}")

    @functools.wraps(fn)
    def search(*args, **kwargs):
        idx = rec.open(nid)
        try:
            witness = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        rec.count(f"adversaries.{short}.explored", witness.explored)
        return witness
    return search


def _load_frontiers(rec: Recorder, fn):
    nid = rec.intern("campaigns.frontiers.load")

    @functools.wraps(fn)
    def load_frontiers(*args, **kwargs):
        idx = rec.open(nid)
        try:
            rows = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        rec.count("campaigns.frontiers.rows", len(rows))
        return rows
    return load_frontiers


def _counting(rec: Recorder, key: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.count(key)
        return fn(*args, **kwargs)
    return counted
