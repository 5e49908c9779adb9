"""Span tracing of the apx modules, installed from outside the package.

`Tracer.install()` replaces the public functions of every `apx` module (and
a few private task functions that `util.pmap` fans out) by wrappers that
time each call.  Every module namespace that bound the original function
object gets the wrapper, so `from .counting import direct_prob` callers are
traced too; `uninstall()` puts the originals back.  Nothing under `src` is
edited.

Per call the tracer keeps, keyed by (context, function name):

- calls, inclusive time and self time (duration minus the time covered by
  child spans);
- module entry time: the inclusive time of calls whose caller is in
  another module, so recursion inside one module is not counted twice.

Calls of at least SPAN_MIN_S are also kept as full spans (id, parent,
name, start, end, pid).  A parent always lasts at least as long as its
child, so the kept spans still form a tree.  Shorter calls only feed the
aggregates, which keeps memory bounded on runs with a million oracle calls.

`util.pmap` gets its own wrapper.  With more than one worker each task runs
in a pool process under `_TracedTask`, which returns the task's trace with
its result; the parent merges it and charges the union of the task
intervals to the pmap span as child time.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import time
from collections import defaultdict

SPAN_MIN_S = 0.0005

# Private functions that sit at a layer boundary: the per-group suite tasks
# and the per-q / per-center scan tasks that pmap fans out.
PRIVATE_BOUNDARIES = {
    "search": ("_theorem1_group_cases", "_theorem2_group_cases", "_gls_group_cases"),
    "bounds": ("_scan_one_q",),
    "lemma1": ("_scan_center",),
}

# Methods traced on classes (decode is a layer of its own).
METHODS = (("counting", "SubsetMask", "indices"),)

# Tables whose misses are table builds (n x n int64 each).
TABLES = ("group.add_table", "group.sub_table")

# Per-group suite tasks; their durations give search.largest_group_share.
GROUP_TASKS = (
    "search._theorem1_group_cases",
    "search._theorem2_group_cases",
    "search._gls_group_cases",
)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


class _Frame:
    __slots__ = ("span_id", "name", "module", "start", "child_s")

    def __init__(self, span_id, name, module, start):
        self.span_id = span_id
        self.name = name
        self.module = module
        self.start = start
        self.child_s = 0.0


class Tracer:
    """In-memory spans and per-function aggregates for one process."""

    def __init__(self):
        self.active = False
        self.context = ""
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[_Frame] = []
        self.next_id = 1
        self.spans: list[tuple] = []
        # (context, name) -> [calls, inclusive_s, self_s]
        self.funcs: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (context, module) -> inclusive time of calls entering the module
        self.entry_s: dict[tuple[str, str], float] = defaultdict(float)
        # (context, counter name) -> value
        self.counters: dict[tuple[str, str], float] = defaultdict(float)

    # -- span bookkeeping ---------------------------------------------------

    def enter(self, name: str, module: str) -> _Frame:
        frame = _Frame(self.next_id, name, module, time.perf_counter())
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        key = (self.context, frame.name)
        agg = self.funcs[key]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame.child_s
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child_s += duration
        if parent is None or parent.module != frame.module:
            self.entry_s[(self.context, frame.module)] += duration
        if duration >= SPAN_MIN_S:
            self.spans.append(
                (
                    frame.span_id,
                    parent.span_id if parent is not None else None,
                    frame.name,
                    frame.start,
                    end,
                    os.getpid(),
                )
            )
        return duration

    def count(self, name: str, value: float = 1) -> None:
        self.counters[(self.context, name)] += value

    # -- export / merge for pool workers -------------------------------------

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "funcs": dict(self.funcs),
            "entry_s": dict(self.entry_s),
            "counters": dict(self.counters),
        }

    def merge(self, data: dict, parent: _Frame) -> list[tuple[float, float]]:
        """Fold a pool task's trace in under `parent`; return its root intervals."""
        remap = {span[0]: self.next_id + i for i, span in enumerate(data["spans"])}
        self.next_id += len(remap)
        roots = []
        for span_id, parent_id, name, start, end, pid in data["spans"]:
            if parent_id is None:
                roots.append((start, end))
                new_parent = parent.span_id
            else:
                new_parent = remap[parent_id]
            self.spans.append((remap[span_id], new_parent, name, start, end, pid))
        for key, (calls, incl, own) in data["funcs"].items():
            agg = self.funcs[key]
            agg[0] += calls
            agg[1] += incl
            agg[2] += own
        for key, value in data["entry_s"].items():
            self.entry_s[key] += value
        for key, value in data["counters"].items():
            self.counters[key] += value
        return roots

    # -- installation ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the traced callables of `modules` ({short name: module})."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals: dict[int, tuple[object, str]] = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                public = not attr.startswith("_")
                if not (public or attr in PRIVATE_BOUNDARIES.get(short, ())):
                    continue
                if not callable(value) or inspect.isclass(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                originals[id(value)] = (value, f"{short}.{attr}")
        wrappers = {}
        for key, (fn, name) in originals.items():
            short = name.split(".", 1)[0]
            if name == "util.pmap":
                wrappers[key] = _pmap_wrapper(self, fn)
            else:
                wrappers[key] = _wrapper(self, name, short, fn)
        # Rebind every module attribute that holds an original.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, _wrapper(self, f"{short}.{cls_name}.{meth}", short, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []


TRACER = Tracer()


def _wrapper(tracer: Tracer, name: str, module: str, fn):
    cached = hasattr(fn, "cache_info")
    is_table = name in TABLES
    is_group_task = name in GROUP_TASKS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if cached:
            misses = fn.cache_info().misses
        frame = tracer.enter(name, module)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit(frame)
        if cached:
            if fn.cache_info().misses != misses:
                tracer.count(name + ".misses")
                tracer.count(name + ".miss_s", duration)
                if is_table:
                    tracer.count("group.table_bytes_built", 8 * args[0].order ** 2)
            else:
                tracer.count(name + ".hits")
        _HOOKS.get(name, _no_hook)(tracer, args, result)
        if is_group_task:
            tracer.count(f"group_s|{args[0].label}", duration)
        return result

    return wrapper


class _TracedTask:
    """Pool-side wrapper: run one task with a fresh trace and return both."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        TRACER.reset()
        result = self.fn(item)
        return result, TRACER.export()


def _pmap_wrapper(tracer: Tracer, pmap):
    @functools.wraps(pmap)
    def wrapper(fn, items, threads: int = 1):
        if not tracer.active:
            return pmap(fn, items, threads)
        items = list(items)
        workers = min(threads, len(items)) if threads > 1 and len(items) >= 2 else 1
        cpu0, kids0 = _cpu_s(), _children_cpu_s()
        frame = tracer.enter("util.pmap", "util")
        try:
            if workers > 1:
                pairs = pmap(_TracedTask(fn), items, threads)
                intervals = []
                for _, data in pairs:
                    intervals += tracer.merge(data, frame)
                frame.child_s += _union_length(intervals)
                results = [result for result, _ in pairs]
            else:
                results = pmap(fn, items, threads)
        finally:
            wall = tracer.exit(frame)
        tracer.count("util.pmap.calls")
        tracer.count("util.pmap.wall_s", wall)
        tracer.count("util.pmap.worker_wall_s", workers * wall)
        tracer.count("util.pmap.cpu_s", _cpu_s() - cpu0)
        tracer.count("util.pmap.child_cpu_s", _children_cpu_s() - kids0)
        key = (tracer.context, "util.pmap.workers")
        tracer.counters[key] = max(tracer.counters[key], workers)
        return results

    return wrapper


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


# -- hooks: counts read from returned reports --------------------------------


def _no_hook(tracer, args, result):
    pass


def _extremal_search(tracer, args, result):
    tracer.count("search.sets_enumerated", result.enumerated)
    tracer.count("search.sets_evaluated", result.enumerated - result.pruned_by_canon)


def _verify_gls(tracer, args, result):
    tracer.count("search.sets_enumerated", result.sets_total)
    tracer.count("search.sets_evaluated", result.sets_total)


def _cayley_direct(tracer, args, result):
    tracer.count("counting.cayley_direct.ops_computed", 2 * args[0].group.order ** 3)


def _lemma2_scan(tracer, args, result):
    tracer.count("bounds.lemma2.points", result.points)
    tracer.count("bounds.lemma2.decided", len(result.equalities) + len(result.violations))


def _bruteforce_scan(tracer, args, result):
    tracer.count("lemma1.sequences", result.checked)


_HOOKS = {
    "search.extremal_search": _extremal_search,
    "search.verify_gls": _verify_gls,
    "counting.cayley_triangles_direct": _cayley_direct,
    "bounds.lemma2_scan": _lemma2_scan,
    "lemma1.bruteforce_scan": _bruteforce_scan,
}
