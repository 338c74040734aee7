"""Timing wrappers around the public calls of each layer, for the traced run.

The wrappers live only here. :class:`Instrumentation` installs them as
class attributes or module-level names (every ``repro`` module that bound
a wrapped function at import gets the wrapper too) and restores the
originals on exit; end-to-end runs never install them.

Each wrapper records a span — name, start, end, parent span and the
window ``(query, recurrence)`` it belongs to — into a :class:`Recorder`
that keeps them in memory until the run ends. Self time is computed
afterwards by :func:`perfbench.stats.self_times`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from .stats import self_times

#: Marker attribute every wrapper carries (points at the original).
WRAPPED = "__perfbench_wrapped__"

#: The package whose modules are scanned for names bound to a wrapped function.
PACKAGE = "repro"


def _scanned(module_name: str) -> bool:
    return module_name == PACKAGE or module_name.startswith(PACKAGE + ".")


class Recorder:
    """In-memory span store for one traced run (columnar, append-only)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.windows: List[Tuple[str, int]] = []
        self._window_ids: Dict[Tuple[str, int], int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.window = array("l")
        self._stack: List[int] = []
        self._current_window = -1
        #: Name of the open root span (``setup`` / ``run`` / ``reference``).
        self.root_name: Optional[str] = None
        #: Work counts measured at layer boundaries (e.g. tasks per phase).
        self.counts: Dict[str, int] = defaultdict(int)

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.window.append(self._current_window)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:  # pragma: no cover - wrappers always nest
            raise RuntimeError("span stack out of order")

    def enter_window(self, key: Tuple[str, int]) -> int:
        """Make ``key`` the current window; returns the previous one."""
        wid = self._window_ids.get(key)
        if wid is None:
            wid = self._window_ids[key] = len(self.windows)
            self.windows.append(key)
        previous, self._current_window = self._current_window, wid
        return previous

    def leave_window(self, previous: int) -> None:
        self._current_window = previous

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A root span covering one timed region of the benchmark."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        self.root_name = name
        idx = self.open(f"root.{name}")
        try:
            yield
        finally:
            self.close(idx)
            self.root_name = None

    def dump(self, path) -> None:
        """Write every span as columns (times in seconds from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as f:
            json.dump(
                {
                    "names": self.names,
                    "windows": self.windows,
                    "name": self.name.tolist(),
                    "start": [round(t - t0, 7) for t in self.start],
                    "end": [round(t - t0, 7) for t in self.end],
                    "parent": self.parent.tolist(),
                    "window": self.window.tolist(),
                },
                f,
                separators=(",", ":"),
            )

    def summary(self) -> "SpanSummary":
        selfs = self_times(self.start, self.end, self.parent)
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        by_window: Dict[Tuple[str, int], float] = defaultdict(float)
        by_root: Dict[str, Dict[str, float]] = {}
        roots: Dict[str, float] = {}
        root_of = array("l")
        for i, own in enumerate(selfs):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += own
            if self.window[i] >= 0:
                by_window[self.windows[self.window[i]]] += own
            parent = self.parent[i]
            # A parent always opens before its children, so its root is known.
            root = i if parent < 0 else root_of[parent]
            root_of.append(root)
            if parent < 0:
                roots[name] = roots.get(name, 0.0) + self.end[i] - self.start[i]
            layers = by_root.setdefault(self.names[self.name[root]], defaultdict(float))
            layers[name] += own
        return SpanSummary(
            dict(calls),
            dict(self_s),
            dict(by_window),
            roots,
            {root: dict(layers) for root, layers in by_root.items()},
        )


@dataclass
class SpanSummary:
    """Per-span-name call counts and self times, plus per-window totals."""

    calls: Dict[str, int]
    self_s: Dict[str, float]
    by_window: Dict[Tuple[str, int], float]
    #: root span name -> wall duration.
    roots: Dict[str, float]
    #: root span name -> {span name -> self seconds under that root}.
    by_root: Dict[str, Dict[str, float]]

    def group(self, prefix: str) -> Tuple[int, float]:
        """Calls and self seconds of every span named ``prefix`` or ``prefix.*``."""
        n, s = 0, 0.0
        for name, count in self.calls.items():
            if name == prefix or name.startswith(prefix + "."):
                n += count
                s += self.self_s[name]
        return n, s


SpanName = Union[str, Callable[[Recorder, tuple, dict], str]]


@dataclass(frozen=True)
class Target:
    """One public call to time: ``module`` + ``attr`` (``f`` or ``Cls.m``).

    ``attr`` may be ``"Cls.*"`` for every public method defined on the
    class. ``window`` derives the window key from the call's arguments.
    ``tasks`` counts ``len(calls)`` into ``<span>.tasks``.
    """

    module: str
    attr: str
    span: SpanName
    window: Optional[Callable[[tuple, dict], Tuple[str, int]]] = None
    tasks: bool = False


def _exec_span(rec: Recorder, args: tuple, kwargs: dict) -> str:
    prefix = "reference" if rec.root_name == "reference" else "exec"
    return f"{prefix}.{kwargs.get('phase', 'task')}"


def _recurrence_window(args: tuple, kwargs: dict) -> Tuple[str, int]:
    runtime, name = args[0], args[1]
    recurrence = args[2] if len(args) > 2 else kwargs.get("recurrence")
    if recurrence is None:
        recurrence = runtime.next_recurrence(name)
    return (name, recurrence)


def _reference_window(args: tuple, kwargs: dict) -> Tuple[str, int]:
    return (f"reference:{args[1].name}", kwargs.get("index", 0))


#: The layer boundaries the traced run times (see perfbench/README.md).
TARGETS: Tuple[Target, ...] = (
    Target("repro.workloads.batches", "generate_batches", "workloads.batches"),
    Target("repro.workloads.wcc", "generate_wcc_records", "workloads.wcc"),
    Target("repro.workloads.ffg", "generate_event_records", "workloads.ffg"),
    Target("repro.workloads.ffg", "generate_position_records", "workloads.ffg"),
    Target("repro.core.runtime", "RedoopRuntime.ingest", "ingest.runtime"),
    Target("repro.service.server", "QueryServer.offer", "ingest.offer"),
    Target("repro.exec.backends", "ExecBackend.run_tasks", _exec_span, tasks=True),
    Target("repro.hadoop.shuffle", "sort_pairs", "shuffle.sort"),
    Target("repro.hadoop.shuffle", "apply_combiner", "shuffle.combine"),
    Target("repro.hadoop.shuffle", "partition_pairs", "shuffle.partition"),
    Target("repro.core.cache_registry", "LocalCacheRegistry.add_entry", "cache.add"),
    Target("repro.core.cache_registry", "LocalCacheRegistry.read", "cache.read"),
    Target("repro.core.cache_registry", "LocalCacheRegistry.verify", "cache.verify"),
    Target("repro.core.cache_registry", "payload_checksum", "cache.checksum"),
    Target("repro.core.cache_controller", "WindowAwareCacheController.*", "controller"),
    Target("repro.core.scheduler", "CacheAwareTaskScheduler.next_map", "sched.next_map"),
    Target("repro.core.scheduler", "CacheAwareTaskScheduler.next_reduce", "sched.next_reduce"),
    Target("repro.core.scheduler", "CacheAwareTaskScheduler.select_map_node", "sched.select"),
    Target("repro.core.scheduler", "CacheAwareTaskScheduler.select_reduce_node", "sched.select"),
    Target(
        "repro.core.runtime",
        "RedoopRuntime.run_recurrence",
        "runtime.recurrence",
        window=_recurrence_window,
    ),
    Target("repro.hadoop.hdfs", "SimulatedHDFS.create", "hdfs.create"),
    Target("repro.hadoop.hdfs", "SimulatedHDFS.create_isolated", "hdfs.create"),
    Target("repro.hadoop.hdfs", "SimulatedHDFS.open", "hdfs.read"),
    Target("repro.hadoop.hdfs", "SimulatedHDFS.read_records", "hdfs.read"),
    Target("repro.hadoop.hdfs", "SimulatedHDFS.splits", "hdfs.read"),
    Target("repro.plan.sharing", "SharedScanRegistry.lookup", "sharing.lookup"),
    Target("repro.plan.sharing", "SharedScanRegistry.publish", "sharing.publish"),
    Target("repro.plan.sharing", "SharedScanRegistry.retire", "sharing.retire"),
    Target("repro.service.server", "QueryServer.run_until", "service.run_until"),
    Target("repro.service.server", "QueryServer.submit", "service.lifecycle"),
    Target("repro.service.server", "QueryServer.deregister", "service.lifecycle"),
    Target("repro.service.server", "QueryServer.pause", "service.lifecycle"),
    Target("repro.service.server", "QueryServer.resume", "service.lifecycle"),
    Target("repro.service.server", "QueryServer.checkpoint", "checkpoint"),
    Target("repro.trace.spine", "Tracer.begin", "trace"),
    Target("repro.trace.spine", "Tracer.end", "trace"),
    Target("repro.trace.spine", "Tracer.span", "trace"),
    Target("repro.trace.spine", "Tracer.instant", "trace"),
    Target("repro.trace.spine", "Tracer.children", "trace"),
    Target("repro.trace.spine", "Tracer.spans", "trace"),
    Target(
        "repro.hadoop.runner",
        "PlainHadoopDriver.run_window",
        "reference.window",
        window=_reference_window,
    ),
)


def _wrap(orig: Callable[..., Any], target: Target, rec: Recorder) -> Callable[..., Any]:
    span = target.span
    window = target.window
    pid = rec.pid

    if inspect.isgeneratorfunction(orig):
        # Time each step of the generator, not just its creation.
        @functools.wraps(orig)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
            it = orig(*args, **kwargs)
            if os.getpid() != pid:
                yield from it
                return
            while True:
                idx = rec.open(span if isinstance(span, str) else span(rec, args, kwargs))
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                yield item

        setattr(gen_wrapper, WRAPPED, orig)
        return gen_wrapper

    @functools.wraps(orig)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if os.getpid() != pid:  # a forked pool worker: pass straight through
            return orig(*args, **kwargs)
        name = span if isinstance(span, str) else span(rec, args, kwargs)
        if target.tasks:
            calls = args[2] if len(args) > 2 else kwargs.get("calls", ())
            rec.counts[f"{name}.tasks"] += len(calls)
        previous = rec.enter_window(window(args, kwargs)) if window else None
        idx = rec.open(name)
        try:
            return orig(*args, **kwargs)
        finally:
            rec.close(idx)
            if window:
                rec.leave_window(previous)

    setattr(wrapper, WRAPPED, orig)
    return wrapper


def _public_methods(cls: type) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class Instrumentation:
    """Install the wrappers for the duration of a ``with`` block."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: (owner, attribute name, original) for every patched slot.
        self._undo: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("already installed")
        try:
            for target in TARGETS:
                module = import_module(target.module)
                if "." in target.attr:
                    cls_name, method = target.attr.split(".", 1)
                    cls = getattr(module, cls_name)
                    methods = _public_methods(cls) if method == "*" else [method]
                    for m in methods:
                        orig = vars(cls)[m]
                        self._patch(cls, m, _wrap(orig, target, self.recorder))
                    continue
                orig = getattr(module, target.attr)
                wrapper = _wrap(orig, target, self.recorder)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "") or ""
                    if not _scanned(mod_name):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()


def leftover_wrappers() -> List[str]:
    """Every module- or class-level slot still holding a wrapper."""
    found = []
    for mod in list(sys.modules.values()):
        mod_name = getattr(mod, "__name__", "") or ""
        if not _scanned(mod_name):
            continue
        for attr, value in list(vars(mod).items()):
            if hasattr(value, WRAPPED):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for name, member in vars(value).items():
                    if hasattr(member, WRAPPED):
                        found.append(f"{mod_name}.{attr}.{name}")
    return found
