"""The benchmark workloads, driven through ``repro``'s public entry points.

Each workload splits one iteration into the three timed regions the
end-to-end metrics report:

* ``generate`` + ``build`` — set-up: batches from the seed, the cluster,
  the runtime or server, the registered queries;
* ``run`` — the system under test, from the first ingest to the last
  window result, one *tick* per batch arrival (closed loop: the
  next batch is offered only after the tick returns);
* ``reference`` — plain Hadoop (``PlainHadoopDriver.run_window``) over
  the same windows and batches, on the same execution backend.

Modules whose functions the traced run wraps are used through their
module attributes, so the wrappers see every call.
"""

from __future__ import annotations

import bisect
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.bench import harness
from repro.bench import service as svc
from repro.bench.experiments import aggregation_config, join_config
from repro.core.runtime import RedoopRuntime
from repro.exec import make_backend
from repro.hadoop.catalog import BatchCatalog
from repro.hadoop.cluster import Cluster
from repro.hadoop.config import small_test_config
from repro.hadoop.runner import PlainHadoopDriver
from repro.service.spec import build_query

from .hostspeed import Stopwatch

_EPS = 1e-9

#: Window overlap of both figure shapes: the paper's highest, where
#: pane reuse matters most.
OVERLAP = 0.9

WindowKey = Tuple[str, int]


@dataclass
class Outcome:
    """What the system under test produced in one iteration."""

    #: window -> (output, degraded)
    observed: Dict[WindowKey, Tuple[List[Any], bool]] = field(default_factory=dict)
    #: window -> virtual response time (finish - due)
    response: Dict[WindowKey, float] = field(default_factory=dict)
    #: window -> wall latency of its result (ms), see :class:`TickClock`.
    latency_ms: Dict[WindowKey, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    #: the program's own tracers (read for exec.batch / exec.worker instants).
    tracers: List[Any] = field(default_factory=list)
    checkpoint_bytes: int = 0


@dataclass
class Reference:
    outputs: Dict[WindowKey, List[Any]] = field(default_factory=dict)
    response: Dict[WindowKey, float] = field(default_factory=dict)
    tracers: List[Any] = field(default_factory=list)


class TickClock:
    """Wall latency of each window result, measured per tick.

    A window's clock starts when the tick begins whose batch completed
    the window's data (but not before the tick that submitted its
    query), and stops when the tick that emitted its result ends. The
    stopwatch may sample the host's speed before a tick starts; the
    latencies are read from it in host-neutral milliseconds.
    """

    def __init__(self, watch: Stopwatch) -> None:
        self.watch = watch
        self.ends: List[float] = []  # virtual t_end of each tick's batches
        self.starts: List[float] = []  # stopwatch reading at each tick's start
        self.spans: Dict[WindowKey, Tuple[float, float]] = {}

    def begin(self, t_end: float) -> int:
        self.watch.checkpoint()
        self.ends.append(t_end)
        self.starts.append(self.watch.now())
        return len(self.ends) - 1

    def end(self, fired: List[Any], born: Dict[str, int]) -> None:
        now = self.watch.now()
        for r in fired:
            tick = max(bisect.bisect_left(self.ends, r.due_time - _EPS), born.get(r.query, 0))
            self.spans[(r.query, r.recurrence)] = (self.starts[tick], now)

    def latency_ms(self) -> Dict[WindowKey, float]:
        return {key: self.watch.seconds(*span) * 1000.0 for key, span in self.spans.items()}


def counter_bag(lifetime, results) -> Dict[str, float]:
    """The runtime's lifetime counters plus the per-window bags summed.

    A per-window name the lifetime bag also holds is kept apart as
    ``window.<name>``.
    """
    bag = lifetime.as_dict()
    totals: Dict[str, float] = {}
    for result in results:
        for name, value in result.counters.as_dict().items():
            totals[name] = totals.get(name, 0.0) + value
    for name, value in totals.items():
        bag[f"window.{name}" if name in bag else name] = value
    return dict(sorted(bag.items()))


def _outcome(results, clock: TickClock, counters, tracer) -> Outcome:
    out = Outcome(
        latency_ms=clock.latency_ms(),
        counters=counter_bag(counters, results),
        tracers=[tracer],
    )
    for r in results:
        key = (r.query, r.recurrence)
        out.observed[key] = (r.output, r.degraded)
        out.response[key] = r.response_time
    return out


def _load_reference(cluster_config, seed: int, batches) -> Tuple[Cluster, BatchCatalog]:
    cluster = Cluster(cluster_config, seed=seed)
    catalog = BatchCatalog()
    for batch, records in batches:
        cluster.hdfs.create(batch.path, records)
        catalog.add(batch)
    return cluster, catalog


def _reference_windows(cluster, catalog, backend, windows, between) -> Reference:
    """Run ``(key, query, due, (w_start, w_end))`` windows in order, one job each.

    ``between`` is called before each window.
    """
    hadoop = PlainHadoopDriver(cluster, backend=backend)
    ref = Reference(tracers=[hadoop.tracer])
    for key, query, due, (w_start, w_end) in windows:
        between()
        execution = hadoop.run_window(
            query.job, catalog, w_start, w_end, index=key[1],
            start=max(due, cluster.clock.now),
        )
        ref.outputs[key] = execution.output()
        ref.response[key] = execution.result.finish_time - due
    return ref


class Workload:
    """Common shape; see :class:`FigureWorkload` and :class:`ServeWorkload`."""

    name: str
    backend: str = "serial"
    workers: Optional[int] = None
    #: Fewest iterations per run.
    min_iterations: int = 1

    def make_backend(self):
        if self.backend == "serial":
            return make_backend("serial")
        return make_backend(self.backend, workers=self.workers)

    def sizes(self) -> Dict[str, Any]:
        raise NotImplementedError

    def collect(self, system, results, clock: TickClock) -> Outcome:
        """Untimed: turn the run's results into an :class:`Outcome`."""
        raise NotImplementedError


class FigureWorkload(Workload):
    """The fig6 (WCC aggregation) or fig7 (FFG join) shape, one query."""

    def __init__(
        self,
        name: str,
        kind: str,
        *,
        scale: float,
        windows: int,
        backend: str = "serial",
        workers: Optional[int] = None,
        min_iterations: int = 1,
    ) -> None:
        self.name = name
        self.kind = kind
        self.scale = scale
        self.windows = windows
        self.backend = backend
        self.workers = workers
        self.min_iterations = min_iterations

    def sizes(self) -> Dict[str, Any]:
        return {
            "shape": "fig6" if self.kind == "aggregation" else "fig7",
            "scale": self.scale,
            "windows": self.windows,
            "overlap": OVERLAP,
            "backend": self.backend,
            "workers": self.workers or 1,
        }

    def records(self, inputs) -> int:
        return sum(len(records) for items in inputs[1].values() for _b, records in items)

    def config(self, seed: int):
        make = aggregation_config if self.kind == "aggregation" else join_config
        return make(OVERLAP, scale=self.scale, num_windows=self.windows, seed=seed)

    # -- set-up -----------------------------------------------------------

    def generate(self, seed: int):
        config = self.config(seed)
        return config, harness.build_workload(config)

    def build(self, inputs, backend, workdir: Path):
        config, batches = inputs
        cluster = Cluster(config.cluster_config, seed=config.seed)
        runtime = RedoopRuntime(cluster, backend=backend)
        query = config.build_query()
        runtime.register_query(query, {src: config.rate for src in config.sources})
        pending = sorted(
            (item for items in batches.values() for item in items),
            key=lambda bw: (bw[0].t_end, bw[0].source),
        )
        ticks: List[Tuple[float, List[Any]]] = []
        for batch, records in pending:
            if not ticks or ticks[-1][0] != batch.t_end:
                ticks.append((batch.t_end, []))
            ticks[-1][1].append((batch, records))
        return runtime, query, ticks

    def expected(self, inputs) -> List[WindowKey]:
        config, _batches = inputs
        name = config.build_query().name
        return [(name, r) for r in range(1, self.windows + 1)]

    # -- the system under test -------------------------------------------

    def run(self, system, clock: TickClock) -> List[Any]:
        runtime, query, ticks = system
        results: List[Any] = []
        recurrence = 1
        for t_end, items in ticks:
            clock.begin(t_end)
            for batch, records in items:
                runtime.ingest(batch, records)
            fired = []
            while (
                recurrence <= self.windows
                and query.execution_time(recurrence) <= t_end + _EPS
            ):
                fired.append(runtime.run_recurrence(query.name, recurrence))
                recurrence += 1
            clock.end(fired, {})
            results.extend(fired)
        return results

    def collect(self, system, results, clock: TickClock) -> Outcome:
        runtime = system[0]
        return _outcome(results, clock, runtime.counters, runtime.tracer)

    # -- the plain-Hadoop reference ---------------------------------------

    def reference(self, inputs, backend, between) -> Reference:
        config, batches = inputs
        cluster, catalog = _load_reference(
            config.cluster_config,
            config.seed,
            [item for items in batches.values() for item in items],
        )
        query = config.build_query()
        spec = config.spec
        windows = [
            ((query.name, r), query, spec.execution_time(r), spec.window_bounds(r))
            for r in range(1, self.windows + 1)
        ]
        return _reference_windows(cluster, catalog, backend, windows, between)


class ServeWorkload(Workload):
    """The multi-tenant ``repro.bench.service`` scenario, closed loop.

    One client offers the next batch only after ``run_until`` returns.
    Churn (pause, deregister, replacement submit, resume) follows the
    scenario's own plan; scan sharing is on and the server checkpoints
    every ``checkpoint_every`` fired recurrences.
    """

    def __init__(
        self,
        name: str,
        *,
        tenants: int,
        recurrences: int,
        checkpoint_every: int,
        min_iterations: int = 1,
    ) -> None:
        self.name = name
        self.tenants = tenants
        self.recurrences = recurrences
        self.checkpoint_every = checkpoint_every
        self.min_iterations = min_iterations

    def sizes(self) -> Dict[str, Any]:
        return {
            "shape": "serve",
            "tenants": self.tenants,
            "recurrences": self.recurrences,
            "checkpoint_every": self.checkpoint_every,
            "share_scans": True,
            "backend": self.backend,
        }

    def records(self, inputs) -> int:
        return sum(len(records) for _b, records in inputs[1])

    def scenario(self, seed: int) -> "svc.ServiceScenario":
        return svc.ServiceScenario(
            tenants=self.tenants, recurrences=self.recurrences, seed=seed
        )

    def generate(self, seed: int):
        scenario = self.scenario(seed)
        return scenario, svc.scenario_batches(scenario)

    def build(self, inputs, backend, workdir: Path):
        scenario, batches = inputs
        ckpt_dir = workdir / "checkpoints"
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        ckpt_dir.mkdir(parents=True)
        server = svc.build_server(
            scenario,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=self.checkpoint_every,
            backend=backend,
            share_scans=True,
        )
        return scenario, batches, server, ckpt_dir

    def _lifetimes(self, scenario) -> List[Tuple[Any, float]]:
        """Every tenant spec with the virtual time its last window may be due."""
        ends: Dict[str, float] = {}
        specs = list(svc.tenant_specs(scenario))
        for action in svc.churn_plan(scenario):
            if action.kind == "submit":
                specs.append(action.spec)
            elif action.kind == "deregister":
                ends[action.name] = action.time
        return [(spec, ends.get(spec.name, scenario.horizon)) for spec in specs]

    def expected(self, inputs) -> List[WindowKey]:
        scenario, _batches = inputs
        keys = []
        for spec, end in self._lifetimes(scenario):
            query = build_query(spec)
            r = 1
            while query.execution_time(r) <= end + _EPS:
                keys.append((spec.name, r))
                r += 1
        return keys

    def run(self, system, clock: TickClock) -> List[Any]:
        scenario, batches, server, _ckpt_dir = system
        actions = svc.churn_plan(scenario)
        born: Dict[str, int] = {}
        cursor = 0
        results: List[Any] = []

        def apply(action, tick: int) -> None:
            if action.kind == "submit":
                server.submit(action.spec)
                born[action.name] = tick
            elif action.kind == "deregister":
                server.deregister(action.name)
            elif action.kind == "pause":
                server.pause(action.name)
            else:
                server.resume(action.name)

        # One tick per batch, then a last one for trailing actions.
        for batch, records in [*batches, (None, None)]:
            t_end = scenario.horizon if batch is None else batch.t_end
            tick = clock.begin(t_end)
            while cursor < len(actions) and (
                batch is None or actions[cursor].time <= batch.t_start + _EPS
            ):
                apply(actions[cursor], tick)
                cursor += 1
            if batch is not None and svc.SOURCE in server.channels:
                server.offer(batch, records)
            fired = server.run_until(t_end)
            clock.end(fired, born)
            results.extend(fired)
        return results

    def collect(self, system, results, clock: TickClock) -> Outcome:
        server, ckpt_dir = system[2], system[3]
        out = _outcome(results, clock, server.counters, server.tracer)
        out.checkpoint_bytes = sum(p.stat().st_size for p in ckpt_dir.iterdir())
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        return out

    def reference(self, inputs, backend, between) -> Reference:
        scenario, batches = inputs
        cluster, catalog = _load_reference(
            small_test_config(scenario.num_nodes), scenario.seed, batches
        )
        queries = {spec.name: build_query(spec) for spec, _end in self._lifetimes(scenario)}
        windows = [
            (
                (name, r),
                queries[name],
                queries[name].execution_time(r),
                queries[name].window_bounds(r)[svc.SOURCE],
            )
            for name, r in self.expected(inputs)
        ]
        windows.sort(key=lambda w: (w[2], w[0]))
        return _reference_windows(cluster, catalog, backend, windows, between)


#: Every workload the benchmark knows, by name (why each: perfbench/README.md).
#: agg-slide-proc runs by name only and is not in BENCHMARK.json: its times
#: are not host-neutral and on a shared host swing beyond any bound.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        FigureWorkload(
            "agg-slide",
            "aggregation",
            scale=0.2,
            windows=12,
            min_iterations=3,
        ),
        FigureWorkload(
            "join-slide",
            "join",
            scale=0.05,
            windows=5,
            min_iterations=4,
        ),
        ServeWorkload(
            "serve-churn",
            tenants=6,
            recurrences=60,
            checkpoint_every=140,
            min_iterations=3,
        ),
        FigureWorkload(
            "agg-slide-proc",
            "aggregation",
            scale=0.2,
            windows=6,
            backend="process",
            workers=2,
            min_iterations=4,
        ),
    )
}
