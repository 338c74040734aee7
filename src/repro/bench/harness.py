"""The experiment harness: run Redoop vs plain Hadoop over W windows.

Every figure in the paper's evaluation compares per-window processing
times of the two systems under some workload. This module provides the
shared machinery: build a batch schedule, feed it to both systems on
identical (but independent) simulated clusters, and collect per-window
response times and phase breakdowns.

Response time is measured the way the paper plots it: from the moment
the window's data is complete (the execution is *due*) until the final
output is written — so queueing behind an overrunning previous window
counts, and proactive work done before the window closed pays off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.panes import WindowSpec
from ..core.query import RecurringQuery
from ..core.recovery import RecoveryManager
from ..core.runtime import RecurrenceResult, RedoopRuntime
from ..exec import ExecBackend
from ..hadoop.catalog import BatchCatalog, BatchFile
from ..hadoop.cluster import Cluster
from ..hadoop.config import ClusterConfig, DEFAULT_CONFIG
from ..hadoop.counters import PhaseTimes
from ..hadoop.faults import FaultInjector
from ..hadoop.runner import PlainHadoopDriver
from ..hadoop.types import Record
from repro.trace import Tracer
from ..workloads.batches import (
    RateSchedule,
    constant_rate,
    generate_batches,
    spiky_rate,
)
from ..workloads.ffg import FFGConfig, generate_event_records, generate_position_records
from ..workloads.queries import (
    AGG_SOURCE,
    JOIN_SOURCES,
    aggregation_query,
    join_query,
)
from ..workloads.wcc import WCCConfig, generate_wcc_records

if TYPE_CHECKING:  # repro.chaos imports this module
    from ..chaos.schedule import ChaosEvent, ChaosSchedule

__all__ = [
    "ExperimentConfig",
    "WindowMetrics",
    "SeriesResult",
    "build_workload",
    "run_redoop_series",
    "run_hadoop_series",
    "average_series",
    "run_averaged",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a query kind, window geometry, and data volume.

    ``overlap`` follows the paper's definition ``(win - slide) / win``;
    the slide is derived from it. Virtual data volume is set via
    ``rate`` (bytes per virtual second, per source) and
    ``record_size`` (bigger records = fewer Python objects for the
    same virtual bytes — the knob that keeps simulations fast).
    """

    kind: str  # "aggregation" | "join"
    win: float = 3600.0
    overlap: float = 0.9
    num_windows: int = 10
    rate: float = 30_000_000.0
    record_size: int = 1_000_000
    num_reducers: int = 60
    cluster_config: ClusterConfig = DEFAULT_CONFIG
    seed: int = 7
    #: recurrences whose *new* data arrives at double rate (Fig. 8).
    spiked_recurrences: frozenset = frozenset()
    spike_factor: float = 2.0
    #: join key cardinality (controls join selectivity).
    join_keys: int = 5_000
    #: aggregation key cardinality.
    agg_keys: int = 1_000
    #: batch-arrival granularity: batches per pane. Finer batches let
    #: proactive mode start earlier (the paper's sub-pane processing).
    batches_per_pane: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("aggregation", "join", "ffg-aggregation"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if self.num_windows < 1:
            raise ValueError("need at least one window")

    @property
    def slide(self) -> float:
        """Slide implied by the overlap factor; rounded to whole seconds."""
        return max(1.0, round(self.win * (1.0 - self.overlap)))

    @property
    def spec(self) -> WindowSpec:
        return WindowSpec(win=self.win, slide=self.slide)

    @property
    def horizon(self) -> float:
        """Virtual time by which all windows' data has arrived."""
        return self.spec.execution_time(self.num_windows)

    @property
    def sources(self) -> Tuple[str, ...]:
        if self.kind == "aggregation":
            return (AGG_SOURCE,)
        if self.kind == "ffg-aggregation":
            return (JOIN_SOURCES[1],)  # positions
        return JOIN_SOURCES

    def build_query(self) -> RecurringQuery:
        if self.kind == "aggregation":
            return aggregation_query(
                self.win,
                self.slide,
                num_reducers=self.num_reducers,
            )
        if self.kind == "ffg-aggregation":
            # Fig. 9 runs an aggregation over the FFG sensor stream.
            return aggregation_query(
                self.win,
                self.slide,
                name="ffg-agg",
                source=JOIN_SOURCES[1],
                key_field="player",
                num_reducers=self.num_reducers,
            )
        return join_query(self.win, self.slide, num_reducers=self.num_reducers)


@dataclass(slots=True)
class WindowMetrics:
    """Per-window measurements, one row of a paper figure's series."""

    recurrence: int
    due_time: float
    finish_time: float
    response_time: float
    phases: PhaseTimes
    output_pairs: int

    def as_row(self) -> Dict[str, float]:
        return {
            "window": self.recurrence,
            "response_time": self.response_time,
            "shuffle": self.phases.shuffle,
            "reduce": self.phases.reduce,
        }


@dataclass(slots=True)
class SeriesResult:
    """One system's full series over the experiment's windows."""

    label: str
    windows: List[WindowMetrics]
    #: Final output pairs per window (sorted reprs) for cross-checking.
    output_digests: List[Tuple[str, ...]] = field(default_factory=list)
    #: The run's span spine (``None`` for averaged/synthetic series);
    #: export with :func:`repro.trace.export_chrome_trace`.
    tracer: Optional[Tracer] = None
    #: Highest per-node cached working set observed (Redoop runs only);
    #: the capacity bench sizes budgets as a fraction of this.
    peak_cached_bytes: int = 0
    #: Snapshot of the runtime's lifetime counters (Redoop runs only):
    #: cache hits/misses/evictions for hit-rate-vs-capacity reporting.
    runtime_counters: Dict[str, float] = field(default_factory=dict)
    #: ``describe()`` strings of the schedule events actually applied.
    events_applied: List[str] = field(default_factory=list)
    #: Recurrences that ended degraded (attempt exhaustion).
    degraded_windows: List[int] = field(default_factory=list)
    #: Invariant violations, prefixed with the checkpoint that saw them
    #: (checked only when the series ran with a schedule).
    violations: List[str] = field(default_factory=list)

    def response_times(self) -> List[float]:
        return [w.response_time for w in self.windows]

    def avg_response(self, *, skip_first: bool = False) -> float:
        times = self.response_times()[1 if skip_first else 0 :]
        return sum(times) / len(times)

    def total_response(self) -> float:
        return sum(self.response_times())

    def total_phases(self) -> PhaseTimes:
        total = PhaseTimes()
        for w in self.windows:
            total.add(w.phases)
        return total

    def speedup_vs(self, other: "SeriesResult", *, skip_first: bool = False) -> float:
        """How much faster this series is than ``other`` on average."""
        return other.avg_response(skip_first=skip_first) / self.avg_response(
            skip_first=skip_first
        )


# ----------------------------------------------------------------------
# workload construction
# ----------------------------------------------------------------------


def _rate_schedule(config: ExperimentConfig) -> RateSchedule:
    if not config.spiked_recurrences:
        return constant_rate(config.rate)
    return spiky_rate(
        config.rate,
        config.spec,
        spiked_recurrences=set(config.spiked_recurrences),
        factor=config.spike_factor,
    )


def build_workload(
    config: ExperimentConfig,
) -> Dict[str, List[Tuple[BatchFile, List[Record]]]]:
    """All batches per source for the experiment, in arrival order.

    Batches arrive once per slide (the paper's model: data collected
    and uploaded between recurrences).
    """
    schedule = _rate_schedule(config)
    batches: Dict[str, List[Tuple[BatchFile, List[Record]]]] = {}
    if config.kind == "aggregation":
        wcc_cfg = WCCConfig(
            record_size=config.record_size, num_objects=config.agg_keys
        )

        def gen(t0: float, t1: float, rate: float, seed: int) -> List[Record]:
            return generate_wcc_records(t0, t1, rate, config=wcc_cfg, seed=seed)

        batches[AGG_SOURCE] = list(
            generate_batches(
                AGG_SOURCE,
                config.horizon,
                config.spec.pane_seconds / config.batches_per_pane,
                schedule,
                gen,
                seed=config.seed,
            )
        )
        return batches

    ffg_cfg = FFGConfig(
        record_size=config.record_size, num_players=config.join_keys
    )

    def gen_events(t0, t1, rate, seed):
        return generate_event_records(t0, t1, rate, config=ffg_cfg, seed=seed)

    def gen_positions(t0, t1, rate, seed):
        return generate_position_records(t0, t1, rate, config=ffg_cfg, seed=seed)

    if config.kind == "ffg-aggregation":
        batches[JOIN_SOURCES[1]] = list(
            generate_batches(
                JOIN_SOURCES[1],
                config.horizon,
                config.spec.pane_seconds / config.batches_per_pane,
                schedule,
                gen_positions,
                seed=config.seed,
            )
        )
        return batches

    for source, gen in ((JOIN_SOURCES[0], gen_events), (JOIN_SOURCES[1], gen_positions)):
        batches[source] = list(
            generate_batches(
                source,
                config.horizon,
                config.spec.pane_seconds / config.batches_per_pane,
                schedule,
                gen,
                seed=config.seed,
            )
        )
    return batches


# ----------------------------------------------------------------------
# series runners
# ----------------------------------------------------------------------


def run_redoop_series(
    config: ExperimentConfig,
    *,
    label: str = "redoop",
    adaptive: bool = False,
    enable_caching: bool = True,
    enable_output_cache: bool = True,
    use_pane_headers: bool = True,
    schedule: Optional[ChaosSchedule] = None,
    workload: Optional[Mapping[str, List[Tuple[BatchFile, List[Record]]]]] = None,
    tracer: Optional[Tracer] = None,
    cache_capacity_bytes: Optional[int] = None,
    eviction_policy: Optional[str] = None,
    backend: Optional[ExecBackend] = None,
    reuse_store=None,
) -> SeriesResult:
    """Run the experiment on Redoop and collect per-window metrics.

    ``schedule`` injects faults mid-run; the runtime then gets
    ``FaultInjector(seed=schedule.seed)``. Before a batch lands, the
    events with ``at`` strictly before its ``t_end`` apply; the events
    due by a window's due time apply after its ingest; later events
    never apply. With a schedule, even an empty one, the structural
    invariants are checked after every applied event and every window
    (``SeriesResult.violations``). ``tracer`` supplies the span spine (one is created per run
    otherwise); it is returned on the series for export.
    ``reuse_store`` attaches a cross-query
    :class:`~repro.reuse.ReuseStore`: pane/window outputs are published
    into it and matching stored artifacts short-circuit work — pass the
    same store to a second series for a warm run (see ``reuse.md``).
    """
    workload = workload or build_workload(config)
    cluster = Cluster(config.cluster_config, seed=config.seed)
    runtime = RedoopRuntime(
        cluster,
        adaptive=adaptive,
        enable_caching=enable_caching,
        enable_output_cache=enable_output_cache,
        use_pane_headers=use_pane_headers,
        fault_injector=(
            FaultInjector(seed=schedule.seed) if schedule is not None else None
        ),
        tracer=tracer,
        cache_capacity_bytes=cache_capacity_bytes,
        eviction_policy=eviction_policy,
        backend=backend,
        reuse_store=reuse_store,
    )
    query = config.build_query()
    runtime.register_query(query, {src: config.rate for src in config.sources})
    recovery = RecoveryManager(runtime)

    # Interleave batch arrival with recurrence execution so proactive
    # mode sees data as it lands, exactly like the deployed system.
    pending: Deque[Tuple[BatchFile, List[Record]]] = deque(
        sorted(
            (item for items in workload.values() for item in items),
            key=lambda bw: (bw[0].t_end, bw[0].source),
        )
    )

    def ingest(count: int) -> int:
        delivered = min(count, len(pending))
        for _ in range(delivered):
            runtime.ingest(*pending.popleft())
        return delivered

    events: Deque[ChaosEvent] = deque(schedule.events if schedule is not None else ())
    applied: List[str] = []
    violations: List[str] = []
    if schedule is not None:
        from ..chaos.driver import apply_event
        from ..chaos.invariants import check_invariants

    def check(where: str) -> None:
        if schedule is not None:
            violations.extend(f"{where}: {v}" for v in check_invariants(runtime))

    def fire() -> None:
        event = events.popleft()
        if apply_event(event, recovery, ingest):
            applied.append(event.describe())
            check(f"after {event.describe()}")

    results: List[RecurrenceResult] = []
    for recurrence in range(1, config.num_windows + 1):
        due = query.execution_time(recurrence)
        while pending and pending[0][0].t_end <= due + 1e-9:
            if events and events[0].at < pending[0][0].t_end - 1e-9:
                fire()  # an ingest-burst may have moved the queue
            else:
                ingest(1)
        while events and events[0].at <= due + 1e-9:
            fire()
        results.append(runtime.run_recurrence(query.name, recurrence))
        check(f"after window {recurrence}")
    # Worker faults armed but never consumed must not leak into
    # whatever runs next on a shared backend.
    drain = getattr(runtime.backend, "drain_worker_faults", None)
    if schedule is not None and drain is not None:
        drain()

    return SeriesResult(
        label=label,
        tracer=runtime.tracer,
        peak_cached_bytes=max(
            (r.peak_cached_bytes for r in runtime.registries().values()),
            default=0,
        ),
        runtime_counters=runtime.counters.as_dict(),
        windows=[
            WindowMetrics(
                recurrence=r.recurrence,
                due_time=r.due_time,
                finish_time=r.finish_time,
                response_time=r.response_time,
                phases=r.phase_times,
                output_pairs=len(r.output),
            )
            for r in results
        ],
        output_digests=[
            tuple(sorted(map(repr, r.output))) for r in results
        ],
        events_applied=applied,
        degraded_windows=[r.recurrence for r in results if r.degraded],
        violations=violations,
    )


def run_hadoop_series(
    config: ExperimentConfig,
    *,
    label: str = "hadoop",
    task_failure_prob: float = 0.0,
    workload: Optional[Mapping[str, List[Tuple[BatchFile, List[Record]]]]] = None,
    tracer: Optional[Tracer] = None,
    backend: Optional[ExecBackend] = None,
) -> SeriesResult:
    """Run the experiment on plain Hadoop (one fresh job per window)."""
    workload = workload or build_workload(config)
    cluster = Cluster(config.cluster_config, seed=config.seed)
    catalog = BatchCatalog()
    for items in workload.values():
        for batch, records in items:
            cluster.hdfs.create(batch.path, records)
            catalog.add(batch)
    injector = (
        FaultInjector(task_failure_prob=task_failure_prob, seed=config.seed)
        if task_failure_prob > 0
        else None
    )
    driver = PlainHadoopDriver(
        cluster, fault_injector=injector, tracer=tracer, backend=backend
    )
    query = config.build_query()
    spec = config.spec

    windows: List[WindowMetrics] = []
    digests: List[Tuple[str, ...]] = []
    for recurrence in range(1, config.num_windows + 1):
        w_start, w_end = spec.window_bounds(recurrence)
        due = spec.execution_time(recurrence)
        execution = driver.run_window(
            query.job,
            catalog,
            w_start,
            w_end,
            index=recurrence,
            start=max(due, cluster.clock.now),
        )
        windows.append(
            WindowMetrics(
                recurrence=recurrence,
                due_time=due,
                finish_time=execution.result.finish_time,
                response_time=execution.result.finish_time - due,
                phases=execution.result.phase_times,
                output_pairs=len(execution.output()),
            )
        )
        digests.append(tuple(sorted(map(repr, execution.output()))))
    return SeriesResult(
        label=label,
        windows=windows,
        output_digests=digests,
        tracer=driver.tracer,
    )


# ----------------------------------------------------------------------
# multi-run averaging (the paper reports the average over 10 runs)
# ----------------------------------------------------------------------


def average_series(runs: Sequence[SeriesResult]) -> SeriesResult:
    """Average per-window metrics over repeated runs of one system.

    The paper's reported numbers are "the average over 10 runs"
    (Sec. 6.1); this folds independent seeded runs the same way.
    Output digests are dropped (each run saw different data).
    """
    if not runs:
        raise ValueError("nothing to average")
    counts = {len(r.windows) for r in runs}
    if len(counts) != 1:
        raise ValueError("all runs must cover the same number of windows")
    n = len(runs)
    windows: List[WindowMetrics] = []
    for i in range(counts.pop()):
        phases = PhaseTimes()
        for run in runs:
            phases.add(run.windows[i].phases)
        windows.append(
            WindowMetrics(
                recurrence=runs[0].windows[i].recurrence,
                due_time=sum(r.windows[i].due_time for r in runs) / n,
                finish_time=sum(r.windows[i].finish_time for r in runs) / n,
                response_time=sum(r.windows[i].response_time for r in runs) / n,
                phases=phases.scaled(1.0 / n),
                output_pairs=round(
                    sum(r.windows[i].output_pairs for r in runs) / n
                ),
            )
        )
    return SeriesResult(label=runs[0].label, windows=windows)


def run_averaged(
    config: ExperimentConfig,
    *,
    num_runs: int = 3,
    systems: Sequence[str] = ("hadoop", "redoop"),
    adaptive: bool = False,
) -> Dict[str, SeriesResult]:
    """Run the experiment ``num_runs`` times with distinct seeds and average.

    Each run regenerates its workload from a different seed (different
    data, block placement, and tie-breaking), so the averages absorb
    the simulator's remaining stochasticity exactly as the paper's
    10-run averages absorbed cluster noise.
    """
    if num_runs < 1:
        raise ValueError("need at least one run")
    from dataclasses import replace as _replace

    collected: Dict[str, List[SeriesResult]] = {s: [] for s in systems}
    for run_index in range(num_runs):
        seeded = _replace(config, seed=config.seed + 101 * run_index)
        workload = build_workload(seeded)
        if "hadoop" in collected:
            collected["hadoop"].append(
                run_hadoop_series(seeded, workload=workload)
            )
        if "redoop" in collected:
            collected["redoop"].append(
                run_redoop_series(seeded, workload=workload)
            )
        if "adaptive" in collected:
            collected["adaptive"].append(
                run_redoop_series(
                    seeded, label="adaptive", adaptive=True, workload=workload
                )
            )
    return {label: average_series(runs) for label, runs in collected.items()}
