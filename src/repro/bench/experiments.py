"""Per-figure experiment definitions (paper Sec. 6).

Each ``figN_*`` function runs one figure's full parameter sweep and
returns the series keyed the way the paper labels them. Data volumes
are virtual (the simulator charges bytes, Python only materialises one
record per ``record_size`` bytes); the defaults target the paper's
regime of tens-of-GB windows on the 30-node cluster, which keeps every
figure reproducible in seconds to a couple of minutes of wall time.

``scale`` shrinks the per-window data volume proportionally — handy for
CI smoke runs (``scale=0.1``) versus full paper-shape runs
(``scale=1.0``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..exec import ExecBackend
from ..hadoop.config import DEFAULT_CONFIG, ClusterConfig
from ..workloads.batches import paper_spike_windows
from .harness import (
    ExperimentConfig,
    SeriesResult,
    build_workload,
    run_hadoop_series,
    run_redoop_series,
)

if TYPE_CHECKING:  # repro.chaos imports the bench harness
    from ..chaos.schedule import ChaosSchedule

__all__ = [
    "PAPER_OVERLAPS",
    "aggregation_config",
    "join_config",
    "fig6_aggregation",
    "fig7_join",
    "fig8_adaptive",
    "fig9_fault_tolerance",
    "fig9_schedules",
    "headline_series",
    "headline_speedups",
    "ablation_pane_headers",
    "ablation_cache_levels",
    "ablation_scheduler",
]

#: The three overlap settings of Figs. 6-8.
PAPER_OVERLAPS: Tuple[float, ...] = (0.9, 0.5, 0.1)

#: Base per-source arrival rate: 30 MB/s -> ~108 GB per 1-hour window.
_BASE_AGG_RATE = 30_000_000.0

#: Join sources: 16 MB/s each -> ~58 GB per source per 1-hour window.
_BASE_JOIN_RATE = 16_000_000.0


def aggregation_config(
    overlap: float,
    *,
    scale: float = 1.0,
    num_windows: int = 10,
    cluster_config: ClusterConfig = DEFAULT_CONFIG,
    seed: int = 7,
) -> ExperimentConfig:
    """The Fig. 6 aggregation workload at one overlap setting."""
    return ExperimentConfig(
        kind="aggregation",
        win=3600.0,
        overlap=overlap,
        num_windows=num_windows,
        rate=_BASE_AGG_RATE * scale,
        record_size=1_000_000,
        cluster_config=cluster_config,
        seed=seed,
    )


def join_config(
    overlap: float,
    *,
    scale: float = 1.0,
    num_windows: int = 10,
    cluster_config: ClusterConfig = DEFAULT_CONFIG,
    seed: int = 7,
) -> ExperimentConfig:
    """The Fig. 7 join workload at one overlap setting."""
    return ExperimentConfig(
        kind="join",
        win=3600.0,
        overlap=overlap,
        num_windows=num_windows,
        rate=_BASE_JOIN_RATE * scale,
        record_size=2_000_000,
        cluster_config=cluster_config,
        seed=seed,
    )


def _compare(
    config: ExperimentConfig,
    *,
    check_outputs: bool = True,
    backend: Optional[ExecBackend] = None,
) -> Dict[str, SeriesResult]:
    """Run Hadoop and Redoop on identical workloads; verify equivalence."""
    workload = build_workload(config)
    hadoop = run_hadoop_series(config, workload=workload, backend=backend)
    redoop = run_redoop_series(config, workload=workload, backend=backend)
    if check_outputs and hadoop.output_digests != redoop.output_digests:
        raise AssertionError(
            f"Redoop and Hadoop outputs diverge for {config.kind} "
            f"overlap={config.overlap}"
        )
    return {"hadoop": hadoop, "redoop": redoop}


def fig6_aggregation(
    *,
    scale: float = 1.0,
    overlaps: Iterable[float] = PAPER_OVERLAPS,
    num_windows: int = 10,
    cluster_config: ClusterConfig = DEFAULT_CONFIG,
    backend: Optional[ExecBackend] = None,
) -> Dict[float, Dict[str, SeriesResult]]:
    """Fig. 6: aggregation response time + phase split, per overlap."""
    return {
        overlap: _compare(
            aggregation_config(
                overlap,
                scale=scale,
                num_windows=num_windows,
                cluster_config=cluster_config,
            ),
            backend=backend,
        )
        for overlap in overlaps
    }


def fig7_join(
    *,
    scale: float = 1.0,
    overlaps: Iterable[float] = PAPER_OVERLAPS,
    num_windows: int = 10,
    cluster_config: ClusterConfig = DEFAULT_CONFIG,
    backend: Optional[ExecBackend] = None,
) -> Dict[float, Dict[str, SeriesResult]]:
    """Fig. 7: join response time + phase split, per overlap."""
    return {
        overlap: _compare(
            join_config(
                overlap,
                scale=scale,
                num_windows=num_windows,
                cluster_config=cluster_config,
            ),
            backend=backend,
        )
        for overlap in overlaps
    }


def fig8_adaptive(
    *,
    scale: float = 1.0,
    overlaps: Iterable[float] = PAPER_OVERLAPS,
    num_windows: int = 10,
    cluster_config: ClusterConfig = DEFAULT_CONFIG,
    backend: Optional[ExecBackend] = None,
) -> Dict[float, Dict[str, SeriesResult]]:
    """Fig. 8: periodic 2x workload spikes; Hadoop vs Redoop vs adaptive.

    Windows 1, 4, 7, 10 carry the normal workload; the rest are
    doubled, exactly as in the paper.
    """
    results: Dict[float, Dict[str, SeriesResult]] = {}
    for overlap in overlaps:
        config = replace(
            aggregation_config(
                overlap,
                scale=scale,
                num_windows=num_windows,
                cluster_config=cluster_config,
            ),
            spiked_recurrences=frozenset(paper_spike_windows(num_windows)),
        )
        workload = build_workload(config)
        results[overlap] = {
            "hadoop": run_hadoop_series(
                config, workload=workload, backend=backend
            ),
            "redoop": run_redoop_series(
                config,
                label="redoop",
                adaptive=False,
                workload=workload,
                backend=backend,
            ),
            "adaptive": run_redoop_series(
                config,
                label="adaptive",
                adaptive=True,
                workload=workload,
                backend=backend,
            ),
        }
    return results


def fig9_schedules(
    config: ExperimentConfig,
    *,
    cache_loss_fraction: float = 0.5,
    cache_corruption_fraction: float = 0.0,
    node_failure_window: Optional[int] = None,
) -> Dict[str, ChaosSchedule]:
    """Fig. 9's Redoop fault series as chaos schedules, keyed by label.

    Every schedule is seeded with ``config.seed``, and every event fires
    at a window's due time: after its last batch lands, before it runs.
    ``redoop(f)`` is ``pane-loss`` and ``redoop(c)`` ``cache-corrupt``
    before each window from the second on; ``redoop(node-f)`` is a
    seeded ``node-kill`` before ``node_failure_window`` and a
    ``node-recover`` before the next window, if there is one.
    """
    from ..chaos.schedule import ChaosEvent, ChaosSchedule

    n = config.num_windows
    due = config.spec.execution_time

    def every_window(kind: str, fraction: float) -> ChaosSchedule:
        return ChaosSchedule(
            seed=config.seed,
            events=tuple(
                ChaosEvent(at=due(r), kind=kind, fraction=fraction)
                for r in range(2, n + 1)
            ),
        )

    schedules = {"redoop(f)": every_window("pane-loss", cache_loss_fraction)}
    if cache_corruption_fraction > 0:
        schedules["redoop(c)"] = every_window(
            "cache-corrupt", cache_corruption_fraction
        )
    if node_failure_window is not None:
        if not 1 <= node_failure_window <= n:
            raise ValueError(f"node_failure_window must be in [1, {n}]")
        events = [ChaosEvent(at=due(node_failure_window), kind="node-kill")]
        if node_failure_window < n:
            events.append(
                ChaosEvent(at=due(node_failure_window + 1), kind="node-recover")
            )
        schedules["redoop(node-f)"] = ChaosSchedule(
            seed=config.seed, events=tuple(events)
        )
    return schedules


def fig9_fault_tolerance(
    *,
    scale: float = 1.0,
    num_windows: int = 10,
    cache_loss_fraction: float = 0.5,
    cache_corruption_fraction: float = 0.0,
    cluster_config: ClusterConfig = DEFAULT_CONFIG,
    seed: int = 7,
    node_failure_window: Optional[int] = None,
    backend: Optional[ExecBackend] = None,
) -> Dict[str, SeriesResult]:
    """Fig. 9: cache removals injected at the start of each window.

    The paper uses an FFG aggregation at overlap 0.5 and compares
    Hadoop and Redoop with (f) and without injected failures. Series
    are plotted as cumulative running time.

    ``cache_corruption_fraction`` > 0 adds a ``redoop(c)`` series in
    which that fraction of live caches is *silently corrupted* (not
    destroyed) before each window — the integrity complement of the
    loss experiment: no metadata changes, so the runtime must catch the
    checksum mismatch on read and funnel it through the same rollback.

    ``node_failure_window`` additionally runs a ``redoop(node-f)``
    series in which one whole slave node is killed right before that
    window executes and recovered before the next — exercising Sec. 5's
    node-loss rollback end to end (cache re-execution on surviving
    nodes, HDFS re-replication, and the scheduler dropping queued tasks
    that depended on the dead node's caches). The kill and recovery
    appear in the series' trace as ``node.failed`` / ``node.recovered``
    fault events.

    The Redoop fault series run under :func:`fig9_schedules`.
    """
    config = ExperimentConfig(
        kind="ffg-aggregation",
        win=3600.0,
        overlap=0.5,
        num_windows=num_windows,
        rate=_BASE_JOIN_RATE * 2 * scale,
        record_size=1_000_000,
        cluster_config=cluster_config,
        seed=seed,
    )
    schedules = fig9_schedules(
        config,
        cache_loss_fraction=cache_loss_fraction,
        cache_corruption_fraction=cache_corruption_fraction,
        node_failure_window=node_failure_window,
    )
    workload = build_workload(config)

    def redoop(label: str = "redoop") -> SeriesResult:
        return run_redoop_series(
            config,
            label=label,
            schedule=schedules.get(label),
            workload=workload,
            backend=backend,
        )

    results = {
        "hadoop": run_hadoop_series(
            config, workload=workload, backend=backend
        ),
        "redoop": redoop(),
        "redoop(f)": redoop("redoop(f)"),
        "hadoop(f)": run_hadoop_series(
            config,
            label="hadoop(f)",
            task_failure_prob=0.05,
            workload=workload,
            backend=backend,
        ),
    }
    results.update((label, redoop(label)) for label in schedules if label not in results)
    return results


def headline_series(
    *, scale: float = 1.0
) -> Dict[str, Dict[str, SeriesResult]]:
    """The two overlap-0.9 comparisons behind the headline speedups."""
    return {
        "aggregation": _compare(aggregation_config(0.9, scale=scale)),
        "join": _compare(join_config(0.9, scale=scale)),
    }


def headline_speedups(*, scale: float = 1.0) -> Dict[str, float]:
    """The abstract's headline: up to 9x speedup at overlap 0.9."""
    series = headline_series(scale=scale)
    return {
        kind: runs["redoop"].speedup_vs(runs["hadoop"], skip_first=True)
        for kind, runs in series.items()
    }


# ----------------------------------------------------------------------
# ablations (design choices DESIGN.md calls out)
# ----------------------------------------------------------------------


def ablation_pane_headers(*, scale: float = 1.0) -> Dict[str, SeriesResult]:
    """Multi-pane file headers on/off (Sec. 3.2's seek optimisation).

    Uses a low-rate configuration so panes are undersized and share
    files — the only case where the header matters. The rate is capped
    so that panes stay well below the 64 MB block size at any scale
    (oversize panes get their own files and never use headers).
    """
    config = ExperimentConfig(
        kind="aggregation",
        win=3600.0,
        overlap=0.9,
        rate=100_000.0 * min(scale, 0.5),  # low rate -> undersized panes
        record_size=10_000,
    )
    workload = build_workload(config)
    return {
        "with-headers": run_redoop_series(
            config, label="with-headers", use_pane_headers=True, workload=workload
        ),
        "without-headers": run_redoop_series(
            config,
            label="without-headers",
            use_pane_headers=False,
            workload=workload,
        ),
    }


def ablation_cache_levels(*, scale: float = 1.0) -> Dict[str, SeriesResult]:
    """Reduce-input+output caching vs input-only vs none (Sec. 4)."""
    config = aggregation_config(0.9, scale=scale)
    workload = build_workload(config)
    return {
        "both-caches": run_redoop_series(
            config, label="both-caches", workload=workload
        ),
        "input-only": run_redoop_series(
            config,
            label="input-only",
            enable_output_cache=False,
            workload=workload,
        ),
        "no-caching": run_redoop_series(
            config, label="no-caching", enable_caching=False, workload=workload
        ),
    }


def ablation_scheduler(*, scale: float = 1.0) -> Dict[str, SeriesResult]:
    """Cache-aware scheduling vs a deliberately cache-blind variant.

    The cache-blind variant still caches but shuffles each partition to
    a rotating node each window, so caches are read remotely — isolating
    the contribution of Eq. 4's locality term.
    """
    from ..core.runtime import RedoopRuntime

    config = aggregation_config(0.9, scale=scale)
    workload = build_workload(config)
    aware = run_redoop_series(config, label="cache-aware", workload=workload)

    # Monkey-style variant: rotate partition placement every window by
    # clearing the sticky assignment between recurrences.
    from ..hadoop.cluster import Cluster

    cluster = Cluster(config.cluster_config, seed=config.seed)
    runtime = RedoopRuntime(cluster)
    query = config.build_query()
    runtime.register_query(query, {s: config.rate for s in config.sources})
    pending = sorted(
        (item for items in workload.values() for item in items),
        key=lambda bw: (bw[0].t_end, bw[0].source),
    )
    from .harness import SeriesResult, WindowMetrics

    cursor = 0
    metrics = []
    state = runtime._states[query.name]
    for recurrence in range(1, config.num_windows + 1):
        due = query.execution_time(recurrence)
        while cursor < len(pending) and pending[cursor][0].t_end <= due + 1e-9:
            runtime.ingest(*pending[cursor])
            cursor += 1
        # Blind scheduling: rotate every partition's home node each
        # window so caches written last window are never local.
        live = cluster.live_node_ids()
        state.partition_nodes = {
            p: live[(p + recurrence) % len(live)]
            for p in range(query.job.num_reducers)
        }
        r = runtime.run_recurrence(query.name, recurrence)
        metrics.append(
            WindowMetrics(
                recurrence=r.recurrence,
                due_time=r.due_time,
                finish_time=r.finish_time,
                response_time=r.response_time,
                phases=r.phase_times,
                output_pairs=len(r.output),
            )
        )
    blind = SeriesResult(
        label="cache-blind", windows=metrics, tracer=runtime.tracer
    )
    return {"cache-aware": aware, "cache-blind": blind}
