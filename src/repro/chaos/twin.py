"""One differential harness: a baseline arm vs. variant arms, per window.

Redoop's contract is *output neutrality*: caching, recovery (paper
Sec. 5), cross-query reuse, shared scans and parallel backends may
change what a window costs, never what it answers. :func:`twin_run`
makes that executable for every feature at once. It runs one scenario
under several :class:`Arm`\\ s — each a combination of execution
backend, chaos schedule, reuse store and shared-scan switch — and
requires every arm's per-window digests to match the baseline's.

* Arms run in order, so one :class:`~repro.reuse.ReuseStore` handed to
  two variants gives a *cold* run that publishes and a *warm* run that
  is served from it (ReStore's off/cold/warm framing).
* Digests are placement- and timing-independent (sha256 of the sorted
  output reprs), so retries, node kills, cache loss/corruption,
  stragglers and worker crashes must not move them.
* The one sanctioned divergence is a *degraded* window (attempt
  exhaustion, whose output is empty by design): a window degraded in
  any arm is left out of the comparison, and every later window must
  converge back. A differing window count is a mismatch.
* An arm names counters that must end up > 0 (``Arm.expect``): a warm
  run that never hit the store, a worker-fault run that lost no worker
  or a sharing run that shared nothing proves nothing, so it fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..bench.harness import ExperimentConfig, SeriesResult, build_workload, run_redoop_series
from ..bench.service import (
    ServiceScenario,
    build_server,
    drive_scenario,
    output_digests,
    window_digest,
)
from ..core.recovery import RecoveryManager
from ..exec import ExecBackend
from ..reuse import ReuseStore
from ..trace import Tracer
from .driver import run_chaos_series
from .schedule import ChaosEvent, ChaosSchedule

__all__ = ["Arm", "ArmRun", "TwinReport", "twin_run"]

#: ``{query: [(window, digest)]}`` — every arm's answers, normalised.
Digests = Dict[str, List[Tuple[int, str]]]

#: Event kinds the multi-tenant service path can apply.
SERVICE_EVENT_KINDS = ("node-kill", "node-recover")

#: Counters the summary shows when an arm produced them.
SUMMARY_COUNTERS = (
    "exec.retries",
    "exec.worker_lost",
    "exec.quarantined",
    "exec.pool_rebuilds",
    "reuse.hits",
    "reuse.bytes_saved",
    "plan.shared_scans",
    "plan.shared_map_bytes_saved",
)


@dataclass(frozen=True)
class Arm:
    """One way to run the scenario."""

    label: str
    #: Zero-argument backend factory, e.g.
    #: ``functools.partial(make_backend, "process", workers=2)``;
    #: ``None`` runs serially. Each arm gets (and closes) its own.
    backend: Optional[Callable[[], ExecBackend]] = None
    #: Faults injected mid-run (``None``: fault-free).
    schedule: Optional[ChaosSchedule] = None
    #: Cross-query reuse store attached to the arm's runtime.
    store: Optional[ReuseStore] = None
    #: Enable the plan-IR shared-scan optimizer (service scenarios).
    share_scans: bool = False
    #: Counters that must end up > 0 for the arm to count as exercised.
    expect: Tuple[str, ...] = ()


@dataclass
class ArmRun:
    """What one arm produced, in comparison-friendly form."""

    arm: Arm
    digests: Digests
    #: ``(query, window)`` pairs that ended degraded.
    degraded: Set[Tuple[str, int]]
    counters: Dict[str, float]
    tracer: Tracer
    #: ``describe()`` strings of fault events actually applied.
    events_applied: List[str] = field(default_factory=list)
    #: Invariant violations (chaos runs of an ``ExperimentConfig``).
    violations: List[str] = field(default_factory=list)
    #: The per-window series (``ExperimentConfig`` scenarios only).
    series: Optional[SeriesResult] = None

    @property
    def unexercised(self) -> List[str]:
        return [name for name in self.arm.expect if self.counters.get(name, 0) <= 0]


@dataclass
class TwinReport:
    """Outcome of one :func:`twin_run`."""

    scenario: Union[ExperimentConfig, ServiceScenario]
    baseline: ArmRun
    variants: List[ArmRun]
    #: Human-readable digest mismatches (empty = output-neutral).
    mismatches: List[str] = field(default_factory=list)

    @property
    def arms(self) -> List[ArmRun]:
        return [self.baseline, *self.variants]

    @property
    def degraded_windows(self) -> List[Tuple[str, int]]:
        return sorted(set().union(*(run.degraded for run in self.arms)))

    @property
    def violations(self) -> List[str]:
        return [f"{run.arm.label}: {v}" for run in self.arms for v in run.violations]

    @property
    def unexercised(self) -> List[str]:
        return [f"{run.arm.label}: {name}" for run in self.arms for name in run.unexercised]

    @property
    def ok(self) -> bool:
        """Every answer matched, no invariant broke, every arm exercised
        what it claims to."""
        return not (self.mismatches or self.violations or self.unexercised)

    def summary(self) -> str:
        """One paragraph for CLI output / CI logs."""
        lines = []
        for run in self.arms:
            windows = sum(len(pairs) for pairs in run.digests.values())
            shown = " ".join(
                f"{name}={run.counters[name]:.0f}"
                for name in SUMMARY_COUNTERS
                if run.counters.get(name, 0) > 0
            )
            lines.append(
                f"  [{run.arm.label}] windows={windows} "
                f"events={len(run.events_applied)}" + (f" {shown}" if shown else "")
            )
            lines.extend(f"    injected {desc}" for desc in run.events_applied)
        if self.degraded_windows:
            lines.append(
                "  degraded windows (empty output, by design): "
                + ", ".join(f"{q} w{w}" for q, w in self.degraded_windows)
            )
        lines.extend(f"  DIGEST MISMATCH {m}" for m in self.mismatches)
        lines.extend(f"  INVARIANT VIOLATION {v}" for v in self.violations)
        lines.extend(f"  NOT EXERCISED {u} stayed 0" for u in self.unexercised)
        lines.append("  verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def twin_run(
    scenario: Union[ExperimentConfig, ServiceScenario],
    baseline: Arm,
    *variants: Arm,
) -> TwinReport:
    """Run ``scenario`` under every arm in order and compare digests.

    An :class:`~repro.bench.harness.ExperimentConfig` runs as one query
    over one shared generated workload; each arm gets an independent,
    identically-seeded cluster, so the arm's settings are the only
    difference between runs. Arms with a schedule go through the chaos
    driver, which also checks the structural invariants after every
    injection and recurrence. A
    :class:`~repro.bench.service.ServiceScenario` drives the
    multi-tenant server, applying the schedule's explicit-node
    ``node-kill`` / ``node-recover`` events as virtual time passes
    them; any other event kind raises :class:`ValueError`.
    """
    arms = (baseline, *variants)
    if isinstance(scenario, ServiceScenario):
        # Validate every arm's schedule before the first arm runs.
        events = [_service_events(arm.schedule) for arm in arms]
        runs = [_run_service(scenario, arm, ev) for arm, ev in zip(arms, events)]
    else:
        if any(arm.share_scans for arm in arms):
            raise ValueError("share_scans needs a multi-tenant ServiceScenario")
        workload = build_workload(scenario)
        query = scenario.build_query().name
        runs = [_run_series(scenario, arm, workload, query) for arm in arms]
    base, rest = runs[0], runs[1:]
    degraded = set().union(*(run.degraded for run in runs))
    mismatches = [m for run in rest for m in _compare(base, run, degraded)]
    return TwinReport(scenario=scenario, baseline=base, variants=rest, mismatches=mismatches)


def _compare(base: ArmRun, run: ArmRun, degraded: Set[Tuple[str, int]]) -> List[str]:
    label = run.arm.label
    mismatches: List[str] = []
    for query in sorted(set(base.digests) | set(run.digests)):
        want, got = base.digests.get(query, []), run.digests.get(query, [])
        if len(want) != len(got):
            mismatches.append(
                f"{label}: {query} fired {len(got)} windows, baseline fired {len(want)}"
            )
        for (bw, bd), (vw, vd) in zip(want, got):
            if (query, bw) in degraded or (query, vw) in degraded:
                continue
            if bw != vw or bd != vd:
                mismatches.append(
                    f"{label}: {query} window {bw} digest {bd[:12]}… "
                    f"vs window {vw} digest {vd[:12]}…"
                )
    return mismatches


def _run_series(
    config: ExperimentConfig, arm: Arm, workload, query: str
) -> ArmRun:
    backend = arm.backend() if arm.backend is not None else None
    try:
        if arm.schedule is None:
            series = run_redoop_series(
                config, label=arm.label, workload=workload,
                backend=backend, reuse_store=arm.store,
            )
            chaos = None
        else:
            chaos = run_chaos_series(
                config, arm.schedule, label=arm.label, workload=workload,
                backend=backend, reuse_store=arm.store,
            )
            series = chaos.series
    finally:
        if backend is not None:
            backend.close()
    return ArmRun(
        arm=arm,
        digests={
            query: [
                (w.recurrence, window_digest(d))
                for w, d in zip(series.windows, series.output_digests)
            ]
        },
        degraded={(query, w) for w in chaos.degraded_windows} if chaos else set(),
        counters=series.runtime_counters,
        tracer=series.tracer,
        events_applied=list(chaos.events_applied) if chaos else [],
        violations=list(chaos.violations) if chaos else [],
        series=series,
    )


def _service_events(schedule: Optional[ChaosSchedule]) -> List[ChaosEvent]:
    events = list(schedule.events) if schedule is not None else []
    for event in events:
        if event.kind not in SERVICE_EVENT_KINDS or event.node_id is None:
            raise ValueError(
                f"the service path cannot apply {event.describe()!r}: it "
                f"takes only {'/'.join(SERVICE_EVENT_KINDS)} with a node_id"
            )
    return events


def _run_service(
    scenario: ServiceScenario, arm: Arm, events: List[ChaosEvent]
) -> ArmRun:
    backend = arm.backend() if arm.backend is not None else None
    try:
        server = build_server(
            scenario, backend=backend, reuse_store=arm.store, share_scans=arm.share_scans
        )
        recovery = RecoveryManager(server.runtime)
        applied: List[str] = []

        def pace(now: float) -> None:
            # Killing a dead node or recovering a live one is a no-op.
            while events and events[0].at <= now + 1e-9:
                event = events.pop(0)
                alive = server.runtime.cluster.node(event.node_id).alive
                if event.kind == "node-kill" and alive:
                    recovery.fail_node(event.node_id)
                elif event.kind == "node-recover" and not alive:
                    recovery.recover_node(event.node_id)
                else:
                    continue
                applied.append(event.describe())

        drive_scenario(scenario, server, pace=pace if events else None)
    finally:
        if backend is not None:
            backend.close()
    return ArmRun(
        arm=arm,
        digests=output_digests(server),
        degraded={(r.query, r.recurrence) for r in server.results if r.degraded},
        counters=server.counters.as_dict(),
        tracer=server.tracer,
        events_applied=applied,
    )
