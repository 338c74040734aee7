"""Multi-tenant serving benchmark: N queries, mixed windows, churn.

Where :mod:`repro.bench.harness` measures one query against the paper's
figures, this scenario exercises the *serving layer*: several tenants
with different window/slide constraints share one source (and therefore
one GCD pane plan and one set of pane files), batches stream in through
admission-controlled channels, tenants churn mid-run (a deregistration,
a replacement submission, a pause/resume), and the server checkpoints
itself at recurrence boundaries.

The driver is deliberately *replayable*: every step — churn actions,
batch offers, ``run_until`` ticks — is idempotent against a server that
has already progressed past it (stale offers are skipped, applied
actions are remembered in the server's checkpointed scratchpad). Replay
against a server restored from any checkpoint therefore converges to
exactly the uninterrupted run, which is what the kill/restore soak
asserts byte-for-byte via per-window output digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.runtime import RedoopRuntime
from ..hadoop.catalog import BatchFile
from ..hadoop.cluster import Cluster
from ..hadoop.config import small_test_config
from ..hadoop.types import Record
from ..service import QuerySpec, QueryServer
from ..trace import Tracer
from ..workloads.batches import constant_rate, generate_batches
from ..workloads.wcc import WCCConfig, generate_wcc_records

__all__ = [
    "ServiceScenario",
    "ChurnAction",
    "ScenarioRun",
    "build_server",
    "tenant_specs",
    "churn_plan",
    "default_fault_plan",
    "scenario_batches",
    "drive_scenario",
    "output_digests",
    "window_digest",
]

#: The shared click-stream source every tenant reads.
SOURCE = "wcc"

#: Factory path tenants register through (must be importable on restore).
AGG_FACTORY = "repro.workloads.queries:aggregation_query"


@dataclass(frozen=True)
class ServiceScenario:
    """Knobs of the multi-tenant soak; defaults satisfy the CI smoke run."""

    tenants: int = 3
    #: Recurrences of the *base* slide covered by the batch horizon.
    recurrences: int = 20
    slide: float = 10.0
    rate: float = 200_000.0
    batch_seconds: float = 5.0
    seed: int = 0
    churn: bool = True
    num_nodes: int = 4
    num_reducers: int = 4
    channel_capacity: int = 16

    @property
    def horizon(self) -> float:
        return self.slide * self.recurrences

    def record_config(self) -> WCCConfig:
        # Fat records keep the record count (and sim time) small while
        # the byte volume still stresses pane packing.
        return WCCConfig(record_size=4000, num_clients=500, num_objects=60)


@dataclass(frozen=True)
class ChurnAction:
    """One lifecycle step of the scenario's schedule."""

    time: float
    kind: str  # "submit" | "deregister" | "pause" | "resume"
    name: str
    spec: Optional[QuerySpec] = None


@dataclass
class ScenarioRun:
    """What a drive produced, in comparison-friendly form."""

    #: tenant -> [(recurrence, sha256 of its sorted window output)].
    digests: Dict[str, List[Tuple[int, str]]]
    recurrences_fired: int
    counters: Dict[str, float] = field(default_factory=dict)


def _tenant_spec(scenario: ServiceScenario, index: int, name: str,
                 win_panes: int, slide_panes: int) -> QuerySpec:
    return QuerySpec(
        name=name,
        factory=AGG_FACTORY,
        kwargs={
            "win": scenario.slide * win_panes,
            "slide": scenario.slide * slide_panes,
            "name": name,
            "source": SOURCE,
            "key_field": "object",
            "num_reducers": scenario.num_reducers,
        },
        rates={SOURCE: scenario.rate},
    )


def tenant_specs(scenario: ServiceScenario) -> List[QuerySpec]:
    """The initial tenant fleet: mixed windows and slides, one source."""
    specs = []
    for k in range(scenario.tenants):
        specs.append(
            _tenant_spec(
                scenario,
                k,
                f"t{k:02d}",
                win_panes=2 + (k % 3),
                slide_panes=1 if k % 2 == 0 else 2,
            )
        )
    return specs


def churn_plan(scenario: ServiceScenario) -> List[ChurnAction]:
    """Mid-run lifecycle schedule (empty when churn is disabled).

    Around mid-horizon, tenant ``t01`` leaves and a replacement with a
    different slide takes over its source; ``t02`` is paused for a few
    slides and resumed (its backlog then fires late — deliberate
    deadline misses).
    """
    if not scenario.churn or scenario.tenants < 3:
        return []
    h = scenario.horizon
    s = scenario.slide

    def snap(t: float) -> float:
        return max(s, round(t / s) * s)

    replacement = _tenant_spec(
        scenario, 1, "t01r", win_panes=4, slide_panes=2
    )
    return [
        ChurnAction(time=snap(h * 0.30), kind="pause", name="t02"),
        ChurnAction(time=snap(h * 0.45), kind="deregister", name="t01"),
        ChurnAction(
            time=snap(h * 0.45), kind="submit", name="t01r", spec=replacement
        ),
        ChurnAction(time=snap(h * 0.60), kind="resume", name="t02"),
    ]


def default_fault_plan(scenario: ServiceScenario):
    """Kill the last node mid-horizon, recover it a few slides later.

    Returns a :class:`~repro.chaos.ChaosSchedule` of explicit-node
    ``node-kill`` / ``node-recover`` events, snapped to slide
    boundaries — the fault language the service path of
    :func:`~repro.chaos.twin_run` applies.
    """
    from ..chaos.schedule import ChaosEvent, ChaosSchedule

    h, s = scenario.horizon, scenario.slide
    victim = scenario.num_nodes - 1
    return ChaosSchedule(
        seed=scenario.seed,
        events=(
            ChaosEvent(at=round(h * 0.4 / s) * s, kind="node-kill", node_id=victim),
            ChaosEvent(at=round(h * 0.7 / s) * s, kind="node-recover", node_id=victim),
        ),
    )


def scenario_batches(
    scenario: ServiceScenario,
) -> List[Tuple[BatchFile, List[Record]]]:
    """The full (deterministic) batch schedule for the source."""
    config = scenario.record_config()
    return list(
        generate_batches(
            SOURCE,
            scenario.horizon,
            scenario.batch_seconds,
            constant_rate(scenario.rate),
            lambda t0, t1, rate, seed: generate_wcc_records(
                t0, t1, rate, config=config, seed=seed
            ),
            seed=scenario.seed,
        )
    )


def build_server(
    scenario: ServiceScenario,
    *,
    tracer: Optional[Tracer] = None,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    backend=None,
    reuse_store=None,
    share_scans: bool = False,
) -> QueryServer:
    """A fresh server with the scenario's initial tenants submitted.

    ``reuse_store`` enables the cross-query reuse tier: overlapping
    tenants (and a server restarted against the same store) are served
    from stored pane/window artifacts instead of recomputing.
    ``share_scans`` enables the plan-IR shared-scan optimizer: tenants
    whose Scan → Map → Shuffle prefixes are IR-equal (the scenario's
    whole fleet — same mapper config, same reducer fan-out) execute
    each pane's map phase once and fan the output out.
    """
    cluster = Cluster(
        small_test_config(scenario.num_nodes), seed=scenario.seed
    )
    scan_sharing = None
    if share_scans:
        from ..plan import SharedScanRegistry

        scan_sharing = SharedScanRegistry()
    runtime = RedoopRuntime(
        cluster,
        tracer=tracer,
        backend=backend,
        reuse_store=reuse_store,
        scan_sharing=scan_sharing,
    )
    server = QueryServer(
        runtime,
        channel_capacity=scenario.channel_capacity,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    for spec in tenant_specs(scenario):
        server.submit(spec)
    return server


def _apply_action(server: QueryServer, action: ChurnAction) -> None:
    applied = server.notes.setdefault("applied_actions", [])
    key = f"{action.time}:{action.kind}:{action.name}"
    if key in applied:
        return
    if action.kind == "submit":
        server.submit(action.spec)
    elif action.kind == "deregister":
        server.deregister(action.name)
    elif action.kind == "pause":
        server.pause(action.name)
    elif action.kind == "resume":
        server.resume(action.name)
    else:  # pragma: no cover - schedule construction guards this
        raise ValueError(f"unknown churn action {action.kind!r}")
    applied.append(key)


def drive_scenario(
    scenario: ServiceScenario,
    server: QueryServer,
    *,
    stop_after_recurrences: Optional[int] = None,
    pace: Optional[Callable[[float], None]] = None,
) -> ScenarioRun:
    """Replay the scenario's schedule against ``server`` to completion.

    Every step is idempotent, so the same call works for a fresh
    server, a restored one, or one that already ran to the end.
    ``stop_after_recurrences`` aborts the drive once the server has
    fired that many recurrences *in total* — the hook the soak test
    uses to kill the server at an arbitrary recurrence boundary.
    ``pace`` (if given) is called with the virtual time after each
    tick; the CLI's wall-clock mode sleeps there to pace the replay
    against real time. Pacing never affects the simulated outcome.
    """
    actions = churn_plan(scenario)
    cursor = 0
    for batch, records in scenario_batches(scenario):
        while cursor < len(actions) and actions[cursor].time <= batch.t_start + 1e-9:
            _apply_action(server, actions[cursor])
            cursor += 1
        if SOURCE in server.channels:
            server.offer(batch, records)
        server.run_until(batch.t_end)
        if pace is not None:
            pace(batch.t_end)
        if (
            stop_after_recurrences is not None
            and len(server.results) >= stop_after_recurrences
        ):
            return summarize(server)
    while cursor < len(actions):
        _apply_action(server, actions[cursor])
        cursor += 1
    server.run_until(scenario.horizon)
    return summarize(server)


def window_digest(sorted_reprs: Iterable[str]) -> str:
    """sha256 of one window's sorted output reprs, newline-joined."""
    canonical = "\n".join(sorted_reprs)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def output_digests(server: QueryServer) -> Dict[str, List[Tuple[int, str]]]:
    """Per-tenant ``(recurrence, sha256-of-sorted-output)`` sequences."""
    digests: Dict[str, List[Tuple[int, str]]] = {}
    for result in server.results:
        digests.setdefault(result.query, []).append(
            (result.recurrence, window_digest(sorted(map(repr, result.output))))
        )
    return digests


def summarize(server: QueryServer) -> ScenarioRun:
    return ScenarioRun(
        digests=output_digests(server),
        recurrences_fired=len(server.results),
        counters={
            name: value
            for name, value in server.counters.as_dict().items()
            if name.startswith(("service.", "runtime.", "reuse.", "plan."))
        },
    )
