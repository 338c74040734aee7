"""Chaos harness: declarative fault schedules and one differential harness.

Redoop's fault-tolerance claim (paper Sec. 5) is that metadata rollback
plus re-execution makes every recoverable failure *output-neutral*: the
per-window answers of a run that suffered task kills, node losses,
cache losses, cache corruption, stragglers, and ingest bursts must be
byte-identical to a fault-free run of the same workload. This package
turns that claim into an executable check:

* :class:`~repro.chaos.schedule.ChaosSchedule` — a seeded, replayable
  composition of mid-flight fault events (JSON round-trippable so CI
  can upload a failing schedule as an artifact);
* :func:`~repro.chaos.invariants.check_invariants` — structural
  consistency of controller ready bits vs. registry entries vs.
  scheduler task lists vs. node-local files, run after every injection;
* :func:`~repro.chaos.driver.apply_event` — applies one event to a
  runtime. ``run_redoop_series(config, schedule=...)`` calls it between
  ingest steps, and the service path as virtual time passes each event;
* :func:`~repro.chaos.twin.twin_run` — the differential harness: one
  scenario (an ``ExperimentConfig`` or a multi-tenant
  ``ServiceScenario``) under a baseline :class:`~repro.chaos.twin.Arm`
  and any number of variant arms, each combining an execution backend
  factory, a chaos schedule, a reuse store and the shared-scan switch.
  Every arm's per-window digests must match the baseline's outside
  degraded windows, no invariant may break, and every counter an arm
  names in ``expect`` (``reuse.hits``, ``exec.worker_lost``,
  ``plan.shared_scans``, …) must end up > 0.

See ``docs/fault-tolerance.md`` for the failure domains and semantics.
"""

from .schedule import ChaosEvent, ChaosSchedule, EVENT_KINDS
from .invariants import check_invariants
from .driver import apply_event
from .twin import Arm, ArmRun, TwinReport, twin_run

__all__ = [
    "Arm",
    "ArmRun",
    "ChaosEvent",
    "ChaosSchedule",
    "EVENT_KINDS",
    "TwinReport",
    "apply_event",
    "check_invariants",
    "twin_run",
]
