"""The shared-scan differential, end to end through the service.

These are the tests the CI fast lane's smoke step mirrors
(``repro plan --differential``): sharing on vs. off must be
byte-identical per tenant per window, under churn, under a
deterministic node kill/recover plan, and under a real process-pool
backend — while the shared run demonstrably skips map work.
"""

from __future__ import annotations

import pytest

from repro.bench.service import ServiceScenario, build_server, default_fault_plan
from repro.chaos import Arm, ChaosEvent, ChaosSchedule, twin_run

SCENARIO = ServiceScenario(tenants=3, recurrences=6)

SHARED_COUNTERS = ("plan.shared_scans", "plan.shared_map_bytes_saved")


def sharing_twin(scenario, *, backend=None, schedule=None):
    """Sharing off (baseline) vs. on, same churn and fault schedule."""
    return twin_run(
        scenario,
        Arm("unshared", backend=backend, schedule=schedule),
        Arm("shared", backend=backend, schedule=schedule, share_scans=True,
            expect=SHARED_COUNTERS),
    )


def test_differential_is_byte_identical_and_shares():
    report = sharing_twin(SCENARIO)
    shared = report.variants[0]
    assert report.mismatches == []
    assert shared.counters["plan.shared_scans"] > 0
    assert shared.counters["plan.shared_map_bytes_saved"] > 0
    assert report.ok
    assert "verdict: OK" in report.summary()


def test_differential_survives_a_node_kill():
    plan = default_fault_plan(SCENARIO)
    assert [e.kind for e in plan.events] == ["node-kill", "node-recover"]
    report = sharing_twin(SCENARIO, schedule=plan)
    assert [len(run.events_applied) for run in report.arms] == [2, 2]
    assert report.ok, report.summary()


def test_differential_reports_a_manufactured_mismatch():
    # The harness itself must be falsifiable: feed it runs that cannot
    # share (single tenant fleet) and require a non-ok report.
    lone = ServiceScenario(tenants=1, recurrences=3, churn=False)
    report = sharing_twin(lone)
    assert report.mismatches == []  # outputs still agree...
    assert report.variants[0].counters.get("plan.shared_scans", 0) == 0
    assert report.unexercised == [f"shared: {c}" for c in SHARED_COUNTERS]
    assert not report.ok
    assert "NOT EXERCISED shared: plan.shared_scans" in report.summary()


@pytest.mark.parametrize(
    "event",
    [
        ChaosEvent(at=20.0, kind="cache-loss", fraction=0.5),
        ChaosEvent(at=20.0, kind="node-kill"),  # no explicit node_id
    ],
    ids=["unsupported-kind", "implicit-node"],
)
def test_service_path_rejects_events_it_cannot_apply(event):
    schedule = ChaosSchedule(seed=0, events=(event,))
    with pytest.raises(ValueError, match="service path cannot apply"):
        sharing_twin(SCENARIO, schedule=schedule)


def test_submit_counts_prefix_matches():
    server = build_server(SCENARIO, share_scans=True)
    counters = server.counters.as_dict()
    # t01 and t02 each matched an already-registered IR-equal prefix.
    assert counters["plan.prefix_matches"] == 2.0
    assert server.runtime.shared_prefix_peers("t00") == {
        "wcc": ["t01", "t02"]
    }


def test_submit_without_sharing_emits_no_plan_counters():
    server = build_server(SCENARIO, share_scans=False)
    assert not any(
        name.startswith("plan.") for name in server.counters.as_dict()
    )


@pytest.mark.slow
def test_differential_with_process_backend():
    from functools import partial

    from repro.exec import make_backend

    scenario = ServiceScenario(tenants=2, recurrences=5, churn=False)
    report = sharing_twin(
        scenario, backend=partial(make_backend, "process", workers=2)
    )
    assert report.ok, report.summary()


@pytest.mark.slow
def test_fault_plan_actions_are_idempotent_against_dead_nodes():
    # Killing an already-dead node (or recovering a live one) is a
    # no-op, so a fault plan denser than the node's state transitions
    # still drives to an ok report.
    kill, recover = default_fault_plan(SCENARIO).events
    plan = ChaosSchedule(seed=0, events=(kill, kill, recover))
    report = sharing_twin(SCENARIO, schedule=plan)
    assert [len(run.events_applied) for run in report.arms] == [2, 2]
    assert report.ok, report.summary()
