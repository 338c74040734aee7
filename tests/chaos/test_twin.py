"""``twin_run``: composed arms, and one falsifiability test per verdict rule.

The feature-specific differentials (recovery, worker faults, reuse,
shared scans, backend parity) live next to their features; this file
holds what none of them checks alone — features composed in one arm —
and proves each rule of the verdict can actually fail:

* digest mismatch outside a degraded window (here);
* invariant violation (here);
* warm run with zero store hits (here);
* armed worker faults that lost no worker
  (``tests/chaos/test_worker_faults.py``);
* a fleet that never shared a scan (``tests/plan/test_differential.py``).
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.bench.service import ServiceScenario, default_fault_plan
from repro.chaos import Arm, ChaosEvent, ChaosSchedule, twin_run
from repro.chaos.twin import _compare
from repro.exec import SerialBackend, make_backend
from repro.reuse import ReuseStore

from .conftest import mini_config


class LossyBackend(SerialBackend):
    """Breaks output neutrality on purpose: drops one merged pair."""

    def run_tasks(self, fn, calls, **kwargs):
        results = super().run_tasks(fn, calls, **kwargs)
        if kwargs.get("phase") == "merge":
            results = [r[1:] if i == 0 else r for i, r in enumerate(results)]
        return results


class TestVerdictRules:
    def test_digest_mismatch_outside_degraded_window_fails(self):
        # The variant both loses a pair in every window and degrades
        # window 3: every window *but* 3 must be reported.
        schedule = ChaosSchedule(
            seed=5,
            events=(ChaosEvent(at=45.0, kind="task-exhaust", doom="/w3/"),),
        )
        report = twin_run(
            mini_config(),
            Arm("fault-free"),
            Arm("lossy", backend=LossyBackend, schedule=schedule),
        )
        assert [w for _q, w in report.degraded_windows] == [3]
        flagged = sorted(
            int(m.split(" window ")[1].split()[0]) for m in report.mismatches
        )
        assert flagged == [1, 2, 4, 5]
        assert not report.ok
        assert "DIGEST MISMATCH lossy:" in report.summary()

    def test_differing_window_count_is_a_mismatch(self):
        short = mini_config(num_windows=4)
        report = twin_run(short, Arm("base"), Arm("same"))
        assert report.ok, report.summary()
        (query,) = report.baseline.digests
        report.variants[0].digests[query].pop()
        assert _compare(report.baseline, report.variants[0], set()) == [
            f"same: {query} fired 3 windows, baseline fired 4"
        ]

    def test_invariant_violation_fails(self, monkeypatch):
        import repro.chaos.invariants as invariants

        monkeypatch.setattr(
            invariants, "check_invariants", lambda runtime: ["planted breakage"]
        )
        schedule = ChaosSchedule(
            seed=1, events=(ChaosEvent(at=45.0, kind="cache-loss", fraction=0.5),)
        )
        report = twin_run(
            mini_config(num_windows=2),
            Arm("fault-free"),
            Arm("chaos", schedule=schedule),
        )
        assert report.mismatches == []
        assert report.violations
        assert all("planted breakage" in v for v in report.violations)
        assert not report.ok
        assert "INVARIANT VIOLATION chaos:" in report.summary()

    def test_warm_run_with_zero_hits_fails(self):
        # The "warm" arm is handed a fresh store instead of the cold
        # arm's, so nothing can serve it: answers agree, proof is absent.
        report = twin_run(
            mini_config(num_windows=2),
            Arm("reuse-off"),
            Arm("reuse-cold", store=ReuseStore()),
            Arm("reuse-warm", store=ReuseStore(), expect=("reuse.hits",)),
        )
        assert report.mismatches == []
        assert report.unexercised == ["reuse-warm: reuse.hits"]
        assert not report.ok

    def test_share_scans_needs_a_service_scenario(self):
        with pytest.raises(ValueError, match="ServiceScenario"):
            twin_run(mini_config(), Arm("base"), Arm("shared", share_scans=True))


def _join_chaos_reuse_process():
    config = mini_config("join")
    schedule = ChaosSchedule.random(
        4,
        horizon=config.horizon,
        num_nodes=config.cluster_config.num_nodes,
        num_windows=config.num_windows,
        slide=config.slide,
        events_per_window=1.5,
    )
    process = partial(make_backend, "process", workers=2)
    store = ReuseStore()
    return config, (
        Arm("reuse-off"),
        Arm("reuse-cold", backend=process, schedule=schedule, store=store),
        Arm("reuse-warm", backend=process, schedule=schedule, store=store,
            expect=("reuse.hits",)),
    )


def _service_sharing_reuse_faults():
    # With a store attached, later tenants are seeded from panes the
    # first one published, so their map phases never run and nothing is
    # left to share: the store-free "shared" arm carries the sharing
    # proof, the store arms carry the reuse proof.
    scenario = ServiceScenario(tenants=3, recurrences=8)
    schedule = default_fault_plan(scenario)
    store = ReuseStore()
    return scenario, (
        Arm("plain", schedule=schedule),
        Arm("shared", schedule=schedule, share_scans=True,
            expect=("plan.shared_scans", "plan.shared_map_bytes_saved")),
        Arm("shared-cold", schedule=schedule, store=store, share_scans=True,
            expect=("reuse.hits",)),
        Arm("shared-warm", schedule=schedule, store=store, share_scans=True,
            expect=("reuse.hits",)),
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "build",
    [_join_chaos_reuse_process, _service_sharing_reuse_faults],
    ids=["join-chaos-reuse-process", "service-sharing-reuse-faults"],
)
def test_composed_features_are_output_neutral(build):
    scenario, arms = build()
    report = twin_run(scenario, *arms)
    assert report.ok, report.summary()
    assert all(run.events_applied for run in report.variants)
