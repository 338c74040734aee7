"""The recovery differential: fault-free arm vs. chaos arm, end to end."""

from __future__ import annotations

import pytest

from repro.chaos import Arm, ChaosEvent, ChaosSchedule, twin_run

from .conftest import mini_config


def recovery_twin(config, schedule):
    return twin_run(config, Arm("fault-free"), Arm("chaos", schedule=schedule))


def composed_schedule() -> ChaosSchedule:
    """Every recoverable fault domain, composed mid-flight."""
    return ChaosSchedule(
        seed=3,
        events=(
            ChaosEvent(at=45.0, kind="task-kill", prob=0.3),
            ChaosEvent(at=55.0, kind="node-kill"),
            ChaosEvent(at=62.0, kind="cache-corrupt", fraction=0.5),
            ChaosEvent(at=70.0, kind="node-recover"),
            ChaosEvent(at=75.0, kind="cache-loss", fraction=0.4),
            ChaosEvent(at=82.0, kind="slow-node", node_id=1, speed=0.5),
            ChaosEvent(at=95.0, kind="slow-node", node_id=1, speed=1.0),
            ChaosEvent(at=100.0, kind="task-kill", prob=0.0),
        ),
    )


class TestOutputNeutrality:
    @pytest.mark.parametrize("kind", ["aggregation", "join"])
    def test_composed_faults_are_output_neutral(self, kind):
        report = recovery_twin(mini_config(kind), composed_schedule())
        assert report.mismatches == []
        assert report.violations == []
        assert report.ok
        assert len(report.variants[0].events_applied) == 8

    def test_summary_mentions_verdict(self):
        report = recovery_twin(mini_config(), composed_schedule())
        text = report.summary()
        assert "verdict: OK" in text
        assert "injected" in text


class TestDegradedWindows:
    def test_degraded_window_is_sanctioned_divergence(self):
        sched = ChaosSchedule(
            seed=5,
            events=(ChaosEvent(at=45.0, kind="task-exhaust", doom="/w3/"),),
        )
        report = recovery_twin(mini_config(), sched)
        assert [w for _q, w in report.degraded_windows] == [3]
        # The degraded window's (empty) output differs from baseline but
        # is not a mismatch; every later window converges back exactly.
        assert report.mismatches == []
        (query,) = report.baseline.digests
        want = report.baseline.digests[query]
        got = report.variants[0].digests[query]
        assert got[2] != want[2]
        for i in (3, 4):
            assert got[i] == want[i]
        assert report.ok

    def test_summary_reports_degradation(self):
        sched = ChaosSchedule(
            seed=5,
            events=(ChaosEvent(at=45.0, kind="task-exhaust", doom="/w2/"),),
        )
        report = recovery_twin(mini_config(), sched)
        assert "degraded windows" in report.summary()


class TestRandomizedSweep:
    def test_fast_three_seed_sweep(self):
        cfg = mini_config("join")
        for seed in (1, 2, 3):
            sched = ChaosSchedule.random(
                seed,
                horizon=cfg.horizon,
                num_nodes=cfg.cluster_config.num_nodes,
                num_windows=cfg.num_windows,
                slide=cfg.slide,
                events_per_window=1.5,
            )
            report = recovery_twin(cfg, sched)
            assert report.ok, f"seed {seed}:\n{report.summary()}"

    @pytest.mark.slow
    def test_ten_seed_sweep_with_exhaustion(self):
        # The acceptance sweep: >= 10 random seeds, all fault domains,
        # plus a doomed window per run; recovery must hold everywhere.
        cfg = mini_config("join")
        for seed in range(1, 11):
            sched = ChaosSchedule.random(
                seed,
                horizon=cfg.horizon,
                num_nodes=cfg.cluster_config.num_nodes,
                num_windows=cfg.num_windows,
                slide=cfg.slide,
                events_per_window=2.0,
                exhaust_window=3,
            )
            report = recovery_twin(cfg, sched)
            assert report.ok, f"seed {seed}:\n{report.summary()}"
            assert 3 in [w for _q, w in report.degraded_windows]
