"""The reuse differential (off/cold/warm arms), fault-free and under chaos."""

from __future__ import annotations

from repro.bench.experiments import join_config
from repro.chaos import Arm, ChaosEvent, ChaosSchedule, twin_run
from repro.reuse import ReuseStore

CONFIG = join_config(0.75, scale=0.05, num_windows=3)


def reuse_twin(config, schedule=None):
    """Store-off vs. cold vs. warm: one store, handed to two arms in
    order, so the warm arm is served from what the cold arm published.

    The store arms always carry a schedule (an empty one when fault-free)
    so they run through the chaos driver, which checks the structural
    invariants — the store's backing files and budget included — after
    every window.
    """
    if schedule is None:
        schedule = ChaosSchedule(seed=0, events=())
    store = ReuseStore()
    return twin_run(
        config,
        Arm("reuse-off"),
        Arm("reuse-cold", schedule=schedule, store=store),
        Arm("reuse-warm", schedule=schedule, store=store, expect=("reuse.hits",)),
    )


class TestReuseDifferential:
    def test_fault_free_parity_and_hits(self):
        report = reuse_twin(CONFIG)
        assert report.ok, report.summary()
        assert report.mismatches == []
        assert report.violations == []
        warm = report.variants[1]
        assert warm.counters["reuse.hits"] > 0
        assert warm.counters["reuse.bytes_saved"] > 0
        assert "verdict: OK" in report.summary()

    def test_parity_holds_under_chaos_schedule(self):
        schedule = ChaosSchedule(
            seed=3,
            events=(
                ChaosEvent(at=40.0, kind="task-kill", prob=0.25),
                ChaosEvent(at=120.0, kind="cache-loss", cache_type=1, fraction=0.5),
                ChaosEvent(at=200.0, kind="task-kill", prob=0.0),
                ChaosEvent(at=400.0, kind="cache-corrupt", cache_type=2, fraction=0.5),
            ),
        )
        report = reuse_twin(CONFIG, schedule)
        assert report.mismatches == []
        assert report.violations == []

    def test_random_seeded_schedules(self):
        for seed in (1, 2):
            schedule = ChaosSchedule.random(
                seed,
                horizon=CONFIG.horizon,
                num_nodes=CONFIG.cluster_config.num_nodes,
                num_windows=CONFIG.num_windows,
                slide=CONFIG.slide,
                events_per_window=1.0,
            )
            report = reuse_twin(CONFIG, schedule)
            assert report.mismatches == [], report.summary()
            assert report.violations == [], report.summary()
