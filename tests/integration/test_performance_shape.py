"""Integration: the paper's performance *shapes* hold on small workloads.

Downscaled versions of the Figs. 6-9 claims, kept fast enough for CI.
Absolute numbers are virtual seconds and differ from the paper's
testbed; the assertions target orderings and rough factors only.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

pytestmark = pytest.mark.slow

from repro.bench.experiments import fig9_schedules
from repro.bench.harness import (
    ExperimentConfig,
    build_workload,
    run_hadoop_series,
    run_redoop_series,
)
from repro.hadoop.config import ClusterConfig
from repro.workloads.batches import paper_spike_windows

#: A mid-size cluster: big enough that window jobs take multiple task
#: waves (the regime where caching pays), small enough for fast tests.
CLUSTER = ClusterConfig(num_nodes=8, default_num_reducers=16)


def config(kind="aggregation", overlap=0.9, **kwargs):
    defaults = dict(
        kind=kind,
        win=3600.0,
        overlap=overlap,
        num_windows=4,
        rate=8_000_000.0,
        record_size=1_000_000,
        num_reducers=16,
        cluster_config=CLUSTER,
        seed=5,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def compare(cfg, **redoop_kwargs):
    workload = build_workload(cfg)
    hadoop = run_hadoop_series(cfg, workload=workload)
    redoop = run_redoop_series(cfg, workload=workload, **redoop_kwargs)
    return hadoop, redoop


class TestFig6Shape:
    def test_first_window_roughly_ties(self):
        hadoop, redoop = compare(config())
        h1 = hadoop.windows[0].response_time
        r1 = redoop.windows[0].response_time
        assert r1 == pytest.approx(h1, rel=0.25)

    def test_high_overlap_big_speedup(self):
        hadoop, redoop = compare(config(overlap=0.9))
        assert redoop.speedup_vs(hadoop, skip_first=True) > 3.0

    def test_speedup_grows_with_overlap(self):
        speedups = {}
        for overlap in (0.9, 0.5, 0.1):
            hadoop, redoop = compare(config(overlap=overlap))
            speedups[overlap] = redoop.speedup_vs(hadoop, skip_first=True)
        assert speedups[0.9] > speedups[0.5] > speedups[0.1] * 0.999
        assert speedups[0.1] == pytest.approx(1.0, abs=0.35)

    def test_phase_split_smaller_for_redoop(self):
        hadoop, redoop = compare(config(overlap=0.9))
        assert redoop.total_phases().shuffle < hadoop.total_phases().shuffle
        assert redoop.total_phases().reduce < hadoop.total_phases().reduce


class TestFig7Shape:
    def test_join_speedup_at_high_overlap(self):
        cfg = config(kind="join", overlap=0.9, rate=4_000_000.0)
        hadoop, redoop = compare(cfg)
        assert redoop.speedup_vs(hadoop, skip_first=True) > 2.5
        assert hadoop.output_digests == redoop.output_digests


class TestFig8Shape:
    def test_adaptive_beats_nonadaptive_under_spikes(self):
        cfg = config(
            overlap=0.25,
            num_windows=8,
            spiked_recurrences=frozenset(paper_spike_windows(8)),
        )
        workload = build_workload(cfg)
        hadoop = run_hadoop_series(cfg, workload=workload)
        plain = run_redoop_series(cfg, workload=workload)
        adaptive = run_redoop_series(cfg, adaptive=True, workload=workload)
        # After the detector warms up (first spike observed), proactive
        # windows must be far faster than both alternatives.
        tail = slice(3, None)
        assert (
            sum(adaptive.response_times()[tail])
            < 0.7 * sum(plain.response_times()[tail])
        )
        assert (
            sum(adaptive.response_times()[tail])
            < 0.7 * sum(hadoop.response_times()[tail])
        )


class TestFig9Shape:
    def test_redoop_with_failures_still_beats_hadoop(self):
        cfg = config(kind="ffg-aggregation", overlap=0.5, num_windows=6)
        workload = build_workload(cfg)
        hadoop = run_hadoop_series(cfg, workload=workload)
        clean = run_redoop_series(cfg, workload=workload)
        faulty = run_redoop_series(
            cfg,
            workload=workload,
            schedule=replace(fig9_schedules(cfg)["redoop(f)"], seed=2),
        )
        assert clean.total_response() < faulty.total_response()
        assert faulty.total_response() < hadoop.total_response()
