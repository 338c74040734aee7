"""Integration: Redoop and plain Hadoop compute identical window answers.

These tests run the full stack — generators, packer, caches, scheduler,
runtime vs. catalog + job tracker — on downscaled workloads and check
output equivalence window by window, including under adaptivity and
injected failures. This is the core correctness claim of incremental
processing: caching must never change the answer.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.experiments import fig9_schedules
from repro.bench.harness import (
    ExperimentConfig,
    build_workload,
    run_hadoop_series,
    run_redoop_series,
)
from repro.hadoop.config import small_test_config


def config(kind="aggregation", **kwargs):
    defaults = dict(
        kind=kind,
        win=40.0,
        overlap=0.75,
        num_windows=4,
        rate=3_000.0,
        record_size=100,
        num_reducers=4,
        cluster_config=small_test_config(),
        seed=23,
        batches_per_pane=2,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize("overlap", [0.75, 0.5, 0.25])
def test_aggregation_equivalence_across_overlaps(overlap):
    cfg = config(overlap=overlap)
    workload = build_workload(cfg)
    hadoop = run_hadoop_series(cfg, workload=workload)
    redoop = run_redoop_series(cfg, workload=workload)
    assert hadoop.output_digests == redoop.output_digests


@pytest.mark.slow
@pytest.mark.parametrize("overlap", [0.75, 0.5])
def test_join_equivalence_across_overlaps(overlap):
    cfg = config(kind="join", overlap=overlap, rate=2_000.0, join_keys=7)
    workload = build_workload(cfg)
    hadoop = run_hadoop_series(cfg, workload=workload)
    redoop = run_redoop_series(cfg, workload=workload)
    assert hadoop.output_digests == redoop.output_digests


def test_ffg_aggregation_equivalence():
    cfg = config(kind="ffg-aggregation", join_keys=9)
    workload = build_workload(cfg)
    hadoop = run_hadoop_series(cfg, workload=workload)
    redoop = run_redoop_series(cfg, workload=workload)
    assert hadoop.output_digests == redoop.output_digests


def test_adaptive_mode_preserves_answers():
    """Proactive sub-pane processing must not change any output."""
    cfg = config(
        num_windows=6,
        spiked_recurrences=frozenset({2, 3, 5}),
    )
    workload = build_workload(cfg)
    plain = run_redoop_series(cfg, workload=workload)
    adaptive = run_redoop_series(cfg, adaptive=True, workload=workload)
    hadoop = run_hadoop_series(cfg, workload=workload)
    assert plain.output_digests == adaptive.output_digests
    assert plain.output_digests == hadoop.output_digests


def test_cache_failures_preserve_answers():
    cfg = config(num_windows=5)
    workload = build_workload(cfg)
    clean = run_redoop_series(cfg, workload=workload)
    faulty = run_redoop_series(
        cfg,
        workload=workload,
        schedule=replace(fig9_schedules(cfg)["redoop(f)"], seed=3),
    )
    assert clean.output_digests == faulty.output_digests


def test_no_caching_preserves_answers():
    cfg = config()
    workload = build_workload(cfg)
    cached = run_redoop_series(cfg, workload=workload)
    uncached = run_redoop_series(
        cfg, workload=workload, enable_caching=False
    )
    assert cached.output_digests == uncached.output_digests


def test_headerless_panes_preserve_answers():
    cfg = config(rate=500.0)  # low rate -> shared pane files
    workload = build_workload(cfg)
    with_headers = run_redoop_series(cfg, workload=workload)
    without = run_redoop_series(
        cfg, workload=workload, use_pane_headers=False
    )
    assert with_headers.output_digests == without.output_digests


def test_input_only_cache_preserves_answers():
    cfg = config()
    workload = build_workload(cfg)
    both = run_redoop_series(cfg, workload=workload)
    input_only = run_redoop_series(
        cfg, workload=workload, enable_output_cache=False
    )
    assert both.output_digests == input_only.output_digests
