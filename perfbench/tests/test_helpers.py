"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

from perfbench import bench, hostspeed
from perfbench.check import check_windows
from perfbench.hostspeed import Stopwatch
from perfbench.layers import TARGETS, WRAPPED, Instrumentation, Recorder, leftover_wrappers
from perfbench.stats import (
    beyond,
    covered,
    median,
    output_digest,
    percentile,
    self_times,
    supported,
)
from perfbench.workloads import FigureWorkload


# -- the percentile rule ------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    assert supported(100, 90) and beyond(100, 90) == 10
    assert not supported(99, 90)
    assert beyond(275, 90) == 27


def test_p50_needs_twenty_samples():
    assert supported(20, 50)
    assert not supported(19, 50)


def test_nearest_rank_percentile_and_median():
    values = list(range(100, 0, -1))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


# -- host-neutral seconds ------------------------------------------------


def test_stopwatch_scales_each_stretch_by_its_kernel_samples():
    watch = Stopwatch(calibrate=False)
    assert watch.seconds(1.0, 3.5) == 2.5
    nominal = hostspeed.NOMINAL_MS
    # Samples at t=1 (2x slow), t=3 (nominal), t=5 (2x slow).
    watch.marks = [1.0, 3.0, 5.0]
    watch.kernel_ms = [2 * nominal, nominal, 2 * nominal]
    # [0, 1] before the first sample counts at its speed: 0.5 s.
    assert watch.seconds(0.0, 1.0) == pytest.approx(0.5)
    # [1, 3] at the mean of 2x and 1x: 2 s / 1.5.
    assert watch.seconds(1.0, 3.0) == pytest.approx(2.0 / 1.5)
    # Spanning stretches adds them; past the last sample, its speed.
    assert watch.seconds(2.0, 6.0) == pytest.approx(1.0 / 1.5 + 2.0 / 1.5 + 0.5)


def test_stopwatch_leaves_kernel_time_out_of_the_clock():
    watch = Stopwatch(calibrate=True)
    t0 = watch.now()
    watch.checkpoint(force=True)
    assert watch.now() - t0 < hostspeed.SAMPLE_S / 2
    assert len(watch.kernel_ms) == 1 and watch.kernel_ms[0] > 0


# -- self time ------------------------------------------------------------


def test_self_time_with_nested_children():
    # root [0, 10] > child [1, 5] > grandchild [2, 3]; child [6, 8]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 5.0, 3.0, 8.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [4.0, 3.0, 1.0, 2.0]
    assert sum(self_times(starts, ends, parents)) == 10.0


def test_self_time_with_overlapping_children():
    # Two children overlap on [3, 4]; a third sticks out of the parent.
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    own = self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 7.0


def test_recorder_accounts_for_root_wall(tmp_path):
    rec = Recorder()
    with rec.root("run"):
        outer = rec.open("a")
        inner = rec.open("b")
        rec.close(inner)
        rec.close(outer)
        rec.close(rec.open("b"))
    s = rec.summary()
    assert s.calls == {"root.run": 1, "a": 1, "b": 2}
    assert sum(s.by_root["root.run"].values()) == pytest.approx(s.roots["root.run"])
    rec.dump(tmp_path / "spans.json")
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert [spans["names"][i] for i in spans["name"]] == ["root.run", "a", "b", "b"]
    assert spans["parent"] == [-1, 0, 1, 0]


# -- the correctness gate -------------------------------------------------


def _windows():
    out = {("q", 1): [("k1", 3), ("k2", 4)], ("q", 2): [("k1", 5)]}
    return out, {k: (list(v), False) for k, v in out.items()}


def test_reference_check_passes_equal_windows_in_any_order():
    reference, observed = _windows()
    observed[("q", 1)] = (list(reversed(reference[("q", 1)])), False)
    check = check_windows(reference, observed, reference)
    assert (check.attempted, check.failed) == (2, 0)
    assert check.digests[("q", 2)] == output_digest([("k1", 5)])


def test_reference_check_catches_a_tampered_window():
    reference, observed = _windows()
    observed[("q", 2)] = ([("k1", 6)], False)
    check = check_windows(reference, observed, reference)
    assert check.failed == 1 and check.mismatched == [("q", 2)]


def test_reference_check_counts_missing_degraded_and_unexpected():
    reference, observed = _windows()
    del observed[("q", 1)]
    observed[("q", 2)] = ([], True)
    observed[("q", 3)] = ([], False)
    check = check_windows(reference, observed, reference)
    assert check.missing == [("q", 1)]
    assert check.degraded == [("q", 2)]
    assert check.unexpected == [("q", 3)]
    assert (check.attempted, check.failed) == (3, 3)


# -- wrappers -------------------------------------------------------------


def test_wrappers_are_installed_then_fully_removed():
    import repro.core.runtime as runtime_mod
    import repro.hadoop.shuffle as shuffle
    import repro.hadoop.task as task

    original_sort = shuffle.sort_pairs
    original_ingest = vars(runtime_mod.RedoopRuntime)["ingest"]
    assert leftover_wrappers() == []
    with Instrumentation(Recorder()):
        # Names bound at import elsewhere are wrapped too.
        assert getattr(task.sort_pairs, WRAPPED) is original_sort
        assert getattr(runtime_mod.sort_pairs, WRAPPED) is original_sort
        assert len(leftover_wrappers()) > len(TARGETS)
    assert leftover_wrappers() == []
    assert shuffle.sort_pairs is original_sort
    assert task.sort_pairs is original_sort
    assert vars(runtime_mod.RedoopRuntime)["ingest"] is original_ingest


def test_traced_iteration_checks_and_accounts(tmp_path):
    workload = FigureWorkload("tiny", "aggregation", scale=0.02, windows=3)
    rec = Recorder()
    with Instrumentation(rec):
        it = bench.run_iteration(workload, 1, tmp_path, rec)
    assert leftover_wrappers() == []
    assert (it.attempted, it.failed) == (3, 0)
    # A traced iteration times each region once.
    assert len(it.setup_s) == len(it.reference_s) == 1
    s = rec.summary()
    assert set(s.roots) == {"root.setup", "root.run", "root.reference"}
    for root, wall in s.roots.items():
        assert sum(s.by_root[root].values()) == pytest.approx(wall)
    assert s.calls["runtime.recurrence"] == 3
    assert rec.counts["exec.map.tasks"] > 0
    assert {r for _query, r in s.by_window} == {1, 2, 3}


# -- counters and the workload list -------------------------------------


def test_counter_flags():
    flags = bench.counter_flags([{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 1}])
    assert flags == {"a": "exact-repeat", "b": "varying"}


def test_benchmark_json_names_known_workloads():
    names = [w["name"] for w in bench.SPEC["workloads"]]
    assert names and set(names) <= set(bench.WORKLOADS)
