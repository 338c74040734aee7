"""Run one workload and report its end-to-end or per-layer metrics.

``--trace 0`` repeats whole iterations (set-up, run, reference, check)
for ``--seconds`` and reports medians of the end-to-end metrics with no
wrapper installed. ``--trace 1`` runs one untraced iteration in a fresh
child process, one untraced and one traced iteration here, and reports
the per-layer split of the traced one plus which program counters
repeated exactly across the three.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import hostspeed
from .check import check_windows
from .layers import Instrumentation, Recorder, SpanSummary, leftover_wrappers
from .stats import MIN_BEYOND, beyond, median, percentile, supported
from .workloads import WORKLOADS, TickClock, Workload

#: The benchmark's contract: workloads and the (name, unit) of every metric.
SPEC: Dict[str, Any] = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: Printed with ``--trace 0``.
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Printed with ``--trace 1``.
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: A run stops starting new iterations once this much wall time is used,
#: whatever ``min_iterations`` asks, so it always exits well inside 180 s.
HARD_CAP_S = 120.0

#: Untraced set-ups and references repeat within an iteration until they
#: add up to this many seconds (the join's reference takes ~0.3 s).
MIN_SETUP_S = 0.25
MIN_REFERENCE_S = 1.0

#: Program counters reported as per-layer ``count.*`` metrics.
_REPORTED_COUNTERS = (
    "map.tasks",
    "panes.processed",
    "join.combos_computed",
    "cache.hits",
    "plan.shared_scans",
    "service.checkpoints_written",
)


@dataclass
class Iteration:
    """One set-up + run + reference + check, reduced to what is reported."""

    #: host-neutral seconds (:mod:`perfbench.hostspeed`; wall seconds when
    #: not calibrated) of each set-up and each reference run, and of the run.
    setup_s: List[float]
    run_s: float
    reference_s: List[float]
    #: window -> host-neutral latency of its result (ms).
    latency_ms: Dict[str, float]
    #: region -> wall seconds of each of its runs, kernel samples left out.
    wall_s: Dict[str, List[float]]
    #: every kernel sample of the iteration (ms).
    kernel_ms: List[float]
    attempted: int
    failed: int
    failures: Dict[str, List[str]]
    digests: Dict[str, str]
    counters: Dict[str, float]
    speedup: float
    records: int
    checkpoint_bytes: int
    #: (batch wall seconds, worker busy seconds, wall x workers seconds)
    exec_time: Tuple[float, float, float] = (0.0, 0.0, 0.0)


@contextmanager
def _untraced(_name: str) -> Iterator[None]:
    yield


def _key(key: Tuple[str, int]) -> str:
    return f"{key[0]}#{key[1]}"


def virtual_speedup(reference: Dict, system: Dict) -> float:
    """Mean reference response ÷ mean system response, first windows skipped."""
    keys = [k for k in system if k in reference]
    first: Dict[str, int] = {}
    for name, r in keys:
        first[name] = min(first.get(name, r), r)
    kept = [k for k in keys if k[1] != first[k[0]]] or keys
    ref = sum(reference[k] for k in kept) / len(kept)
    sut = sum(system[k] for k in kept) / len(kept)
    return ref / sut if sut else float("inf")


def exec_time(tracers: List[Any]) -> Tuple[float, float, float]:
    """Sum the program's ``exec.batch`` / ``exec.worker`` wall instants."""
    wall = busy = capacity = 0.0
    for tracer in tracers:
        for event in tracer.events(category="exec"):
            if event.name == "exec.batch":
                seconds = event.attrs["wall_ms"] / 1000.0
                wall += seconds
                capacity += seconds * event.attrs["workers"]
            elif event.name == "exec.worker":
                busy += event.attrs["busy_ms"] / 1000.0
    return wall, busy, capacity


def _repeat(watch: hostspeed.Stopwatch, region, name: str, fn, min_s: float):
    """Run ``fn`` until its runs add up to ``min_s`` wall seconds.

    Returns the last result and the stopwatch span of each run.
    """
    spans: List[Tuple[float, float]] = []
    watch.checkpoint(force=True)
    while True:
        t0 = watch.now()
        with region(name):
            result = fn()
        spans.append((t0, watch.now()))
        if sum(t1 - t0 for t0, t1 in spans) >= min_s:
            watch.checkpoint(force=True)
            return result, spans
        watch.checkpoint()


def run_iteration(
    workload: Workload,
    seed: int,
    workdir: Path,
    recorder: Optional[Recorder] = None,
    calibrate: bool = False,
) -> Iteration:
    """Set-up, run, reference and check once over the seed's inputs.

    Untraced, the set-up and the reference repeat until they add up to
    ``MIN_SETUP_S`` / ``MIN_REFERENCE_S``, so that short ones are sampled
    several times; a traced iteration times each region once.

    With ``calibrate``, the stopwatch samples the host's speed between
    units of work and the times are host-neutral; only on the serial
    backend, since on a pool the work runs in worker processes spread
    over every processor, which one sampling thread does not represent.
    """
    watch = hostspeed.Stopwatch(calibrate and workload.backend == "serial")
    traced = recorder is not None
    region = recorder.root if traced else _untraced
    min_setup, min_reference = (0.0, 0.0) if traced else (MIN_SETUP_S, MIN_REFERENCE_S)
    backend = workload.make_backend()
    clock = TickClock(watch)
    try:

        def setup():
            inputs = workload.generate(seed)
            return inputs, workload.build(inputs, backend, workdir)

        (inputs, system), setup_spans = _repeat(watch, region, "setup", setup, min_setup)
        run_t0 = watch.now()
        with region("run"):
            results = workload.run(system, clock)
        run_span = (run_t0, watch.now())
        reference, reference_spans = _repeat(
            watch,
            region,
            "reference",
            lambda: workload.reference(inputs, backend, watch.checkpoint),
            min_reference,
        )
    finally:
        backend.close()
    outcome = workload.collect(system, results, clock)
    check = check_windows(workload.expected(inputs), outcome.observed, reference.outputs)
    return Iteration(
        setup_s=[watch.seconds(*span) for span in setup_spans],
        run_s=watch.seconds(*run_span),
        reference_s=[watch.seconds(*span) for span in reference_spans],
        latency_ms={_key(k): v for k, v in outcome.latency_ms.items()},
        wall_s={
            name: [t1 - t0 for t0, t1 in spans]
            for name, spans in (
                ("setup", setup_spans), ("run", [run_span]), ("reference", reference_spans)
            )
        },
        kernel_ms=watch.kernel_ms,
        attempted=check.attempted,
        failed=check.failed,
        failures={
            kind: [_key(k) for k in keys]
            for kind, keys in (
                ("missing", check.missing),
                ("degraded", check.degraded),
                ("mismatched", check.mismatched),
                ("unexpected", check.unexpected),
            )
            if keys
        },
        digests={_key(k): d for k, d in sorted(check.digests.items())},
        counters=outcome.counters,
        speedup=virtual_speedup(reference.response, outcome.response),
        records=workload.records(inputs),
        checkpoint_bytes=outcome.checkpoint_bytes,
        exec_time=tuple(
            a + b
            for a, b in zip(exec_time(outcome.tracers), exec_time(reference.tracers))
        ),
    )


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# end-to-end mode
# ----------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> Dict[str, Any]:
    """Repeat iterations for ``seconds`` and report the end-to-end medians.

    Every iteration replays identical inputs. On the serial backend the
    times are host-neutral (:mod:`perfbench.hostspeed`), and the median
    over iterations damps what drift is left; each window result of each
    iteration is one latency sample. Peak RSS is read once
    ``min_iterations`` have run, so it does not depend on how many
    iterations fit in ``seconds``.
    """
    iterations: List[Iteration] = []
    rss_mb: Optional[float] = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        iterations.append(run_iteration(workload, seed, workdir, calibrate=True))
        gc.collect()
        if len(iterations) == workload.min_iterations:
            rss_mb = peak_rss_mb()
        now = time.perf_counter()
        used, last = now - start, now - began
        if used + last > HARD_CAP_S:
            break
        if len(iterations) >= workload.min_iterations and used + last > seconds:
            break
    latencies = [x for it in iterations for x in it.latency_ms.values()]
    metrics = {
        "setup_s": median([x for it in iterations for x in it.setup_s]),
        "run_s": median([it.run_s for it in iterations]),
        "reference_s": median([x for it in iterations for x in it.reference_s]),
        "window_ms_p50": percentile(latencies, 50),
        "peak_rss_mb": rss_mb if rss_mb is not None else peak_rss_mb(),
        "virtual_speedup": median([it.speedup for it in iterations]),
    }
    notes = {
        "iterations": len(iterations),
        "kernel_samples": sum(len(it.kernel_ms) for it in iterations),
        "kernel_ms": median([k for it in iterations for k in it.kernel_ms] or [0.0]),
        "wall_s": {
            name: median([x for it in iterations for x in it.wall_s[name]])
            for name in ("setup", "run", "reference")
        },
        "window_samples": len(latencies),
        "p50_supported": supported(len(latencies), 50),
        "digests_repeat_in_process": all(
            it.digests == iterations[0].digests for it in iterations
        ),
    }
    return {
        "metrics": {name: metrics[name] for name in END_TO_END},
        "units": END_TO_END,
        "iterations": iterations,
        "attempted": sum(it.attempted for it in iterations),
        "failed": sum(it.failed for it in iterations),
        "notes": notes,
    }


# ----------------------------------------------------------------------
# traced mode
# ----------------------------------------------------------------------


def run_child(workload: Workload, seed: int) -> Dict[str, Any]:
    """One untraced iteration in a fresh interpreter (its own hash salt)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    run_py = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload.name, "--seed", str(seed),
         "--child"],
        capture_output=True,
        text=True,
        env=env,
        timeout=HARD_CAP_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child iteration failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_main(workload: Workload, seed: int, workdir: Path) -> Dict[str, Any]:
    it = run_iteration(workload, seed, workdir)
    return {
        "run_s": it.run_s,
        "attempted": it.attempted,
        "failed": it.failed,
        "counters": it.counters,
        "digests": it.digests,
    }


def counter_flags(bags: List[Dict[str, float]]) -> Dict[str, str]:
    """``exact-repeat`` if every bag holds the same value, else ``varying``."""
    names = sorted(set().union(*bags))
    return {
        name: "exact-repeat"
        if all(name in bag and bag[name] == bags[0].get(name) for bag in bags)
        else "varying"
        for name in names
    }


def per_layer(
    s: SpanSummary,
    recorder: Recorder,
    traced: Iteration,
    untraced: Iteration,
    flags: Dict[str, str],
    digests_varying: int,
) -> Dict[str, float]:
    grp = s.group
    m: Dict[str, float] = {}
    m["workloads.gen_s"] = grp("workloads")[1]
    m["workloads.records"] = traced.records
    m["ingest.calls"], m["ingest.s"] = grp("ingest")
    for phase in ("map", "pane-reduce", "merge"):
        m[f"exec.{phase}.tasks"] = recorder.counts.get(f"exec.{phase}.tasks", 0)
        m[f"exec.{phase}.s"] = grp(f"exec.{phase}")[1]
    wall, busy, capacity = traced.exec_time
    m["exec.batch_wall_s"] = wall
    m["exec.worker_busy_s"] = busy
    m["exec.utilization"] = busy / capacity if capacity else 0.0
    m["shuffle.sort.calls"], m["shuffle.sort.s"] = grp("shuffle.sort")
    m["shuffle.combine.s"] = grp("shuffle.combine")[1]
    m["shuffle.partition.s"] = grp("shuffle.partition")[1]
    for part in ("add", "read", "verify", "checksum"):
        m[f"cache.{part}.calls"], m[f"cache.{part}.s"] = grp(f"cache.{part}")
    hits = traced.counters.get("cache.hits", 0)
    misses = traced.counters.get("cache.misses", 0)
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["controller.calls"], m["controller.s"] = grp("controller")
    m["sched.calls"], m["sched.s"] = grp("sched")
    m["runtime.recurrence.calls"], m["runtime.recurrence.self_s"] = grp("runtime.recurrence")
    m["hdfs.create.s"] = grp("hdfs.create")[1]
    m["hdfs.read.s"] = grp("hdfs.read")[1]
    m["sharing.calls"], m["sharing.s"] = grp("sharing")
    lookups = s.calls.get("sharing.lookup", 0)
    shared = traced.counters.get("plan.shared_scans", 0)
    m["sharing.hit_ratio"] = shared / lookups if lookups else 0.0
    m["service.run_until.self_s"] = grp("service.run_until")[1]
    m["service.lifecycle.s"] = grp("service.lifecycle")[1]
    m["checkpoint.calls"], m["checkpoint.s"] = grp("checkpoint")
    m["checkpoint.bytes"] = traced.checkpoint_bytes
    m["trace.events"], m["trace.s"] = grp("trace")
    m["reference.map.s"] = grp("reference.map")[1]
    m["reference.reduce.s"] = grp("reference.reduce")[1]
    m["reference.window.self_s"] = grp("reference.window")[1]
    latencies = list(untraced.latency_ms.values())
    m["window_ms_p90"] = percentile(latencies, 90)
    m["window_ms_p90.beyond"] = beyond(len(latencies), 90)
    (m["traced.setup_s"],) = traced.setup_s
    m["traced.run_s"] = traced.run_s
    (m["traced.reference_s"],) = traced.reference_s
    m["tracing_overhead_s"] = traced.run_s - untraced.run_s
    m["unattributed.run_s"] = s.self_s.get("root.run", 0.0)
    run_wall = s.roots.get("root.run", 0.0)
    m["unattributed.run_share"] = m["unattributed.run_s"] / run_wall if run_wall else 0.0
    for name in _REPORTED_COUNTERS:
        m[f"count.{name}"] = traced.counters.get(name, 0)
    m["counters.exact_repeat"] = sum(1 for v in flags.values() if v == "exact-repeat")
    m["counters.varying"] = sum(1 for v in flags.values() if v == "varying")
    m["digests.varying"] = digests_varying
    return {name: float(m[name]) for name in PER_LAYER}


def trace(workload: Workload, seed: int, workdir: Path) -> Dict[str, Any]:
    child = run_child(workload, seed)
    untraced = run_iteration(workload, seed, workdir)
    gc.collect()
    recorder = Recorder()
    with Instrumentation(recorder):
        traced = run_iteration(workload, seed, workdir, recorder)
    leftovers = leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"wrappers left installed: {leftovers}")
    summary = recorder.summary()
    recorder.dump(workdir / f"{workload.name}-seed{seed}-spans.json")
    flags = counter_flags([child["counters"], untraced.counters, traced.counters])
    digests_varying = sum(
        1
        for key in set(child["digests"]) | set(untraced.digests)
        if child["digests"].get(key) != untraced.digests.get(key)
    )
    metrics = per_layer(summary, recorder, traced, untraced, flags, digests_varying)
    accounting = {
        root.split(".", 1)[1]: {
            "wall_s": s_wall,
            "unattributed_s": summary.by_root[root].get(root, 0.0),
            "self_s": dict(
                sorted(
                    ((n, v) for n, v in summary.by_root[root].items() if n != root),
                    key=lambda kv: -kv[1],
                )
            ),
        }
        for root, s_wall in summary.roots.items()
    }
    return {
        "metrics": metrics,
        "units": PER_LAYER,
        "iterations": [untraced, traced],
        "child": {k: child[k] for k in ("run_s", "attempted", "failed")},
        "attempted": child["attempted"] + untraced.attempted + traced.attempted,
        "failed": child["failed"] + untraced.failed + traced.failed,
        "counter_flags": flags,
        "accounting": accounting,
        "spans": len(recorder),
        "by_window_s": {_key(k): v for k, v in sorted(summary.by_window.items())},
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, seed: int, result: Dict[str, Any], traced: bool) -> List[str]:
    its: List[Iteration] = result["iterations"]
    lines = [f"# workload {name}  seed {seed}  iterations {len(its)}"]
    for metric, value in result["metrics"].items():
        lines.append(f"{metric:<36} {_fmt(value):>14} {result['units'][metric]}")
    if traced:
        for root, acc in result["accounting"].items():
            lines.append(
                f"# traced {root}: {acc['wall_s']:.3f} s wall, "
                f"{acc['unattributed_s']:.3f} s unattributed "
                f"({acc['unattributed_s'] / acc['wall_s']:.1%})"
            )
            top = list(acc["self_s"].items())[:8]
            lines.append("#   " + ", ".join(f"{n} {v:.3f}" for n, v in top))
        varying = [n for n, f in result["counter_flags"].items() if f == "varying"]
        lines.append(f"# varying counters: {', '.join(varying) or 'none'}")
        beyond_p90 = int(result["metrics"]["window_ms_p90.beyond"])
        lines.append(
            f"# window_ms_p90 has {beyond_p90} samples beyond it"
            + ("" if beyond_p90 >= MIN_BEYOND else f" (fewer than {MIN_BEYOND}: unsupported)")
        )
    else:
        notes = result["notes"]
        lines.append(
            f"# window latency samples {notes['window_samples']}"
            + ("" if notes["p50_supported"] else " (p50 unsupported)")
        )
        scaling = (
            f"{notes['kernel_samples']} kernel samples, median "
            f"{notes['kernel_ms']:.2f} ms (nominal {hostspeed.NOMINAL_MS:g})"
            if notes["kernel_samples"]
            else "not scaled"
        )
        lines.append(
            f"# unscaled wall medians: run {notes['wall_s']['run']:.3f} s, reference "
            f"{notes['wall_s']['reference']:.3f} s; {scaling}"
        )
    lines.append(f"# failed windows {result['failed']}/{result['attempted']}")
    return lines


def write_record(workdir: Path, name: str, seed: int, trace_flag: int,
                 sizes: Dict[str, Any], result: Dict[str, Any]) -> Path:
    """The run's side record: digests, counters, failures, accounting."""
    its: List[Iteration] = result["iterations"]
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace_flag,
        "sizes": sizes,
        "metrics": result["metrics"],
        "iterations": [
            {
                "setup_s": it.setup_s,
                "run_s": it.run_s,
                "reference_s": it.reference_s,
                "wall_s": it.wall_s,
                "kernel_ms": it.kernel_ms,
                "attempted": it.attempted,
                "failed": it.failed,
                "failures": it.failures,
            }
            for it in its
        ],
        "window_digests": its[-1].digests,
        "counters": its[-1].counters,
    }
    for extra in ("notes", "counter_flags", "accounting", "spans", "by_window_s", "child"):
        if extra in result:
            record[extra] = result[extra]
    path = workdir / f"{name}-seed{seed}-trace{trace_flag}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def run_workload(name: str, seed: int, seconds: float, trace_flag: int,
                 workdir: Path) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    if trace_flag:
        result = trace(workload, seed, workdir)
    else:
        result = measure(workload, seed, seconds, workdir)
    for line in report(name, seed, result, bool(trace_flag)):
        print(line)
    path = write_record(workdir, name, seed, trace_flag, workload.sizes(), result)
    print(f"# record written to {path}")
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": value, "unit": result["units"][metric]}
            for metric, value in result["metrics"].items()
        },
    }
