"""Benchmark entry point.

    python3 perfbench/run.py --workload agg-slide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory. ``--workload all`` runs every workload
of ``BENCHMARK.json`` in turn, each in a process of its own. ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. Side records
(window digests, counters, the traced layer accounting) go to
``.perfbench_out/`` in the working directory.

Exits non-zero, without a result, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seed used unless ``--seed`` says otherwise.
DEFAULT_SEED = 1
#: Seed reserved for checking a claimed gain; do not tune against it.
CLAIM_SEED = 2
OUT_DIR = Path(".perfbench_out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="agg-slide | join-slide | serve-churn | agg-slide-proc | all "
                        "(every workload of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_bench():
    """Import the benchmark and check it drives this checkout's ``src/``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
        from perfbench import bench
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {ROOT / 'src'}")
    return bench


def run_each(names, args) -> dict:
    """Run every workload in a process of its own; relay its report lines."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = _import_bench()
    if args.seconds is None:
        args.seconds = float(bench.SPEC["run_seconds"])
    if args.workload == "all":
        names = [w["name"] for w in bench.SPEC["workloads"]]
    else:
        names = [args.workload]
    unknown = [n for n in names if n not in bench.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(bench.child_main(bench.WORKLOADS[names[0]], args.seed, OUT_DIR)))
        return 0
    if len(names) > 1:
        result = run_each(names, args)
    else:
        result = bench.run_workload(names[0], args.seed, args.seconds, args.trace, OUT_DIR)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
