"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload agg-slide --seeds 1x10

``--seeds`` takes ranges (``1-10``), repeats (``1x10``: seed 1 ten
times) and lists of either (``1,2,5-7``). Each run is a separate
``perfbench/run.py --trace 0`` process that measures for ``run_seconds``
of ``BENCHMARK.json``. For every end-to-end metric it prints the median
and the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, next to the
metric's bound; ``ok`` means the spread is below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.stats import median, quartile_spread  # noqa: E402


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        if "x" in part:
            seed, times = part.split("x")
            out.extend([int(seed)] * int(times))
            continue
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict = {}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(result["metrics"].items())),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in sorted(values.items()):
        bound = bounds.get(name)
        spread = quartile_spread(vals) if len(vals) > 1 else float("nan")
        if bound is None:
            flag = ""
        elif name == "setup_s":
            flag = "  (only its median is bounded)"
        else:
            flag = "  ok" if spread < bound / 3 else "  WIDE"
        print(f"{name:<32} median {median(vals):<12.6g} spread {spread:7.2%}"
              + (f"  bound {bound:.1%}{flag}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
