"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload torture --seeds 1-10 \
        [--trace 0] [--out perfbench/out/steadiness-torture.json]

For every metric it prints the median over the seeds and the distance
between the first and third quartile (``statistics.quantiles``, n=4) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
A metric is steady enough when its spread stays within its bound
(``setup_s`` excepted); aim for less than a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(declared["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: done", file=sys.stderr, flush=True)
    summary = {}
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = quartile_spread(series)
        summary[name] = {"median": statistics.median(series), "q1": q1,
                         "q3": q3, "spread": spread, "values": series}
        bound = bounds.get(name)
        print(f"{name:28s} median {statistics.median(series):<14.6g} "
              f"spread {spread:.4f}"
              + (f"  bound {bound}" if bound is not None else ""))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "trace": args.trace, "metrics": summary}, handle,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
