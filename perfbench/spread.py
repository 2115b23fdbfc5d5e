"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 10] [--first-seed 1]
                                [--seconds 10] [--trace 0]

For every metric it prints the median of the per-run values and the
distance between their first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  A benchmark is steady when each spread is well inside its
bound.  The per-run result lines are appended to ``--log`` if given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--log")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a", encoding="utf-8") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        shown = {k: round(v["value"], 5) for k, v in result["metrics"].items() if k in bounds}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {shown}", flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
    for key, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(key)
        flag = "" if bound is None else f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{args.workload} {key}: median {median:.6g} {units[key]} spread {spread:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
