#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --runs 10 -o perfbench/baseline.json
    python3 perfbench/spread.py --runs 10 --first-seed 101 --compare perfbench/baseline.json
    python3 perfbench/spread.py --runs 5 --same-seed --workload query-hot

For every workload in BENCHMARK.json (or those named with
``--workload``), runs ``perfbench/run.py --trace 0`` once per seed, one
run at a time, for ``run_seconds`` of BENCHMARK.json, and reports for
each end-to-end metric the median of the runs and the distance between
the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), flagged when it exceeds a third
of the metric's bound.  ``--same-seed`` repeats ``--first-seed`` instead,
which separates the machine's noise from the seeds' inputs.
``--compare`` prints each median's change against an earlier ``-o``
file, flagged when it is worse by more than the bound.  ``-o`` also
writes the runs, medians, spreads and each run's settings line to a JSON
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    result = json.loads(lines[-1])
    # Every printed figure, the ungated ones (wall_*, host_scale) included.
    result["printed"] = {
        fields[0]: float(fields[1])
        for fields in (line.split() for line in lines if line.startswith("  "))
    }
    for line in lines:
        if line.startswith("settings "):
            result["settings"] = json.loads(line[len("settings "):])
    return result


def spread(values: list[float]) -> float:
    first, _median, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--compare")
    parser.add_argument("-o", "--output")
    args = parser.parse_args()
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as handle:
            earlier = json.load(handle)["workloads"]
    if args.same_seed:
        seeds = [args.first_seed] * args.runs
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {
        "seconds": spec["run_seconds"],
        "seeds": seeds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    for name in names:
        runs = [run(name, seed, spec["run_seconds"]) for seed in seeds]
        summary = {}
        print(f"{name}: {args.runs} runs")
        for metric in runs[0]["metrics"]:
            values = [result["metrics"][metric]["value"] for result in runs]
            entry = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": statistics.median(values),
                "iqr_share": spread(values),
                "bound": metrics[metric]["bound"],
                "values": values,
            }
            summary[metric] = entry
            bound = entry["bound"]
            flag = "  ABOVE bound/3" if entry["iqr_share"] > bound / 3 else ""
            before = earlier.get(name, {}).get("metrics", {}).get(metric)
            if before:
                change = entry["median"] / before["median"] - 1
                worse = change if metrics[metric]["better"] == "lower" else -change
                flag += f"  median {change:+.3f} vs --compare"
                flag += "  WORSE than bound" if worse > bound else ""
            print(
                f"  {metric:<32} median {entry['median']:>12.4f} {entry['unit']:<6}"
                f" spread {entry['iqr_share']:.4f} bound {bound}{flag}"
            )
        attempted = [result["attempted"] for result in runs]
        failed = sum(result["failed"] for result in runs)
        print(f"  attempted per run {min(attempted)}..{max(attempted)}, failed {failed}")
        report["workloads"][name] = {
            "metrics": summary,
            "attempted": attempted,
            "failed": failed,
            "correct": all(result["correct"] for result in runs),
            "settings": [result.get("settings") for result in runs],
            "printed": [result["printed"] for result in runs],
        }
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
