"""Run the benchmark once per seed and summarise each metric across the runs.

Usage, from the root of the repository:

    python3 bench/spread.py --workloads goeritz-pipeline,chain-genus4,long-relators --seeds 7
    python3 bench/spread.py --workloads goeritz-pipeline --seeds 1-10 --out baseline.json

Runs are sequential, one process at a time, each as ``bench/run.py`` with
the ``run_seconds`` of BENCHMARK.json. Every run's report (each metric with
its unit) is printed as it finishes. Then, for every metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``, with two runs or
more) and the interquartile distance as a share of the median, next to the
metric's bound. ``--out`` writes the summary, with every value, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(command)} reported wrong answers:\n{done.stdout}")
    return result, done.stdout.strip().splitlines()[:-1]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,4,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            result, report = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: attempted {result['attempted']}, failed {result['failed']}")
            print("\n".join("    " + line for line in report), flush=True)
        summary[workload] = {}
        for name in runs[0]:
            stats = summarise([r[name]["value"] for r in runs])
            stats["unit"] = runs[0][name]["unit"]
            summary[workload][name] = stats
            bound = bounds.get(name)
            verdict = "" if bound is None else f"bound {bound}  {'ok' if stats['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:34s} {stats['unit']:6s} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g}"
                  f" q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
