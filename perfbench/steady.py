"""Repeat the benchmark over seeds and report each metric's median and quartiles.

Run from the repo root:

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/results/NAME.json
    python3 perfbench/steady.py --workloads lattice --seeds 1-5

Runs ``BENCHMARK.json``'s command once per (seed, workload) with
``--trace 0``, seeds in the outer loop so that slow periods of the machine
spread over all workloads.  For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median against the metric's bound.  A spread above a
third of the bound is flagged; ``setup_s`` is flagged only above its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write runs and summary as JSON")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        for name in names:
            argv = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            start = time.perf_counter()
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed} exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append(
                {"workload": name, "seed": seed, "wall_s": wall, "correct": result["correct"],
                 "attempted": result["attempted"], "failed": result["failed"], "metrics": values}
            )
            print(f"# {name} seed {seed} ({wall:.0f} s): "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)

    summary = {}
    flagged = 0
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        summary[name] = {}
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric] for r in mine], bound)
            limit = bound if metric == "setup_s" else bound / 3
            s["steady"] = s["spread"] <= limit
            flagged += not s["steady"]
            summary[name][metric] = s
            print(f"{name:17s} {metric:12s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.3f} "
                  f"(bound {bound}) {'ok' if s['steady'] else 'WIDE'}")
        wrong = sum(not r["correct"] for r in mine)
        print(f"{name:17s} runs {len(mine)}, incorrect runs {wrong}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({
            "environment": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "machine": platform.machine(),
                "run_seconds": spec["run_seconds"],
            },
            "summary": summary,
            "runs": runs,
        }, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
