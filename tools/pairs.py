"""Interleaved benchmark pairs of two revisions, written as one ``BENCH_<n>.json``.

    python tools/pairs.py --out BENCH_51.json [--parent HEAD~1] [--change HEAD]
                          [--workloads catalog,catalog_external] [--pairs 10] [--seconds 30]

Run from the repo root.  Each side is a temporary directory holding ``src`` of its revision and
HEAD's ``perfbench``, ``BENCHMARK.json`` and ``grams``, extracted with ``git archive`` (no
worktree, nothing written to ``.git``), so both sides run the same benchmark.  Pair i runs
``perfbench/run.py --trace 0`` with seed i on both sides, once each, in every workload; the
side that goes first alternates from pair to pair, so that a slow spell of the machine falls on
both alike.  Then each side makes one traced run (``--trace 1``, seed 1) per workload.

The file holds, per workload and end-to-end metric of ``BENCHMARK.json``: both sides' medians
and quartiles, the change's win count (pairs in which it is better) and the metric's bound;
per side, the share of failed ops; the per-layer metrics of each traced run; the interpreter,
whether ``PYTHONDONTWRITEBYTECODE`` was set, the seeds, the run length and the three commits.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

BENCHMARK_FILES = ("perfbench", "BENCHMARK.json", "grams")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], capture_output=True, check=True).stdout


def commit(rev: str) -> str:
    return git("rev-parse", "--verify", rev + "^{commit}").decode().strip()


def extract(rev: str, paths: tuple[str, ...], into: str) -> None:
    archive = tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, *paths)))
    with archive:
        # The "data" filter refuses links and paths out of ``into``; older patch releases lack it.
        archive.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run(side: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``side``: the JSON object of its last line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "ATLAS_DATA_DIR"}
    done = subprocess.run(argv, cwd=side, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"pairs.py: {workload} seed {seed} trace {trace} in {side} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(parent: list[dict], change: list[dict], spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
        wins = sum(a > b if higher else a < b for b, a in zip(before, after))
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": {"median": pm, "q1": p1, "q3": p3, "values": before},
            "change": {"median": cm, "q1": c1, "q3": c3, "values": after},
            "relative_change": (cm - pm) / pm if pm else None,
            "change_wins": wins, "pairs": len(before),
        }
    return out


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="per run; default: BENCHMARK.json's run_seconds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs is at least 1")

    head = commit("HEAD")
    spec = json.loads(git("show", f"{head}:BENCHMARK.json"))
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    for name in workloads:
        if name not in known:
            parser.error(f"{name} is not a workload of BENCHMARK.json ({', '.join(known)})")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = list(range(1, args.pairs + 1))
    commits = {"parent": commit(args.parent), "change": commit(args.change), "benchmark": head}

    work = tempfile.mkdtemp(prefix="pairs-")
    try:
        sides = {}
        for side in ("parent", "change"):
            sides[side] = os.path.join(work, side)
            extract(commits[side], ("src",), sides[side])
            extract(head, BENCHMARK_FILES, sides[side])
        untraced: dict[str, dict[str, list[dict]]] = {w: {"parent": [], "change": []} for w in workloads}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    untraced[workload][side].append(run(sides[side], workload, seed, seconds, 0))
                print(f"# pair {seed}, {workload}: " + ", ".join(
                    f"{side} op_p50_ms {untraced[workload][side][-1]['metrics']['op_p50_ms']['value']:.4f}"
                    for side in order), flush=True)
        traced = {w: {side: run(sides[side], w, seeds[0], seconds, 1) for side in ("parent", "change")}
                  for w in workloads}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    layers = [m["name"] for m in spec["per_layer"]]
    result = {
        "commits": commits,
        "interpreter": {"executable": sys.executable, "implementation": platform.python_implementation(),
                        "version": platform.python_version()},
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "seeds": seeds,
        "run_seconds": seconds,
        "order": "pair i runs seed i on both sides; the parent goes first in the odd pairs",
        "workloads": {
            w: {
                "end_to_end": summary(untraced[w]["parent"], untraced[w]["change"], spec),
                "failed_share": {side: failed_share(untraced[w][side]) for side in ("parent", "change")},
                "correct": {side: all(r["correct"] for r in untraced[w][side]) and traced[w][side]["correct"]
                            for side in ("parent", "change")},
                "per_layer": {
                    side: {name: traced[w][side]["metrics"][name]["value"]
                           for name in layers if name in traced[w][side]["metrics"]}
                    for side in ("parent", "change")
                },
            }
            for w in workloads
        },
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    for w in workloads:
        for name, m in result["workloads"][w]["end_to_end"].items():
            relative = "n/a" if m["relative_change"] is None else f"{m['relative_change']:+.1%}"
            print(f"{w} {name}: parent {m['parent']['median']:.4g}, change {m['change']['median']:.4g} "
                  f"({relative}), change better in {m['change_wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
