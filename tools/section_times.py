"""The first ``load_atlas``, ``run_all_checks`` and ``graph_to_dot`` calls and warm section times.

    python tools/section_times.py [--runs N] [SRC ...]

Each SRC (default ``src``) is a directory holding the ``k3atlas`` package, such as the
``src`` of another checkout.  The trees take turns, one fresh interpreter per run and ``--runs``
runs each (default 3), so that a slow spell of the machine falls on every tree alike.  A run
times the first ``load_atlas()`` call, which builds the embedded atlas and what the catalog
audit reads (the row ``load_atlas, first call``), one ``run_all_checks`` call, which derives
and keeps the family passes (the row ``run_all_checks, first call``), and the first
``graph_to_dot`` of the graph that the pass kept, which formats its DOT text (the row
``graph_to_dot, first call``); it then times a warm ``run_all_checks`` and each of its
sections on that atlas, and a warm ``load_atlas(dir)`` on that atlas exported into a temporary
directory (the row ``load_atlas(dir), warm``): the best of 5 repeats of 2,000 calls.  The table
has one row for each first call and one per section and, per tree, the median of its runs'
times in microseconds per call, then their lowest and highest in brackets
(``12.3 [11.1-13.2]``), so that one slow run widens a range but moves no median; a section that
a tree does not have, or that ``run_all_checks`` reports but ``SECTIONS`` does not time, reads
``-``.  Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median

# (row name, module, function): each is called with the atlas alone.
SECTIONS = (
    ("run_all_checks", "validation", "run_all_checks"),
    ("catalog audit", "atlas", "validate_atlas"),
    ("isotopy tables", "validation", "_check_isotopy_tables"),
    ("degeneration tables", "validation", "_check_move_tables"),
    ("invariant roundtrips", "validation", "_check_roundtrips"),
    ("double-cover Euler identity", "validation", "_check_euler"),
    ("exclusions", "validation", "_check_exclusions"),
    ("oval-count monotonicity", "validation", "_check_monotonicity"),
    ("correspondence", "degenerations", "correspondence_check"),
    ("transition graph", "validation", "_check_graph"),
)
FIRST_LOAD, FIRST_CALL = "load_atlas, first call", "run_all_checks, first call"
FIRST_DOT = "graph_to_dot, first call"
WARM_EXTERNAL = "load_atlas(dir), warm"
REPEAT, NUMBER = 5, 2000

# One run, in a fresh interpreter: prints {row name: microseconds per call} as JSON.
_RUN = """
import importlib, json, os, sys, tempfile, time, timeit
from k3atlas import Family, graph_to_dot, load_atlas, run_all_checks, transition_graph
first_load, first_call, first_dot, warm_external, sections, repeat, number = json.loads(sys.argv[1])
start = time.perf_counter()
atlas = load_atlas()
loaded = time.perf_counter()
summary = run_all_checks(atlas)
checked = time.perf_counter()
assert summary.ok
graph = transition_graph(atlas)
dot_start = time.perf_counter()
graph_to_dot(graph)
dotted = time.perf_counter()
out = {first_load: (loaded - start) * 1e6, first_call: (checked - loaded) * 1e6}
out[first_dot] = (dotted - dot_start) * 1e6
out.update({section.name: None for section in summary.sections})  # a section not timed stays None
for name, module, function in sections:
    call = getattr(importlib.import_module("k3atlas." + module), function, None)
    if call is not None:
        best = min(timeit.repeat(lambda: call(atlas), repeat=repeat, number=number))
        out[name] = best / number * 1e6
with tempfile.TemporaryDirectory() as data_dir:
    for family in Family:
        with open(os.path.join(data_dir, family.value + ".json"), "w") as f:
            json.dump(atlas.to_records(family), f)
    load_atlas(data_dir)  # the one parse: the timed calls read both files and compare them
    best = min(timeit.repeat(lambda: load_atlas(data_dir), repeat=repeat, number=number))
    out[warm_external] = best / number * 1e6
print(json.dumps(out))
"""


def run_once(src: str) -> dict[str, float | None]:
    env = {k: v for k, v in os.environ.items() if k not in ("ATLAS_DATA_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.abspath(src)
    argv = [sys.executable, "-c", _RUN, json.dumps([FIRST_LOAD, FIRST_CALL, FIRST_DOT, WARM_EXTERNAL, SECTIONS, REPEAT, NUMBER])]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def table(srcs: list[str], runs: list[list[dict[str, float | None]]]) -> str:
    def cell(times: list[float]) -> str:
        return f"{median(times):.1f} [{min(times):.1f}-{max(times):.1f}]" if times else "-"

    rows = [["section (us per call)", *srcs]]
    reported = [name for per_src in runs for run in per_src for name in run]
    for name in dict.fromkeys([FIRST_LOAD, FIRST_CALL, FIRST_DOT] + [name for name, _module, _function in SECTIONS] + [WARM_EXTERNAL] + reported):
        times = ([run[name] for run in per_src if run.get(name) is not None] for per_src in runs)
        rows.append([name, *map(cell, times)])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(text.ljust(width) if i == 0 else text.rjust(width) for i, (text, width) in enumerate(zip(row, widths)))
        for row in rows
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("srcs", nargs="*", default=["src"], metavar="SRC")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs is at least 1")
    for src in args.srcs:
        if not os.path.isdir(os.path.join(src, "k3atlas")):
            parser.error(f"{src} holds no k3atlas package")
    runs: list[list[dict[str, float | None]]] = [[] for _ in args.srcs]
    for _ in range(args.runs):
        for per_src, src in zip(runs, args.srcs):
            per_src.append(run_once(src))
    print(table(args.srcs, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
