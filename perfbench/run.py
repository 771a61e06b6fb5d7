"""k3atlas benchmark: one workload, one seed, closed loop with one caller.

Run from the repo root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` measures the per-layer metrics (spans from ``tracer.py``) in a separate
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, sample count and tail percentile.
``--selftest`` shows that every workload's oracle, and that of the CLI
commands a traced run makes, can fail: with a corrupted expected value
(for ``lattice``, a flipped delta) error_rate must exceed 0, and with the
true one it must be 0.

Workloads, op mixes and the layers each should load are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9  # fresh interpreters timed per untraced run
ENV_PROBES = 5
# Every op runs at least TAIL_BEYOND + 1 times, so the tail percentile
# (TAIL_BEYOND samples beyond it) always falls on the slowest op.
TAIL_BEYOND = 10
# Share of --seconds a traced run spends on pairs of untraced and traced
# rounds of the workload (spans stay in memory until the run ends).
PAIRS_SHARE = 0.25
# Rounds of the nine CLI commands in every traced run: as children, and
# in process through main(argv), traced.
CLI_ROUNDS = 3
# Rounds of the lattice ladder traced in every traced run, so the lattice
# layers are measured whatever the workload.
LATTICE_ROUNDS = 2

LAYER_FUNCTIONS = (
    "atlas.load_atlas",
    "atlas.from_records",
    "atlas.validate_atlas",
    "topology.candidate_isotopy_types",
    "topology.real_part_topology",
    "topology.double_cover_euler_check",
    "degenerations.apply_degeneration",
    "degenerations.degeneration_table",
    "degenerations.correspondence_check",
    "degenerations.transition_graph",
    "degenerations.graph_to_dot",
    "degenerations.graph_to_json",
    "validation.run_all_checks",
)
LATTICE_FUNCTIONS = (
    "lattices.two_elementary_invariants",
    "lattices.signature",
    "lattices.smith_normal_form",
    "lattices.discriminant_group",
    "lattices.det",
    "lattices.parse_gram_text",
)
CLI_FUNCTIONS = ("cli.main", "cli.build_parser")
A_BUCKETS = (("a_lo", 0, 5), ("a_mid", 6, 9), ("a_hi", 10, 99))
RANK_BUCKETS = (("r_lo", 0, 8), ("r_mid", 9, 16), ("r_hi", 17, 99))


@dataclass
class Samples:
    """Counts and aggregates of the ops run, in memory that does not grow
    with the number of ops: per op kind (n, total ns, max ns), and per op
    its repetitions and fastest latency."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    busy_ns: int = 0
    kinds: dict[str, list[int]] = field(default_factory=dict)
    best: dict[workloads.Op, list[int]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record(self, op: workloads.Op, ns: int, out, error, corrupt: bool) -> None:
        self.attempted += 1
        self.busy_ns += ns
        kind = self.kinds.setdefault(op.kind, [0, 0, 0])
        kind[0] += 1
        kind[1] += ns
        kind[2] = max(kind[2], ns)
        best = self.best.setdefault(op, [0, ns])
        best[0] += 1
        best[1] = min(best[1], ns)
        problem = None
        if error is not None:
            problem = f"raised {error!r}"
        elif op.expected is not None:
            expected = workloads.corrupted(op.expected) if corrupt else op.expected
            try:
                seen = op.observe(out)
            except Exception as exc:  # a malformed output is a failed op
                problem = f"unreadable output: {exc!r}"
            else:
                if seen != expected:
                    problem = f"got {seen!r}, expected {expected!r}"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.kind}: {problem}")


def run_round(
    ops: list[workloads.Op],
    samples: Samples,
    tracer: tracing.Tracer | None = None,
    corrupt: bool = False,
) -> int:
    """Run ``ops`` once each, in order; returns their total latency in ns."""
    clock = time.perf_counter_ns
    busy = 0
    for op in ops:
        if tracer is not None:
            tracer.op = samples.attempted
        error = out = None
        start = clock()
        try:
            out = op.call()
        except Exception as exc:  # an op that raises is a failed op
            error = exc
        ns = clock() - start
        busy += ns
        samples.record(op, ns, out, error, corrupt)
    samples.rounds += 1
    return busy


def run_rounds(
    ops: list[workloads.Op],
    rng: random.Random,
    seconds: float | None = None,
    rounds: int | None = None,
    min_rounds: int = 1,
    tracer: tracing.Tracer | None = None,
    corrupt: bool = False,
    samples: Samples | None = None,
) -> Samples:
    """Replay ``ops`` in a fresh seeded order each round, for whole rounds
    until ``seconds`` have passed and ``min_rounds`` are done, or until
    ``rounds`` are done.  Adds to ``samples`` when given."""
    samples = Samples() if samples is None else samples
    done = 0
    deadline = time.perf_counter() + (seconds or 0)
    while True:
        order = ops[:]
        rng.shuffle(order)
        run_round(order, samples, tracer, corrupt)
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= min_rounds and time.perf_counter() >= deadline:
            break
    return samples


# ---------------------------------------------------------------------------
# Workload context: sys.path, the exported catalog, ATLAS_DATA_DIR.


@contextlib.contextmanager
def workload_env(name: str, root: Path):
    """Set up ``name`` in this process; yields the ``k3atlas`` package."""
    saved = os.environ.get("ATLAS_DATA_DIR")
    work = None
    try:
        if name == "catalog_external":
            import k3atlas

            base = root / ".perfbench_work"
            base.mkdir(exist_ok=True)
            work = Path(tempfile.mkdtemp(prefix="catalog-", dir=base))
            workloads.write_external_catalog(k3atlas, work)
            os.environ["ATLAS_DATA_DIR"] = str(work)
        yield workloads.set_up(name)
    finally:
        if saved is None:
            os.environ.pop("ATLAS_DATA_DIR", None)
        else:
            os.environ["ATLAS_DATA_DIR"] = saved
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)


def _child(argv: list[str], root: Path, env: dict | None = None) -> subprocess.CompletedProcess:
    done = subprocess.run(
        argv, cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {done.returncode}: {done.stderr.strip()}")
    return done


def setup_seconds(name: str, root: Path) -> float:
    """One fresh interpreter's set-up time (``setup_probe.py``)."""
    return float(_child([sys.executable, str(HERE / "setup_probe.py"), name], root).stdout.split()[-1])


def interpreter_and_import_ms(root: Path) -> tuple[list[float], list[float]]:
    """Wall time of a bare ``python -c pass``, and the in-child time of
    ``import k3atlas.cli``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    bare = []
    for _ in range(ENV_PROBES):
        start = time.perf_counter()
        _child([sys.executable, "-c", "pass"], root, env)
        bare.append((time.perf_counter() - start) * 1e3)
    code = (
        "import time; t = time.perf_counter(); import k3atlas.cli; "
        "print(repr((time.perf_counter() - t) * 1e3))"
    )
    imports = [
        float(_child([sys.executable, "-c", code], root, env).stdout.split()[-1])
        for _ in range(ENV_PROBES)
    ]
    return bare, imports


# ---------------------------------------------------------------------------
# Statistics and output


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment_line() -> str:
    return (
        f"# environment: python {platform.python_version()} "
        f"({platform.python_implementation()}), nproc {os.cpu_count()}, {platform.machine()}"
    )


def emit(lines: list[str], samples: Samples, metrics: dict) -> None:
    for line in lines:
        print(line)
    for failure in samples.failures:
        print(f"# failed op: {failure}")
    print(
        json.dumps(
            {
                "correct": samples.failed == 0,
                "attempted": samples.attempted,
                "failed": samples.failed,
                "metrics": metrics,
            }
        )
    )


def tail(sorted_values: list) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that still has
    TAIL_BEYOND samples beyond it: the (TAIL_BEYOND + 1)-th largest sample."""
    n = len(sorted_values)
    if n <= TAIL_BEYOND:
        return 50.0, statistics.median(sorted_values)
    return 100 * (n - TAIL_BEYOND) / n, sorted_values[n - TAIL_BEYOND - 1]


def denoised(samples: Samples) -> list[int]:
    """Every sample replaced by the fastest repetition of the same op in
    the run, sorted.

    Each round replays the same ops, so an op's repetitions are the same
    work spread over the whole run.  Other tenants of the machine slow it
    down for seconds to minutes at a time and never speed it up, so the
    fastest repetition is the reading they disturb least (the rule Python's
    ``timeit`` gives for its repeats).  A cost the program pays on only
    some repetitions (a GC pause, work done every Nth call) does not show."""
    return sorted(ns for count, ns in samples.best.values() for _ in range(count))


def untraced(name: str, seed: int, seconds: float, root: Path) -> None:
    with workload_env(name, root) as k:
        rng = random.Random(seed)
        ops = workloads.make_ops(name, k, rng)
        samples = Samples()
        setups = []
        # One set-up probe after each of SETUP_PROBES equal parts of the
        # run, so the probes meet the shared machine at moments spread over
        # the run rather than in one burst.
        for _ in range(SETUP_PROBES):
            run_rounds(
                ops, rng, seconds=seconds / SETUP_PROBES,
                min_rounds=-(-(TAIL_BEYOND + 1) // SETUP_PROBES), samples=samples,
            )
            setups.append(setup_seconds(name, root))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lat = denoised(samples)
    n = len(lat)
    p, tail_ns = tail(lat)
    metrics = {
        "ops_per_s": metric(n / (sum(lat) / 1e9), "1/s"),
        "op_p50_ms": metric(statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": metric(tail_ns / 1e6, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    lines = [
        f"# workload {name}, seed {seed}, {samples.rounds} rounds, {n} ops, closed loop, 1 caller",
        environment_line(),
        f"# each op's latency is its fastest repetition in the run "
        f"({len(samples.best)} ops per round, {samples.rounds} rounds)",
        f"ops_per_s {metrics['ops_per_s']['value']:.4f} 1/s (n={n})",
        f"op_p50_ms {metrics['op_p50_ms']['value']:.4f} ms (n={n})",
        f"op_tail_ms {metrics['op_tail_ms']['value']:.4f} ms (p{p:.2f}, n={n}; "
        f"the slowest op's fastest repetition)",
        f"error_rate {samples.failed / n:.6f} (failed={samples.failed}, attempted={n})",
        f"setup_s {metrics['setup_s']['value']:.4f} s (median of n={len(setups)} fresh interpreters)",
        f"peak_rss_mb {peak_rss_mb:.2f} MB (RUSAGE_SELF)",
        f"# all repetitions: {samples.attempted / (samples.busy_ns / 1e9):.4f} ops per busy second",
    ]
    for kind, (count, total, most) in sorted(samples.kinds.items()):
        lines.append(
            f"# kind {kind}: n={count} mean {total / count / 1e6:.4f} ms max {most / 1e6:.4f} ms"
        )
    emit(lines, samples, metrics)


def paired_rounds(
    ops: list[workloads.Op], rng: random.Random, seconds: float
) -> tuple[Samples, Samples, tracing.Tracer, list[float]]:
    """Rounds of ``ops`` in pairs until ``seconds`` have passed: each pair
    runs the round's order once untraced and once traced, which of the two
    goes first alternating from pair to pair (untraced first in the even
    pairs).  Returns the untraced and traced samples, the tracer and each
    pair's traced / untraced time."""
    plain, traced, tracer = Samples(), Samples(), tracing.Tracer()
    ratios: list[float] = []
    end = time.perf_counter() + seconds
    while len(ratios) < 2 or time.perf_counter() < end:
        order = ops[:]
        rng.shuffle(order)
        busy = {}
        for with_trace in (False, True) if len(ratios) % 2 == 0 else (True, False):
            if with_trace:
                tracer.install()
                try:
                    busy[True] = run_round(order, traced, tracer)
                finally:
                    tracer.uninstall()
            else:
                busy[False] = run_round(order, plain)
        ratios.append(busy[True] / busy[False])
    return plain, traced, tracer, ratios


def lattice_metrics(prefix: str, spans: list[tuple], per: int) -> dict:
    """Calls and self time per ``per`` rounds of every lattice function,
    the a and rank ladders' buckets, and the largest SNF entry."""
    totals, by_tag, _ = tracing.aggregate(spans)
    out = {}
    for fn in LATTICE_FUNCTIONS:
        t = totals.get(fn, tracing.Totals())
        out[f"{prefix}{fn}.calls"] = metric(t.calls / per, "count")
        out[f"{prefix}{fn}.self_ms"] = metric(t.self_ns / per / 1e6, "ms")
    for fn, buckets in (
        ("lattices.two_elementary_invariants", A_BUCKETS),
        ("lattices.signature", RANK_BUCKETS),
    ):
        for label, lo, hi in buckets:
            ns = sum(v for (span_name, tag), v in by_tag.items() if span_name == fn and lo <= tag <= hi)
            out[f"{prefix}{fn}.self_ms.{label}"] = metric(ns / per / 1e6, "ms")
    bits = [s[tracing.TAG] for s in spans if s[tracing.NAME] == "lattices.smith_normal_form"]
    out[f"{prefix}lattices.smith_normal_form.max_bits"] = metric(max(bits, default=0), "bits")
    return out


def traced(name: str, seed: int, seconds: float, root: Path) -> None:
    lines = [f"# traced run: workload {name}, seed {seed}", environment_line()]
    metrics: dict[str, dict] = {}
    bare, imports = interpreter_and_import_ms(root)
    metrics["cli.interpreter_ms"] = metric(statistics.median(bare), "ms")
    metrics["cli.import_ms"] = metric(statistics.median(imports), "ms")

    with workload_env(name, root) as k:
        rng = random.Random(seed)
        plain, samples, tracer, ratios = paired_rounds(
            workloads.make_ops(name, k, rng), rng, seconds * PAIRS_SHARE
        )
        cli_children, cli_tracer, cli_samples = cli_layer(k, seed, root)
        ladder = workloads.make_ops("lattice", k, random.Random(seed))
        ladder_samples, ladder_tracer = traced_rounds(ladder, seed, LATTICE_ROUNDS)

    rounds = samples.rounds
    spans = tracer.spans
    spans_path = root / ".perfbench_work" / f"spans-{name}-seed{seed}.tsv.gz"
    spans_path.parent.mkdir(exist_ok=True)
    tracing.write(spans, spans_path)
    totals, _, attributed_ns = tracing.aggregate(spans)
    for fn in LAYER_FUNCTIONS:
        t = totals.get(fn, tracing.Totals())
        metrics[f"{fn}.calls"] = metric(t.calls / rounds, "count")
        metrics[f"{fn}.self_ms"] = metric(t.self_ns / rounds / 1e6, "ms")
    metrics.update(lattice_metrics("", spans, rounds))
    metrics.update(lattice_metrics("ladder.", ladder_tracer.spans, LATTICE_ROUNDS))
    loads = totals.get("atlas.load_atlas", tracing.Totals()).calls
    reparses = totals.get("atlas.from_records", tracing.Totals()).calls
    metrics["atlas.load_atlas.reparse_ratio"] = metric(reparses / loads if loads else 0.0, "ratio")

    for sub in workloads.CLI_SUBCOMMANDS:
        count, total, _most = cli_children.kinds[sub]
        metrics[f"cli.{sub}.wall_ms"] = metric(total / count / 1e6, "ms")
    cli_totals, _, _ = tracing.aggregate(cli_tracer.spans)
    for fn in CLI_FUNCTIONS:
        t = cli_totals.get(fn, tracing.Totals())
        metrics[f"{fn}.calls"] = metric(t.calls / cli_samples.rounds, "count")
        metrics[f"{fn}.self_ms"] = metric(t.self_ns / cli_samples.rounds / 1e6, "ms")
    # The second run of a pair's ops tends to be faster, so each order's
    # median ratio is taken on its own and the two averaged.
    overhead = (statistics.median(ratios[0::2]) + statistics.median(ratios[1::2])) / 2 - 1
    metrics["trace.overhead_pct"] = metric(overhead * 100, "%")
    metrics["trace.unattributed_share"] = metric(1 - attributed_ns / samples.busy_ns, "ratio")

    lines.append(
        f"# {rounds} pairs of rounds, each pair the same ops untraced and traced; per-layer "
        f"values are per traced round (one pass over the op mix); {len(spans)} spans written "
        f"to {spans_path.relative_to(root)}"
    )
    lines.append(
        f"# tracing overhead: traced / untraced time of a pair, median per order, averaged: "
        f"{overhead * 100:+.2f}% "
        f"(mean round untraced {plain.busy_ns / rounds / 1e6:.3f} ms, "
        f"traced {samples.busy_ns / rounds / 1e6:.3f} ms)"
    )
    lines.append(
        f"# ladder.lattices.*: {LATTICE_ROUNDS} traced rounds of the lattice ladder, "
        f"values per round of the ladder; lattices.*: the workload's own calls"
    )
    _, ladder_tags, _ = tracing.aggregate(ladder_tracer.spans)
    for fn, label in (
        ("lattices.two_elementary_invariants", "a"),
        ("lattices.signature", "rank"),
    ):
        steps = sorted((tag, ns) for (span_name, tag), ns in ladder_tags.items() if span_name == fn)
        lines.append(
            f"# ladder {fn} self ms per round by {label}: "
            + ", ".join(f"{label}={tag}: {ns / LATTICE_ROUNDS / 1e6:.2f}" for tag, ns in steps)
        )
    top = sorted(totals.items(), key=lambda item: -item[1].self_ns)[:12]
    for span_name, t in top:
        lines.append(
            f"# self {span_name}: {t.self_ns / rounds / 1e6:.3f} ms, {t.calls / rounds:g} calls"
        )
    lines.append(
        f"# cli layer: {CLI_ROUNDS} rounds of {len(workloads.CLI_COMMANDS)} commands as children "
        f"(cli.<subcommand>.wall_ms is the mean run), then in process; cli.main and "
        f"cli.build_parser values are per round of the commands"
    )
    for key, value in metrics.items():
        lines.append(f"{key} {value['value']:.6g} {value['unit']}")
    for extra in (plain, cli_children, cli_samples, ladder_samples):
        samples.attempted += extra.attempted
        samples.failed += extra.failed
        samples.failures += extra.failures
    emit(lines, samples, metrics)


def traced_rounds(ops: list[workloads.Op], seed: int, rounds: int) -> tuple[Samples, tracing.Tracer]:
    """``rounds`` rounds of ``ops`` under a tracer of their own."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        samples = run_rounds(ops, random.Random(seed), rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    return samples, tracer


def cli_layer(k, seed: int, root: Path) -> tuple[Samples, tracing.Tracer, Samples]:
    """The nine README commands: CLI_ROUNDS rounds as ``python -m
    k3atlas.cli`` children, then the same rounds in process through
    ``main(argv)`` with stdout captured, traced by a tracer of their own."""
    import k3atlas.cli  # noqa: F401  (so the tracer wraps it)

    children = run_rounds(workloads.cli_ops(k, root), random.Random(seed), rounds=CLI_ROUNDS)
    in_process, tracer = traced_rounds(workloads.cli_ops(k, root, in_process=True), seed, CLI_ROUNDS)
    return children, tracer, in_process


def selftest(root: Path) -> int:
    """Each oracle: 0 failures as shipped, > 0 when corrupted."""
    ok = True
    for name in workloads.WORKLOADS + ("cli",):
        with workload_env("catalog" if name == "cli" else name, root) as k:
            if name == "cli":
                ops = workloads.cli_ops(k, root)
            else:
                ops = workloads.make_ops(name, k, random.Random(0))
            true = run_rounds(ops, random.Random(0), rounds=1)
            bad = run_rounds(ops, random.Random(0), rounds=1, corrupt=True)
        passed = true.failed == 0 and bad.failed > 0
        ok = ok and passed
        print(
            f"{name}: error_rate {true.failed / true.attempted:.3f} with the true oracle, "
            f"{bad.failed / bad.attempted:.3f} with a corrupted one "
            f"({'ok' if passed else 'FAIL'})"
        )
        for failure in true.failures:
            print(f"  unexpected failure: {failure}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "k3atlas" / "__init__.py").is_file():
        print(f"run.py: no src/k3atlas under {root}; run from the repo root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.selftest:
        return selftest(root)
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        traced(args.workload, args.seed, args.seconds, root)
    else:
        untraced(args.workload, args.seed, args.seconds, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
