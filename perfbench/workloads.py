"""The workloads and the CLI commands: their seeded ops, and an oracle for each op.

An op is a call into ``k3atlas`` plus the facts its output must show.
``Op.observe`` reduces the output to plain values and ``Op.expected``
holds what they must equal.  The expected values come from closed forms
(``lattice_inputs``), from the shipped data module ``k3atlas.tables`` and
from facts the README states; no expected value is computed by the code
under test.

Ops look up library functions on the module at call time, so spans
installed by ``tracer.Tracer`` see them.  Nothing here imports
``k3atlas`` at module level: ``set_up`` does, so that a fresh interpreter
can time it (see ``setup_probe.py``).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import lattice_inputs

README_SUMMARY = "102/51, 63/37, correspondence OK, 1 whitelisted discrepancy"
GRAPH_NODES = 165
GRAPH_EDGES = 280

WORKLOADS = ("lattice", "catalog", "catalog_external")


@dataclass(eq=False)  # hashed by identity: an op keys its own timings
class Op:
    kind: str
    call: Callable[[], Any]
    observe: Callable[[Any], Any]
    expected: Any


def corrupted(expected):
    """``expected`` with its last leaf changed: an int has its low bit
    flipped (so a delta of 0 or 1 is flipped), a string is extended, and
    any other leaf (a bool, None, an empty tuple) is replaced."""
    if isinstance(expected, tuple) and expected:
        return expected[:-1] + (corrupted(expected[-1]),)
    if isinstance(expected, bool):
        return not expected
    if isinstance(expected, int):
        return expected ^ 1
    if isinstance(expected, str):
        return expected + "?"
    return "corrupted"


# ---------------------------------------------------------------------------
# Set-up: import, first load_atlas(), one untimed warm-up op per op kind.


def set_up(workload: str):
    """Everything a user pays before the first op; returns the package.

    For ``catalog_external`` the caller has set ATLAS_DATA_DIR, so the
    first ``load_atlas()`` also parses the exported catalog.
    """
    import k3atlas

    k3atlas.load_atlas()
    for op in warmup_ops(workload, k3atlas):
        op.call()
    return k3atlas


def warmup_ops(workload: str, k) -> list[Op]:
    if workload == "lattice":
        return [_lattice_op(k, lattice_inputs.WARMUP_TEXT, None)]
    return _catalog_warmup(k)


def make_ops(workload: str, k, rng: random.Random) -> list[Op]:
    """The ops of one round, drawn from ``rng``; every round replays them."""
    if workload == "lattice":
        return [_lattice_op(k, item.text, item.expected) for item in lattice_inputs.make_inputs(rng)]
    return _catalog_ops(k, rng)


def cli_ops(k, root: Path, in_process=False) -> list[Op]:
    """The nine README commands, as children or through ``main(argv)``."""
    return [
        _cli_op_in_process(k, argv) if in_process else _cli_op_child(root, argv)
        for argv in CLI_COMMANDS
    ]


# ---------------------------------------------------------------------------
# lattice: the ``atlas lattice`` pipeline, in process.


def _lattice_op(k, text: str, expected: lattice_inputs.Expected | None) -> Op:
    def call():
        lattice = k.parse_gram_text(text)
        det = lattice.det()
        even = lattice.is_even()
        sig = k.signature(lattice)
        group = k.discriminant_group(lattice)
        inv = k.two_elementary_invariants(lattice)
        return lattice.rank, det, even, sig, group.cyclic_orders, inv.triple

    def observe(out):
        rank, det, even, sig, orders, triple = out
        return (rank, det, even, tuple(sig), tuple(orders), tuple(triple))

    want = None
    if expected is not None:
        e = expected
        want = (e.r, e.det, True, e.signature, (2,) * e.a, (e.r, e.a, e.delta))
    kind = "warm-up" if expected is None else f"a={expected.a},delta={expected.delta},r={expected.r}"
    return Op(kind, call, observe, want)


# ---------------------------------------------------------------------------
# catalog / catalog_external: library calls with the default atlas=None.

_CASE_COLUMNS = (("Node (1)", "node1"), ("Isolated point", "isolated"), ("Node (2)", "node2"))


def _isotopy_rows(tables) -> dict[str, Any]:
    return {row.index: row for row in tables.ISOTOPY_H0 + tables.ISOTOPY_Z2}


def _move_cells(tables) -> list[tuple[str, str, tuple[int, int]]]:
    """(class index, move name, shipped cell) for every applicable table
    cell; whitelisted cells carry their derived value."""
    fixes = {(index, move): derived for index, move, _shipped, derived in tables.WHITELISTED_CELLS}
    out = []
    for rows, suffix in ((tables.MOVES_UNPRIMED, ""), (tables.MOVES_PRIMED, "p")):
        for row in rows:
            for column in ("conj1", "conj2", "contr3"):
                move = column + suffix
                cell = fixes.get((row.index, move), getattr(row, column))
                if cell is not None:
                    out.append((row.index, move, tuple(cell)))
    return out


def _table_rows(tables, side: str):
    fixes = {(index, move): derived for index, move, _shipped, derived in tables.WHITELISTED_CELLS}
    if side == "STAR":
        return tuple((row.index, (None,)) for row in tables.MOVES_STAR)
    rows = tables.MOVES_UNPRIMED if side == "UNPRIMED" else tables.MOVES_PRIMED
    suffix = "" if side == "UNPRIMED" else "p"
    return tuple(
        (
            row.index,
            tuple(
                fixes.get((row.index, column + suffix), getattr(row, column))
                for column in ("conj1", "conj2", "contr3")
            ),
        )
        for row in rows
    )


def _whole_catalog_ops(k, tables=None) -> list[Op]:
    """validate, both graph exports and the three move tables; expectations
    are filled in when ``tables`` is given."""

    def graph_dot():
        return k.graph_to_dot(k.transition_graph())

    def graph_json():
        return k.graph_to_json(k.transition_graph())

    def dot_counts(text):
        lines = text.splitlines()
        edges = sum(" -> " in line for line in lines)
        nodes = sum(line.startswith("  ") and " -> " not in line for line in lines)
        return nodes, edges

    def table_cells(rows):
        return tuple((row.index, tuple(cell for _move, cell in row.cells)) for row in rows)

    graph = (GRAPH_NODES, GRAPH_EDGES)
    ops = [
        Op(
            "run_all_checks",
            lambda: k.run_all_checks(),
            lambda s: (s.ok, s.summary_line()),
            (True, README_SUMMARY),
        ),
        Op("graph_dot", graph_dot, dot_counts, graph),
        Op("graph_json", graph_json, lambda g: (len(g["nodes"]), len(g["edges"])), graph),
    ]
    for side in ("UNPRIMED", "PRIMED", "STAR"):
        name = f"table_{side.lower()}"
        ops.append(
            Op(
                name,
                lambda side=side: k.degeneration_table(k.TableSide[side]),
                table_cells,
                None if tables is None else _table_rows(tables, side),
            )
        )
    return ops


def _candidates_op(k, index: str, row=None) -> Op:
    """Candidates and real parts of one S311 class, checked against its
    isotopy table ``row``."""

    def call():
        c = k.load_atlas().lookup_index(k.Family.S311, index)
        return [(t, k.real_part_topology(c, t)) for t in k.candidate_isotopy_types(c)]

    def observe(out):
        cells = sorted(
            (t.case.value, t.alpha, t.beta) for t, _ in out if t.case.value != "Node (*)"
        )
        stars = [str(part) for t, part in out if t.case.value == "Node (*)"]
        return tuple(cells), tuple(stars)

    want = None
    if row is not None:
        cells = sorted(
            (case,) + tuple(getattr(row, column))
            for case, column in _CASE_COLUMNS
            if getattr(row, column) is not None
        )
        want = (tuple(cells), (row.node_star,) if row.node_star else ())
    return Op("candidates", call, observe, want)


def _apply_op(k, index: str, move: str, cell=None) -> Op:
    """One move from the U class ``index``; lands on the S311 class of the
    same index with the table ``cell``."""

    def call():
        u = k.load_atlas().lookup_index(k.Family.U, index)
        return k.apply_degeneration(u, k.Degeneration[move.upper()])

    want = None if cell is None else (cell, index)
    return Op("apply_degeneration", call, lambda o: (o.cell(), o.target.index), want)


def _lookup_op(k, family: str, label: str, triple=None) -> Op:
    return Op(
        "lookup_index",
        lambda: k.load_atlas().lookup_index(k.Family[family], label),
        lambda c: (c.r, c.a, c.delta),
        triple,
    )


def _catalog_warmup(k) -> list[Op]:
    return _whole_catalog_ops(k) + [
        _candidates_op(k, "No.22"),
        _apply_op(k, "No.22", "conj1"),
        _lookup_op(k, "S311", "No.22"),
    ]


def _catalog_ops(k, rng: random.Random) -> list[Op]:
    """One op per library call of the mix, none weighted above another: the
    six whole-catalog ops, and one each of the three point queries on a
    seeded class, move or index."""
    from k3atlas import tables

    isotopy = _isotopy_rows(tables)
    moves = {row.index: row for row in tables.MOVES_UNPRIMED + tables.MOVES_PRIMED}
    classes = sorted(isotopy)
    lookups = [("S311", i) for i in classes] + [("U", i) for i in moves]
    cells = _move_cells(tables)
    ops = _whole_catalog_ops(k, tables)
    index = rng.choice(classes)
    ops.append(_candidates_op(k, index, isotopy[index]))
    index, move, cell = rng.choice(cells)
    ops.append(_apply_op(k, index, move, cell))
    family, label = rng.choice(lookups)
    row = (isotopy if family == "S311" else moves)[label]
    ops.append(_lookup_op(k, family, label, (row.r, row.a, row.delta)))
    return ops


def write_external_catalog(k, directory: Path) -> None:
    """Export the embedded catalogs as s311.json / u.json for ATLAS_DATA_DIR."""
    import json

    atlas = k.load_atlas(data_dir="")
    for family, name in ((k.Family.S311, "s311.json"), (k.Family.U, "u.json")):
        (directory / name).write_text(json.dumps(atlas.to_records(family)), encoding="utf-8")


# ---------------------------------------------------------------------------
# The CLI layer, measured in every traced run: the README commands, each a
# ``python -m k3atlas.cli`` child or an in-process ``main(argv)`` call.

CLI_COMMANDS: tuple[tuple[str, ...], ...] = (
    ("validate",),
    ("classes", "--family", "s311", "--format", "md"),
    ("classes", "--family", "u", "--format", "csv"),
    ("isotopy", "--index", "No.17"),
    ("degenerate", "--class", "9,9,1"),
    ("degenerate", "--side", "primed", "--format", "csv"),
    ("graph", "--format", "dot"),
    ("lattice", "grams/lk3.gram"),
    ("divisor", "--class", "12,3", "--intersect", "1,0"),
)
CLI_SUBCOMMANDS = ("validate", "classes", "isotopy", "degenerate", "graph", "lattice", "divisor")


def _f4_pairing(x, y) -> int:
    # Hirzebruch surface F4 in the basis (fibre c, section s): c.c = 0,
    # c.s = 1, s.s = -4.
    return x[1] * y[0] + x[0] * y[1] - 4 * x[1] * y[1]


def _cli_expectations(tables) -> dict[tuple[str, ...], Callable[[str], Any] | Any]:
    d, other, canonical = (12, 3), (1, 0), (-6, -2)
    d_dot_k = _f4_pairing(d, canonical)
    genus = 1 + (_f4_pairing(d, d) + d_dot_k) // 2
    u_triples = {(r.r, r.a, r.delta) for r in tables.MOVES_UNPRIMED + tables.MOVES_PRIMED}
    u_triples |= set(tables.U_EXCLUDED_TRIPLES + tables.U_UNTABULATED_TRIPLES)
    row17 = _isotopy_rows(tables)["No.17"]
    cells = []
    for _case, column in _CASE_COLUMNS:
        cell = getattr(row17, column)
        cells += ["", ""] if cell is None else [str(x) for x in cell]
    row17_text = "| " + " | ".join(
        [row17.index, str(row17.r), str(row17.a), str(row17.delta), "0", str(row17.g), str(row17.k)]
        + cells
        + [row17.node_star or ""]
    ) + " |"
    star = tables.MOVES_STAR[0]
    return {
        CLI_COMMANDS[0]: ("summary: " + README_SUMMARY,),
        CLI_COMMANDS[1]: (51, 51),
        CLI_COMMANDS[2]: (63, tuple(sorted(u_triples))),
        CLI_COMMANDS[3]: (row17_text,),
        CLI_COMMANDS[4]: (f"### {star.index} ({star.r},{star.a},{star.delta})", 7, True),
        CLI_COMMANDS[5]: (tuple(row.index for row in tables.MOVES_PRIMED),),
        CLI_COMMANDS[6]: (GRAPH_NODES, GRAPH_EDGES),
        # U + U + U + E8(-1) + E8(-1): rank 22, signature (3, 19), det -1.
        CLI_COMMANDS[7]: (
            (
                "rank: 22",
                "signature: (3,19)",
                "det: -1",
                "even: yes",
                "discriminant group: trivial",
                "invariants (r,a,delta): (22,0,0)",
            ),
        ),
        CLI_COMMANDS[8]: (
            _f4_pairing(d, d),
            d_dot_k,
            genus,
            _f4_pairing(d, other),
        ),
    }


def _grid_delta_counts(text: str) -> tuple[int, ...]:
    counts = []
    for section in text.split("### ")[1:]:
        rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
        counts.append(
            sum(
                len([d for d in cell.split(",") if d.strip()])
                for row in rows
                for cell in row.strip("|").split("|")[1:]
            )
        )
    return tuple(counts)


def _number_after(text: str, label: str) -> int | None:
    for line in text.splitlines():
        if label in line:
            return int(line.split(label, 1)[1].split()[0].rstrip(";"))
    return None


def _cli_facts(argv: tuple[str, ...], text: str):
    lines = text.splitlines()
    name = argv[0]
    if name == "validate":
        return (lines[-1],)
    if name == "classes" and "md" in argv:
        return _grid_delta_counts(text)
    if name == "classes":
        rows = [line.split(",") for line in lines[1:]]
        return (len(rows), tuple(sorted((int(r[1]), int(r[2]), int(r[3])) for r in rows)))
    if name == "isotopy":
        return (lines[2],)
    if name == "degenerate" and "--side" in argv:
        return (tuple(line.split(",")[0] for line in lines[1:]),)
    if name == "degenerate":
        moves = [line for line in lines if line.startswith("- ")]
        star = any(line.startswith("- Conjunction 4): Node (*)") for line in moves)
        return (lines[0], len(moves), star)
    if name == "graph":
        edges = sum(" -> " in line for line in lines)
        return (sum(line.startswith("  ") for line in lines) - edges, edges)
    if name == "lattice":
        return (tuple(lines),)
    return (
        _number_after(text, "self-intersection: "),
        _number_after(text, "d.K = "),
        _number_after(text, "arithmetic genus: "),
        _number_after(text, "pairing with c: "),
    )


_CLI_EXPECTED: dict = {}


def _cli_expected(argv):
    if not _CLI_EXPECTED:
        from k3atlas import tables

        _CLI_EXPECTED.update(_cli_expectations(tables))
    return _CLI_EXPECTED[argv]


def _cli_observe(argv):
    def observe(out):
        code, text = out
        return (code,) + _cli_facts(argv, text)

    return observe


def _cli_op_child(root: Path, argv: tuple[str, ...]) -> Op:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def call():
        done = subprocess.run(
            [sys.executable, "-m", "k3atlas.cli", *argv],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return done.returncode, done.stdout

    return Op(argv[0], call, _cli_observe(argv), (0,) + _cli_expected(argv))


def _cli_op_in_process(k, argv: tuple[str, ...]) -> Op:
    def call():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = sys.modules["k3atlas.cli"].main(list(argv))
        return code, buffer.getvalue()

    return Op(argv[0], call, _cli_observe(argv), (0,) + _cli_expected(argv))
