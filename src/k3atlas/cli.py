"""Command-line interface: the ``atlas`` binary.

Subcommands: classes, isotopy, degenerate, graph, validate, lattice,
divisor.  All output is deterministic (fixed ordering, no timestamps), so
identical invocations are byte-identical; every subcommand takes
``--format`` where more than one rendering exists and ``--out`` to write
to a file instead of stdout.

Exit codes: 0 success, 1 validation violations, 2 bad flags, 3 class not
found, 4 class without the requested structure, 5 Gram-file parse error,
6 degenerate Gram matrix, 7 unreadable or malformed external catalog.  A
library error that reaches ``main`` gets its code from ``EXIT_CODES``,
looked up along the exception's class hierarchy; any other ``AtlasError``
exits 1.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    AtlasError,
    CatalogError,
    DegenerateLattice,
    GramParseError,
    MoveNotApplicable,
    NonIntegerGenus,
    NotInAtlas,
    NotTwoElementary,
    SpecialClass,
    UnsupportedSurface,
    WrongFamily,
)

# Each subcommand imports what it uses, so that ``atlas classes`` loads no
# lattice, divisor, degeneration or validation code.  The --move choices
# are the values of ``degenerations.Degeneration``, spelled out for the
# same reason; a test keeps the two equal.
MOVE_NAMES = ("conj1", "conj1p", "conj2", "conj2p", "conj4", "conj4p", "contr3", "contr3p")

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_SPECIAL_CLASS = 4
EXIT_PARSE_ERROR = 5
EXIT_DEGENERATE = 6
EXIT_CATALOG = 7

EXIT_CODES = {
    NotInAtlas: EXIT_NOT_FOUND,
    SpecialClass: EXIT_SPECIAL_CLASS,
    WrongFamily: EXIT_SPECIAL_CLASS,
    MoveNotApplicable: EXIT_USAGE,
    GramParseError: EXIT_PARSE_ERROR,
    DegenerateLattice: EXIT_DEGENERATE,
    CatalogError: EXIT_CATALOG,
}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: str, code: int) -> int:
    print(f"atlas: {message}", file=sys.stderr)
    return code


def _json_text(payload) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _parse_family(text: str):
    from .atlas import Family

    try:
        return Family(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown family {text!r} (s311 or u)")


def _parse_h(text: str):
    from .atlas import HInvariant

    normalized = text.strip().lower()
    if normalized in ("0", "zero"):
        return HInvariant.ZERO
    if normalized in ("1", "z2", "z/2"):
        return HInvariant.Z2
    raise ValueError(f"H must be 0 or 1/Z2, got {text!r}")


def _parse_selector(text: str, family) -> tuple:
    from .atlas import Family, HInvariant

    parts = [p.strip() for p in text.split(",")]
    if family is Family.U:
        if len(parts) != 3:
            raise ValueError("selector for this family is r,a,delta")
        return (int(parts[0]), int(parts[1]), int(parts[2]), HInvariant.NOT_APPLICABLE)
    if len(parts) != 4:
        raise ValueError("selector is r,a,delta,H")
    return (int(parts[0]), int(parts[1]), int(parts[2]), _parse_h(parts[3]))


# ---------------------------------------------------------------------------
# classes


def _grid_markdown(classes, title: str) -> str:
    cells: dict[tuple[int, int], list[int]] = {}
    for c in classes:
        cells.setdefault((c.r, c.a), []).append(c.delta)
    if not cells:
        return f"### {title}\n\n(empty)\n"
    r_values = sorted({r for r, _ in cells})
    a_values = sorted({a for _, a in cells}, reverse=True)
    header = ["a\\r"] + [str(r) for r in range(min(r_values), max(r_values) + 1)]
    rows = []
    for a in range(max(a_values), min(a_values) - 1, -1):
        row = [str(a)]
        for r in range(min(r_values), max(r_values) + 1):
            deltas = sorted(cells.get((r, a), []))
            row.append(",".join(str(d) for d in deltas))
        rows.append(row)
    return f"### {title}\n\n" + _md_table(header, rows)


def cmd_classes(args) -> int:
    from .atlas import Family, HInvariant, load_atlas

    atlas = load_atlas()
    records = atlas.to_records(args.family)
    if args.format == "json":
        _emit(_json_text(records), args.out)
    elif args.format == "csv":
        header = ["family", "r", "a", "delta", "h", "index", "g", "k", "related_index"]
        rows = [
            [rec[key] if rec[key] is not None else "" for key in header]
            for rec in records
        ]
        _emit(_csv_text(header, rows), args.out)
    else:
        classes = atlas.all_classes(args.family)
        if args.family is Family.S311:
            text = _grid_markdown(
                [c for c in classes if c.h is HInvariant.ZERO], "H = 0"
            )
            text += "\n" + _grid_markdown(
                [c for c in classes if c.h is HInvariant.Z2], "H = Z/2"
            )
        else:
            text = _grid_markdown(classes, "nonsingular-curve classes")
        _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# isotopy


_ISOTOPY_HEADER = [
    "index",
    "r",
    "a",
    "delta",
    "H",
    "g",
    "k",
    "node1_a",
    "node1_b",
    "iso_a",
    "iso_b",
    "node2_a",
    "node2_b",
    "node_star",
]


def _isotopy_row(c) -> list:
    from .atlas import gk_invariants
    from .topology import Cover, TopCase, candidate_isotopy_types, real_part_topology

    g, k = gk_invariants(c)
    cells = {t.case: t for t in candidate_isotopy_types(c)}
    values: list = [c.index, c.r, c.a, c.delta, c.h.value, g, k]
    for case in (TopCase.NODE1, TopCase.ISOLATED, TopCase.NODE2):
        t = cells.get(case)
        values.extend(["", ""] if t is None else [t.alpha, t.beta])
    star = cells.get(TopCase.NODE_STAR)
    values.append("" if star is None else str(real_part_topology(c, star, Cover.PHI)))
    return values


def _isotopy_json(c, include_degenerate: bool) -> dict:
    from .atlas import gk_invariants
    from .topology import Cover, candidate_isotopy_types, real_part_topology

    g, k = gk_invariants(c)
    candidates = []
    for t in candidate_isotopy_types(c, include_degenerate=include_degenerate):
        candidates.append(
            {
                "case": t.case.value,
                "alpha": t.alpha,
                "beta": t.beta,
                "table_data": t.table_data,
                "conjectured_nonrealizable": t.conjectured_nonrealizable,
                "real_part_phi": str(real_part_topology(c, t, Cover.PHI)),
                "real_part_related": str(real_part_topology(c, t, Cover.RELATED_PHI)),
            }
        )
    return {
        "index": c.index,
        "r": c.r,
        "a": c.a,
        "delta": c.delta,
        "h": c.h.value,
        "g": g,
        "k": k,
        "candidates": candidates,
    }


def cmd_isotopy(args) -> int:
    from .atlas import Family, HInvariant, load_atlas
    from .topology import candidate_isotopy_types

    atlas = load_atlas()
    # An empty selector is a usage error, not "no selector": test for None.
    if args.index is not None:
        if not args.index:
            return _fail("--index needs a catalog label, e.g. No.17", EXIT_USAGE)
        target = atlas.lookup_index(Family.S311, args.index)
        if target is None:
            return _fail(f"no class with index {args.index}", EXIT_NOT_FOUND)
        selected = [target]
    elif args.cls is not None:
        try:
            r, a, delta, h = _parse_selector(args.cls, Family.S311)
        except ValueError as exc:
            return _fail(str(exc), EXIT_USAGE)
        target = atlas.lookup(Family.S311, r, a, delta, h)
        if target is None:
            return _fail(
                f"({r},{a},{delta},H={h.value}) is not a realizable class",
                EXIT_NOT_FOUND,
            )
        selected = [target]
    else:
        classes = atlas.all_classes(Family.S311)
        selected = [c for c in classes if c.h is HInvariant.ZERO]
        selected += [c for c in classes if c.h is HInvariant.Z2]

    if args.format == "json":
        payload = [_isotopy_json(c, args.include_degenerate) for c in selected]
        _emit(_json_text(payload if len(payload) != 1 else payload[0]), args.out)
    elif args.format == "csv":
        rows = [_isotopy_row(c) for c in selected]
        _emit(_csv_text(_ISOTOPY_HEADER, rows), args.out)
    else:
        rows = [[str(v) for v in _isotopy_row(c)] for c in selected]
        text = _md_table(_ISOTOPY_HEADER, rows)
        if args.include_degenerate:
            extra = []
            for c in selected:
                for t in candidate_isotopy_types(c, include_degenerate=True):
                    if not t.table_data:
                        extra.append(f"- {c.index}: {t} (degenerate variant, non-table data)")
            if extra:
                text += "\n" + "\n".join(extra) + "\n"
        annotations = []
        for c in selected:
            for t in candidate_isotopy_types(c):
                if t.conjectured_nonrealizable:
                    annotations.append(f"- {c.index}: {t} conjectured nonrealizable")
        if annotations:
            text += "\n" + "\n".join(annotations) + "\n"
        _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# degenerate


def _outcome_record(outcome) -> dict:
    return {
        "move": outcome.move.value,
        "label": outcome.move.spec.label,
        "result": "impossible" if outcome.impossible else outcome.iso.case.value,
        "alpha": None if outcome.impossible else outcome.iso.alpha,
        "beta": None if outcome.impossible else outcome.iso.beta,
        "target_index": None if outcome.target is None else outcome.target.index,
    }


def cmd_degenerate(args) -> int:
    from .atlas import Family, load_atlas
    from .degenerations import PRIMED_MOVES, UNPRIMED_MOVES, Degeneration, TableSide
    from .degenerations import apply_degeneration, applicable_moves, degeneration_table

    atlas = load_atlas()
    if args.side:
        side = TableSide(args.side)
        degeneration_rows = degeneration_table(side, atlas)
        header = ["index", "r", "a", "delta", "g", "k"]
        rows = []
        if side is TableSide.STAR:
            header += ["move", "result"]
            for row in degeneration_rows:
                move = row.cells[0][0]
                rows.append(
                    [row.index, row.r, row.a, row.delta, row.g, row.k, move.value, "Node (*)"]
                )
        else:
            for move in PRIMED_MOVES if side is TableSide.PRIMED else UNPRIMED_MOVES:
                header += [f"{move.value}_a", f"{move.value}_b"]
            for row in degeneration_rows:
                values: list = [row.index, row.r, row.a, row.delta, row.g, row.k]
                for _move, cell in row.cells:
                    values.extend(["", ""] if cell is None else [cell[0], cell[1]])
                rows.append(values)
        if args.format == "json":
            payload = [dict(zip(header, values)) for values in rows]
            _emit(_json_text(payload), args.out)
        elif args.format == "csv":
            _emit(_csv_text(header, rows), args.out)
        else:
            _emit(_md_table(header, [[str(v) for v in r] for r in rows]), args.out)
        return EXIT_OK

    if not args.cls:
        return _fail("--class or --side is required", EXIT_USAGE)
    try:
        r, a, delta, _h = _parse_selector(args.cls, Family.U)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    c = atlas.lookup(Family.U, r, a, delta)
    if c is None:
        return _fail(f"({r},{a},{delta}) is not a realizable class", EXIT_NOT_FOUND)

    moves = [Degeneration(args.move)] if args.move else applicable_moves(c)
    records = [_outcome_record(apply_degeneration(c, move, atlas)) for move in moves]
    if args.format == "json":
        payload = {
            "index": c.index,
            "r": c.r,
            "a": c.a,
            "delta": c.delta,
            "outcomes": records,
        }
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        header = ["move", "result", "alpha", "beta", "target_index"]
        rows = [
            [rec["move"], rec["result"]]
            + ["" if rec[k] is None else rec[k] for k in ("alpha", "beta", "target_index")]
            for rec in records
        ]
        _emit(_csv_text(header, rows), args.out)
    else:
        lines = [f"### {c.index} ({c.r},{c.a},{c.delta})", ""]
        for rec in records:
            if rec["result"] == "impossible":
                lines.append(f"- {rec['label']}: impossible")
            else:
                lines.append(
                    f"- {rec['label']}: {rec['result']} "
                    f"({rec['alpha']},{rec['beta']}) -> {rec['target_index']}"
                )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# graph / validate / lattice / divisor


def cmd_graph(args) -> int:
    from .atlas import load_atlas
    from .degenerations import graph_to_dot, graph_to_json, transition_graph

    graph = transition_graph(load_atlas())
    if args.format == "dot":
        _emit(graph_to_dot(graph), args.out)
    else:
        _emit(_json_text(graph_to_json(graph)), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    from .atlas import load_atlas
    from .validation import run_all_checks

    summary = run_all_checks(load_atlas())
    if args.format == "json":
        payload = {
            "ok": summary.ok,
            "counts": summary.atlas_report.counts,
            "violations": summary.violations,
            "whitelisted": summary.whitelisted,
            "notes": list(summary.notes),
            "summary": summary.summary_line(),
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = []
        counts = summary.atlas_report.counts
        lines.append(
            "catalogs: s311={} ({}+{} by H), u={} (delta split {}/{}), "
            "quotients {}/{}".format(
                counts.get("s311"),
                counts.get("s311 H=0"),
                counts.get("s311 H=Z2"),
                counts.get("u"),
                counts.get("u delta=0"),
                counts.get("u delta=1"),
                counts.get("s311 quotient"),
                counts.get("u quotient"),
            )
        )
        for section in summary.sections:
            mark = "ok" if section.ok else "FAIL"
            extra = f", {len(section.whitelisted)} whitelisted" if section.whitelisted else ""
            lines.append(f"[{mark}] {section.name} ({section.checked} checks{extra})")
        for violation in summary.violations:
            lines.append(f"  ! {violation}")
        for entry in summary.whitelisted:
            lines.append(f"  ~ {entry}")
        for note in summary.notes:
            lines.append(f"  note: {note}")
        lines.append("summary: " + summary.summary_line())
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if summary.ok else EXIT_VIOLATIONS


def cmd_lattice(args) -> int:
    from .lattices import discriminant_group, load_gram_file, signature, two_elementary_invariants

    lattice = load_gram_file(args.gram_file)
    det = lattice.det()
    if lattice.rank and det == 0:
        return _fail("Gram matrix is degenerate (determinant 0)", EXIT_DEGENERATE)
    sig = signature(lattice)
    group = discriminant_group(lattice)
    group_text = (
        " x ".join(f"Z/{d}" for d in group.cyclic_orders) if group.cyclic_orders else "trivial"
    )
    try:
        invariants = two_elementary_invariants(lattice)
        inv_text = "({},{},{})".format(*invariants.triple)
        inv_json: dict | None = {
            "r": invariants.r,
            "a": invariants.a,
            "delta": invariants.delta,
        }
    except (NotTwoElementary, DegenerateLattice) as exc:
        inv_text = f"not applicable: {exc}"
        inv_json = None
    if args.format == "json":
        payload = {
            "rank": lattice.rank,
            "signature": list(sig),
            "det": det,
            "even": lattice.is_even(),
            "discriminant_group": list(group.cyclic_orders),
            "two_elementary": inv_json,
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = [
            f"rank: {lattice.rank}",
            f"signature: ({sig[0]},{sig[1]})",
            f"det: {det}",
            f"even: {'yes' if lattice.is_even() else 'no'}",
            f"discriminant group: {group_text}",
            f"invariants (r,a,delta): {inv_text}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_divisor(args) -> int:
    from .divisors import DivisorClass, Surface, anti_bicanonical, arithmetic_genus
    from .divisors import canonical_class, intersect

    surface = Surface(args.surface)
    try:
        coords = tuple(int(p) for p in args.cls.split(","))
        d = DivisorClass(surface, coords)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    lines = [f"class: {d} on {surface.value}", f"self-intersection: {intersect(d, d)}"]
    payload: dict = {
        "surface": surface.value,
        "coords": list(d.coords),
        "self_intersection": intersect(d, d),
    }
    try:
        k = canonical_class(surface)
        lines.append(f"K: {k}; d.K = {intersect(d, k)}")
        payload["K"] = list(k.coords)
        payload["d_dot_K"] = intersect(d, k)
        try:
            genus = arithmetic_genus(d)
            lines.append(f"arithmetic genus: {genus}")
            payload["arithmetic_genus"] = genus
        except NonIntegerGenus as exc:
            lines.append(f"arithmetic genus: undefined ({exc})")
            payload["arithmetic_genus"] = None
        anti = anti_bicanonical(surface)
        lines.append(f"anti-bicanonical class: {anti}")
        payload["anti_bicanonical"] = list(anti.coords)
    except UnsupportedSurface:
        lines.append("canonical data: not modelled on this surface")
        payload["K"] = None
    if args.intersect is not None:
        if not args.intersect:
            return _fail("--intersect needs a class, e.g. 1,0", EXIT_USAGE)
        try:
            other = DivisorClass(surface, tuple(int(p) for p in args.intersect.split(",")))
        except ValueError as exc:
            return _fail(str(exc), EXIT_USAGE)
        lines.append(f"pairing with {other}: {intersect(d, other)}")
        payload["pairing_with"] = list(other.coords)
        payload["pairing"] = intersect(d, other)
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlas",
        description=(
            "Catalogs of real 2-elementary K3 involution classes, candidate "
            "curve isotopy types, and simplest-degeneration tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="list a class catalog or render its grid")
    p.add_argument("--family", type=_parse_family, required=True)
    p.add_argument("--format", choices=("csv", "json", "md"), default="md")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("isotopy", help="candidate isotopy types (single class or all)")
    p.add_argument("--index", help="catalog label, e.g. No.17 or No.17'")
    p.add_argument("--class", dest="cls", help="selector r,a,delta,H (H = 0 or 1)")
    p.add_argument("--format", choices=("csv", "json", "md"), default="md")
    p.add_argument(
        "--include-degenerate",
        action="store_true",
        help="also list cusp variants (marked; not table data)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_isotopy)

    p = sub.add_parser("degenerate", help="apply simplest degenerations")
    p.add_argument("--class", dest="cls", help="selector r,a,delta")
    p.add_argument("--move", choices=MOVE_NAMES, help="a single move")
    p.add_argument(
        "--side",
        choices=("unprimed", "primed", "star"),
        help="regenerate a full move table instead",
    )
    p.add_argument("--format", choices=("csv", "json", "md"), default="md")
    p.add_argument("--out")
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("graph", help="export the candidate transition graph")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("validate", help="run every consistency check")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lattice", help="invariants of a Gram-matrix file")
    p.add_argument("gram_file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("divisor", help="divisor-class pairing and genus")
    p.add_argument("--surface", choices=("f4", "y"), default="f4")
    p.add_argument(
        "--class", dest="cls", required=True, help="coordinates, e.g. 12,3 for 12c+3s"
    )
    p.add_argument("--intersect", help="second class to pair with")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_divisor)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AtlasError as exc:
        codes = (EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES)
        return _fail(str(exc), next(codes, EXIT_VIOLATIONS))


if __name__ == "__main__":
    sys.exit(main())
