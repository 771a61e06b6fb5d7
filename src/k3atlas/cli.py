"""Command-line interface: the ``atlas`` binary.

Subcommands: classes, isotopy, degenerate, graph, validate, lattice,
divisor.  All output is deterministic (fixed ordering, no timestamps), so
identical invocations are byte-identical; every subcommand takes
``--format`` and ``--out`` to write to a file instead of stdout.  Each
``cmd_*`` returns ``(exit_code, text)`` or raises; only ``main`` writes,
the text to ``--out`` or stdout and the one-line error to stderr.

Exit codes: 0 success, 1 validation violations, 2 bad, unknown or missing
flags (also conflicting selectors and an unwritable ``--out``), 3 class
not found, 4 class without the requested structure, 5 Gram-file parse
error (also an entry past Python's int-string digit limit), 6 degenerate
Gram matrix, 7 unreadable or malformed external catalog, 8 a result too
long to print (past that limit).  An error gets its code from
``EXIT_CODES``, looked up along the exception's class hierarchy; any
other ``AtlasError`` exits 1.
"""

import argparse
import sys
from contextlib import contextmanager

from ._checked import INTEGER_RULE, beyond_integer_rule
from .errors import (
    AtlasError,
    CatalogError,
    DegenerateLattice,
    GramParseError,
    MoveNotApplicable,
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


class UsageError(AtlasError):
    """A flag or selector is unknown, missing, malformed or conflicts with another."""


class DigitLimit(AtlasError):
    """A result has more digits than Python's int-string limit lets it print."""


@contextmanager
def _printable():
    """Raises DigitLimit for the ValueError of str() or json on an int past that limit."""
    try:
        yield
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DigitLimit(f"a result has over {limit} digits, Python's int-string limit") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # the subcommand parsers are _Parsers too
        raise UsageError(message)


EXIT_CODES = {
    UsageError: EXIT_USAGE,
    MoveNotApplicable: EXIT_USAGE,
    NotInAtlas: 3,
    SpecialClass: 4,
    WrongFamily: 4,
    GramParseError: 5,
    DegenerateLattice: 6,
    CatalogError: 7,
    DigitLimit: 8,
}


def _json_text(payload) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _table(fmt: str, header: list[str], rows: list[list]) -> str:
    """The rows as JSON records, CSV or a Markdown table; None prints as "" in the last two."""
    if fmt == "json":
        return _json_text([dict(zip(header, row)) for row in rows])
    if fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")  # writes None as ""
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue()
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join("" if v is None else str(v) for v in row) + " |" for row in rows]
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
    raise UsageError(f"H must be 0 or 1/Z2, got {text!r}")


def _ints(text: str) -> tuple[int, ...]:
    # A list int() refuses keeps int()'s message; int() also reads what README's integer does not.
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for bad in filter(beyond_integer_rule, map(str.strip, text.split(","))):
        raise UsageError(f"{bad!r}: {INTEGER_RULE}")
    return values


def _parse_selector(text: str, family) -> tuple:
    from .atlas import Family, HInvariant

    if family is Family.U:
        if text.count(",") != 2:
            raise UsageError("selector for this family is r,a,delta")
        return _ints(text) + (HInvariant.NOT_APPLICABLE,)
    if text.count(",") != 3:
        raise UsageError("selector is r,a,delta,H")
    triple, h = text.rsplit(",", 1)
    return _ints(triple) + (_parse_h(h),)


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
    return f"### {title}\n\n" + _table("md", header, rows)


def cmd_classes(args) -> tuple[int, str]:
    from .atlas import Family, HInvariant, load_atlas

    atlas = load_atlas()
    if args.format != "md":  # only the records name each class's related partner
        header = ["family", "r", "a", "delta", "h", "index", "g", "k", "related_index"]
        rows = [[rec[key] for key in header] for rec in atlas.to_records(args.family)]
        return EXIT_OK, _table(args.format, header, rows)
    classes = atlas.all_classes(args.family)
    if args.family is Family.S311:
        text = _grid_markdown([c for c in classes if c.h is HInvariant.ZERO], "H = 0")
        text += "\n" + _grid_markdown([c for c in classes if c.h is HInvariant.Z2], "H = Z/2")
    else:
        text = _grid_markdown(classes, "nonsingular-curve classes")
    return EXIT_OK, text


# ---------------------------------------------------------------------------
# isotopy


_ISOTOPY_HEADER = ["index", "r", "a", "delta", "H", "g", "k"]
_ISOTOPY_HEADER += [f"{cell}_{x}" for cell in ("node1", "iso", "node2") for x in "ab"] + ["node_star"]


def _isotopy_row(c, candidates) -> list:
    from .topology import isotopy_row

    # The row run_all_checks compares with the shipped tables, with H after
    # delta and None for no cell; a star cell is a nonempty real-part name.
    row = isotopy_row(c, candidates)
    cells = [x for cell in row[6:9] for x in (cell or (None, None))]
    return [*row[:4], c.h.value, row.g, row.k, *cells, row.node_star]


def _isotopy_json(c, candidates) -> dict:
    from .atlas import gk_invariants
    from .topology import Cover, real_part_topology

    g, k = gk_invariants(c)
    records = [
        dict(
            t._asdict(),
            case=t.case.value,
            real_part_phi=str(real_part_topology(c, t, Cover.PHI)),
            real_part_related=str(real_part_topology(c, t, Cover.RELATED_PHI)),
        )
        for t in candidates
    ]
    return {
        "index": c.index,
        "r": c.r,
        "a": c.a,
        "delta": c.delta,
        "h": c.h.value,
        "g": g,
        "k": k,
        "candidates": records,
    }


def cmd_isotopy(args) -> tuple[int, str]:
    from .atlas import Family, HInvariant, load_atlas
    from .topology import candidate_isotopy_types

    if args.index is not None and args.cls is not None:
        raise UsageError("--index and --class cannot be combined")
    # An empty selector is a usage error, not "no selector": test for None.  A bad one is
    # refused before the catalog is read.
    if args.index == "":
        raise UsageError("--index needs a catalog label, e.g. No.17")
    if args.cls is not None:
        r, a, delta, h = _parse_selector(args.cls, Family.S311)
    atlas = load_atlas()
    if args.index is not None:
        target = atlas.lookup_index(Family.S311, args.index)
        if target is None:
            raise NotInAtlas(f"no class with index {args.index}")
        selected = [target]
    elif args.cls is not None:
        target = atlas.lookup(Family.S311, r, a, delta, h)
        if target is None:
            raise NotInAtlas(f"({r},{a},{delta},H={h.value}) is not a realizable class")
        selected = [target]
    else:
        classes = atlas.all_classes(Family.S311)
        selected = [c for c in classes if c.h is HInvariant.ZERO]
        selected += [c for c in classes if c.h is HInvariant.Z2]
    # Cusp variants have cases of their own and are never conjectured nonrealizable.
    entries = [(c, candidate_isotopy_types(c, args.include_degenerate)) for c in selected]

    if args.format == "json":
        payload = [_isotopy_json(c, candidates) for c, candidates in entries]
        text = _json_text(payload if len(payload) != 1 else payload[0])
    else:
        text = _table(args.format, _ISOTOPY_HEADER, [_isotopy_row(*entry) for entry in entries])
    if args.format == "md":
        for note, wanted in (
            ("(degenerate variant, non-table data)", lambda t: not t.table_data),
            ("conjectured nonrealizable", lambda t: t.conjectured_nonrealizable),
        ):
            lines = [f"- {c.index}: {t} {note}" for c, ts in entries for t in ts if wanted(t)]
            if lines:
                text += "\n" + "\n".join(lines) + "\n"
    return EXIT_OK, text


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


def cmd_degenerate(args) -> tuple[int, str]:
    from .atlas import Family, load_atlas
    from .degenerations import PRIMED_MOVES, UNPRIMED_MOVES, Degeneration, TableSide
    from .degenerations import apply_degeneration, applicable_moves, degeneration_table

    if args.side and (args.cls is not None or args.move):
        raise UsageError("--side cannot be combined with --class or --move")
    if not args.side and args.cls is None:  # an empty --class is a bad selector, as in cmd_isotopy
        raise UsageError("--class or --side is required")
    if not args.side:  # a bad selector is refused before the catalog is read
        r, a, delta, _h = _parse_selector(args.cls, Family.U)
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
                rows.append([*row[:6], move.value, move.spec.case.value])
        else:
            for move in PRIMED_MOVES if side is TableSide.PRIMED else UNPRIMED_MOVES:
                header += [f"{move.value}_a", f"{move.value}_b"]
            for row in degeneration_rows:  # "", not null, for no cell in JSON too
                rows.append([*row[:6], *(x for _move, cell in row.cells for x in cell or ("", ""))])
        return EXIT_OK, _table(args.format, header, rows)

    c = atlas.lookup(Family.U, r, a, delta)
    if c is None:
        raise NotInAtlas(f"({r},{a},{delta}) is not a realizable class")

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
        text = _json_text(payload)
    elif args.format == "csv":
        header = ["move", "result", "alpha", "beta", "target_index"]
        text = _table("csv", header, [[rec[key] for key in header] for rec in records])
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
        text = "\n".join(lines) + "\n"
    return EXIT_OK, text


# ---------------------------------------------------------------------------
# graph / validate / lattice / divisor


def cmd_graph(args) -> tuple[int, str]:
    from .atlas import load_atlas
    from .degenerations import graph_to_dot, graph_to_json, transition_graph

    graph = transition_graph(load_atlas())
    if args.format == "dot":
        return EXIT_OK, graph_to_dot(graph)
    return EXIT_OK, _json_text(graph_to_json(graph))


def cmd_validate(args) -> tuple[int, str]:
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
        text = _json_text(payload)
    else:
        lines = [
            "catalogs: s311={s311} ({s311 H=0}+{s311 H=Z2} by H), u={u} (delta split "
            "{u delta=0}/{u delta=1}), quotients {s311 quotient}/{u quotient}".format_map(
                summary.atlas_report.counts
            )
        ]
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
        text = "\n".join(lines) + "\n"
    return EXIT_OK if summary.ok else EXIT_VIOLATIONS, text


def cmd_lattice(args) -> tuple[int, str]:
    from .lattices import discriminant_group, load_gram_file, signature, two_elementary_invariants

    lattice = load_gram_file(args.gram_file)
    det = lattice.det()
    if lattice.rank and det == 0:
        raise DegenerateLattice("Gram matrix is degenerate (determinant 0)")
    sig = signature(lattice)
    try:
        invariants = two_elementary_invariants(lattice)
        orders: tuple[int, ...] = (2,) * invariants.a  # found over F_2, no Smith form
        inv_text = "({},{},{})".format(*invariants.triple)
        inv_json: dict | None = invariants._asdict()
    except NotTwoElementary as exc:
        orders = discriminant_group(lattice).cyclic_orders
        inv_text = f"not applicable: {exc}"
        inv_json = None
    with _printable():
        if args.format == "json":
            payload = {
                "rank": lattice.rank,
                "signature": list(sig),
                "det": det,
                "even": lattice.is_even(),
                "discriminant_group": list(orders),
                "two_elementary": inv_json,
            }
            return EXIT_OK, _json_text(payload)
        lines = [
            f"rank: {lattice.rank}",
            f"signature: ({sig[0]},{sig[1]})",
            f"det: {det}",
            f"even: {'yes' if lattice.is_even() else 'no'}",
            f"discriminant group: {' x '.join(f'Z/{d}' for d in orders) or 'trivial'}",
            f"invariants (r,a,delta): {inv_text}",
        ]
        return EXIT_OK, "\n".join(lines) + "\n"


def cmd_divisor(args) -> tuple[int, str]:
    from .divisors import DivisorClass, Surface, anti_bicanonical, arithmetic_genus
    from .divisors import canonical_class, intersect

    surface = Surface(args.surface)
    if args.intersect == "":
        raise UsageError("--intersect needs a class, e.g. 1,0")
    try:
        d = DivisorClass(surface, _ints(args.cls))
        other = None if args.intersect is None else DivisorClass(surface, _ints(args.intersect))
    except ValueError as exc:  # a wrong number of coordinates
        raise UsageError(str(exc)) from None
    with _printable():
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
            genus = arithmetic_genus(d)
            lines.append(f"arithmetic genus: {genus}")
            payload["arithmetic_genus"] = genus
            anti = anti_bicanonical(surface)
            lines.append(f"anti-bicanonical class: {anti}")
            payload["anti_bicanonical"] = list(anti.coords)
        except UnsupportedSurface:
            lines.append("canonical data: not modelled on this surface")
            payload["K"] = None
        if other is not None:
            lines.append(f"pairing with {other}: {intersect(d, other)}")
            payload["pairing_with"] = list(other.coords)
            payload["pairing"] = intersect(d, other)
        if args.format == "json":
            return EXIT_OK, _json_text(payload)
        return EXIT_OK, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="atlas",
        description=(
            "Catalogs of real 2-elementary K3 involution classes, candidate "
            "curve isotopy types, and simplest-degeneration tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, formats: tuple[str, ...], default: str, summary: str):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    tables, reports = ("csv", "json", "md"), ("text", "json")
    p = add("classes", cmd_classes, tables, "md", "list a class catalog or render its grid")
    p.add_argument("--family", type=_parse_family, required=True)

    p = add("isotopy", cmd_isotopy, tables, "md", "candidate isotopy types (single class or all)")
    p.add_argument("--index", help="catalog label, e.g. No.17 or No.17'")
    p.add_argument("--class", dest="cls", help="selector r,a,delta,H (H = 0 or 1)")
    p.add_argument(
        "--include-degenerate",
        action="store_true",
        help="also list cusp variants (marked; not table data)",
    )

    p = add("degenerate", cmd_degenerate, tables, "md", "apply simplest degenerations")
    p.add_argument("--class", dest="cls", help="selector r,a,delta")
    p.add_argument("--move", choices=MOVE_NAMES, help="a single move")
    p.add_argument(
        "--side",
        choices=("unprimed", "primed", "star"),
        help="regenerate a full move table instead",
    )

    add("graph", cmd_graph, ("dot", "json"), "dot", "export the candidate transition graph")
    add("validate", cmd_validate, reports, "text", "run every consistency check")

    p = add("lattice", cmd_lattice, reports, "text", "invariants of a Gram-matrix file")
    p.add_argument("gram_file")

    p = add("divisor", cmd_divisor, reports, "text", "divisor-class pairing and genus")
    p.add_argument("--surface", choices=("f4", "y"), default="f4")
    p.add_argument(
        "--class", dest="cls", required=True, help="coordinates, e.g. 12,3 for 12c+3s"
    )
    p.add_argument("--intersect", help="second class to pair with")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, text = args.func(args)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
        else:
            sys.stdout.write(text)
        return code
    except AtlasError as exc:
        print(f"atlas: {exc}", file=sys.stderr)
        return next((EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES), EXIT_VIOLATIONS)


if __name__ == "__main__":
    sys.exit(main())
