"""End-to-end consistency checks across catalogs, generators and tables.

``run_all_checks`` re-derives every isotopy-candidate and degeneration
cell from the closed forms and compares them against the shipped tables,
verifies the invariant roundtrips, the Euler-characteristic identity of
the branched double cover, the move-by-move correspondence between the
two class families, and the combinatorial monotonicity of the moves.  A
single shipped cell is whitelisted (see ``tables.WHITELISTED_CELLS``);
everything else must match exactly.

Every section takes the atlas, reads its two kept family passes, ``Atlas._u`` and
``Atlas._s`` (the docstrings of ``degenerations._u_pass`` and ``_s311_pass`` state what they
keep), and declares its derived items, its expected items, read from ``tables`` or a closed
form on every call, and one wording function per item; ``atlas.compared`` compares the two
sides whole and words only the items that differ.  No verdict is kept.  The Euler identity,
the roundtrips and the oval counts are evaluated once per distinct datum the passes keep (the
Euler identity from the descriptors' kept Euler characteristic), and a failed datum is worded
for each item that carries it, in item order; ``validate_atlas`` does so for the (r, a) bounds.
The isotopy section looks the shipped rows up again only when a table is no longer the object
the S311 pass read.
The roundtrip section tests no component count, since ``IsotopyType`` caps alpha + beta (1 to
10 components, 2 to 11 for the isolated point), and no star candidate's class:
``candidate_isotopy_types`` emits Node (*) only for the two ``STAR_KEYS`` classes.
"""

from functools import partial
from operator import attrgetter
from typing import NamedTuple

from . import tables
from .atlas import (
    Atlas,
    CheckSection,
    Family,
    HInvariant,
    compared,
    load_atlas,
    validate_atlas,
)
from .degenerations import (
    PRIMED_MOVES,
    UNPRIMED_MOVES,
    TableSide,
    _generated_rows,
    correspondence_check,
)
from .topology import ISOTOPY_CELL_CASES, STAR_KEYS, TopCase, _shared_datum, double_cover_euler_check

# Module globals, read per class or candidate: see atlas.IdentityEnum.
_S311, _U, _ZERO, _Z2 = Family.S311, Family.U, HInvariant.ZERO, HInvariant.Z2
_NODE2, _NODE_STAR = TopCase.NODE2, TopCase.NODE_STAR
_TABLE_SIDES, _STAR = (TableSide.UNPRIMED, TableSide.PRIMED), TableSide.STAR
_SIDE_MOVES = UNPRIMED_MOVES, PRIMED_MOVES


class ValidationSummary(NamedTuple):
    atlas_report: CheckSection
    sections: list[CheckSection]

    # The region bookkeeping in the isolated point case: the shipped tables
    # carry the same oval sums as Node (1), alpha + beta = 9 - a on the H = 0
    # side, while the prose source also states an "alpha + beta = 8 - a"
    # variant for that case.  The tables win; the conflict is recorded here
    # rather than resolved silently.
    notes = (
        "isolated-point oval sum: tables use alpha + beta = 9 - a (H = 0 side); "
        "the stated 8 - a variant is not used",
    )

    @property
    def violations(self) -> list[str]:
        out = list(self.atlas_report.violations)
        for section in self.sections:
            out.extend(f"{section.name}: {v}" for v in section.violations)
        return out

    @property
    def whitelisted(self) -> list[str]:
        out = []
        for section in self.sections:
            out.extend(f"{section.name}: {w}" for w in section.whitelisted)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_line(self) -> str:
        counts = self.atlas_report.counts
        status = "correspondence OK" if self.ok else f"{len(self.violations)} violations"
        n_white = len(self.whitelisted)
        noun = "discrepancy" if n_white == 1 else "discrepancies"
        return (
            f"{counts.get('s311', '?')}/{counts.get('s311 quotient', '?')}, "
            f"{counts.get('u', '?')}/{counts.get('u quotient', '?')}, "
            f"{status}, {n_white} whitelisted {noun}"
        )


def _check_isotopy_tables(atlas: Atlas) -> CheckSection:
    # Part by part, each row with the generated row of its (r, a, delta) and H: one
    # comparison of the parts joined would miss a row moved across.  The S311 pass looked the
    # rows up in the tables as it read them; a table replaced since is looked up again.
    s, parts, checked = atlas._s, [], 0
    for (h, kept, derived), shipped in zip(s.shipped, (tables.ISOTOPY_H0, tables.ISOTOPY_Z2)):
        checked += len(shipped)
        if shipped is not kept:
            derived = _generated_rows(s.rows[h], shipped)
        parts.append((shipped, derived, shipped, _word_isotopy_row))
    return compared("isotopy tables", checked, parts)


def _word_isotopy_row(row, derived, _shipped) -> list[str]:
    if derived is None:
        return [f"row {row.index}: class missing from atlas"]
    # (r, a, delta) fixed the lookup; name the fields that differ.
    out = [f"row {row.index}: atlas carries index {derived.index}"] if derived.index != row.index else []
    if derived[4:6] != row[4:6]:
        out.append(f"row {row.index}: (g,k) mismatch")
    for case, cell, shipped in zip(ISOTOPY_CELL_CASES, derived[6:9], row[6:9]):
        if cell != shipped:
            out.append(f"row {row.index} {case.value}: generated {cell}, shipped {shipped}")
    if derived.node_star != row.node_star:
        out.append(f"row {row.index}: star cell mismatch")
    return out


def _check_move_tables(atlas: Atlas) -> CheckSection:
    u, parts, whitelisted, checked = atlas._u, [], [], len(tables.MOVES_STAR)
    shipped_tables = tables.MOVES_UNPRIMED, tables.MOVES_PRIMED
    for side, moves, flat, shipped in zip(_TABLE_SIDES, _SIDE_MOVES, u.flat, shipped_tables):
        if len(flat) != len(shipped):
            parts.append(((side,), (len(flat),), (len(shipped),), _word_row_count))
            continue
        checked += len(shipped)
        expected = _whitelisted(moves, shipped, flat, whitelisted)
        parts.append((shipped, flat, expected, partial(_word_move_row, side, moves)))
    stars = tuple([row[:6] + (row.cells[0][0].spec.case.value,) for row in u.rows[_STAR]])
    parts.append(((_STAR,), (stars,), (tables.MOVES_STAR,), lambda *_: ["star table mismatch"]))
    return compared("degeneration tables", checked, parts, whitelisted)


def _whitelisted(moves, shipped, flat, lines: list[str]) -> tuple:
    """``shipped`` with each whitelisted cell of ``moves`` that still holds its shipped value
    set to its derived value; a line in ``lines`` for each such cell that ``flat`` derives."""
    rows, names, indices = list(shipped), [m.value for m in moves], [row.index for row in shipped]
    for index, name, was, derived in tables.WHITELISTED_CELLS:
        if name not in names or index not in indices:
            continue
        at, column = indices.index(index), 6 + names.index(name)
        if rows[at][column] == was:
            rows[at] = rows[at][:column] + (derived,) + rows[at][column + 1 :]
            if flat[at][:6] == rows[at][:6] and flat[at][column] == derived:
                lines.append(f"row {index} {name}: shipped {was}, derived {derived}")
    return tuple(rows)


def _word_row_count(side, derived, shipped) -> list[str]:
    return [f"{side.value} table has {derived} rows, shipped {shipped}"]


def _word_move_row(side, moves, shipped, flat, expected) -> list[str]:
    # Both rows start with (index, r, a, delta, g, k); the cells follow in move order.
    if flat[:6] != expected[:6]:
        return [f"{side.value} row {shipped.index}: head columns mismatch"]
    return [
        f"row {shipped.index} {move.value}: derived {cell}, shipped {was}"
        for move, cell, want, was in zip(moves, flat[6:], expected[6:], shipped[6:])
        if cell != want
    ]


def _check_roundtrips(atlas: Atlas) -> CheckSection:
    s = atlas._s
    # The oval-sum rule, on the H = 0 side only: alpha + beta is 9 - a, and 8 - a for Node (2).
    failed = {  # once per distinct datum: each failed one, with what it should have found
        (r, a, h, node2, found): expected
        for r, a, h, node2, found in s.roundtrip_data
        if found != (expected := (r, a, h, 9 - a - node2 if h is _ZERO else found[3]))
    }

    def carriers(*_) -> list[str]:  # the candidates whose datum failed, in candidate order
        return [
            message
            for (c, t), found in zip(s.roundtrips, s.found)
            if (expected := failed.get((c.r, c.a, c.h, t.case is _NODE2, found)))
            for message in _word_roundtrip((c, t), found, expected)
        ]

    checked = sum(map(len, s.table.values()))  # the star candidates too
    return compared("invariant roundtrips", checked, [((None,), (failed,), ({},), carriers)])


def _word_roundtrip(key, derived, expected) -> list[str]:
    (c, t), (r, a, h, ovals) = key, derived
    out = [f"{c.index} {t}: roundtrip gave ({r},{a},H={h.value})"] if derived[:3] != expected[:3] else []
    if ovals != expected[3]:
        out.append(f"{c.index} {t}: oval sum violated")
    return out


def _check_euler(atlas: Atlas) -> CheckSection:
    (data, checked), full = atlas._s.euler, atlas._s.full
    failed = {datum for datum in data if not double_cover_euler_check(*datum)}

    def carriers(*_) -> list[str]:  # the candidates whose datum failed, by class, then candidate
        pairs = [(c, t) for c in atlas.all_classes(_S311) for t in full[c.key]]
        return [f"{c.index} {t}: chi mismatch" for c, t in pairs if _shared_datum(*t[:3]) in failed]

    return compared("double-cover Euler identity", checked, [((None,), (failed,), (set(),), carriers)])


def _check_exclusions(atlas: Atlas) -> CheckSection:
    # Of the triples without oval bookkeeping, (10,8,0) and (10,10,0), only
    # (10,8,0) has an H = 0 class in the catalog: the star class.  So this
    # checks one class, and re-tests that its candidates are the star case
    # alone; no (10,10,0) class with H = 0 exists to check.
    classes, table = atlas.all_classes(_S311), atlas._s.table
    excluded = [c for c in classes if c.h is _ZERO and c.triple in tables.U_EXCLUDED_TRIPLES]
    cases = [[t.case for t in table[c.key] if t.case is not _NODE_STAR] for c in excluded]
    message = "{}: case I/II candidates emitted for excluded invariants"
    part = excluded, cases, [[]] * len(excluded), lambda c, *_: [message.format(c.index)]
    return compared("exclusions", len(excluded), [part])


def _check_monotonicity(atlas: Atlas) -> CheckSection:
    """Each move consumes its side's oval pool by one (conjunction with the
    non-contractible component, contraction) or two (oval-oval merge)."""
    u = atlas._u
    failed = {  # once per distinct (pools, after) datum
        ((pool, other, n), after)
        for (pool, other, n), after in u.oval_data
        if after != (pool + other - n if pool >= n else None)
    }

    def carriers(*_) -> list[str]:  # the moves whose datum failed, in move order
        moves = zip(u.moves, u.pools, u.after)
        return [m for key, pools, after in moves if (pools, after) in failed for m in _word_ovals(key, after)]

    return compared("oval-count monotonicity", len(u.moves), [((None,), (failed,), (set(),), carriers)])


def _word_ovals(key, after) -> list[str]:
    c, move = key
    pool, other = move.spec.pools(*c.gk)
    if after is None:
        return [f"{c.index} {move.value}: impossible despite {pool} ovals"]
    dropped = pool + other - after
    if dropped == move.spec.ovals:  # a pool too small, but the move made anyway, drops as many
        return []
    return [f"{c.index} {move.value}: oval count dropped by {dropped}"]


def _check_graph(atlas: Atlas) -> CheckSection:
    graph = atlas._u.graph
    indegree, classes = graph.in_degree, atlas.all_classes(_S311)
    reached = all(map(indegree.get, map(attrgetter("key"), classes)))

    def unreached(*_) -> list[str]:
        return [f"{c.index}: no incoming degeneration edge" for c in classes if not indegree.get(c.key)]

    parts = [
        ((None,), (len(graph.nodes),), (165,), lambda _k, n, _e: [f"{n} nodes, expected 63 + 102"]),
        ((None,), (reached,), (True,), unreached),
        (
            STAR_KEYS, tuple(map(indegree.get, STAR_KEYS)), (1,) * len(STAR_KEYS),
            lambda key, *_: [f"{atlas.lookup(_S311, *key).index}: in-degree != 1"],
        ),
    ]
    return compared("transition graph", 1 + len(classes) + len(STAR_KEYS), parts)


def run_all_checks(atlas: Atlas | None = None) -> ValidationSummary:
    atlas = atlas or load_atlas()
    report = validate_atlas(atlas)
    if not report.ok:
        # A structurally damaged catalog already fails; the deeper checks
        # assume pairing partners and table rows exist.
        return ValidationSummary(report, [])
    sections = [
        _check_isotopy_tables(atlas),
        _check_move_tables(atlas),
        _check_roundtrips(atlas),
        _check_euler(atlas),
        _check_exclusions(atlas),
        _check_monotonicity(atlas),
        correspondence_check(atlas),
    ]
    # Graph checks only make sense once the catalogs agree with the tables.
    if sections[-1].ok:
        sections.append(_check_graph(atlas))
    return ValidationSummary(report, sections)
