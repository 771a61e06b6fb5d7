"""End-to-end consistency checks across catalogs, generators and tables.

``run_all_checks`` re-derives every isotopy-candidate and degeneration
cell from the closed forms and compares them against the shipped tables,
verifies the invariant roundtrips, the Euler-characteristic identity of
the branched double cover, the move-by-move correspondence between the
two class families, and the combinatorial monotonicity of the moves.
Everything must match exactly but the move-table cells that
``tables.WHITELISTED_CELLS`` lists as allowed differences: a cell of a row
whose head columns match is whitelisted when its (row index, move, shipped
cell, derived cell) is an entry, and is a violation otherwise.

Every section takes the atlas and reads its two kept family passes, the U pass through
``degenerations._read`` and the S311 pass as ``Atlas._s`` (``degenerations._u_pass`` and
``_s311_pass`` state what they keep).  No verdict is kept.  Every section builds its
``CheckSection`` itself.  The isotopy tables, the move tables and the correspondence's label
pairs are compared whole with their expected side, read from ``tables`` or a closed form on
every call, and only the items that differ are worded, in order; a single value is one test.
Equal cells are one object, ``tables._CELLS[a][b]``, and each derived row and grid equal to a
shipped one is that object (``tables._SHARED``), so those comparisons stop at ``is``; the move
tables then walk only the rows that are not the shipped object.
The Euler identity (in one ``topology._euler_failures`` loop, with no second bounds check of
data that candidates' ``IsotopyType`` checked), the roundtrips and the oval counts are evaluated
once per distinct datum the passes keep; only a failed datum is worded, for each item that
carries it, in item order, as ``validate_atlas`` does for (r, a).  The exclusions section looks
its classes up by their excluded triples.  The isotopy section looks the shipped rows up again
only when a table is no longer the object the S311 pass read.
The roundtrip section compares each datum's recovered (r, a, H) and oval sum with its class
and the oval rule field by field, and builds the expected tuple only for a datum that fails.  It
tests no component count, since ``IsotopyType`` caps alpha + beta (1 to 10 components, 2 to 11
for the isolated point), and no star candidate's class: ``candidate_isotopy_types`` emits
Node (*) only for the two ``STAR_KEYS`` classes.  The graph section tests the kept in-degrees of
the S311 classes, which ``degenerations._derive_graph`` puts first among the nodes, as one slice.
"""

from itertools import compress, count, islice
from operator import is_not
from typing import NamedTuple

from . import tables
from .atlas import (
    Atlas,
    CheckSection,
    Family,
    HInvariant,
    load_atlas,
    validate_atlas,
)
from .degenerations import (
    PRIMED_MOVES,
    UNPRIMED_MOVES,
    TableSide,
    _generated_rows,
    _read,
    correspondence_check,
)
from .topology import ISOTOPY_CELL_CASES, STAR_KEYS, TopCase, _euler_failures, _shared_datum

# Module globals, read per class or candidate: see atlas.IdentityEnum.
_S311, _U, _ZERO, _Z2 = Family.S311, Family.U, HInvariant.ZERO, HInvariant.Z2
_NODE_STAR = TopCase.NODE_STAR
_TABLE_SIDES = TableSide.UNPRIMED, TableSide.PRIMED
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
        n_bad, n_white = len(self.violations), len(self.whitelisted)
        status = "correspondence OK" if not n_bad else f"{n_bad} violation{'s' * (n_bad != 1)}"
        noun = "discrepancy" if n_white == 1 else "discrepancies"
        return (
            f"{counts.get('s311', '?')}/{counts.get('s311 quotient', '?')}, "
            f"{counts.get('u', '?')}/{counts.get('u quotient', '?')}, "
            f"{status}, {n_white} whitelisted {noun}"
        )


def _check_isotopy_tables(atlas: Atlas) -> CheckSection:
    # Table by table, each row with the generated row of its (r, a, delta) and H: one
    # comparison of the tables joined would miss a row moved across.  The S311 pass looked the
    # rows up in the tables as it read them; a table replaced since is looked up again.
    s, violations, checked = atlas._s, [], 0
    for (h, kept, derived), shipped in zip(s.shipped, (tables.ISOTOPY_H0, tables.ISOTOPY_Z2)):
        checked += len(shipped)
        if shipped is not kept:
            derived = _generated_rows(s.rows[h], shipped)
        if derived != shipped:  # whole first; only the rows that differ are worded
            violations += [
                m for row, d in zip(shipped, derived) if d != row for m in _word_isotopy_row(row, d)
            ]
    return CheckSection("isotopy tables", checked, violations, [], {})


def _word_isotopy_row(row, derived) -> list[str]:
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
    u, violations, whitelisted, checked = _read(atlas), [], [], len(tables.MOVES_STAR)
    shipped_tables = tables.MOVES_UNPRIMED, tables.MOVES_PRIMED
    for side, moves, flat, shipped in zip(_TABLE_SIDES, _SIDE_MOVES, u.flat, shipped_tables):
        if len(flat) != len(shipped):
            violations.append(f"{side.value} table has {len(flat)} rows, shipped {len(shipped)}")
            continue
        checked += len(shipped)
        if flat == shipped:  # whole first: ``is`` for each shared row
            continue
        for i in compress(count(), map(is_not, flat, shipped)):  # the rows that are not the shipped one
            derived, row = flat[i], shipped[i]
            if derived == row:
                continue
            if derived[:6] != row[:6]:  # (index, r, a, delta, g, k); the cells follow in move order
                violations.append(f"{side.value} row {row.index}: head columns mismatch")
                continue
            for move, cell, was in zip(moves, derived[6:], row[6:]):
                if cell == was:
                    continue
                if (row.index, move.value, was, cell) in tables.WHITELISTED_CELLS:
                    whitelisted.append(f"row {row.index} {move.value}: shipped {was}, derived {cell}")
                else:
                    violations.append(f"row {row.index} {move.value}: derived {cell}, shipped {was}")
    if u.star_flat != tables.MOVES_STAR:
        violations.append("star table mismatch")
    return CheckSection("degeneration tables", checked, violations, whitelisted, {})


def _check_roundtrips(atlas: Atlas) -> CheckSection:
    data, checked = atlas._s.roundtrip_data  # the star candidates count too
    failed = []  # once per distinct datum: each failed one's carriers, sorted into candidate order
    for r, a, h, node2, (fr, fa, fh, ovals) in data:
        # The oval-sum rule, on the H = 0 side only: alpha + beta is 9 - a, and 8 - a for Node (2).
        if fr != r or fa != a or fh is not h or (h is _ZERO and ovals != 9 - a - node2):
            found, expected = (fr, fa, fh, ovals), (r, a, h, 9 - a - node2 if h is _ZERO else ovals)
            failed += [(*carrier, found, expected) for carrier in data[r, a, h, node2, found]]
    violations = [m for item in sorted(failed) for m in _word_roundtrip(*item)] if failed else []
    return CheckSection("invariant roundtrips", checked, violations, [], {})


def _word_roundtrip(_n, c, t, derived, expected) -> list[str]:
    r, a, h, ovals = derived
    out = [f"{c.index} {t}: roundtrip gave ({r},{a},H={h.value})"] if derived[:3] != expected[:3] else []
    if ovals != expected[3]:
        out.append(f"{c.index} {t}: oval sum violated")
    return out


def _check_euler(atlas: Atlas) -> CheckSection:
    (data, checked), full = atlas._s.euler, atlas._s.full
    failed = _euler_failures(data)  # the candidates' IsotopyType checked each datum's bounds
    violations = [  # the candidates whose datum failed, by class, then candidate
        f"{c.index} {t}: chi mismatch"
        for c in atlas.all_classes(_S311)
        for t in full[c.key]
        if _shared_datum(*t[:3]) in failed
    ] if failed else []
    return CheckSection("double-cover Euler identity", checked, violations, [], {})


def _check_exclusions(atlas: Atlas) -> CheckSection:
    # Of the triples without oval bookkeeping, (10,8,0) and (10,10,0), only
    # (10,8,0) has an H = 0 class in the catalog: the star class.  So this
    # checks one class, and re-tests that its table candidates are the star
    # case alone; no (10,10,0) class with H = 0 exists to check.
    full, violations, checked = atlas._s.full, [], 0
    for triple in tables.U_EXCLUDED_TRIPLES:  # in atlas order
        if (c := atlas.lookup(_S311, *triple, _ZERO)) is None:
            continue
        checked += 1
        if [t for t in full[c.key] if t.table_data and t.case is not _NODE_STAR]:
            violations.append(f"{c.index}: case I/II candidates emitted for excluded invariants")
    return CheckSection("exclusions", checked, violations, [], {})


def _check_monotonicity(atlas: Atlas) -> CheckSection:
    """Each move consumes its side's oval pool by one (conjunction with the
    non-contractible component, contraction) or two (oval-oval merge)."""
    data, checked = _read(atlas).oval_data
    failed = [  # once per distinct (pools, after): each failed one's carriers, sorted into move order
        (*carrier, pool, other, after)
        for (pool, other, n), after in data
        if (pool >= n if after is None else pool + other - after != n)
        for carrier in data[(pool, other, n), after]
    ]
    violations = [_word_ovals(*item) for item in sorted(failed)] if failed else []
    return CheckSection("oval-count monotonicity", checked, violations, [], {})


def _word_ovals(_n, c, move, pool, other, after) -> str:
    if after is None:
        return f"{c.index} {move.value}: impossible despite {pool} ovals"
    return f"{c.index} {move.value}: oval count dropped by {pool + other - after}"


def _check_graph(atlas: Atlas) -> CheckSection:
    graph = _read(atlas).graph
    indegree, classes, violations = graph.in_degree, atlas.all_classes(_S311), []
    if len(graph.nodes) != 165:
        violations.append(f"{len(graph.nodes)} nodes, expected 63 + 102")
    # The graph's nodes, and so its in-degrees, start with the S311 classes in atlas order.
    if not all(islice(indegree.values(), len(classes))):
        violations += [
            f"{c.index}: no incoming degeneration edge" for c in classes if not indegree.get(c.key)
        ]
    for key in STAR_KEYS:
        if indegree.get(key) != 1:
            violations.append(f"{atlas.lookup(_S311, *key).index}: in-degree != 1")
    return CheckSection("transition graph", 1 + len(classes) + len(STAR_KEYS), violations, [], {})


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
