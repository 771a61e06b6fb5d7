"""End-to-end consistency checks across catalogs, generators and tables.

``run_all_checks`` re-derives every isotopy-candidate and degeneration
cell from the closed forms and compares them against the shipped tables,
verifies the invariant roundtrips, the Euler-characteristic identity of
the branched double cover, the move-by-move correspondence between the
two class families, and the combinatorial monotonicity of the moves.  A
single shipped cell is whitelisted (see ``tables.WHITELISTED_CELLS``);
everything else must match exactly.

Every section reads the atlas's one ``degenerations.Derivation``, which derives each
outcome, candidate list, isotopy and move-table row, No.k / No.k' class pair, distinct
Euler triple and the graph once per atlas, with their cells, targets, oval counts and
roundtrip results as flat tuples, and each graph node's in-degree; the catalog audit reads
the related partners and the grid the ``Atlas`` keeps.  No verdict is kept: every call builds
fresh sections, compares the grid, the isotopy-table parts, the move tables and the class
pairs whole, other data one tuple per class (walking it only to word a mismatch), and evaluates
the Euler identity once per distinct triple, from the descriptors' kept Euler characteristic.

The roundtrip section compares what the unchecked ``topology._invariants`` recovered from
each ``IsotopyType`` candidate (checked when built) when the ``Derivation`` derived it, and
calls it again only to word a mismatch.  It tests no component count, since ``IsotopyType``
caps alpha + beta (1 to 10 components, 2 to 11 for the isolated point), and no star
candidate's class: ``candidate_isotopy_types`` emits Node (*) only for the two ``STAR_KEYS``
classes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from . import tables
from .atlas import (
    Atlas,
    CheckSection,
    Family,
    HInvariant,
    gk_invariants,
    load_atlas,
    validate_atlas,
)
from .degenerations import (
    TABLE_MOVES,
    Derivation,
    TableSide,
    correspondence_check,
    degeneration_table,
    transition_graph,
)
from .topology import (
    ISOTOPY_CELL_CASES,
    STAR_KEYS,
    Region,
    TopCase,
    _invariants,
    double_cover_euler_check,
)

# Module globals, read per class or candidate: see atlas.IdentityEnum.
_S311, _U, _ZERO, _Z2 = Family.S311, Family.U, HInvariant.ZERO, HInvariant.Z2
_NODE2, _NODE_STAR = TopCase.NODE2, TopCase.NODE_STAR
_A_PLUS, _A_MINUS = Region.A_PLUS, Region.A_MINUS
_DROPS = tuple((m.spec.primed, m.spec.ovals) for m in TABLE_MOVES)  # (pool: g-1 or k, ovals used)


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


def _check_isotopy_tables(derivation: Derivation) -> CheckSection:
    atlas = derivation.atlas
    checked, violations = 0, []
    # Part by part: one comparison of the parts joined would miss a row moved across.
    parts = zip((_ZERO, _Z2), (tables.ISOTOPY_H0, tables.ISOTOPY_Z2), derivation.isotopy_parts)
    for h, rows, derived_rows in parts:
        if derived_rows == rows:
            checked += len(rows)
            continue
        for row in rows:
            c = atlas.lookup(_S311, row.r, row.a, row.delta, h)
            checked += 1
            if c is None:
                violations.append(f"row {row.index}: class missing from atlas")
                continue
            derived = derivation.isotopy_row(c)
            if derived == row:
                continue
            # (index, r, a, delta) fixed the lookup; name the fields that differ.
            if derived.index != row.index:
                violations.append(f"row {row.index}: atlas carries index {derived.index}")
            if derived[4:6] != row[4:6]:
                violations.append(f"row {row.index}: (g,k) mismatch")
            for case, cell, shipped in zip(ISOTOPY_CELL_CASES, derived[6:9], row[6:9]):
                if cell != shipped:
                    violations.append(
                        f"row {row.index} {case.value}: generated {cell}, shipped {shipped}"
                    )
            if derived.node_star != row.node_star:
                violations.append(f"row {row.index}: star cell mismatch")
    return CheckSection("isotopy tables", checked, violations, [], {})


def _check_move_tables(derivation: Derivation) -> CheckSection:
    checked, violations, whitelisted = 0, [], []
    whitelist = {(idx, move): (shipped, derived) for idx, move, shipped, derived in tables.WHITELISTED_CELLS}
    for side, golden_rows in (
        (TableSide.UNPRIMED, tables.MOVES_UNPRIMED),
        (TableSide.PRIMED, tables.MOVES_PRIMED),
    ):
        if derivation.flat_rows[side] == golden_rows:
            checked += len(golden_rows)
            continue
        rows = degeneration_table(side, derivation)
        if len(rows) != len(golden_rows):
            violations.append(
                f"{side.value} table has {len(rows)} rows, shipped {len(golden_rows)}"
            )
            continue
        checked += len(rows)
        # Both row types start with (index, r, a, delta, g, k); the shipped
        # cells follow in the order of the derived ones, as in each flat row.
        for row, flat, golden in zip(rows, derivation.flat_rows[side], golden_rows):
            if flat == golden:
                continue
            if row[:6] != golden[:6]:
                violations.append(
                    f"{side.value} row {golden.index}: head columns mismatch"
                )
                continue
            for (move, cell), shipped in zip(row.cells, golden[6:]):
                if cell == shipped:
                    continue
                name = move.value
                entry = whitelist.get((golden.index, name))
                if entry and entry == (shipped, cell):
                    whitelisted.append(
                        f"row {golden.index} {name}: shipped {shipped}, derived {cell}"
                    )
                else:
                    violations.append(
                        f"row {golden.index} {name}: derived {cell}, shipped {shipped}"
                    )
    star_rows = degeneration_table(TableSide.STAR, derivation)
    got_stars = tuple(r[:6] + (r.cells[0][0].spec.case.value,) for r in star_rows)
    checked += len(tables.MOVES_STAR)
    if got_stars != tables.MOVES_STAR:
        violations.append("star table mismatch")
    return CheckSection("degeneration tables", checked, violations, whitelisted, {})


def _check_roundtrips(derivation: Derivation) -> CheckSection:
    checked, violations = 0, []
    kept = derivation.roundtrips
    for c in derivation.atlas.all_classes(_S311):
        candidates, found, sums = kept[c.key]
        checked += len(candidates)
        invariants, n = (c.r, c.a, c.h), len(found)
        if found == (invariants,) * n and (c.h is not _ZERO or sums == (9 - c.a,) * n):
            continue
        covered = _A_MINUS if c.h is _ZERO else _A_PLUS
        for t in candidates:
            if t.case is _NODE_STAR:
                continue
            r, a, h = _invariants(t.case, t.alpha, t.beta, covered)
            if (r, a, h) != invariants:
                violations.append(
                    f"{c.index} {t}: roundtrip gave ({r},{a},H={h.value})"
                )
            # Oval-sum rules on the H = 0 side.
            if c.h is _ZERO:
                expected_sum = 8 - c.a if t.case is _NODE2 else 9 - c.a
                if t.alpha + t.beta != expected_sum:
                    violations.append(f"{c.index} {t}: oval sum violated")
    return CheckSection("invariant roundtrips", checked, violations, [], {})


def _check_euler(derivation: Derivation) -> CheckSection:
    triples, checked = derivation.euler_triples
    violations = []
    failed = {triple for triple in triples if not double_cover_euler_check(*triple)}
    if failed:  # name every carrier, by class and then by candidate
        for c in derivation.atlas.all_classes(_S311):
            for t in derivation.candidates(c):
                if t[:3] in failed:
                    violations.append(f"{c.index} {t}: chi mismatch")
    return CheckSection("double-cover Euler identity", checked, violations, [], {})


def _check_exclusions(derivation: Derivation) -> CheckSection:
    checked, violations = 0, []
    # Of the triples without oval bookkeeping, (10,8,0) and (10,10,0), only
    # (10,8,0) has an H = 0 class in the catalog: the star class.  So this
    # checks one class, and re-tests that its candidates are the star case
    # alone; no (10,10,0) class with H = 0 exists to check.
    for c in derivation.atlas.all_classes(_S311):
        if c.h is not _ZERO or c.triple not in tables.U_EXCLUDED_TRIPLES:
            continue
        checked += 1
        cases = {t.case for t in derivation.table_candidates(c)}
        if cases - {_NODE_STAR}:
            violations.append(
                f"{c.index}: case I/II candidates emitted for excluded invariants"
            )
    return CheckSection("exclusions", checked, violations, [], {})


def _check_monotonicity(derivation: Derivation) -> CheckSection:
    """Each move consumes its side's oval pool by one (conjunction with the
    non-contractible component, contraction) or two (oval-oval merge)."""
    checked, violations = 0, []
    kept = derivation.ovals_after
    for c in derivation.atlas.all_classes(_U):
        if c.triple in tables.U_EXCLUDED_TRIPLES:
            continue
        g, k = gk_invariants(c)
        before, pools = (g - 1) + k, (g - 1, k)
        checked += len(TABLE_MOVES)
        if kept[c.key] == tuple([before - n if pools[p] >= n else None for p, n in _DROPS]):
            continue
        for move, outcome in zip(TABLE_MOVES, derivation.outcomes(c)):
            iso = outcome.iso
            if iso is None:  # outcome.impossible, without the property call
                # Impossibility criteria in terms of the pools.
                pool, _other = move.spec.pools(g, k)
                if pool >= move.spec.ovals:
                    violations.append(
                        f"{c.index} {move.value}: impossible despite {pool} ovals"
                    )
                continue
            after = iso.alpha + iso.beta
            if before - after != move.spec.ovals:
                violations.append(
                    f"{c.index} {move.value}: oval count dropped by {before - after}"
                )
    return CheckSection("oval-count monotonicity", checked, violations, [], {})


def _check_graph(derivation: Derivation) -> CheckSection:
    checked, violations = 1, []
    graph = transition_graph(derivation)
    if len(graph.nodes) != 165:
        violations.append(f"{len(graph.nodes)} nodes, expected 63 + 102")
    indegree, classes = graph.in_degree, derivation.atlas.all_classes(_S311)
    checked += len(classes)
    if not all(map(indegree.get, map(attrgetter("key"), classes))):
        violations += [f"{c.index}: no incoming degeneration edge" for c in classes if not indegree.get(c.key)]
    for key in STAR_KEYS:
        checked += 1
        if indegree.get(key) != 1:
            star = derivation.atlas.lookup(_S311, *key)
            violations.append(f"{star.index}: in-degree != 1")
    return CheckSection("transition graph", checked, violations, [], {})


def run_all_checks(atlas: Atlas | None = None) -> ValidationSummary:
    atlas = atlas or load_atlas()
    report = validate_atlas(atlas)
    if not report.ok:
        # A structurally damaged catalog already fails; the deeper checks
        # assume pairing partners and table rows exist.
        return ValidationSummary(report, [])
    derivation = Derivation.of(atlas)
    sections = [
        _check_isotopy_tables(derivation),
        _check_move_tables(derivation),
        _check_roundtrips(derivation),
        _check_euler(derivation),
        _check_exclusions(derivation),
        _check_monotonicity(derivation),
        correspondence_check(derivation),
    ]
    # Graph checks only make sense once the catalogs agree with the tables.
    if sections[-1].ok:
        sections.append(_check_graph(derivation))
    return ValidationSummary(report, sections)
