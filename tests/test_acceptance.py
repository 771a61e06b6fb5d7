"""Acceptance criteria, one test per criterion.

Every criterion is exact (integer/tuple equality, no tolerances); each
test prints one line so a plain ``pytest -s tests/test_acceptance.py``
reads as a checklist.
"""

import random

import pytest

from conftest import shear_conjugate
from k3atlas import tables
from k3atlas.atlas import Family, HInvariant, gk_invariants, load_atlas
from k3atlas.degenerations import (
    TableSide,
    correspondence_check,
    degeneration_table,
)
from k3atlas.divisors import Surface, arithmetic_genus, f4_class
from k3atlas.lattices import (
    IntegralLattice,
    gram_LK3,
    gram_S311,
    signature,
    two_elementary_invariants,
)
from k3atlas.topology import (
    Region,
    TopCase,
    candidate_isotopy_types,
    double_cover_euler_check,
    invariants_from_isotopy,
)

ATLAS = load_atlas()


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_class_counts():
    s311 = ATLAS.all_classes(Family.S311)
    u = ATLAS.all_classes(Family.U)
    assert len(s311) == 102
    assert len(u) == 63
    assert sum(c.delta == 0 for c in u) == 14
    assert sum(c.delta == 1 for c in u) == 49
    for members, expected_fixed, expected_quotient in ((s311, 0, 51), (u, 11, 37)):
        fixed = sum(ATLAS.related_class(c) is c for c in members)
        assert fixed == expected_fixed
        assert (len(members) - fixed) // 2 + fixed == expected_quotient
    report(1, "102/51 and 63 (14+49)/37 class counts, exact")


def test_criterion_2_grid_row_bijection():
    checked = 0
    for h, grid in ((HInvariant.ZERO, tables.GRID_H0), (HInvariant.Z2, tables.GRID_Z2)):
        cells = {(r, a, d) for (r, a), deltas in grid.items() for d in deltas}
        rows = {c.triple for c in ATLAS.all_classes(Family.S311) if c.h is h}
        assert cells == rows and len(cells) == 51
        checked += len(cells)
    report(2, f"grid cells and row lists agree ({checked} cells, 51 + 51)")


def test_criterion_3_golden_tables():
    # Isotopy candidate tables: every cell of all 102 rows.
    for h, rows in ((HInvariant.ZERO, tables.ISOTOPY_H0), (HInvariant.Z2, tables.ISOTOPY_Z2)):
        for row in rows:
            c = ATLAS.lookup(Family.S311, row.r, row.a, row.delta, h)
            assert c is not None and c.index == row.index
            assert gk_invariants(c) == (row.g, row.k)
            cands = {t.case: (t.alpha, t.beta) for t in candidate_isotopy_types(c)}
            assert cands.get(TopCase.NODE1) == row.node1
            assert cands.get(TopCase.ISOLATED) == row.isolated
            assert cands.get(TopCase.NODE2) == row.node2
            assert (TopCase.NODE_STAR in cands) == (row.node_star is not None)
    # Degeneration tables: every cell, with exactly one whitelisted mismatch.
    diffs = []
    for side, golden_rows, names in (
        (TableSide.UNPRIMED, tables.MOVES_UNPRIMED, ("conj1", "conj2", "contr3")),
        (TableSide.PRIMED, tables.MOVES_PRIMED, ("conj1p", "conj2p", "contr3p")),
    ):
        rows = degeneration_table(side, ATLAS)
        assert len(rows) == len(golden_rows) == 50
        for row, golden in zip(rows, golden_rows):
            assert (row.index, row.r, row.a, row.delta, row.g, row.k) == (
                golden.index, golden.r, golden.a, golden.delta, golden.g, golden.k,
            )
            generated = {m.value: cell for m, cell in row.cells}
            for name, shipped in zip(names, (golden.conj1, golden.conj2, golden.contr3)):
                if generated[name] != shipped:
                    diffs.append((golden.index, name, shipped, generated[name]))
    assert diffs == list(tables.WHITELISTED_CELLS) == [
        ("No.16'", "contr3p", (1, 2), (1, 3))
    ]
    star = degeneration_table(TableSide.STAR, ATLAS)
    assert [(r.index, r.r, r.a, r.delta) for r in star] == [
        ("No.26", 9, 9, 1),
        ("No.26'", 11, 9, 1),
    ]
    report(3, "tables reproduced cell-for-cell, 1 whitelisted discrepancy")


def test_criterion_4_formula_roundtrip():
    checked = 0
    for c in ATLAS.all_classes(Family.S311):
        covered = Region.A_MINUS if c.h is HInvariant.ZERO else Region.A_PLUS
        for t in candidate_isotopy_types(c):
            if t.case is TopCase.NODE_STAR:
                assert (c.r, c.a, c.delta) in ((10, 8, 0), (9, 9, 0))
                checked += 1
                continue
            assert invariants_from_isotopy(t.case, t.alpha, t.beta, covered) == (
                c.r, c.a, c.h,
            )
            checked += 1
    assert checked == 282
    report(4, f"invariants recovered for all {checked} candidates, exact")


def test_criterion_5_correspondence():
    result = correspondence_check(ATLAS)
    assert result.ok, result.violations[:3]
    assert result.checked == 302
    report(5, f"degeneration/isotopy correspondence over {result.checked} pairs")


def test_criterion_6_euler_identity():
    checked = 0
    for c in ATLAS.all_classes(Family.S311):
        for t in candidate_isotopy_types(c):
            assert double_cover_euler_check(t.case, t.alpha, t.beta)
            checked += 1
    assert checked == 282
    report(6, f"chi(real part) = 2 chi(region) for all {checked} candidates")


def test_criterion_7_lattice_oracle():
    s311 = gram_S311()
    lk3 = gram_LK3()
    assert two_elementary_invariants(s311).triple == (3, 1, 1)
    assert signature(lk3) == (3, 19)
    rng = random.Random(20260811)
    for base, expected_sig, expected_inv in (
        (s311, (1, 2), (3, 1, 1)),
        (lk3, (3, 19), (22, 0, 0)),
    ):
        expected_det = base.det()
        for _ in range(100):
            changed = IntegralLattice(shear_conjugate(base.gram, rng))
            assert signature(changed) == expected_sig
            assert two_elementary_invariants(changed).triple == expected_inv
            assert abs(changed.det()) == abs(expected_det)
    report(7, "(3,1,1), signature (3,19); 100 basis changes per fixture")


def test_criterion_8_adjunction():
    branch = f4_class(12, 3)
    assert branch.surface is Surface.F4
    assert arithmetic_genus(branch) == 10
    assert arithmetic_genus(branch) - 1 == 9  # one node: geometric genus 9
    report(8, "arithmetic genus 10, nodal geometric genus 9")


def test_criterion_9_pairing_properties():
    fixed_counts = {Family.S311: 0, Family.U: 0}
    for family in Family:
        for c in ATLAS.all_classes(family):
            partner = ATLAS.related_class(c)
            assert ATLAS.related_class(partner) is c
            assert partner.delta == c.delta
            if partner is c:
                fixed_counts[family] += 1
    assert fixed_counts == {Family.S311: 0, Family.U: 11}
    for c in ATLAS.all_classes(Family.U):
        if c.triple in tables.U_EXCLUDED_TRIPLES:
            continue
        partner = ATLAS.related_class(c)
        if partner.triple in tables.U_EXCLUDED_TRIPLES:
            continue
        g, k = gk_invariants(c)
        assert gk_invariants(partner) == (k + 1, g - 1)
    report(9, "pairing is an involution; fixed counts 0/11; (g,k) -> (k+1,g-1)")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
