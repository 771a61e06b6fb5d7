"""``run_all_checks`` derives each fact once per atlas, runs every check on
every call and reports as before."""

import cProfile
import functools
import gc
import json
import os
import subprocess
import sys
import threading
import types
import weakref

import pytest

from k3atlas import atlas as atlas_module
from k3atlas import degenerations, tables, topology, validation
from k3atlas.atlas import (
    Atlas,
    Family,
    HInvariant,
    InvolutionClass,
    gk_invariants,
    load_atlas,
    related_key,
    validate_atlas,
)
from k3atlas.degenerations import (
    TABLE_MOVES,
    Degeneration,
    DegenerationOutcome,
    TableSide,
)
from k3atlas.topology import (
    STAR_KEY_H0,
    STAR_KEY_Z2,
    IsotopyType,
    PieceKind,
    Region,
    RegionDescriptor,
    RegionPiece,
    SurfaceDescriptor,
    TopCase,
    candidate_isotopy_types,
)


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _fresh_atlas() -> Atlas:
    # Unlike load_atlas(), no other test can have derived anything on it.
    return Atlas(atlas_module._embedded_classes())


def test_one_derivation_per_outcome_and_euler_triple(monkeypatch):
    pairs, triples = [], []
    apply = degenerations.apply_degeneration
    cover = topology._cover

    def counting_apply(c, move, atlas=None):
        pairs.append((c, move))
        return apply(c, move, atlas)

    def counting_cover(case, alpha, beta):
        triples.append((case, alpha, beta))
        return cover(case, alpha, beta)

    monkeypatch.setattr(degenerations, "apply_degeneration", counting_apply)
    # a direct call from validation would be counted too
    monkeypatch.setattr(validation, "apply_degeneration", counting_apply, raising=False)
    # the Euler section reads each shared cover through topology._cover, patched to count
    monkeypatch.setattr(topology, "_cover", counting_cover)
    atlas = _fresh_atlas()
    summary = validation.run_all_checks(atlas)
    assert summary.ok
    assert len(pairs) == len(set(pairs)) == 368
    # one evaluation per shared cover datum, not per (case, alpha, beta) of a candidate (201);
    # the first call also reads the Node (*) cover for the two star rows' real parts
    assert len(set(triples)) == 45 and set(triples) == set(atlas._s.euler[0])
    assert len(triples) == 45 + 2 and triples.count((TopCase.NODE_STAR, 0, 0)) == 3
    # a second call derives no outcome but evaluates every Euler datum again
    del pairs[:], triples[:]
    again = validation.run_all_checks(atlas)
    assert again == summary and again is not summary
    assert all(a is not b for a, b in zip(again.sections, summary.sections))
    assert not pairs and len(triples) == len(set(triples)) == 45
    # another atlas of the same records derives everything again
    validation.run_all_checks(_fresh_atlas())
    assert len(pairs) == len(set(pairs)) == 368


def test_one_candidate_list_per_class(monkeypatch):
    calls = []
    # every section reads the lists through the atlas's S311 pass, built in degenerations
    candidates = degenerations.candidate_isotopy_types

    def counting_candidates(c, include_degenerate=False):
        calls.append((c, include_degenerate))
        return candidates(c, include_degenerate)

    monkeypatch.setattr(degenerations, "candidate_isotopy_types", counting_candidates)
    atlas = _fresh_atlas()
    assert validation.run_all_checks(atlas).ok
    s311 = atlas.all_classes(Family.S311)
    assert calls == [(c, True) for c in s311]
    # a second call derives no list; another atlas derives all 102 again
    validation.run_all_checks(atlas)
    assert len(calls) == 102
    other = _fresh_atlas()
    validation.run_all_checks(other)
    assert calls[102:] == [(c, True) for c in other.all_classes(Family.S311)]


def test_shared_table_lists_are_the_table_candidates():
    atlas = _fresh_atlas()
    s = atlas._s
    assert atlas._s is s  # derived once, then kept
    s311 = atlas.all_classes(Family.S311)
    assert list(s.full) == [c.key for c in s311]
    # one list per class: the table candidates are the kept ones that are not degenerate variants
    for c in s311:
        assert s.full[c.key] == tuple(candidate_isotopy_types(c, True))
        assert [t for t in s.full[c.key] if t.table_data] == candidate_isotopy_types(c)
    for key in (STAR_KEY_H0, STAR_KEY_Z2):
        star = atlas.lookup(Family.S311, *key)
        table = [t for t in s.full[star.key] if t.table_data]
        assert any(t.case is TopCase.NODE_STAR for t in table)
        assert table == candidate_isotopy_types(star)


def _numbered(items) -> tuple[dict, int]:
    # (datum, carrier) pairs, in item order -> each distinct datum, first seen first, with its
    # carriers (number, *carrier) numbered in that order; and the item count.
    carriers = {}
    for n, (datum, carrier) in enumerate(items):
        carriers.setdefault(datum, []).append((n, *carrier))
    return {datum: tuple(cs) for datum, cs in carriers.items()}, len(items)


def test_derived_rows_are_the_generator_outputs():
    atlas = _fresh_atlas()
    u, s = degenerations._read(atlas), atlas._s
    shipped = {
        (row.r, row.a, row.delta, h): row
        for h, rows in ((HInvariant.ZERO, tables.ISOTOPY_H0), (HInvariant.Z2, tables.ISOTOPY_Z2))
        for row in rows
    }
    for c in atlas.all_classes(Family.S311):
        row = s.rows[c.h][c.triple]
        assert row == shipped[c.key]
        # the cusp variants have cells of their own, which a row leaves out
        assert topology.isotopy_row(c, candidate_isotopy_types(c, True)) == row
    assert all(type(kept) is tuple for kept in (u.flat, u.oval_data, u.pairs, s.pairs))
    assert all(type(kept) is tuple for kept in (s.roundtrip_data, s.euler))
    moves = []
    for c in atlas.all_classes(Family.U):
        if c.triple in tables.U_EXCLUDED_TRIPLES:
            continue
        for m in TABLE_MOVES:
            # per table move: its pools and ovals, and alpha + beta after it, None where impossible
            o = degenerations.apply_degeneration(c, m, atlas)
            pools = m.spec.pools(*gk_invariants(c)) + (m.spec.ovals,)
            moves.append(((pools, None if o.impossible else o.iso.alpha + o.iso.beta), (c, m)))
    # the distinct (pools, after) that the oval-count section evaluates, first seen first, each
    # with the moves that carry it, numbered in move order
    data, count = _numbered(moves)
    assert (list(u.oval_data[0].items()), u.oval_data[1]) == (list(data.items()), count)
    assert (len(data), count) == (108, 366)
    carriers = sorted(carrier for cs in u.oval_data[0].values() for carrier in cs)
    assert [n for n, _c, _m in carriers] == list(range(366))
    assert [(c, m) for _n, c, m in carriers] == [carrier for _datum, carrier in moves]
    # one form of each move-table row: the flat tuple, and the MoveTableRow built from it
    shipped_tables = tables.MOVES_UNPRIMED, tables.MOVES_PRIMED
    for side, flat, shipped in zip((TableSide.UNPRIMED, TableSide.PRIMED), u.flat, shipped_tables):
        rows = degenerations.degeneration_table(side, atlas)
        assert flat == tuple(row[:6] + tuple(cell for _m, cell in row.cells) for row in rows)
        # each row equal to its shipped row is that object; the one that differs is a plain tuple
        for row, was in zip(flat, shipped):
            assert row is was if row == was else type(row) is tuple and row[0] == "No.16'"
        assert rows == list(u.rows[side]) and rows is not degenerations.degeneration_table(side, atlas)
    # per table candidate of each S311 class, the star ones numbered but carrying no datum: its
    # (r, a, H, case is Node (2)), what _invariants recovers and alpha + beta
    candidates = []
    for c in atlas.all_classes(Family.S311):
        covered = Region.A_MINUS if c.h is HInvariant.ZERO else Region.A_PLUS
        for t in candidate_isotopy_types(c):
            datum = None
            if t.case is not TopCase.NODE_STAR:
                found = topology._invariants(t.case, t.alpha, t.beta, covered) + (t.alpha + t.beta,)
                datum = c.r, c.a, c.h, t.case is TopCase.NODE2, found
            candidates.append((datum, (c, t)))
    data, count = _numbered(candidates)
    del data[None]
    assert (list(s.roundtrip_data[0].items()), s.roundtrip_data[1]) == (list(data.items()), count)
    assert (len(data), count) == (156, 282)
    carriers = sorted(carrier for cs in data.values() for carrier in cs)
    assert len(carriers) == 280 and [(c, t) for _n, c, t in carriers] == [
        carrier for datum, carrier in candidates if datum is not None
    ]
    # per H: the shipped table as read, and the generated row of each of its rows, in its order
    assert [(h, table) for h, table, _rows in s.shipped] == [
        (HInvariant.ZERO, tables.ISOTOPY_H0), (HInvariant.Z2, tables.ISOTOPY_Z2)
    ]
    for h, table, rows in s.shipped:
        assert rows == tuple(s.rows[h][row.r, row.a, row.delta] for row in table)
        assert table is getattr(tables, "ISOTOPY_H0" if h is HInvariant.ZERO else "ISOTOPY_Z2")
    # per graph node: the number of edges into it
    graph = degenerations.transition_graph(atlas)
    indegree = graph.in_degree
    assert indegree is graph.in_degree and list(indegree) == [n.key for n in graph.nodes]
    assert dict(indegree) == {n.key: [e.target for e in graph.edges].count(n) for n in graph.nodes}
    # the S311 classes first, in atlas order: the graph section reads the first 102 in-degrees
    s311, nodes = load_atlas().all_classes(Family.S311), degenerations.transition_graph().nodes
    assert len(s311) == 102 and [id(n) for n in nodes[:102]] == [id(c) for c in s311]
    # per No.k / No.k' pair: the cells of the moves of its side and the targets of the possible
    # ones, and the S311 class's isotopy-row cells with that class once per cell that is not None
    fresh_u, fresh_s = [], []
    for k in range(1, 51):
        for side, moves in enumerate((degenerations.UNPRIMED_MOVES, degenerations.PRIMED_MOVES)):
            label = f"No.{k}" + "'" * side
            uc, sc = atlas.lookup_index(Family.U, label), atlas.lookup_index(Family.S311, label)
            fresh = [degenerations.apply_degeneration(uc, m, atlas) for m in moves]
            fresh_u.append((tuple(o.cell() for o in fresh), tuple(o.target for o in fresh if not o.impossible)))
            row = topology.isotopy_row(sc, candidate_isotopy_types(sc))
            cells = tuple(row[6 + topology.ISOTOPY_CELL_CASES.index(m.spec.case)] for m in moves)
            fresh_s.append((cells, tuple(sc for cell in cells if cell is not None)))
    assert (u.pairs, s.pairs) == (tuple(fresh_u), tuple(fresh_s)) and u.pairs == s.pairs
    # per H, the (r, a) cells of the S311 classes with their deltas in order
    grid = atlas._grid
    assert grid is atlas._grid
    for h in (HInvariant.ZERO, HInvariant.Z2):
        members = [c for c in atlas.all_classes(Family.S311) if c.h is h]
        assert grid[h] == {
            (c.r, c.a): tuple(sorted({d.delta for d in members if (d.r, d.a) == (c.r, c.a)}))
            for c in members
        }
    assert grid == {HInvariant.ZERO: tables.GRID_H0, HInvariant.Z2: tables.GRID_Z2}
    # the distinct (r, a) of both families, which the catalog audit bounds once each
    classes = atlas.all_classes(Family.S311) + atlas.all_classes(Family.U)
    assert atlas._ra is atlas._ra and atlas._ra == tuple(dict.fromkeys((c.r, c.a) for c in classes))
    assert len(atlas._ra) == 54


@pytest.mark.parametrize(
    "label, move, damage, expected",
    [
        (
            "No.5",
            Degeneration.CONJ2,
            lambda o: o._replace(iso=IsotopyType(o.iso.case, o.iso.alpha + 1, o.iso.beta - 1)),
            [
                "degeneration tables: row No.5 conj2: derived (2, 5), shipped (1, 6)",
                "correspondence: No.5 conj2: produced (2, 5), candidate is (1, 6)",
            ],
        ),
        (
            "No.5",
            Degeneration.CONJ2,
            lambda o: DegenerationOutcome(o.move, None, None),
            [
                "degeneration tables: row No.5 conj2: derived None, shipped (1, 6)",
                "oval-count monotonicity: No.5 conj2: impossible despite 8 ovals",
                "correspondence: No.5 conj2: impossible, but Node (2) (1, 6) is a candidate",
            ],
        ),
        (
            "No.5'",
            Degeneration.CONTR3P,
            lambda o: o._replace(target=None),
            ["correspondence: No.5' contr3p: target None is not No.5'"],
        ),
    ],
    ids=["wrong cell", "impossible", "primed target"],
)
def test_a_damaged_outcome_is_worded_move_by_move_on_every_call(
    monkeypatch, label, move, damage, expected
):
    # The one-tuple comparisons pass over a class or row only when no move differs.
    apply = degenerations.apply_degeneration
    key = load_atlas().lookup_index(Family.U, label).key

    def damaged(c, m, atlas=None):
        outcome = apply(c, m, atlas)
        return damage(outcome) if (c.key, m) == (key, move) else outcome

    monkeypatch.setattr(degenerations, "apply_degeneration", damaged)
    atlas = _fresh_atlas()
    assert validation.run_all_checks(atlas).violations == expected
    assert validation.run_all_checks(atlas).violations == expected


def test_a_damaged_self_conjunction_is_named_on_every_call(monkeypatch):
    apply = degenerations.apply_degeneration

    def impossible(c, m, atlas=None):
        return DegenerationOutcome(m, None, None) if m is Degeneration.CONJ4 else apply(c, m, atlas)

    monkeypatch.setattr(degenerations, "apply_degeneration", impossible)
    assert _twice(_fresh_atlas()) == ["correspondence: (9, 9, 1) conj4: star outcome mismatch"]


def _twice(atlas) -> list:
    first = validation.run_all_checks(atlas).violations
    assert validation.run_all_checks(atlas).violations == first
    return first


def _patch_invariants(monkeypatch, replace: dict) -> None:
    # every module that binds _invariants gets the same patched function
    invariants = topology._invariants

    def patched(case, alpha, beta, covered):
        return replace.get((case, alpha, beta, covered)) or invariants(case, alpha, beta, covered)

    for module in (topology, degenerations, validation):
        if hasattr(module, "_invariants"):
            monkeypatch.setattr(module, "_invariants", patched)


def test_a_damaged_roundtrip_is_worded_candidate_by_candidate_on_every_call(monkeypatch):
    # The kept (r, a, H) of each class are compared as one tuple; a mismatch walks its candidates.
    node2 = TopCase.NODE2, 1, 6
    _patch_invariants(monkeypatch, {
        node2 + (Region.A_MINUS,): (4, 1, HInvariant.ZERO),
        node2 + (Region.A_PLUS,): (17, 2, HInvariant.Z2),
    })
    assert _twice(_fresh_atlas()) == [
        "invariant roundtrips: No.5 Node (2) (1,6): roundtrip gave (4,1,H=0)",
        "invariant roundtrips: No.5' Node (2) (1,6): roundtrip gave (17,2,H=Z2)",
    ]


def test_a_damaged_oval_sum_is_worded_on_every_call(monkeypatch):
    # No.17 (7, 7, 1, H=0) gets the Node (1) candidate (2, 6), which no H = 0 class has, in
    # place of (0, 2), and the roundtrip is made to recover (7, 7, H=0) from it: of the
    # roundtrip checks, only the oval-sum rule sees it.
    candidates = degenerations.candidate_isotopy_types
    key = load_atlas().lookup_index(Family.S311, "No.17").key

    def shifted(c, include_degenerate=False):
        out = candidates(c, include_degenerate)
        if c.key != key:
            return out
        return [t._replace(alpha=2, beta=6) if t.case is TopCase.NODE1 else t for t in out]

    monkeypatch.setattr(degenerations, "candidate_isotopy_types", shifted)
    _patch_invariants(monkeypatch, {(TopCase.NODE1, 2, 6, Region.A_MINUS): key[:2] + key[3:]})
    assert _twice(_fresh_atlas()) == [
        "isotopy tables: row No.17 Node (1): generated (2, 6), shipped (0, 2)",
        "invariant roundtrips: No.17 Node (1) (2,6): oval sum violated",
        "correspondence: No.17 conj1: produced (0, 2), candidate is (2, 6)",
    ]
    # Likewise its Node (2) candidate (0, 1), whose sum is 8 - a, not 9 - a, in place of
    # (2, 5), which no H = 0 class has either.
    def node2_shifted(c, include_degenerate=False):
        out = candidates(c, include_degenerate)
        return [t._replace(alpha=2, beta=5) if c.key == key and t.case is TopCase.NODE2 else t for t in out]

    monkeypatch.setattr(degenerations, "candidate_isotopy_types", node2_shifted)
    _patch_invariants(monkeypatch, {(TopCase.NODE2, 2, 5, Region.A_MINUS): key[:2] + key[3:]})
    assert _twice(_fresh_atlas()) == [
        "isotopy tables: row No.17 Node (2): generated (2, 5), shipped (0, 1)",
        "invariant roundtrips: No.17 Node (2) (2,5): oval sum violated",
        "correspondence: No.17 conj2: produced (0, 1), candidate is (2, 5)",
    ]


def test_an_extra_oval_is_worded_move_by_move_on_every_call(monkeypatch):
    # The kept oval counts of each U class are compared as one tuple with the specs.
    apply = degenerations.apply_degeneration
    key = load_atlas().lookup_index(Family.U, "No.5").key

    def one_oval_too_many(c, m, atlas=None):
        outcome = apply(c, m, atlas)
        if (c.key, m) != (key, Degeneration.CONTR3):
            return outcome
        return outcome._replace(iso=outcome.iso._replace(alpha=outcome.iso.alpha + 1))

    monkeypatch.setattr(degenerations, "apply_degeneration", one_oval_too_many)
    assert _twice(_fresh_atlas()) == [
        "degeneration tables: row No.5 contr3: derived (2, 7), shipped (1, 7)",
        "oval-count monotonicity: No.5 contr3: oval count dropped by 0",
        "correspondence: No.5 contr3: produced (2, 7), candidate is (1, 7)",
    ]


@pytest.mark.parametrize(
    "index, expected",
    [
        ("No.17", ["No.17: no incoming degeneration edge"]),
        (
            "special-(10,8,0)",
            ["special-(10,8,0): no incoming degeneration edge", "special-(10,8,0): in-degree != 1"],
        ),
    ],
)
def test_a_class_without_incoming_edges_is_named_on_every_call(monkeypatch, index, expected):
    # The kept in-degrees are read for all classes at once; a zero walks the classes.
    derive = degenerations._derive_graph

    def without_edges_into(atlas, edges):
        return derive(atlas, [e for e in edges if e.target.index != index])

    monkeypatch.setattr(degenerations, "_derive_graph", without_edges_into)
    assert _twice(_fresh_atlas()) == [f"transition graph: {v}" for v in expected]


def test_shipped_star_real_part_is_checked(monkeypatch):
    rows = tuple(
        row._replace(node_star="Sigma_2") if row.index == "special-(10,8,0)" else row
        for row in tables.ISOTOPY_H0
    )
    monkeypatch.setattr(tables, "ISOTOPY_H0", rows)
    summary = validation.run_all_checks(load_atlas())
    section = next(s for s in summary.sections if s.name == "isotopy tables")
    assert section.checked == 102
    assert summary.violations == ["isotopy tables: row special-(10,8,0): star cell mismatch"]


@pytest.mark.parametrize(
    "table, index, edits, expected",
    [
        ("ISOTOPY_H0", "No.17", {"index": "No.71"}, ["row No.71: atlas carries index No.17"]),
        ("ISOTOPY_H0", "No.17", {"g": 5}, ["row No.17: (g,k) mismatch"]),
        ("ISOTOPY_H0", "No.17", {"k": 1}, ["row No.17: (g,k) mismatch"]),
        (
            "ISOTOPY_H0", "No.17", {"node1": (1, 2)},
            ["row No.17 Node (1): generated (0, 2), shipped (1, 2)"],
        ),
        (
            "ISOTOPY_H0", "No.17", {"isolated": None},
            ["row No.17 Isolated point: generated (0, 2), shipped None"],
        ),
        (
            "ISOTOPY_Z2", "No.26'", {"node2": (0, 0)},
            ["row No.26' Node (2): generated None, shipped (0, 0)"],
        ),
        ("ISOTOPY_H0", "No.17", {"node_star": "T^2"}, ["row No.17: star cell mismatch"]),
        (
            "ISOTOPY_Z2", "No.26'", {"index": "X", "g": 0, "node1": None, "node_star": "T^2"},
            [
                "row X: atlas carries index No.26'",
                "row X: (g,k) mismatch",
                "row X Node (1): generated (0, 0), shipped None",
                "row X: star cell mismatch",
            ],
        ),
        (
            # (9, 7, 1, H=0) is No.25, so the row is compared with No.25's
            "ISOTOPY_H0", "No.17", {"r": 9},
            [
                "row No.17: atlas carries index No.25",
                "row No.17: (g,k) mismatch",
                "row No.17 Node (1): generated (1, 1), shipped (0, 2)",
                "row No.17 Isolated point: generated (1, 1), shipped (0, 2)",
                "row No.17 Node (2): generated (1, 0), shipped (0, 1)",
            ],
        ),
        # the last H = 0 row moved to the front of the Z/2 part: both parts joined are unchanged
        ("ISOTOPY_H0", "No.50", None, ["row No.50: class missing from atlas"]),
    ],
)
def test_isotopy_section_names_each_edited_field(monkeypatch, table, index, edits, expected):
    # Both atlases are built from the shipped tables before they are edited;
    # the first has compared them whole before, the second derives afresh.
    atlas, fresh = load_atlas(), _fresh_atlas()
    assert validation.run_all_checks(atlas).ok
    rows = getattr(tables, table)
    if edits is None:
        assert rows[-1].index == index
        monkeypatch.setattr(tables, "ISOTOPY_Z2", rows[-1:] + tables.ISOTOPY_Z2)
        monkeypatch.setattr(tables, table, rows[:-1])
    else:
        monkeypatch.setattr(
            tables, table, tuple(row._replace(**edits) if row.index == index else row for row in rows)
        )
    for a in (atlas, fresh, fresh):
        assert validation.run_all_checks(a).violations == [f"isotopy tables: {v}" for v in expected]


def test_a_warm_atlas_sees_a_patched_isotopy_table(monkeypatch):
    # The S311 pass keeps the rows it generated for each table as it read it; a table replaced
    # since is looked up again, and every call compares all 102 rows.
    atlas = _fresh_atlas()
    shipped, rows = atlas._s.shipped, tables.ISOTOPY_H0
    edited = tuple(row._replace(node1=(1, 2)) if row.index == "No.17" else row for row in rows)
    monkeypatch.setattr(tables, "ISOTOPY_H0", edited)
    assert _twice(atlas) == ["isotopy tables: row No.17 Node (1): generated (0, 2), shipped (1, 2)"]
    # the same rows in another order pass: each is looked up by its (r, a, delta)
    monkeypatch.setattr(tables, "ISOTOPY_H0", rows[::-1])
    assert _twice(atlas) == []
    monkeypatch.setattr(tables, "ISOTOPY_H0", rows)
    assert _twice(atlas) == []
    sections = validation.run_all_checks(atlas).sections
    assert next(s for s in sections if s.name == "isotopy tables").checked == 102
    assert atlas._s.shipped is shipped


def test_a_corrupted_datum_is_worded_for_every_carrier_in_order():
    # Each distinct datum is evaluated once; one that fails is worded for every item that
    # carries it, in item order.  Two data of each pass are altered, each keeping its carriers,
    # on copies that replace the passes in the instance dict, where the atlas keeps them.
    atlas = _fresh_atlas()
    s, u = types.SimpleNamespace(**vars(atlas._s)), types.SimpleNamespace(**vars(atlas._pass))
    zero = HInvariant.ZERO
    # No.3 and No.4 (2, 2, delta, H=0): Node (1) and the isolated point at (0,7) find oval sum 7,
    # and Node (2) at (0,6) finds 6
    found = {(2, 2, zero, 7): (2, 2, zero, 8), (2, 2, zero, 6): (3, 2, zero, 6)}
    data, count = s.roundtrip_data
    s.roundtrip_data = {d[:4] + (found.get(d[4], d[4]),): carriers for d, carriers in data.items()}, count
    # (pools, after) of No.3 and No.4 conj2 and of No.3' and No.4' conj2p; the other way round
    after = {((8, 0, 2), 6): 7, ((0, 8, 2), None): 5}
    ovals, count = u.oval_data
    u.oval_data = {(pools, after.get((pools, a), a)): carriers for (pools, a), carriers in ovals.items()}, count
    # no altered datum meets another: each keeps its own carriers
    assert (len(s.roundtrip_data[0]), len(u.oval_data[0])) == (len(data), len(ovals))
    atlas.__dict__.update(_s=s, _pass=u)
    assert _twice(atlas) == [
        "invariant roundtrips: No.3 Node (1) (0,7): oval sum violated",
        "invariant roundtrips: No.3 Isolated point (0,7): oval sum violated",
        "invariant roundtrips: No.3 Node (2) (0,6): roundtrip gave (3,2,H=0)",
        "invariant roundtrips: No.4 Node (1) (0,7): oval sum violated",
        "invariant roundtrips: No.4 Isolated point (0,7): oval sum violated",
        "invariant roundtrips: No.4 Node (2) (0,6): roundtrip gave (3,2,H=0)",
        "oval-count monotonicity: No.3 conj2: oval count dropped by 1",
        "oval-count monotonicity: No.3 conj2p: oval count dropped by 3",
        "oval-count monotonicity: No.4 conj2: oval count dropped by 1",
        "oval-count monotonicity: No.4 conj2p: oval count dropped by 3",
        "oval-count monotonicity: No.3' conj2: oval count dropped by 3",
        "oval-count monotonicity: No.3' conj2p: oval count dropped by 1",
        "oval-count monotonicity: No.4' conj2: oval count dropped by 3",
        "oval-count monotonicity: No.4' conj2p: oval count dropped by 1",
    ]


@pytest.mark.parametrize(
    "datum, after, expected",
    [
        # No.2 conj2p and No.50 conj2, pools (1, 9): a move made despite the small pool that
        # drops the two ovals it uses is no violation
        (((1, 9, 2), None), 8, []),
        # No.1 conj2p and No.1' conj2, pools (0, 9): one that drops three is
        (((0, 9, 2), None), 6, [
            "oval-count monotonicity: No.1 conj2p: oval count dropped by 3",
            "oval-count monotonicity: No.1' conj2: oval count dropped by 3",
        ]),
    ],
    ids=["drops its ovals", "drops more"],
)
def test_a_move_made_from_a_small_pool_fails_only_if_worded(datum, after, expected):
    # The section fails a datum exactly when it has a message for it.
    atlas = _fresh_atlas()
    u = types.SimpleNamespace(**vars(atlas._pass))
    ovals, count = u.oval_data
    u.oval_data = {(p, after if (p, a) == datum else a): c for (p, a), c in ovals.items()}, count
    assert len(u.oval_data[0]) == len(ovals)
    atlas.__dict__.update(_pass=u)
    assert _twice(atlas) == expected


def test_graph_section_runs_only_after_a_passing_correspondence(monkeypatch):
    names = [s.name for s in validation.run_all_checks(_fresh_atlas()).sections]
    assert names[-2:] == ["correspondence", "transition graph"]
    apply = degenerations.apply_degeneration

    def misdirected(c, move, atlas=None):
        outcome = apply(c, move, atlas)
        if c.index == "No.5" and move is Degeneration.CONJ1:
            return outcome._replace(target=None)
        return outcome

    monkeypatch.setattr(degenerations, "apply_degeneration", misdirected)
    summary = validation.run_all_checks(_fresh_atlas())
    assert summary.violations == ["correspondence: No.5 conj1: target None is not No.5"]
    assert [s.name for s in summary.sections][-1] == "correspondence"


def _euler_section(atlas):
    summary = validation.run_all_checks(atlas)
    return next(s for s in summary.sections if s.name == "double-cover Euler identity")


def test_euler_failure_is_reported_for_every_carrier(monkeypatch):
    # Each failing datum is a shared cover: (0,7) of Node (1) is read by No.3, No.4, No.3' and
    # No.4' in all five of their cases, Node (2) and Cusp (2) at (0,6); (8,0) by No.49' and
    # No.49, which the atlas orders between No.4 and No.3', in the three group I cases.
    bad = {(TopCase.NODE1, 0, 7), (TopCase.NODE1, 8, 0)}
    seen = []
    atlas, cover = load_atlas(), topology._cover
    assert validation.run_all_checks(atlas).ok  # warm: only the Euler section reads a cover

    def failing_cover(case, alpha, beta):
        # the real parts over the two sides swapped, which breaks the identity on both
        seen.append((case, alpha, beta))
        (upper, upper_real), (lower, lower_real) = cover(case, alpha, beta)
        if (case, alpha, beta) not in bad:
            return (upper, upper_real), (lower, lower_real)
        return (upper, lower_real), (lower, upper_real)

    monkeypatch.setattr(topology, "_cover", failing_cover)
    summary = validation.run_all_checks(atlas)
    section = next(s for s in summary.sections if s.name == "double-cover Euler identity")
    assert section.checked == 461
    # by class in atlas order, then by candidate in the class's order
    assert section.violations == [
        "No.3 Node (1) (0,7): chi mismatch",
        "No.3 Isolated point (0,7): chi mismatch",
        "No.3 Node (2) (0,6): chi mismatch",
        "No.3 Cusp (1) (0,7): chi mismatch",
        "No.3 Cusp (2) (0,6): chi mismatch",
        "No.4 Node (1) (0,7): chi mismatch",
        "No.4 Isolated point (0,7): chi mismatch",
        "No.4 Node (2) (0,6): chi mismatch",
        "No.4 Cusp (1) (0,7): chi mismatch",
        "No.4 Cusp (2) (0,6): chi mismatch",
        "No.49' Node (1) (8,0): chi mismatch",
        "No.49' Isolated point (8,0): chi mismatch",
        "No.49' Cusp (1) (8,0): chi mismatch",
        "No.49 Node (1) (8,0): chi mismatch",
        "No.49 Isolated point (8,0): chi mismatch",
        "No.49 Cusp (1) (8,0): chi mismatch",
        "No.3' Node (1) (0,7): chi mismatch",
        "No.3' Isolated point (0,7): chi mismatch",
        "No.3' Node (2) (0,6): chi mismatch",
        "No.3' Cusp (1) (0,7): chi mismatch",
        "No.3' Cusp (2) (0,6): chi mismatch",
        "No.4' Node (1) (0,7): chi mismatch",
        "No.4' Isolated point (0,7): chi mismatch",
        "No.4' Node (2) (0,6): chi mismatch",
        "No.4' Cusp (1) (0,7): chi mismatch",
        "No.4' Cusp (2) (0,6): chi mismatch",
    ]
    assert len(seen) == len(set(seen)) == 45
    assert summary.summary_line() == "102/51, 63/37, 26 violations, 1 whitelisted discrepancy"


def test_broken_shared_cover_reaches_every_case_that_reads_it(monkeypatch):
    # Only Node (1)'s entry at (0,7) is broken, yet the candidates of the other cases that
    # share it fail too, Node (2) and Cusp (2) at (0,6) among them, which no Node (1)
    # triple names: 5 cases of No.3, No.4, No.3' and No.4'.
    atlas = load_atlas()
    assert validation.run_all_checks(atlas).ok
    cover = topology._cover

    def broken_at_0_7(case, alpha, beta):
        entry = cover(case, alpha, beta)
        if (case, alpha, beta) != (TopCase.NODE1, 0, 7):
            return entry
        return tuple(
            (region, SurfaceDescriptor((real.genera[0] + 1,) + real.genera[1:])) for region, real in entry
        )

    misses = cover.cache_info().misses
    with monkeypatch.context() as patch:
        patch.setattr(topology, "_cover", broken_at_0_7)
        section = _euler_section(atlas)
        assert cover.cache_info().misses == misses
    assert section.checked == 461
    assert section.violations == [
        f"{index} {case} ({alpha},{beta}): chi mismatch"
        for index in ("No.3", "No.4", "No.3'", "No.4'")
        for case, alpha, beta in (
            ("Node (1)", 0, 7), ("Isolated point", 0, 7), ("Node (2)", 0, 6),
            ("Cusp (1)", 0, 7), ("Cusp (2)", 0, 6),
        )
    ]
    # no verdict is kept: the next call, unpatched, is clean
    section = _euler_section(atlas)
    assert section.checked == 461 and not section.violations


def test_shared_descriptors_keep_no_verdict(monkeypatch):
    atlas = load_atlas()
    assert validation.run_all_checks(atlas).ok
    cover = topology._cover

    def one_genus_higher(case, alpha, beta):
        return tuple(
            (region, SurfaceDescriptor((real.genera[0] + 1,) + real.genera[1:]))
            for region, real in cover(case, alpha, beta)
        )

    misses = cover.cache_info().misses
    with monkeypatch.context() as patch:
        patch.setattr(topology, "_cover", one_genus_higher)
        section = _euler_section(atlas)
        assert section.checked == len(section.violations) == 461
        # a miss would keep a patched entry: the memo reads a shared entry through _cover
        assert cover.cache_info().misses == misses
    section = _euler_section(atlas)
    assert section.checked == 461 and not section.violations


@pytest.mark.parametrize(
    "extra",
    [
        RegionPiece(PieceKind.DISK),  # equal to topology._DISK, but a fresh object
        RegionPiece(PieceKind.DISK, 2),
        RegionPiece(PieceKind.PAIR_OF_PANTS),
    ],
    ids=["fresh disk", "disk with holes", "pair of pants"],
)
def test_patched_region_is_seen_on_a_warm_atlas(monkeypatch, extra):
    atlas = load_atlas()
    assert validation.run_all_checks(atlas).ok
    cover = topology._cover

    def one_piece_more(case, alpha, beta):
        (upper, upper_real), lower = cover(case, alpha, beta)
        # first, so that a sum over the pieces meets it before the others
        return (RegionDescriptor((extra,) + upper.pieces), upper_real), lower

    misses = cover.cache_info().misses
    with monkeypatch.context() as patch:
        patch.setattr(topology, "_cover", one_piece_more)
        section = _euler_section(atlas)
        assert section.checked == len(section.violations) == 461
        assert cover.cache_info().misses == misses
    section = _euler_section(atlas)
    assert section.checked == 461 and not section.violations


def test_euler_data_are_the_distinct_shared_data_of_the_candidates():
    # 201 distinct (case, alpha, beta) among the 461 candidates share 45 covers: 44 of Node (1)
    # and the Node (*) datum.
    atlas = _fresh_atlas()
    lists = [candidate_isotopy_types(c, True) for c in atlas.all_classes(Family.S311)]
    data, count = atlas._s.euler
    assert data == tuple(dict.fromkeys(topology._shared_datum(*t.triple) for ts in lists for t in ts))
    assert (len(data), count) == (45, 461) and count == sum(map(len, lists))
    assert len({t.triple for ts in lists for t in ts}) == 201
    assert {case for case, _, _ in data} == {TopCase.NODE1, TopCase.NODE_STAR}
    assert atlas._s.euler is atlas._s.euler


def _partners_are_lookups(atlas):
    for family in Family:
        members = atlas.all_classes(family)
        partners = atlas._partners[family]
        assert len(partners) == len(members)
        assert all(p is atlas.lookup(family, *related_key(c)) for c, p in zip(members, partners))


def test_kept_partners_hide_no_damage():
    records = load_atlas().to_records(Family.S311) + load_atlas().to_records(Family.U)
    dropped = Atlas.from_records(
        [rec for rec in records if (rec["family"], rec["index"]) != ("s311", "No.17")]
    )
    missing = ["No.17': related invariants (7, 7, 1) missing from s311"]
    first = validate_atlas(dropped)
    assert [v for v in first.violations if "missing from" in v] == missing
    assert validate_atlas(dropped) == first
    summary = validation.run_all_checks(dropped)
    assert [v for v in summary.violations if "missing from" in v] == missing
    assert validation.run_all_checks(dropped) == summary
    _partners_are_lookups(dropped)

    duplicated = Atlas.from_records(records + records[:1])
    line = "s311: duplicate invariants (1, 1, 0) (H=Z2) (No.50' and No.50')"
    for _ in range(2):
        violations = validate_atlas(duplicated).violations
        assert line in violations and not any("missing from" in v for v in violations)
        assert validation.run_all_checks(duplicated).violations == violations
    _partners_are_lookups(duplicated)
    _partners_are_lookups(_fresh_atlas())


def _edited_records(family: str, index: str, fields: dict) -> list[dict]:
    # The exported catalogs with one class's fields edited, or the class dropped for no fields.
    records = load_atlas().to_records(Family.S311) + load_atlas().to_records(Family.U)
    at = next(n for n, rec in enumerate(records) if (rec["family"], rec["index"]) == (family, index))
    return records[:at] + ([{**records[at], **fields}] if fields else []) + records[at + 1:]


@pytest.mark.parametrize(
    "family, index, fields, expected, ending",
    [
        (
            "s311", "No.17", {},
            [
                "No.17': related invariants (7, 7, 1) missing from s311",
                "grid cell (7, 7, 1) (H=0) has no catalog row",
                "expected 102 classes, found 101",
                "expected a 51 + 51 split across the H invariant",
                "expected 51 classes after identifying related pairs",
            ],
            "101/50, 63/37, 5 violations",
        ),
        (
            "s311", "No.2", {"h": "Z2"},
            [
                "No.2: related invariants (17, -1, 0) missing from s311",
                "No.2': related invariants (2, 0, 0) missing from s311",
                "grid cell (2, 0, 0) (H=0) has no catalog row",
                "catalog row (2, 0, 0) (H=Z2) is not a grid cell",
                "expected a 51 + 51 split across the H invariant",
            ],
            "102/51, 63/37, 5 violations",
        ),
        (
            "u", "No.17", {},
            [
                "No.17': related invariants (7, 7, 1) missing from u",
                "expected 63 classes, found 62",
                "expected a 14 / 49 delta split",
                "expected 37 classes after identifying related pairs",
            ],
            "102/51, 62/36, 4 violations",
        ),
        (
            "u", "No.17", {"delta": 0},
            [
                "No.17: related invariants (13, 7, 0) missing from u",
                "No.17': related invariants (7, 7, 1) missing from u",
                "expected a 14 / 49 delta split",
            ],
            "102/51, 63/37, 3 violations",
        ),
        (
            "u", "No.27", {},
            [
                "u: 10 self-related classes, expected 11",
                "expected 63 classes, found 62",
                "expected a 14 / 49 delta split",
                "expected 37 classes after identifying related pairs",
            ],
            "102/51, 62/36, 4 violations",
        ),
    ],
    ids=[
        "s311 class dropped", "s311 H flipped", "u class dropped", "u delta flipped",
        "self-related u class dropped",
    ],
)
def test_each_count_of_the_catalog_audit_is_worded_on_every_call(family, index, fields, expected, ending):
    atlas = Atlas.from_records(_edited_records(family, index, fields))
    for _ in range(2):  # a first call, then a warm one on the same atlas
        summary = validation.run_all_checks(atlas)
        assert summary.violations == expected
        assert summary.summary_line() == f"{ending}, 0 whitelisted discrepancies"


@pytest.mark.parametrize(
    "table, edit, expected",
    [
        (
            "GRID_H0", lambda grid: {**grid, (10, 8): (1,)},
            ["catalog row (10, 8, 0) (H=0) is not a grid cell"],
        ),
        (
            "GRID_H0", lambda grid: {**grid, (9, 9): (0, 1)},
            ["grid cell (9, 9, 0) (H=0) has no catalog row"],
        ),
        (
            "MOVES_UNPRIMED",
            lambda rows: tuple(row._replace(k=2) if row.index == "No.5" else row for row in rows),
            ["degeneration tables: unprimed row No.5: head columns mismatch"],
        ),
        (
            "MOVES_UNPRIMED",
            lambda rows: tuple(row._replace(conj1=(0, 0)) if row.index == "No.5" else row for row in rows),
            ["degeneration tables: row No.5 conj1: derived (1, 7), shipped (0, 0)"],
        ),
    ],
    ids=["grid cell dropped", "grid cell added", "move-table head", "move-table cell"],
)
def test_whole_comparisons_hide_no_damage(monkeypatch, table, edit, expected):
    # The kept grid and flat rows are compared whole with the tables read at call time.
    warm, fresh = load_atlas(), _fresh_atlas()  # built before the table is edited
    assert validation.run_all_checks(warm).ok
    monkeypatch.setattr(tables, table, edit(getattr(tables, table)))
    first = validation.run_all_checks(fresh).violations
    assert first == expected
    assert validation.run_all_checks(warm).violations == first
    assert validation.run_all_checks(fresh).violations == first


def test_a_move_table_of_another_length_is_worded_by_its_row_count(monkeypatch):
    # A side whose row count differs is one check, worded by the two counts; its rows are not
    # compared, so its whitelisted cell is not read either.
    atlas = load_atlas()
    assert validation.run_all_checks(atlas).ok

    def reported() -> tuple:
        summary = validation.run_all_checks(atlas)
        assert validation.run_all_checks(atlas) == summary
        section = next(s for s in summary.sections if s.name == "degeneration tables")
        return summary.violations, section.checked, summary.whitelisted

    primed = "degeneration tables: primed table has 50 rows, shipped 49"
    monkeypatch.setattr(tables, "MOVES_PRIMED", tables.MOVES_PRIMED[:-1])
    assert reported() == ([primed], 2 + 50, [])  # the star rows and the unprimed rows
    monkeypatch.setattr(tables, "MOVES_UNPRIMED", tables.MOVES_UNPRIMED[1:])
    assert reported() == (["degeneration tables: unprimed table has 50 rows, shipped 49", primed], 2, [])


def _reported(atlas, name: str) -> tuple[list[str], int]:
    # run_all_checks's violations, the same on a second call, and the checks of section ``name``
    summary = validation.run_all_checks(atlas)
    assert validation.run_all_checks(atlas) == summary
    return summary.violations, next(s for s in summary.sections if s.name == name).checked


def test_a_damaged_star_row_is_one_star_table_mismatch(monkeypatch):
    # The two star rows are compared as one table, worded by one message.
    atlas = load_atlas()
    assert validation.run_all_checks(atlas).ok
    star = tables.MOVES_STAR
    monkeypatch.setattr(tables, "MOVES_STAR", (star[0]._replace(result="Node (1)"),) + star[1:])
    assert _reported(atlas, "degeneration tables") == (["degeneration tables: star table mismatch"], 102)


def test_an_excluded_triple_with_case_candidates_is_named(monkeypatch):
    # The excluded triples are read at call time; the passes were derived before the patch, so
    # only the exclusions section sees (2, 2, 0), whose H = 0 class No.3 has case I/II candidates.
    atlas = load_atlas()
    assert validation.run_all_checks(atlas).ok
    monkeypatch.setattr(tables, "U_EXCLUDED_TRIPLES", tables.U_EXCLUDED_TRIPLES + ((2, 2, 0),))
    expected = ["exclusions: No.3: case I/II candidates emitted for excluded invariants"]
    assert _reported(atlas, "exclusions") == (expected, 2)


def test_a_graph_without_its_last_node_is_worded_by_its_node_count(monkeypatch):
    # The last node is a U class, so every S311 class keeps its in-degree.
    derive = degenerations._derive_graph

    def without_last_node(atlas, edges):
        graph = derive(atlas, edges)
        return degenerations.TransitionGraph(graph.nodes[:-1], graph.edges)

    monkeypatch.setattr(degenerations, "_derive_graph", without_last_node)
    expected = ["transition graph: 164 nodes, expected 63 + 102"]
    assert _reported(_fresh_atlas(), "transition graph") == (expected, 105)


def test_a_damaged_whitelisted_cell_is_a_violation_on_every_call(monkeypatch):
    # The whitelist names No.16' contr3p as shipped (1, 2) and derived (1, 3); a line is
    # whitelisted only while both still hold, on a first and on a warm call alike.
    apply = degenerations.apply_degeneration
    key = load_atlas().lookup_index(Family.U, "No.16'").key  # No.43, labelled No.16' on that side

    def one_oval_more(c, m, atlas=None):
        outcome = apply(c, m, atlas)
        if (c.key, m) != (key, Degeneration.CONTR3P):
            return outcome
        return outcome._replace(iso=outcome.iso._replace(alpha=outcome.iso.alpha + 1))

    with monkeypatch.context() as patch:
        patch.setattr(degenerations, "apply_degeneration", one_oval_more)
        atlas = _fresh_atlas()
        for _ in range(2):
            summary = validation.run_all_checks(atlas)
            assert summary.whitelisted == [] and summary.violations == [
                "degeneration tables: row No.16' contr3p: derived (2, 3), shipped (1, 2)",
                "oval-count monotonicity: No.43 contr3p: oval count dropped by 0",
                "correspondence: No.16' contr3p: produced (2, 3), candidate is (1, 3)",
            ]
    warm, fresh = _fresh_atlas(), _fresh_atlas()
    for _ in range(2):  # undamaged, on a first and a warm call
        summary = validation.run_all_checks(warm)
        assert summary.ok and summary.whitelisted == [
            "degeneration tables: row No.16' contr3p: shipped (1, 2), derived (1, 3)"
        ]
    rows = tuple(row._replace(contr3=(0, 3)) if row.index == "No.16'" else row for row in tables.MOVES_PRIMED)
    monkeypatch.setattr(tables, "MOVES_PRIMED", rows)
    for atlas in (warm, warm, fresh, fresh):
        summary = validation.run_all_checks(atlas)
        assert summary.whitelisted == []
        assert summary.violations == ["degeneration tables: row No.16' contr3p: derived (1, 3), shipped (0, 3)"]


_NO5_CONJ1 = "degeneration tables: row No.5 conj1: "
_NO16P_LINE = "degeneration tables: row No.16' contr3p: shipped (1, 2), derived (1, 3)"


@pytest.mark.parametrize(
    "entry, whitelisted, violations, ending",
    [
        (
            ("No.5", "conj1", (0, 0), (1, 7)), [_NO5_CONJ1 + "shipped (0, 0), derived (1, 7)", _NO16P_LINE],
            [], "correspondence OK, 2 whitelisted discrepancies",
        ),
        (
            None, [_NO16P_LINE],
            [_NO5_CONJ1 + "derived (1, 7), shipped (0, 0)"], "1 violation, 1 whitelisted discrepancy",
        ),
        (
            ("No.5", "conj1", (0, 0), (1, 6)), [_NO16P_LINE],
            [_NO5_CONJ1 + "derived (1, 7), shipped (0, 0)"], "1 violation, 1 whitelisted discrepancy",
        ),
    ],
    ids=["matching entry", "no entry", "entry with another derived cell"],
)
def test_a_differing_cell_is_whitelisted_only_by_its_exact_entry(
    monkeypatch, entry, whitelisted, violations, ending
):
    # No.5 conj1 is shipped as (0, 0) and derives (1, 7): the cell is whitelisted only when
    # (index, move, shipped, derived) is an entry, in row order, the unprimed side first.
    warm, fresh = load_atlas(), _fresh_atlas()  # built before the tables are edited
    assert validation.run_all_checks(warm).ok
    rows = tuple(row._replace(conj1=(0, 0)) if row.index == "No.5" else row for row in tables.MOVES_UNPRIMED)
    monkeypatch.setattr(tables, "MOVES_UNPRIMED", rows)
    if entry is not None:
        monkeypatch.setattr(tables, "WHITELISTED_CELLS", (entry,) + tables.WHITELISTED_CELLS)
    for atlas in (fresh, fresh, warm):  # a first call, then warm ones
        summary = validation.run_all_checks(atlas)
        assert (summary.whitelisted, summary.violations) == (whitelisted, violations)
        assert summary.summary_line() == "102/51, 63/37, " + ending


def test_a_cell_that_derives_its_shipped_value_is_no_move_table_line(monkeypatch):
    # Were No.16' contr3p to derive its shipped (1, 2), the move tables would agree and name
    # no cell; the whitelist allows a difference and asks for none.  The correspondence fails.
    apply = degenerations.apply_degeneration
    key = load_atlas().lookup_index(Family.U, "No.16'").key

    def one_oval_less(c, m, atlas=None):
        outcome = apply(c, m, atlas)
        if (c.key, m) != (key, Degeneration.CONTR3P):
            return outcome
        return outcome._replace(iso=outcome.iso._replace(beta=outcome.iso.beta - 1))

    monkeypatch.setattr(degenerations, "apply_degeneration", one_oval_less)
    atlas = _fresh_atlas()
    for _ in range(2):  # a first and a warm call
        summary = validation.run_all_checks(atlas)
        assert summary.whitelisted == [] and summary.violations == [
            "oval-count monotonicity: No.43 contr3p: oval count dropped by 2",
            "correspondence: No.16' contr3p: produced (1, 2), candidate is (1, 3)",
        ]
        assert summary.summary_line() == "102/51, 63/37, 2 violations, 0 whitelisted discrepancies"


def test_missing_correspondence_class_is_reported_on_every_call():
    # "²" is no decimal digit, so the U class No.1 is missing under its label.
    records = [
        dict(rec, index="No.1²") if rec["index"] == "No.1" else rec
        for rec in load_atlas().to_records(Family.U)
    ]
    atlas = Atlas.from_records(load_atlas().to_records(Family.S311) + records)
    message = "correspondence: No.1: missing from one of the catalogs"
    cold = validation.run_all_checks(atlas).violations
    warm = validation.run_all_checks(atlas).violations
    assert message in cold and warm == cold
    # a missing class never matches, so the pairs are walked on every call
    u, s = degenerations._read(atlas), atlas._s
    assert (u.pairs[0], s.pairs[0][1][0]) == (None, atlas.lookup_index(Family.S311, "No.1"))


def test_a_class_missing_from_the_u_catalog_is_named_for_its_pair_and_its_move():
    # The U class (11, 9, 1) is No.26' and the source of conj4p: its pair and its
    # self-conjunction are each reported missing, on a first and a warm call.
    records = [
        rec for family in Family for rec in load_atlas().to_records(family)
        if (family, rec["r"], rec["a"], rec["delta"]) != (Family.U, 11, 9, 1)
    ]
    atlas = Atlas.from_records(records)
    expected = ["No.26': missing from one of the catalogs", "(11, 9, 1): missing from the catalog"]
    for _ in range(2):
        assert degenerations.correspondence_check(atlas).violations == expected


def test_an_outcome_without_its_candidate_is_named_on_every_call(monkeypatch):
    # No.5 loses its Node (2) candidate (1, 6), which conj2 of the U class No.5 produces.
    candidates = degenerations.candidate_isotopy_types
    key = load_atlas().lookup_index(Family.S311, "No.5").key

    def without_node2(c, include_degenerate=False):
        out = candidates(c, include_degenerate)
        return [t for t in out if c.key != key or t.case is not TopCase.NODE2]

    monkeypatch.setattr(degenerations, "candidate_isotopy_types", without_node2)
    atlas = _fresh_atlas()
    for _ in range(2):
        assert degenerations.correspondence_check(atlas).violations == [
            "No.5 conj2: produced (1, 6), but Node (2) is not a candidate of No.5"
        ]


def test_warm_call_stays_under_its_call_budget():
    # 77 calls on CPython 3.10.13 and 3.11.7, 73 on 3.12.1 and 3.13.0, under either hash
    # seed (82 and 77 while equal derived and shipped rows were distinct objects; 172 and 167
    # while the Euler section called double_cover_euler_check per datum).  The budget is the highest count
    # plus under 3%.  Counted from cProfile's entries, as the cold call is.
    atlas = load_atlas()
    validation.run_all_checks(atlas)
    profile = cProfile.Profile()
    profile.runcall(validation.run_all_checks, atlas)
    assert sum(entry.callcount for entry in profile.getstats()) <= 79


def test_warm_call_reads_the_cover_memo_once_per_euler_triple():
    # The memo is C-level, so cProfile's counts above do not see it: its own counters do.
    atlas = load_atlas()
    validation.run_all_checks(atlas)
    before = topology._cover.cache_info()
    validation.run_all_checks(atlas)
    after = topology._cover.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (45, 0)


_SHIPPED_CELL_TABLES = ("ISOTOPY_H0", "ISOTOPY_Z2", "MOVES_UNPRIMED", "MOVES_PRIMED")


def test_every_cell_is_the_shared_object_for_its_value():
    # A performance gate: the whole-table comparisons of the isotopy, move-table and
    # correspondence sections stop at ``is`` for each equal cell only while every cell, shipped
    # or derived, is the one shared tuple of its value.
    atlas = _fresh_atlas()
    assert validation.run_all_checks(atlas).ok
    u, s = degenerations._read(atlas), atlas._s
    groups = [row[6:9] for name in _SHIPPED_CELL_TABLES for row in getattr(tables, name)]
    groups += [row[6:] for rows in u.flat for row in rows]
    groups += [row[6:9] for rows in s.rows.values() for row in rows.values()]
    groups += [pair[0] for pair in u.pairs + s.pairs if pair]
    cells = [cell for group in groups for cell in group if cell is not None]
    # 280 isotopy cells, shipped and derived, 278 move cells, shipped and derived, and 278 in
    # the pairs of each pass
    assert len(cells) == 2 * 280 + 4 * 278
    assert all(type(cell) is tuple and cell is tables._CELLS[cell[0]][cell[1]] for cell in cells)


def _with_fresh_cells(row):
    # the row again, each pair a new tuple equal to the shared one
    return row._replace(**{f: tuple(list(v)) for f, v in row._asdict().items() if type(v) is tuple})


def test_tables_of_fresh_equal_cells_are_compared_by_value(monkeypatch):
    atlas = load_atlas()
    expected = validation.run_all_checks(atlas)
    assert expected.ok
    fresh = {name: tuple(map(_with_fresh_cells, getattr(tables, name))) for name in _SHIPPED_CELL_TABLES}
    assert fresh["MOVES_PRIMED"][0].conj1 is not tables.MOVES_PRIMED[0].conj1
    for name, rows in fresh.items():
        monkeypatch.setattr(tables, name, rows)
    assert validation.run_all_checks(atlas) == expected
    # one changed cell per table is still found, and worded as for shared cells
    for name, index, field, cell in (
        ("ISOTOPY_H0", "No.17", "node1", (1, 2)),
        ("ISOTOPY_Z2", "No.17'", "node2", (0, 2)),
        ("MOVES_UNPRIMED", "No.5", "conj1", (0, 0)),
        ("MOVES_PRIMED", "No.5'", "contr3", (1, 6)),
    ):
        edited = tuple(row._replace(**{field: cell}) if row.index == index else row for row in fresh[name])
        monkeypatch.setattr(tables, name, edited)
        assert validation.run_all_checks(atlas).violations == [
            {
                "ISOTOPY_H0": "isotopy tables: row No.17 Node (1): generated (0, 2), shipped (1, 2)",
                "ISOTOPY_Z2": "isotopy tables: row No.17' Node (2): generated (0, 1), shipped (0, 2)",
                "MOVES_UNPRIMED": "degeneration tables: row No.5 conj1: derived (1, 7), shipped (0, 0)",
                "MOVES_PRIMED": "degeneration tables: row No.5' contr3p: derived (1, 7), shipped (1, 6)",
            }[name]
        ]
        monkeypatch.setattr(tables, name, fresh[name])
    assert validation.run_all_checks(atlas) == expected


_SHIPPED_ROW_TABLES = _SHIPPED_CELL_TABLES + ("MOVES_STAR",)


def test_tables_and_grids_of_fresh_equal_rows_are_compared_by_value(monkeypatch):
    expected = validation.run_all_checks(load_atlas())
    assert expected.ok
    atlas = _fresh_atlas()  # built, like the warm one, before the tables are replaced
    fresh = {name: tuple(map(_with_fresh_cells, getattr(tables, name))) for name in _SHIPPED_ROW_TABLES}
    fresh.update(GRID_H0=dict(tables.GRID_H0), GRID_Z2=dict(tables.GRID_Z2))
    assert fresh["MOVES_STAR"][0] is not tables.MOVES_STAR[0]
    for name, value in fresh.items():
        monkeypatch.setattr(tables, name, value)
    for summary in (validation.run_all_checks(atlas), validation.run_all_checks(atlas)):
        assert summary == expected  # a first call, then a warm one
    assert validation.run_all_checks(load_atlas()) == expected
    # a changed star row and a changed grid cell are still found, and worded as for shared ones
    star = fresh["MOVES_STAR"]
    monkeypatch.setattr(tables, "MOVES_STAR", (star[0]._replace(result="Node (1)"),) + star[1:])
    assert validation.run_all_checks(atlas).violations == ["degeneration tables: star table mismatch"]
    monkeypatch.setattr(tables, "MOVES_STAR", star)
    fresh["GRID_H0"][(9, 9)] = (0,)
    assert validation.run_all_checks(atlas).violations == [
        "grid cell (9, 9, 0) (H=0) has no catalog row",
        "catalog row (9, 9, 1) (H=0) is not a grid cell",
    ]
    fresh["GRID_H0"][(9, 9)] = (1,)
    assert validation.run_all_checks(atlas) == expected


def _exported_atlas() -> Atlas:
    # The embedded catalogs through their JSON export: every index is a new str.
    records = [rec for family in Family for rec in load_atlas().to_records(family)]
    return Atlas.from_records(json.loads(json.dumps(records)))


@pytest.mark.parametrize("build", [_fresh_atlas, _exported_atlas], ids=["embedded", "exported"])
def test_every_equal_row_is_the_shipped_object(build):
    # A performance gate: the whole-table comparisons of the isotopy and move-table sections and
    # the catalog audit's grid comparison stop at ``is`` only while every derived row and grid
    # equal to a shipped one is that object.
    atlas = build()
    assert validation.run_all_checks(atlas).ok
    u, s = degenerations._read(atlas), atlas._s
    for rows, total, shared in (
        ([row for rows in u.flat for row in rows], 100, 99),  # all but No.16', whose contr3p differs
        (u.star_flat, 2, 2),
        ([row for rows in s.rows.values() for row in rows.values()], 102, 102),
    ):
        assert (len(rows), sum(tables._SHARED.get(row) is row for row in rows)) == (total, shared)
    assert atlas._grid == {HInvariant.ZERO: tables.GRID_H0, HInvariant.Z2: tables.GRID_Z2}
    assert atlas._grid[HInvariant.ZERO] is tables.GRID_H0 and atlas._grid[HInvariant.Z2] is tables.GRID_Z2


@functools.cache
def _cold_call_counts() -> tuple[tuple[int, int], ...]:
    # For PYTHONHASHSEED 0 and 1, a fresh interpreter's first run_all_checks on a loaded atlas:
    # its summed cProfile entries and its SurfaceDescriptor.__new__ calls.
    script = (
        "import cProfile, sys\n"
        "from k3atlas import load_atlas, run_all_checks\n"
        "atlas = load_atlas()\n"
        "profile = cProfile.Profile()\n"
        "assert profile.runcall(run_all_checks, atlas).ok\n"
        "new = sys.modules['k3atlas.topology'].SurfaceDescriptor.__new__.__code__\n"
        "stats = profile.getstats()\n"
        "print(sum(e.callcount for e in stats), sum(e.callcount for e in stats if e.code is new))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "ATLAS_DATA_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    counts = []
    for seed in ("0", "1"):  # the counts depend on no hash seed
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(env, PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=60, check=True,
        )
        counts.append(tuple(map(int, done.stdout.split())))
    return tuple(counts)


def test_cold_call_stays_under_its_call_budget():
    # The first call on a loaded atlas runs both family passes and builds the descriptors:
    # 13,332 calls on CPython 3.10.13, 13,338 on 3.11.7 and 12,431 on 3.12.1 and 3.13.0,
    # under either hash seed.  The budget was set at the highest count then, 13,422 on 3.11.7,
    # plus under 3%.  Counted from cProfile's entries, not pstats', which keeps one entry per
    # (file, line, name): which NamedTuple method it keeps varies between runs.
    (first, _), (second, _) = _cold_call_counts()
    assert first == second <= 13_800


def test_cold_call_builds_the_node1_and_star_descriptors_only():
    # 44 Node (1) data and the Node (*) datum, two real parts each, on CPython 3.10 to 3.13
    # (402 while every case built its own).
    assert [built for _, built in _cold_call_counts()] == [90, 90]


def _calls_to(code, func, *args) -> int:
    profile = cProfile.Profile()
    profile.runcall(func, *args)
    return sum(entry.callcount for entry in profile.getstats() if entry.code is code)


def test_warm_call_checks_oval_data_once_per_euler_triple():
    # The roundtrips read IsotopyType candidates, checked when they were built, and the Euler
    # section the shared data of those candidates: no oval datum is checked again.
    atlas = load_atlas()
    validation.run_all_checks(atlas)
    code = topology._check_oval_bounds.__code__
    assert _calls_to(code, validation.run_all_checks, atlas) == 0


def test_warm_call_hashes_no_class():
    # The generated InvolutionClass.__hash__ is a Python-level function;
    # the per-call maps key on the classes' plain tuples instead.
    atlas = load_atlas()
    code = InvolutionClass.__hash__.__code__
    assert _calls_to(code, hash, atlas.all_classes(Family.U)[0]) == 1
    validation.run_all_checks(atlas)
    assert _calls_to(code, validation.run_all_checks, atlas) == 0


def _count_outcomes(monkeypatch) -> list:
    pairs = []
    apply = degenerations.apply_degeneration

    def counting_apply(c, move, atlas=None):
        pairs.append((c, move))
        return apply(c, move, atlas)

    monkeypatch.setattr(degenerations, "apply_degeneration", counting_apply)
    return pairs


def test_each_public_call_derives_only_what_it_reads(monkeypatch):
    pairs = _count_outcomes(monkeypatch)
    lists = []
    candidates = degenerations.candidate_isotopy_types

    def counting_candidates(c, include_degenerate=False):
        lists.append(c)
        return candidates(c, include_degenerate)

    monkeypatch.setattr(degenerations, "candidate_isotopy_types", counting_candidates)
    # Each first call runs on an atlas of its own; a repeat derives nothing.  Any table or
    # the graph derives the U family's 368 outcomes at once, and no candidate list.
    for side in TableSide:
        atlas = _fresh_atlas()
        del pairs[:]
        degenerations.degeneration_table(side, atlas)
        assert len(pairs) == len(set(pairs)) == 368
        for other in TableSide:
            degenerations.degeneration_table(other, atlas)
        degenerations.transition_graph(atlas)
        assert len(pairs) == 368
    assert not lists
    atlas = _fresh_atlas()
    del pairs[:]
    degenerations.transition_graph(atlas)
    assert len(pairs) == len(set(pairs)) == 368
    assert degenerations.transition_graph(atlas) is degenerations.transition_graph(atlas)
    assert len(pairs) == 368 and not lists
    atlas = _fresh_atlas()
    del pairs[:]
    assert degenerations.correspondence_check(atlas).ok
    # both families: the U family's 368 outcomes and the 102 candidate lists
    assert len(pairs) == len(set(pairs)) == 368
    assert lists == list(atlas.all_classes(Family.S311))
    assert degenerations.correspondence_check(atlas).ok
    assert len(pairs) == 368 and len(lists) == 102


def test_one_derivation_shares_its_outcomes(monkeypatch):
    # One atlas derives its U pass once for the tables and the graph; two fresh atlases of the
    # same records derive it once each.
    pairs = _count_outcomes(monkeypatch)
    atlas = _fresh_atlas()
    for side in TableSide:
        degenerations.degeneration_table(side, atlas)
    degenerations.transition_graph(atlas)
    assert len(pairs) == len(set(pairs)) == 368
    del pairs[:]
    for atlas in (_fresh_atlas(), _fresh_atlas()):
        for side in TableSide:
            degenerations.degeneration_table(side, atlas)
        degenerations.transition_graph(atlas)
    assert len(pairs) == 2 * 368 and len(set(pairs)) == 368


class _Pass(types.SimpleNamespace):
    """A family pass that a weak reference can follow."""


def test_each_atlas_keeps_one_derivation_for_its_lifetime(tmp_path, monkeypatch):
    monkeypatch.setattr(degenerations, "SimpleNamespace", _Pass)
    for family, name in ((Family.S311, "s311.json"), (Family.U, "u.json")):
        (tmp_path / name).write_text(json.dumps(load_atlas().to_records(family)))
    monkeypatch.setattr(atlas_module, "_PARSED", ((), None))
    atlas = load_atlas(str(tmp_path))
    assert validation.run_all_checks(atlas).ok
    kept = atlas._pass
    assert kept is atlas._pass and degenerations._read(atlas) is kept
    assert kept.graph.nodes == atlas.all_classes(Family.S311) + atlas.all_classes(Family.U)
    assert degenerations.transition_graph(atlas) is kept.graph
    # no atlas given reads the pass that load_atlas()'s atlas keeps
    assert degenerations.transition_graph(None) is load_atlas()._pass.graph
    refs = weakref.ref(atlas), weakref.ref(kept), weakref.ref(atlas._s)
    del atlas, kept
    # another content pushes the atlas out of the parse cache
    (tmp_path / "u.json").write_text((tmp_path / "u.json").read_text() + " ")
    load_atlas(str(tmp_path))
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_shared_derivation_hands_out_nothing_mutable():
    atlas = _fresh_atlas()
    rows = degenerations.degeneration_table(TableSide.UNPRIMED, atlas)
    expected = list(rows)
    rows[0] = None
    del rows[1:]
    assert degenerations.degeneration_table(TableSide.UNPRIMED, atlas) == expected
    graph = degenerations.transition_graph(atlas)
    assert type(graph.nodes) is type(graph.edges) is tuple
    # what the checks compare against is read-only: tuples, a read-only map, and dicts of tuples
    u, s = degenerations._read(atlas), atlas._s
    kept_data = (u.oval_data, s.roundtrip_data, s.euler, s.shipped, atlas._ra)
    for kept in (u.flat, u.pairs, s.pairs, graph.in_degree, *kept_data):
        key = next(iter(kept.keys() if hasattr(kept, "keys") else range(len(kept))))
        with pytest.raises(TypeError):
            kept[key] = ()
        with pytest.raises(TypeError):
            del kept[key]
    carriers = (*u.oval_data[0].values(), *s.roundtrip_data[0].values())
    values = (*u.rows.values(), *s.full.values(), *carriers, *(c for cs in carriers for c in cs))
    assert type(u.stars) is tuple and all(type(v) is tuple for v in values)


def _first_calls(atlas, turn: int) -> list:
    calls = [
        lambda: validation.run_all_checks(atlas),
        lambda: degenerations.transition_graph(atlas),
        *(lambda side=side: degenerations.degeneration_table(side, atlas) for side in TableSide),
    ]
    # Each thread starts with a different call, so each path can come first.
    out = [None] * len(calls)
    for i in range(len(calls)):
        j = (i + turn) % len(calls)
        out[j] = calls[j]()
    return out


def test_threads_making_the_first_calls_agree_with_serial_calls():
    serial = _first_calls(_fresh_atlas(), 0)
    assert serial[0].ok
    atlas = _fresh_atlas()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(turn):
        barrier.wait()
        results[turn] = _first_calls(atlas, turn)

    threads = [threading.Thread(target=work, args=(turn,)) for turn in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the first derivations
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * 4
