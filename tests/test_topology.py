import ast
import copy
import itertools
import pickle
from pathlib import Path

import pytest

from k3atlas import tables, topology
from k3atlas.atlas import (
    Atlas,
    Family,
    HInvariant,
    InvolutionClass,
    gk_invariants,
    load_atlas,
    related_key,
)
from k3atlas.degenerations import TABLE_MOVES
from k3atlas.divisors import Surface, anti_bicanonical, arithmetic_genus, f4_class
from k3atlas.errors import InconsistentInput, WrongFamily
from k3atlas.topology import (
    Cover,
    IsotopyType,
    PieceKind,
    Region,
    RegionDescriptor,
    RegionPiece,
    SurfaceDescriptor,
    TopCase,
    candidate_isotopy_types,
    closed_surface,
    double_cover_euler_check,
    invariants_from_isotopy,
    real_part_topology,
    region_descriptor,
)


@pytest.fixture(scope="module")
def atlas():
    return load_atlas()


GROUP_II = (TopCase.NODE2, TopCase.CUSP2)


def triples(candidates):
    return [(t.case, t.alpha, t.beta) for t in candidates]


def test_candidates_no1(atlas):
    c = atlas.lookup_index(Family.S311, "No.1")
    assert triples(candidate_isotopy_types(c)) == [
        (TopCase.NODE1, 0, 8),
        (TopCase.ISOLATED, 0, 8),
        (TopCase.NODE2, 0, 7),
    ]


def test_candidates_no26_drops_node2(atlas):
    c = atlas.lookup_index(Family.S311, "No.26")
    assert triples(candidate_isotopy_types(c)) == [
        (TopCase.NODE1, 0, 0),
        (TopCase.ISOLATED, 0, 0),
    ]


def test_candidates_no11_prime(atlas):
    c = atlas.lookup_index(Family.S311, "No.11'")
    assert c.triple == (13, 3, 0)
    assert triples(candidate_isotopy_types(c)) == [
        (TopCase.NODE1, 2, 5),
        (TopCase.ISOLATED, 2, 5),
        (TopCase.NODE2, 2, 4),
    ]


def test_candidates_star_class(atlas):
    c = atlas.lookup(Family.S311, 10, 8, 0, HInvariant.ZERO)
    cands = candidate_isotopy_types(c)
    assert triples(cands) == [(TopCase.NODE_STAR, 0, 0)]
    assert str(real_part_topology(c, cands[0], Cover.PHI)) == "T^2 u T^2"
    assert str(real_part_topology(c, cands[0], Cover.RELATED_PHI)) == "Sigma_2"


def test_candidates_conjectured_annotation(atlas):
    c = atlas.lookup(Family.S311, 9, 9, 0, HInvariant.Z2)
    cands = candidate_isotopy_types(c)
    assert triples(cands) == [
        (TopCase.NODE1, 1, 0),
        (TopCase.ISOLATED, 1, 0),
        (TopCase.NODE_STAR, 0, 0),
    ]
    flags = {t.case: t.conjectured_nonrealizable for t in cands}
    assert flags[TopCase.NODE1] and flags[TopCase.ISOLATED]
    assert not flags[TopCase.NODE_STAR]
    star = cands[-1]
    assert str(real_part_topology(c, star, Cover.PHI)) == "Sigma_2"
    assert str(real_part_topology(c, star, Cover.RELATED_PHI)) == "T^2 u T^2"
    # No other class carries the annotation.
    for other in atlas.all_classes(Family.S311):
        if other is c:
            continue
        assert not any(t.conjectured_nonrealizable for t in candidate_isotopy_types(other))


def test_candidates_wrong_family(atlas):
    with pytest.raises(WrongFamily):
        candidate_isotopy_types(atlas.lookup_index(Family.U, "No.1"))


def test_real_part_wrong_family(atlas):
    c = atlas.lookup_index(Family.U, "No.1")
    with pytest.raises(WrongFamily, match=r"^real-part types are defined for the 102-class family$"):
        real_part_topology(c, IsotopyType(TopCase.NODE1, 0, 8))


def test_include_degenerate_cusps(atlas):
    c = atlas.lookup_index(Family.S311, "No.17")
    cands = candidate_isotopy_types(c, include_degenerate=True)
    flagged = {t.case: t for t in cands if not t.table_data}
    assert set(flagged) == {TopCase.CUSP1, TopCase.CUSP2}
    assert (flagged[TopCase.CUSP1].alpha, flagged[TopCase.CUSP1].beta) == (0, 2)
    assert (flagged[TopCase.CUSP2].alpha, flagged[TopCase.CUSP2].beta) == (0, 1)
    # Cusp variants never appear in the default listing.
    assert all(t.table_data for t in candidate_isotopy_types(c))


def test_golden_rows_reproduced(atlas):
    for h, rows in ((HInvariant.ZERO, tables.ISOTOPY_H0), (HInvariant.Z2, tables.ISOTOPY_Z2)):
        for row in rows:
            c = atlas.lookup(Family.S311, row.r, row.a, row.delta, h)
            assert gk_invariants(c) == (row.g, row.k)
            cands = {t.case: (t.alpha, t.beta) for t in candidate_isotopy_types(c)}
            assert cands.get(TopCase.NODE1) == row.node1
            assert cands.get(TopCase.ISOLATED) == row.isolated
            assert cands.get(TopCase.NODE2) == row.node2
            assert (TopCase.NODE_STAR in cands) == (row.node_star is not None)


def _is_cell(value) -> bool:
    return value is None or (type(value) is tuple and len(value) == 2 and all(type(v) is int for v in value))


def test_text_tables_give_rows_of_typed_fields():
    # index a str; r, a, delta, g, k ints (no bool); each cell None or a pair of ints;
    # the Node (*) real part None or a str
    for rows in (tables.ISOTOPY_H0, tables.ISOTOPY_Z2, tables.MOVES_UNPRIMED, tables.MOVES_PRIMED):
        assert len(rows) in (50, 51)
        for row in rows:
            assert type(row.index) is str and all(type(v) is int for v in row[1:6]), row
            assert all(map(_is_cell, row[6:9])), row
            assert getattr(row, "node_star", None) is None or type(row.node_star) is str, row
    stars = [(row.index, row.node_star) for row in tables.ISOTOPY_H0 + tables.ISOTOPY_Z2 if row.node_star]
    assert stars == [("special-(10,8,0)", "T^2 u T^2"), ("special-(9,9,0)", "Sigma_2")]


def test_tables_module_stays_cheap_to_compile():
    # Every process without bytecode compiles tables.py: 1,269 AST nodes with the tables as
    # text, 1.4-2.5 ms of compile on CPython 3.11.7; 5,174 and 12.8-13.1 ms when their 203
    # rows were tuple literals.
    tree = ast.parse(Path(tables.__file__).read_text(encoding="utf-8"))
    assert sum(1 for _ in ast.walk(tree)) <= 1_500


def test_isotopy_type_bounds():
    IsotopyType(TopCase.NODE1, 4, 5)
    IsotopyType(TopCase.NODE2, 4, 4)
    with pytest.raises(InconsistentInput):
        IsotopyType(TopCase.NODE1, 5, 5)
    with pytest.raises(InconsistentInput):
        IsotopyType(TopCase.NODE2, 5, 4)
    with pytest.raises(InconsistentInput):
        IsotopyType(TopCase.CUSP2, 9, 0)
    with pytest.raises(InconsistentInput):
        IsotopyType(TopCase.NODE_STAR, 1, 0)
    with pytest.raises(InconsistentInput):
        IsotopyType(TopCase.ISOLATED, -1, 0)


@pytest.mark.parametrize(
    "entry",
    [
        IsotopyType,
        lambda case, alpha, beta: region_descriptor(case, alpha, beta, Region.A_PLUS),
        double_cover_euler_check,
        lambda case, alpha, beta: invariants_from_isotopy(
            case, alpha, beta, Region.A_PLUS
        ),
    ],
    ids=["IsotopyType", "region_descriptor", "double_cover_euler_check", "invariants"],
)
def test_oval_bounds_of_every_entry_point(entry):
    entry(TopCase.NODE1, 4, 5)
    for case, alpha, beta in (
        (TopCase.NODE1, 5, 5),
        (TopCase.NODE2, 5, 4),
        (TopCase.CUSP2, 9, 0),
        (TopCase.ISOLATED, -1, 0),
        (TopCase.CUSP1, 0, -2),
        ("Node (1)", 1, 2),
        (TopCase.NODE1, 1.5, 0),
        (TopCase.NODE1, 1, True),
        (TopCase.NODE1, 1.0, 2.0),
    ):
        with pytest.raises(InconsistentInput):
            entry(case, alpha, beta)


@pytest.mark.parametrize(
    "case,alpha,beta,covered,expected",
    [
        (TopCase.NODE1, 0, 8, Region.A_MINUS, (1, 1, HInvariant.ZERO)),
        (TopCase.NODE2, 0, 7, Region.A_PLUS, (18, 2, HInvariant.Z2)),
        (TopCase.NODE1, 0, 0, Region.A_MINUS, (9, 9, HInvariant.ZERO)),
        (TopCase.ISOLATED, 1, 0, Region.A_PLUS, (9, 9, HInvariant.Z2)),
        (TopCase.CUSP1, 2, 1, Region.A_MINUS, (10, 6, HInvariant.ZERO)),
        (TopCase.CUSP2, 1, 1, Region.A_PLUS, (11, 7, HInvariant.Z2)),
    ],
)
def test_invariants_from_isotopy(case, alpha, beta, covered, expected):
    assert invariants_from_isotopy(case, alpha, beta, covered) == expected


def test_invariants_from_isotopy_rejects_star():
    keys = r"\(10,8,0,H=0\) and \(9,9,0,H=Z2\)$"
    with pytest.raises(InconsistentInput, match=f"carries fixed invariants, {keys}"):
        invariants_from_isotopy(TopCase.NODE_STAR, 0, 0, Region.A_MINUS)


def test_roundtrip_all_candidates(atlas):
    for c in atlas.all_classes(Family.S311):
        covered = Region.A_MINUS if c.h is HInvariant.ZERO else Region.A_PLUS
        for t in candidate_isotopy_types(c, include_degenerate=True):
            if t.case is TopCase.NODE_STAR:
                continue
            assert invariants_from_isotopy(t.case, t.alpha, t.beta, covered) == (
                c.r,
                c.a,
                c.h,
            )


def test_oval_sum_rules(atlas):
    for c in atlas.all_classes(Family.S311):
        if c.h is not HInvariant.ZERO:
            continue
        for t in candidate_isotopy_types(c):
            if t.case is TopCase.NODE_STAR:
                continue
            expected = 8 - c.a if t.case is TopCase.NODE2 else 9 - c.a
            assert t.alpha + t.beta == expected


def test_surface_descriptor_printing():
    assert str(closed_surface(10)) == "Sigma_10"
    assert str(closed_surface(1, 8)) == "T^2 u 8S^2"
    assert str(closed_surface(2, 1)) == "Sigma_2 u S^2"
    assert str(SurfaceDescriptor((1, 1))) == "T^2 u T^2"
    assert str(SurfaceDescriptor(())) == "empty"
    assert closed_surface(10).euler_characteristic == -18
    assert SurfaceDescriptor((1, 1)).euler_characteristic == 0


def test_surface_descriptor_genera():
    assert SurfaceDescriptor((0, 2, 1)).genera == (2, 1, 0)
    assert SurfaceDescriptor([True, 3]).genera == (3, 1)
    with pytest.raises(ValueError):
        SurfaceDescriptor((2, -1))
    with pytest.raises(ValueError):
        SurfaceDescriptor((-3,))


@pytest.mark.parametrize("genus", [1.9, 2.0, "2"])
def test_surface_descriptor_refuses_a_non_integral_genus(genus):
    # Each route that builds a descriptor refuses it, naming the genus,
    # rather than truncating 1.9 to a torus or reading "2" as genus 2.
    surface = SurfaceDescriptor((1, 0))
    for build in (
        lambda: SurfaceDescriptor((genus, True)),
        lambda: surface._replace(genera=(0, genus)),
        lambda: SurfaceDescriptor._make([(genus,)]),
    ):
        with pytest.raises(ValueError, match="each genus must be an integer") as info:
            build()
        assert repr(genus) in str(info.value)


def test_checked_types_validate_every_build():
    # _replace and _make call the class, and so do unpickling and copying at
    # every protocol, so no route builds a value that the constructor rejects.
    iso = IsotopyType(TopCase.NODE1, 4, 5)
    assert iso._replace(alpha=3) == IsotopyType(TopCase.NODE1, 3, 5)
    assert IsotopyType._make(iso) == iso
    with pytest.raises(InconsistentInput):
        iso._replace(alpha=-5)
    with pytest.raises(InconsistentInput):
        IsotopyType._make([TopCase.NODE1, 40, 2, True, False])
    surface = SurfaceDescriptor((2, 0))
    assert surface._replace(genera=(0, 3)).genera == (3, 0)
    assert SurfaceDescriptor._make([(1, 2)]).genera == (2, 1)
    with pytest.raises(ValueError):
        surface._replace(genera=(1, -1))
    with pytest.raises(ValueError):
        SurfaceDescriptor._make([(-2,)])
    for cls, fields, error in (
        (IsotopyType, (TopCase.NODE1, 40, 2, True, False), InconsistentInput),
        (SurfaceDescriptor, ((1, -1),), ValueError),
    ):
        forged = tuple.__new__(cls, fields)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(forged, protocol)
            with pytest.raises(error):
                pickle.loads(data)
        with pytest.raises(error):
            copy.copy(forged)


def test_piece_euler_table():
    # Euler characteristics of the piece kinds, as closed forms in the holes.
    reference = {
        PieceKind.ANNULUS_WITH_HOLES: lambda holes: -holes,
        PieceKind.DISK: lambda holes: 1,
        PieceKind.MOEBIUS_COMPOSITE: lambda holes: -1 - holes,
        PieceKind.PAIR_OF_PANTS: lambda holes: -1,
        PieceKind.ANNULUS: lambda holes: 0,
        PieceKind.MOEBIUS_BAND: lambda holes: 0,
    }
    for kind in PieceKind:
        for holes in range(11):
            piece = RegionPiece(kind, holes)
            assert piece.euler_characteristic == reference[kind](holes), (kind, holes)
            pieces = RegionDescriptor((piece, RegionPiece(PieceKind.DISK)))
            assert pieces.euler_characteristic == reference[kind](holes) + 1


def test_region_descriptors():
    r = region_descriptor(TopCase.NODE1, 3, 2, Region.A_PLUS)
    kinds = [p.kind for p in r.pieces]
    assert kinds == [PieceKind.ANNULUS_WITH_HOLES] + [PieceKind.DISK] * 2
    assert r.pieces[0].holes == 3
    assert r.euler_characteristic == -3 + 2

    r = region_descriptor(TopCase.NODE2, 1, 2, Region.A_MINUS)
    assert r.pieces[0].kind is PieceKind.MOEBIUS_COMPOSITE
    assert r.pieces[0].holes == 3  # beta + 1
    assert [p.kind for p in r.pieces[1:]] == [PieceKind.DISK]
    assert r.euler_characteristic == -4 + 1

    r = region_descriptor(TopCase.NODE_STAR, 0, 0, Region.A_MINUS)
    assert [p.kind for p in r.pieces] == [PieceKind.MOEBIUS_BAND, PieceKind.ANNULUS]
    assert r.euler_characteristic == 0
    r = region_descriptor(TopCase.NODE_STAR, 0, 0, Region.A_PLUS)
    assert [p.kind for p in r.pieces] == [PieceKind.PAIR_OF_PANTS]
    assert r.euler_characteristic == -1

    r = region_descriptor(TopCase.NODE2, 1, 2, Region.A_PLUS)
    assert str(r) == "(annulus with 1 holes) u 3 disks"
    # no disk, one disk (singular) and two disks
    for beta, disks in ((0, ""), (1, " u disk"), (2, " u 2 disks")):
        r = region_descriptor(TopCase.NODE1, 0, beta, Region.A_PLUS)
        assert str(r) == "(annulus with 0 holes)" + disks


def test_double_cover_examples():
    # chi(Sigma_10) = -18 = 2 * chi(Moebius composite with 8 holes)
    assert closed_surface(10).euler_characteristic == -18
    assert region_descriptor(TopCase.NODE1, 0, 8, Region.A_MINUS).euler_characteristic == -9
    assert double_cover_euler_check(TopCase.NODE1, 0, 8)
    # chi(Sigma_2) = -2 = 2 * (-1)
    assert double_cover_euler_check(TopCase.NODE1, 0, 0)
    assert region_descriptor(TopCase.NODE1, 0, 0, Region.A_MINUS).euler_characteristic == -1
    # all pieces of the star case have chi = 0
    assert double_cover_euler_check(TopCase.NODE_STAR, 0, 0)


def test_double_cover_checks_its_oval_data_once(monkeypatch):
    calls = []
    check = topology._check_oval_bounds

    def counting(case, alpha, beta):
        calls.append((case, alpha, beta))
        return check(case, alpha, beta)

    monkeypatch.setattr(topology, "_check_oval_bounds", counting)
    for case, alpha, beta in ((TopCase.NODE1, 0, 8), (TopCase.NODE2, 1, 2), (TopCase.NODE_STAR, 0, 0)):
        del calls[:]
        assert double_cover_euler_check(case, alpha, beta)
        assert calls == [(case, alpha, beta)]
    # region_descriptor still checks, and bad data raises the same message
    del calls[:]
    region_descriptor(TopCase.NODE1, 0, 8, Region.A_PLUS)
    assert len(calls) == 1
    for bad in ((TopCase.NODE1, 5, 5), (TopCase.NODE2, -1, 0), ("Node (1)", 1, 2)):
        with pytest.raises(InconsistentInput) as direct:
            region_descriptor(*bad, Region.A_MINUS)
        with pytest.raises(InconsistentInput) as via_euler:
            double_cover_euler_check(*bad)
        assert str(via_euler.value) == str(direct.value)


def test_double_cover_exhaustive(atlas):
    for c in atlas.all_classes(Family.S311):
        for t in candidate_isotopy_types(c, include_degenerate=True):
            assert double_cover_euler_check(t.case, t.alpha, t.beta)


def test_double_cover_region_chi_is_the_descriptor_chi(monkeypatch):
    # Every tuple of up to three pieces, in every order, with topology._DISK
    # and with disks equal to it but built afresh: the identity holds exactly
    # against a surface whose chi is twice the region's, and fails when either side's
    # surface is off by one.
    pieces = [RegionPiece(kind, holes) for kind in PieceKind for holes in range(4)]
    pieces.append(topology._DISK)
    given = {}
    monkeypatch.setattr(topology, "_cover", lambda *args: given["cover"])
    # chi(S) / 2 = n for n spheres, and 1 - g for one surface of genus g
    surfaces = {n: SurfaceDescriptor((0,) * n if n > 0 else (1 - n,)) for n in range(-13, 6)}
    for size in range(4):
        for combo in itertools.product(pieces, repeat=size):
            region = RegionDescriptor(combo)
            chi = region.euler_characteristic
            good, bad = (region, surfaces[chi]), (region, surfaces[chi + 1])
            given["cover"] = (good, good)
            assert double_cover_euler_check(TopCase.NODE1, 0, 0), combo
            for cover in ((bad, good), (good, bad), (bad, bad)):
                given["cover"] = cover
                assert not double_cover_euler_check(TopCase.NODE1, 0, 0), combo


@pytest.mark.parametrize(
    "fields, text, chi",
    [
        ((RegionDescriptor, ((RegionPiece(PieceKind.ANNULUS_WITH_HOLES, 1), RegionPiece(PieceKind.DISK)),)),
         "(annulus with 1 holes) u disk", 0),
        ((SurfaceDescriptor, ((2, 0),)), "Sigma_2 u S^2", 0),
    ],
    ids=["RegionDescriptor", "SurfaceDescriptor"],
)
def test_descriptor_value_type_contract(fields, text, chi):
    # A descriptor keeps its chi in its __dict__ from its build, and behaves as the
    # plain NamedTuple of its fields otherwise; copies carry only the fields and compute it again.
    cls, values = fields
    d = cls(*values)
    assert tuple(d) == values and d == values and hash(d) == hash(values)
    assert repr(d) == f"{cls.__name__}({cls._fields[0]}={values[0]!r})" and str(d) == text
    assert vars(d) == {"euler_characteristic": chi}
    assert d.euler_characteristic == chi and vars(d) == {"euler_characteristic": chi}
    for name in (cls._fields[0], "euler_characteristic", "extra"):
        with pytest.raises(AttributeError):
            setattr(d, name, None)
        with pytest.raises(AttributeError):
            delattr(d, name)
    assert d.euler_characteristic == chi
    copies = [copy.copy(d), copy.deepcopy(d)]
    copies += [pickle.loads(pickle.dumps(d, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls and other == d and hash(other) == hash(d)
        assert other is not d and vars(other) == {"euler_characteristic": chi}
        assert other.euler_characteristic == chi


def test_descriptor_memos_match_fresh_builds(atlas):
    # Every (case, alpha, beta) the catalog reaches gets the descriptors a fresh
    # build would give, and the same objects each time, through every reader.  A case
    # other than Node (*) reads Node (1)'s entry with the ovals its double point adds
    # to R2, so its fresh build is Node (1)'s: its own __wrapped__ returns the memo's.
    for c in atlas.all_classes(Family.S311):
        for t in candidate_isotopy_types(c, include_degenerate=True):
            args = t.triple
            node1 = (TopCase.NODE1, t.alpha, t.beta + (t.case in GROUP_II))
            built = args if t.case is TopCase.NODE_STAR else node1
            cover, fresh = topology._cover(*args), topology._cover.__wrapped__(*built)
            assert cover == fresh and cover is topology._cover(*args)
            assert all(a is not b for a, b in zip(cover, fresh))
            for region, (descriptor, real_part), (pieces, genera) in zip(Region, cover, fresh):
                assert region_descriptor(*args, region) is descriptor
                # the memo's chi is that of a fresh build, summed over its pieces or genera
                assert descriptor.euler_characteristic == sum(
                    p.euler_characteristic for p in pieces.pieces
                )
                assert real_part.euler_characteristic == (
                    2 * len(genera.genera) - 2 * sum(genera.genera)
                )
            # phi covers A- when H = 0 and A+ otherwise; the related involution the other side
            lower = c.h is HInvariant.ZERO
            assert real_part_topology(c, t, Cover.PHI) is cover[lower][1]
            assert real_part_topology(c, t, Cover.RELATED_PHI) is cover[not lower][1]
    assert topology._cover.cache_info().currsize <= 330


def test_group_ii_cells_are_group_i_cells_with_one_more_oval():
    # Read from the shipped tables alone: each row's Node (2) cell is its Node (1) and
    # isolated-point cell with one oval less in R2, and a row has no Node (2) cell
    # exactly where that would leave -1 ovals, or, for the star class with H = 0,
    # where it has no Node (1) cell either.
    rows = tables.ISOTOPY_H0 + tables.ISOTOPY_Z2
    paired = [row for row in rows if row.node2 is not None]
    assert len(paired) == 78
    for row in paired:
        alpha, beta = row.node2
        assert row.node1 == row.isolated == (alpha, beta + 1), row.index
    others = [row for row in rows if row.node2 is None]
    assert len(others) == 24
    for row in others:
        if row.index == "special-(10,8,0)":
            assert row.node1 is row.isolated is None and row.node_star == "T^2 u T^2"
        else:
            assert row.node1 == row.isolated and row.node1[1] == 0, row.index


SECTION = f4_class(0, 1)  # the exceptional section of F4


def test_oval_caps_follow_from_the_genus_of_the_branch_curve():
    # An anti-bicanonical curve of F4 is the exceptional section plus a trigonal curve
    # in |12c + 3s|, of arithmetic genus 10.  The node leaves a normalization of genus 9,
    # which by Harnack's bound has at most 10 real components; one of them is the
    # non-contractible component, and beta leaves out the ovals the double point adds
    # to R2.  Node (*) has no ovals at all.
    genus = arithmetic_genus(anti_bicanonical(Surface.F4) - SECTION) - 1
    ovals = (genus + 1) - 1
    caps = {case: cap for case, (cap, _) in topology._OVAL_CAPS.items() if case is not TopCase.NODE_STAR}
    assert caps == {case: ovals - extra for case, extra in topology._EXTRA.items()}
    assert set(caps) == set(TopCase) - {TopCase.NODE_STAR}


def test_every_case_shares_node1_descriptors():
    # Within its bound, each datum of a case other than Node (*) reads the memo entry of
    # Node (1) with the ovals its double point adds to R2: one set of objects per cover.
    for case in TopCase:
        if case is TopCase.NODE_STAR:
            continue
        extra = case in GROUP_II
        for alpha in range(10):
            for beta in range(10 - extra - alpha):
                node1 = topology._cover(TopCase.NODE1, alpha, beta + extra)
                assert topology._cover(case, alpha, beta) is node1
                for region, (descriptor, _) in zip(Region, node1):
                    assert region_descriptor(case, alpha, beta, region) is descriptor
    # 55 data for each group I case, 45 for each group II case and one Node (*) datum
    assert topology._cover.cache_info().currsize <= 55 * 3 + 45 * 2 + 1


def test_foreign_region_or_cover_is_refused(atlas):
    # A value equal to a member's value, or a plain string, is no member: each entry point
    # refuses it with its one message, and nothing is kept under it.
    no1 = atlas.lookup_index(Family.S311, "No.1")
    node1 = candidate_isotopy_types(no1)[0]
    before = topology._cover.cache_info()
    for region in ("A+", "A-", (TopCase.NODE1, 1, 2), None):
        message = "^a region is Region.A_PLUS or Region.A_MINUS$"
        with pytest.raises(InconsistentInput, match=message):
            region_descriptor(TopCase.NODE1, 1, 2, region)
        with pytest.raises(InconsistentInput, match=message):
            invariants_from_isotopy(TopCase.NODE1, 1, 2, region)
    for which in ("phi", "related_phi", Region.A_PLUS, None):
        with pytest.raises(InconsistentInput, match="^a cover is Cover.PHI or Cover.RELATED_PHI$"):
            real_part_topology(no1, node1, which)
    after = topology._cover.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_excluded_invariants_only_star(atlas):
    # The case I/II closed forms never land on (10,10,0) or (10,8,0) for
    # H = 0: the first is not a class at all, the second only emits the
    # non-contractible node case.
    assert atlas.lookup(Family.S311, 10, 10, 0, HInvariant.ZERO) is None
    c = atlas.lookup(Family.S311, 10, 8, 0, HInvariant.ZERO)
    assert {t.case for t in candidate_isotopy_types(c)} == {TopCase.NODE_STAR}


def _recovering_data() -> tuple[int, dict]:
    # Every (case, alpha, beta, region) of the three table cases that invariants_from_isotopy
    # accepts, alpha and beta tried from 0 to 10: their number, and (r, a, H) -> the
    # (case, alpha, beta) that recover it.  The region fixes H, so no datum is met twice.
    count, by_key = 0, {}
    for case in (TopCase.NODE1, TopCase.ISOLATED, TopCase.NODE2):
        for alpha, beta, region in itertools.product(range(11), range(11), Region):
            try:
                key = invariants_from_isotopy(case, alpha, beta, region)
            except InconsistentInput:
                continue
            count += 1
            by_key.setdefault(key, set()).add((case, alpha, beta))
    return count, by_key


def test_table_candidates_are_all_the_data_recovering_their_class(atlas):
    # The converse of the roundtrips: a class lists every datum that recovers its (r, a, H),
    # not only data that do.  Node (*) and the cusp variants are left out.
    count, by_key = _recovering_data()
    assert count == 310
    classes, differing = atlas.all_classes(Family.S311), []
    for c in classes:
        listed = {t.triple for t in candidate_isotopy_types(c) if t.case is not TopCase.NODE_STAR}
        if listed != by_key.get((c.r, c.a, c.h), set()):
            differing.append(c.index)
    assert len(classes) == 102 and differing == ["special-(10,8,0)"]  # see the next test


def test_star_class_leaves_out_two_recovering_data(atlas):
    # A known data question, open as the whitelisted No.16' contr3p cell is: the star class
    # (10,8,0) with H = 0 lists Node (*) alone, while Node (1) (1,0) and the isolated point
    # (1,0) recover its (r, a, H) too.  The tables list both under No.34, (10,8,1) with H = 0.
    _, by_key = _recovering_data()
    star = atlas.lookup_index(Family.S311, "special-(10,8,0)")
    assert [t.case for t in candidate_isotopy_types(star)] == [TopCase.NODE_STAR]
    left_out = {(TopCase.NODE1, 1, 0), (TopCase.ISOLATED, 1, 0)}
    assert by_key[star.r, star.a, star.h] == left_out
    no34 = atlas.lookup_index(Family.S311, "No.34")
    assert no34.key == (10, 8, 1, HInvariant.ZERO)
    assert {t.triple for t in candidate_isotopy_types(no34)} == left_out


# The (r, a) that some datum recovers but no class carries, on each side.
UNCLAIMED_H0 = [(0, 0), (4, 0), (5, 1), (6, 0), (7, 1), (8, 0), (12, 0), (13, 1), (14, 0), (15, 1), (16, 0)]
UNCLAIMED_Z2 = [(3, 1), (4, 2), (5, 1), (6, 2), (7, 1), (11, 1), (12, 2), (13, 1), (14, 2), (15, 1), (19, 1)]


def test_recovered_keys_without_a_class(atlas):
    # 22 (r, a, H) that some datum recovers but no class carries, 11 on each side.
    _, by_key = _recovering_data()
    claimed = {(c.r, c.a, c.h) for c in atlas.all_classes(Family.S311)}
    expected = {(r, a, HInvariant.ZERO) for r, a in UNCLAIMED_H0} | {
        (r, a, HInvariant.Z2) for r, a in UNCLAIMED_Z2
    }
    assert len(expected) == 22
    assert set(by_key) - claimed == expected


def nikulin_admissible(r: int, a: int, delta: int, signature: tuple[int, int]) -> bool:
    """Whether an even 2-elementary lattice of rank r, 2-rank a, parity delta and signature
    (t+, t-) exists: Nikulin's conditions (Math. USSR Izv. 14, 1980, Thm 3.6.2)."""
    pos, neg = signature
    if min(pos, neg) < 0 or pos + neg != r or not 0 <= a <= r or (r - a) % 2:
        return False
    s = (pos - neg) % 8
    return not (
        (delta == 0 and s % 4)
        or (a == 0 and (delta or s))
        or (a == 1 and s not in (1, 7))
        or (a == 2 and s == 4 and delta)
        or (delta == 0 and a == r and s)
    )


def _admissible(r: int, a: int, delta: int) -> bool:
    # The fixed lattice at (1, r - 1), and its orthogonal complement in the K3 lattice,
    # (22 - r, a, delta), at (2, 20 - r).
    fixed = nikulin_admissible(r, a, delta, (1, r - 1))
    return fixed and nikulin_admissible(22 - r, a, delta, (2, 20 - r))


ADMISSIBLE = [(r, a, d) for r in range(23) for a in range(23) for d in (0, 1) if _admissible(r, a, d)]


def _move_targets(triple, keys) -> list:
    # The table-move targets of a U class with this triple that are among ``keys``.
    c = InvolutionClass(Family.U, *triple, HInvariant.NOT_APPLICABLE, "")
    return [key for key in (m.spec.target_key(c) for m in TABLE_MOVES) if key in keys]


def _regenerated() -> tuple[set, set, set]:
    # The H = 0 keys: each delta that the predicate admits over the (r, a) that a datum over A-
    # recovers; the H = Z/2 keys: their related_key partners; the U triples: the admissible
    # ones with a table-move target among those keys, and the triples the tables name as
    # without moves.
    _, by_key = _recovering_data()
    pairs = {(r, a) for r, a, h in by_key if h is HInvariant.ZERO}
    h0 = {
        (r, a, d, HInvariant.ZERO)
        for r, a in pairs
        for d in (0, 1)
        if nikulin_admissible(r, a, d, (1, r - 1))
    }
    z2 = {related_key(InvolutionClass(Family.S311, *key, "")) for key in h0}
    moved = {t for t in ADMISSIBLE if _move_targets(t, h0 | z2)}
    return h0, z2, moved | set(tables.U_EXCLUDED_TRIPLES + tables.U_UNTABULATED_TRIPLES)


def _catalog_sets(atlas) -> tuple[set, set, set]:
    s311 = atlas.all_classes(Family.S311)
    return (
        {c.key for c in s311 if c.h is HInvariant.ZERO},
        {c.key for c in s311 if c.h is HInvariant.Z2},
        {c.triple for c in atlas.all_classes(Family.U)},
    )


def test_nikulin_admits_the_75_k3_triples(atlas):
    assert len(ADMISSIBLE) == 75 and all(1 <= r <= 20 for r, _a, _d in ADMISSIBLE)
    assert {c.triple for c in atlas.all_classes(Family.U)} <= set(ADMISSIBLE)


def test_catalog_regenerates_from_closed_forms_and_nikulin(atlas):
    _, by_key = _recovering_data()
    assert len({(r, a) for r, a, h in by_key if h is HInvariant.ZERO}) == 55
    h0, z2, u = _regenerated()
    assert (len(h0), len(z2), len(u)) == (51, 51, 63)
    assert (h0, z2, u) == _catalog_sets(atlas)
    # the two triples without moves are the only U triples without a target
    moved = {t for t in ADMISSIBLE if _move_targets(t, h0 | z2)}
    assert len(moved) == 61 and u - moved == {(10, 10, 0), (10, 10, 1)}


def test_admissible_triples_without_a_class_have_no_target(atlas):
    # The 11 with g = 0, where r + a = 22, and (14,6,0): its unprimed target would need
    # r + a = 20, which no datum recovers, and its primed target (13,7,0) with H = Z/2 is the
    # partner of (6,6,0) with H = 0, which fails a = r with delta = 0.
    h0, z2, _u = _regenerated()
    lacking = set(ADMISSIBLE) - {c.triple for c in atlas.all_classes(Family.U)}
    assert lacking == {t for t in ADMISSIBLE if t[0] + t[1] == 22} | {(14, 6, 0)}
    assert len(lacking) == 12 and not any(_move_targets(t, h0 | z2) for t in lacking)
    assert not nikulin_admissible(6, 6, 0, (1, 5)) and nikulin_admissible(6, 6, 1, (1, 5))


def test_recovered_keys_without_a_class_fail_nikulin():
    # Each recovered H = 0 (r, a) without a class fails the predicate for both delta, and each
    # H = Z/2 one without a class is the related_key partner of one of them.
    assert not any(nikulin_admissible(r, a, d, (1, r - 1)) for r, a in UNCLAIMED_H0 for d in (0, 1))
    z2 = [InvolutionClass(Family.S311, r, a, 1, HInvariant.Z2, "") for r, a in UNCLAIMED_Z2]
    partners = {related_key(c)[:2] for c in z2}
    assert partners == set(UNCLAIMED_H0)


@pytest.mark.parametrize(
    "edit",
    [
        lambda records: [r for r in records if (r["family"], r["index"]) != ("s311", "No.17")],
        lambda records: [r for r in records if (r["family"], r["index"]) != ("s311", "No.17'")],
        lambda records: [r for r in records if (r["family"], r["index"]) != ("u", "No.1")],
        lambda records: records + [dict(records[0], r=4, a=0, delta=0, h="0", index="No.99")],
        lambda records: records + [dict(records[-1], r=14, a=6, delta=0, index="No.99")],
    ],
    ids=["drop-s311-No.17", "drop-s311-No.17'", "drop-u-No.1", "add-s311-(4,0,0)", "add-u-(14,6,0)"],
)
def test_regenerated_sets_see_a_dropped_or_added_class(atlas, edit):
    records = atlas.to_records(Family.S311) + atlas.to_records(Family.U)
    edited = Atlas.from_records(edit(records))
    differing = [a ^ b for a, b in zip(_catalog_sets(edited), _regenerated())]
    assert sum(map(len, differing)) == 1


def test_real_part_topology_examples(atlas):
    no1 = atlas.lookup_index(Family.S311, "No.1")
    node1 = candidate_isotopy_types(no1)[0]
    assert str(real_part_topology(no1, node1, Cover.PHI)) == "Sigma_10"
    assert str(real_part_topology(no1, node1, Cover.RELATED_PHI)) == "T^2 u 8S^2"
    # group II adds a sphere on the covering of the upper region
    node2 = candidate_isotopy_types(no1)[2]
    assert str(real_part_topology(no1, node2, Cover.PHI)) == "Sigma_10"
    assert str(real_part_topology(no1, node2, Cover.RELATED_PHI)) == "T^2 u 8S^2"
    # the real part of phi always matches the class's (g, k)
    for c in atlas.all_classes(Family.S311):
        g, k = gk_invariants(c)
        for t in candidate_isotopy_types(c):
            if t.case is TopCase.NODE_STAR and c.triple == (10, 8, 0):
                continue
            surf = real_part_topology(c, t, Cover.PHI)
            assert surf.genera == tuple(sorted((g,) + (0,) * k, reverse=True))


def test_real_part_topology_rejects_mismatch(atlas):
    no1 = atlas.lookup_index(Family.S311, "No.1")
    with pytest.raises(InconsistentInput):
        real_part_topology(no1, IsotopyType(TopCase.NODE1, 3, 3), Cover.PHI)
    with pytest.raises(InconsistentInput):
        real_part_topology(no1, IsotopyType(TopCase.NODE_STAR, 0, 0), Cover.PHI)
