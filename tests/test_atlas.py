import copy
import json
import os
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from k3atlas import atlas as atlas_module
from k3atlas import tables
from k3atlas.atlas import (
    Atlas,
    CheckSection,
    Family,
    HInvariant,
    InvolutionClass,
    gk_invariants,
    load_atlas,
    related_key,
    validate_atlas,
)
from k3atlas.errors import CatalogError, InconsistentInput, NotInAtlas, SpecialClass


@pytest.fixture(scope="module")
def atlas():
    return load_atlas()


def test_class_counts(atlas):
    s311 = atlas.all_classes(Family.S311)
    u = atlas.all_classes(Family.U)
    assert len(s311) == 102
    assert sum(c.h is HInvariant.ZERO for c in s311) == 51
    assert sum(c.h is HInvariant.Z2 for c in s311) == 51
    assert len(u) == 63
    assert sum(c.delta == 0 for c in u) == 14
    assert sum(c.delta == 1 for c in u) == 49


def test_constructor_validation():
    with pytest.raises(ValueError):
        InvolutionClass(Family.U, 1, 1, 1, HInvariant.ZERO, "x")
    with pytest.raises(ValueError):
        InvolutionClass(Family.S311, 1, 1, 1, HInvariant.NOT_APPLICABLE, "x")
    with pytest.raises(ValueError):
        InvolutionClass(Family.S311, 1, 1, 2, HInvariant.ZERO, "x")
    # Invariants of the wrong type: a float r would build gk (1.0, 9.0) and equal the class
    # (19, 1, 1); bools are refused as ints, as the catalog reader refuses them.
    for args in [
        (Family.U, 19.0, 1, 1, HInvariant.NOT_APPLICABLE, "x"),
        (Family.U, 19, 1.0, 1, HInvariant.NOT_APPLICABLE, "x"),
        (Family.U, 19, 1, True, HInvariant.NOT_APPLICABLE, "x"),
        ("u", 19, 1, 1, HInvariant.NOT_APPLICABLE, "x"),
        (Family.U, 19, 1, 1, "NA", "x"),
        (Family.U, 19, 1, 1, HInvariant.NOT_APPLICABLE, 17),
    ]:
        with pytest.raises(ValueError):
            InvolutionClass(*args)


def test_lookup_examples(atlas):
    assert atlas.lookup(Family.S311, 10, 10, 0, HInvariant.ZERO) is None
    empty_real = atlas.lookup(Family.U, 10, 10, 0)
    assert empty_real is not None and empty_real.index == "special-(10,10,0)"
    star = atlas.lookup(Family.S311, 9, 9, 0, HInvariant.Z2)
    assert star is not None and star.index == "special-(9,9,0)"
    grid_cell = atlas.lookup(Family.S311, 10, 10, 1, HInvariant.Z2)
    assert grid_cell is not None and grid_cell.index == "No.26'"


_NOT_A_FAMILY = "a family is Family.S311 or Family.U"


def test_all_classes_refuses_a_family_value(atlas):
    # the value "u" names Family.U but is no member: a KeyError before the check
    with pytest.raises(InconsistentInput, match=_NOT_A_FAMILY):
        atlas.all_classes("u")


def test_to_records_refuses_a_family_value(atlas):
    with pytest.raises(InconsistentInput, match=_NOT_A_FAMILY):
        atlas.to_records("s311")


def test_lookup_refuses_a_family_value(atlas):
    # the class exists, so None would claim the tuple is not realizable
    assert atlas.lookup(Family.S311, 9, 9, 1, HInvariant.ZERO).index == "No.26"
    with pytest.raises(InconsistentInput, match=_NOT_A_FAMILY):
        atlas.lookup("s311", 9, 9, 1, HInvariant.ZERO)
    # a member that misses is still None
    assert atlas.lookup(Family.S311, 10, 10, 0, HInvariant.ZERO) is None


def test_lookup_index_refuses_a_family_value(atlas):
    assert atlas.lookup_index(Family.U, "No.17").index == "No.17"
    with pytest.raises(InconsistentInput, match=_NOT_A_FAMILY):
        atlas.lookup_index("u", "No.17")
    assert atlas.lookup_index(Family.U, "No.99") is None


# An unhashable family is refused like any other value that is no member.
_UNHASHABLE_FAMILIES = pytest.mark.parametrize("family", [["u"], {"family": "u"}], ids=["list", "dict"])


@_UNHASHABLE_FAMILIES
def test_all_classes_refuses_an_unhashable_family(atlas, family):
    with pytest.raises(InconsistentInput, match=_NOT_A_FAMILY):
        atlas.all_classes(family)


@_UNHASHABLE_FAMILIES
def test_to_records_refuses_an_unhashable_family(atlas, family):
    with pytest.raises(InconsistentInput, match=_NOT_A_FAMILY):
        atlas.to_records(family)


@_UNHASHABLE_FAMILIES
def test_lookup_refuses_an_unhashable_family(atlas, family):
    with pytest.raises(InconsistentInput, match=_NOT_A_FAMILY):
        atlas.lookup(family, 1, 1, 1)
    # an unhashable invariant of a member still raises the TypeError of the dict
    with pytest.raises(TypeError, match="unhashable"):
        atlas.lookup(Family.U, [1], 1, 1)


@_UNHASHABLE_FAMILIES
def test_lookup_index_refuses_an_unhashable_family(atlas, family):
    with pytest.raises(InconsistentInput, match=_NOT_A_FAMILY):
        atlas.lookup_index(family, "No.1")
    with pytest.raises(TypeError, match="unhashable"):
        atlas.lookup_index(Family.U, ["No.1"])


def test_related_class_examples(atlas):
    no1 = atlas.lookup_index(Family.S311, "No.1")
    assert no1.triple == (1, 1, 1) and no1.h is HInvariant.ZERO
    partner = atlas.related_class(no1)
    assert partner.index == "No.1'" and partner.triple == (18, 2, 1)
    special = atlas.lookup(Family.S311, 10, 8, 0, HInvariant.ZERO)
    assert atlas.related_class(special).triple == (9, 9, 0)
    u11 = atlas.lookup_index(Family.U, "No.11")
    assert u11.triple == (6, 2, 0)
    assert atlas.related_class(u11).triple == (14, 2, 0)
    assert atlas.related_index(u11) == "No.11'"


def test_related_is_involution(atlas):
    for family, expected_fixed in ((Family.S311, 0), (Family.U, 11)):
        fixed = 0
        for c in atlas.all_classes(family):
            partner = atlas.related_class(c)
            assert atlas.related_class(partner) is c
            assert partner.delta == c.delta
            if partner is c:
                fixed += 1
                assert c.r == 10
        assert fixed == expected_fixed


def test_related_gk_rule(atlas):
    for c in atlas.all_classes(Family.U):
        if c.triple in tables.U_EXCLUDED_TRIPLES:
            continue
        partner = atlas.related_class(c)
        if partner.triple in tables.U_EXCLUDED_TRIPLES:
            continue
        g, k = gk_invariants(c)
        assert gk_invariants(partner) == (k + 1, g - 1)


def test_related_s311_rule(atlas):
    for c in atlas.all_classes(Family.S311):
        if c.h is not HInvariant.ZERO:
            continue
        partner = atlas.related_class(c)
        assert partner.h is HInvariant.Z2
        assert (partner.r, partner.a) == (19 - c.r, c.a + 1)


def test_gk_examples(atlas):
    assert gk_invariants(atlas.lookup_index(Family.U, "No.1")) == (10, 0)
    assert gk_invariants(atlas.lookup_index(Family.S311, "No.22")) == (6, 4)
    assert gk_invariants(atlas.lookup_index(Family.U, "No.27")) == (6, 5)
    for triple in tables.U_EXCLUDED_TRIPLES:
        with pytest.raises(SpecialClass):
            gk_invariants(atlas.lookup(Family.U, *triple))


def test_gk_is_built_with_the_class(atlas):
    c = atlas.lookup_index(Family.U, "No.27")
    assert c.gk == gk_invariants(c) == (6, 5)
    assert InvolutionClass(c.family, 12, c.a, c.delta, c.h, c.index).gk == (5, 6)
    twins = [copy.copy(c), copy.deepcopy(c)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twins.append(pickle.loads(pickle.dumps(c, protocol)))
    for twin in twins:
        assert twin.gk == (6, 5)
        assert twin == c and hash(twin) == hash(c) and repr(twin) == repr(c)
    # gk takes no part in eq, hash or repr
    assert hash(c) == hash((c.family, c.r, c.a, c.delta, c.h, c.index))
    assert repr(c) == (
        "InvolutionClass(family=<Family.U: 'u'>, r=10, a=0, delta=0, "
        "h=<HInvariant.NOT_APPLICABLE: 'NA'>, index='No.27')"
    )


# The catalog half's two value types: one value, the repr each had as a
# dataclass, a field, and whether the value is hashable (a section holds lists).
CATALOG_VALUES = {
    "InvolutionClass": (
        InvolutionClass(Family.U, 10, 0, 0, HInvariant.NOT_APPLICABLE, "No.27"),
        "InvolutionClass(family=<Family.U: 'u'>, r=10, a=0, delta=0, "
        "h=<HInvariant.NOT_APPLICABLE: 'NA'>, index='No.27')",
        "r",
        True,
    ),
    "CheckSection": (
        CheckSection("degeneration tables", 2, ["row 1: x"], ["row 2: y"], {}),
        "CheckSection(name='degeneration tables', checked=2, violations=['row 1: x'], "
        "whitelisted=['row 2: y'], counts={})",
        "checked",
        False,
    ),
}


@pytest.mark.parametrize("name", list(CATALOG_VALUES))
def test_catalog_value_type_contract(name):
    value, text, field, hashable = CATALOG_VALUES[name]
    assert type(value).__name__ == name and repr(value) == text
    for change in (
        lambda: setattr(value, field, 0),
        lambda: delattr(value, field),
        lambda: setattr(value, "extra", 0),
    ):
        with pytest.raises(AttributeError):
            change()
    assert repr(value) == text
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value) and other == value and repr(other) == text
        assert not hashable or hash(other) == hash(value)


def test_unpickling_a_class_runs_its_checks():
    # The pickle holds the six fields, delta last of the ints; loading it
    # rebuilds the class, derived values included, through the constructor.
    c = CATALOG_VALUES["InvolutionClass"][0]
    head, found, tail = pickle.dumps(c, 0).rpartition(b"I0\n")
    assert found
    edited = pickle.loads(head + b"I1\n" + tail)
    assert (edited.delta, edited.triple, edited.label) == (1, (10, 0, 1), "U:No.27 (10,0,1)")
    with pytest.raises(ValueError, match="delta is 0 or 1"):
        pickle.loads(head + b"I2\n" + tail)
    with pytest.raises(ValueError, match="r, a and delta are ints"):
        pickle.loads(head + b"F0.0\n" + tail)


def test_gk_invariants_raises_both_special_messages(atlas):
    excluded = atlas.lookup(Family.U, 10, 10, 0)
    assert excluded.gk is None
    message = r"^special-\(10,10,0\) carries no genus/sphere description$"
    with pytest.raises(SpecialClass, match=message):
        gk_invariants(excluded)
    records = atlas.to_records(Family.U)
    records.append(dict(records[0], index="X1", r=5, a=2, delta=1))
    odd = Atlas.from_records(records).lookup_index(Family.U, "X1")
    assert odd.gk is None
    with pytest.raises(SpecialClass, match=r"^\(5,2,1\) has no integral \(g, k\)$"):
        gk_invariants(odd)


def test_gk_at_the_ends_of_the_ranges(atlas):
    # r = 0 gives k = 0, and r + a = 22 gives g = 0; neither is a special class.
    records = atlas.to_records(Family.U)
    records.append(dict(records[0], index="X1", r=0, a=0, delta=0))
    records.append(dict(records[0], index="X2", r=11, a=11, delta=1))
    loaded = Atlas.from_records(records)
    assert loaded.lookup_index(Family.U, "X1").gk == (11, 0)
    assert loaded.lookup_index(Family.U, "X2").gk == (0, 0)


def test_untabulated_class(atlas):
    # (10,10,1) is forced by the counts (49 classes with delta = 1 and 11
    # self-related ones) but has g = 1, k = 0: no table lists it.
    c = atlas.lookup(Family.U, 10, 10, 1)
    assert c is not None and c.index == "special-(10,10,1)"
    assert gk_invariants(c) == (1, 0)
    assert atlas.related_class(c) is c


def test_index_aliases(atlas):
    # Self-related classes answer to both labels.
    assert atlas.lookup_index(Family.U, "No.27'") is atlas.lookup_index(Family.U, "No.27")
    # A class present in both move tables answers to both of its labels.
    both = atlas.lookup_index(Family.U, "No.2'")
    assert both is atlas.lookup_index(Family.U, "No.50")
    assert both.triple == (18, 0, 0)
    assert atlas.lookup_index(Family.U, "No.999") is None


def test_two_rank_bounds(atlas):
    for family in Family:
        for c in atlas.all_classes(family):
            assert c.a <= c.r and c.a <= 22 - c.r
            assert (c.r - c.a) % 2 == 0


def test_grid_row_bijection(atlas):
    for h, grid in ((HInvariant.ZERO, tables.GRID_H0), (HInvariant.Z2, tables.GRID_Z2)):
        cells = {(r, a, d) for (r, a), deltas in grid.items() for d in deltas}
        rows = {c.triple for c in atlas.all_classes(Family.S311) if c.h is h}
        assert cells == rows
        assert len(cells) == 51


def test_validate_atlas_clean(atlas):
    report = validate_atlas(atlas)
    assert report.ok, report.violations
    assert report.counts["s311 quotient"] == 51
    assert report.counts["u quotient"] == 37


def test_validate_detects_missing_partner(atlas):
    records = [
        rec
        for rec in atlas.to_records(Family.S311) + atlas.to_records(Family.U)
        if rec["index"] != "No.17" or rec["family"] != "s311"
    ]
    report = validate_atlas(Atlas.from_records(records))
    assert not report.ok
    assert any("related invariants" in v and "No.17'" in v for v in report.violations)
    assert any("grid cell (7, 7, 1)" in v for v in report.violations)


def test_validate_detects_a_above_22_minus_r(atlas):
    records = atlas.to_records(Family.S311) + atlas.to_records(Family.U)
    records.append(dict(records[-1], index="X1", r=20, a=4, delta=1))
    report = validate_atlas(Atlas.from_records(records))
    assert "X1: a = 4 exceeds min(r, 22 - r)" in report.violations


def test_validate_detects_duplicates(atlas):
    records = atlas.to_records(Family.S311) + atlas.to_records(Family.U)
    for family, line in (
        (Family.U, "u: duplicate invariants (1, 1, 1) (No.1 and No.1)"),
        (Family.S311, "s311: duplicate invariants (1, 1, 1) (H=0) (No.1 and No.1)"),
    ):
        duplicate = next(rec for rec in atlas.to_records(family) if rec["index"] == "No.1")
        report = validate_atlas(Atlas.from_records(records + [duplicate]))
        assert line in report.violations
        # the shadowed duplicate still finds its partner
        assert not any("related invariants" in v for v in report.violations)


def test_validate_names_a_label_that_holds_an_alias(atlas):
    # "No.5'" is the alias of No.49 (17, 1, 1), the partner of No.5; relabelled so, (10, 8, 0)
    # holds it, so looking up "No.5'" finds (10, 8, 0) and the audit names the label.
    records = atlas.to_records(Family.S311) + [
        dict(rec, index="No.5'") if rec["index"] == "special-(10,8,0)" else rec
        for rec in atlas.to_records(Family.U)
    ]
    relabelled = Atlas.from_records(records)
    assert relabelled.lookup_index(Family.U, "No.5'").triple == (10, 8, 0)
    assert (atlas._labels, relabelled._labels) == (165, 164)
    report = validate_atlas(relabelled)
    assert report.violations == ["u: label No.5' names (10, 8, 0) and (17, 1, 1)"]


def test_records_roundtrip(atlas, tmp_path):
    s311 = atlas.to_records(Family.S311)
    u = atlas.to_records(Family.U)
    rebuilt = Atlas.from_records(s311 + u)
    assert rebuilt.all_classes(Family.S311) == atlas.all_classes(Family.S311)
    assert rebuilt.all_classes(Family.U) == atlas.all_classes(Family.U)
    assert rebuilt.to_records(Family.S311) == s311
    assert rebuilt.to_records(Family.U) == u

    (tmp_path / "s311.json").write_text(json.dumps(s311))
    (tmp_path / "u.json").write_text(json.dumps(u))
    loaded = load_atlas(str(tmp_path))
    assert loaded.all_classes(Family.S311) == atlas.all_classes(Family.S311)
    assert validate_atlas(loaded).ok


def test_related_key_closed_forms():
    c = InvolutionClass(Family.S311, 1, 1, 1, HInvariant.ZERO, "No.1")
    assert related_key(c) == (18, 2, 1, HInvariant.Z2)
    back = InvolutionClass(Family.S311, 18, 2, 1, HInvariant.Z2, "No.1'")
    assert related_key(back) == (1, 1, 1, HInvariant.ZERO)
    u = InvolutionClass(Family.U, 6, 2, 0, HInvariant.NOT_APPLICABLE, "No.11")
    assert related_key(u) == (14, 2, 0, HInvariant.NOT_APPLICABLE)


def test_related_requires_membership(atlas):
    foreign = InvolutionClass(Family.U, 4, 4, 0, HInvariant.NOT_APPLICABLE, "nope")
    with pytest.raises(NotInAtlas):
        atlas.related_class(foreign)


def test_type_metadata_counts():
    # Coarse classification counts add up to both 51-class sides.
    counts = tables.TYPE_COUNTS
    assert sum(counts.values()) == 102
    assert counts["Type 0"] + counts["Type Ib (H=0)"] == 51
    assert counts["Type Ia"] + counts["Type Ib (H=Z2)"] == 51


@pytest.mark.parametrize(
    "change, problem",
    [
        (lambda rec: rec.pop("r"), "field 'r' is missing"),
        (lambda rec: rec.update(a="x"), "field 'a' has bad value 'x'"),
        (lambda rec: rec.update(family="t"), "field 'family' has bad value 't'"),
        (lambda rec: rec.update(delta=2), "delta is 0 or 1"),
        (lambda rec: rec.update(r=-1), "r and a are nonnegative"),
    ],
)
def test_from_records_names_record_and_field(atlas, change, problem):
    records = atlas.to_records(Family.U)
    change(records[4])
    with pytest.raises(CatalogError) as excinfo:
        Atlas.from_records(records)
    assert excinfo.value.record == 4
    assert str(excinfo.value) == f"record 4: {problem}"
    with pytest.raises(CatalogError, match="record 1: expected a JSON object"):
        Atlas.from_records(records[:1] + [[1, 2]])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
# Values near the valid ones reach the checks past the type tests: a count
# out of range, or a family and an H that do not fit together.
_VALUES = st.integers(-2, 24) | st.sampled_from(("s311", "u", "0", "Z2", "NA")) | _JSON
# (record number, a field or None for the whole record, None to delete it or
# a 1-tuple holding the value to put in its place)
_EDITS = st.lists(
    st.tuples(
        st.integers(0, 101),
        st.sampled_from((None, "family", "r", "a", "delta", "h", "index")),
        st.none() | st.tuples(_VALUES),
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(family=st.sampled_from(list(Family)), edits=_EDITS)
def test_corrupted_records_raise_only_catalog_error(family, edits):
    # Any other exception would reach the CLI as a traceback.
    records = load_atlas().to_records(family)
    for number, field, new in edits:
        number %= len(records)
        if field is None and new is None:
            del records[number]
        elif field is None:
            records[number] = new[0]
        elif isinstance(records[number], dict) and new is None:
            records[number].pop(field, None)
        elif isinstance(records[number], dict):
            records[number][field] = new[0]
    try:
        Atlas.from_records(records)
    except CatalogError:
        pass


@settings(max_examples=25, derandomize=True, deadline=None)
@given(order=st.permutations(range(102 + 63)))
def test_records_in_any_order_rebuild_the_atlas(order):
    atlas = load_atlas()
    exports = {family: atlas.to_records(family) for family in Family}
    records = exports[Family.S311] + exports[Family.U]
    # the records of both families, interleaved in any order
    rebuilt = Atlas.from_records([records[i] for i in order])
    for family in Family:
        assert rebuilt.all_classes(family) == atlas.all_classes(family)
        assert rebuilt.to_records(family) == exports[family]


@pytest.mark.parametrize("value", [7, 1.9, True, 1.0, "7"])
def test_integer_fields_take_json_integers_only(atlas, value):
    records = atlas.to_records(Family.U)
    records[4]["r"] = value
    if type(value) is int:
        loaded = Atlas.from_records(records).lookup_index(Family.U, records[4]["index"])
        assert loaded.r == 7
        return
    with pytest.raises(CatalogError) as excinfo:
        Atlas.from_records(records)
    assert str(excinfo.value) == f"record 4: field 'r' has bad value {value!r}"


@pytest.fixture
def catalog_dir(atlas, tmp_path):
    for family, name in ((Family.S311, "s311.json"), (Family.U, "u.json")):
        (tmp_path / name).write_text(json.dumps(atlas.to_records(family)))
    return tmp_path


@pytest.fixture
def parses(monkeypatch):
    """The record count of each ``Atlas.from_records`` call, from an empty parse cache on."""
    monkeypatch.setattr(atlas_module, "_PARSED", ((), None))
    calls = []
    original = Atlas.from_records.__func__

    def counting(cls, records):
        calls.append(len(records))
        return original(cls, records)

    monkeypatch.setattr(Atlas, "from_records", classmethod(counting))
    return calls


def test_external_atlas_parsed_once(catalog_dir, parses):
    first = load_atlas(str(catalog_dir))
    assert parses == [165]
    del parses[:]
    for _ in range(3):
        assert load_atlas(str(catalog_dir)) is first
    assert parses == []


def test_external_atlas_reads_both_files_on_every_call(catalog_dir, monkeypatch):
    opened, descriptors, closed = [], [], []
    os_open, os_close = os.open, os.close

    def recording_open(file, *args, **kwargs):
        descriptors.append(os_open(file, *args, **kwargs))
        opened.append(os.path.basename(file))
        return descriptors[-1]

    def recording_close(fd):
        closed.append(fd)
        os_close(fd)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "close", recording_close)
    for _ in range(3):
        load_atlas(str(catalog_dir))
    assert opened == ["s311.json", "u.json"] * 3
    assert closed == descriptors


def test_external_atlas_larger_than_one_read(atlas, catalog_dir):
    # 200 KB of whitespace before the last record puts it several reads into the file, so the
    # loader must read to end of file and join the chunks.
    path = catalog_dir / "s311.json"
    records = atlas.to_records(Family.S311)

    def write_padded():
        *head, last = map(json.dumps, records)
        path.write_text("[" + ", ".join(head) + "," + " " * 200_000 + last + "]")

    write_padded()
    loaded = load_atlas(str(catalog_dir))
    assert loaded.all_classes(Family.S311) == atlas.all_classes(Family.S311)
    assert loaded.all_classes(Family.U) == atlas.all_classes(Family.U)
    last = records[-1]["index"]
    records[-1] = dict(records[-1], index="No.1x")
    write_padded()
    edited = load_atlas(str(catalog_dir))
    assert edited.lookup_index(Family.S311, "No.1x").key == loaded.lookup_index(Family.S311, last).key
    assert loaded.lookup_index(Family.S311, "No.1x") is None


def test_parse_cache_keeps_the_newest_content(catalog_dir, parses):
    path = catalog_dir / "u.json"
    text = path.read_text()

    def load(n):  # the n-th distinct content: trailing whitespace, the same records
        path.write_text(text + " " * n)
        return load_atlas(str(catalog_dir))

    first, second = load(0), load(1)
    assert parses == [165, 165] and second is not first
    del parses[:]
    assert load(1) is second  # the newest still hits
    assert parses == []
    reparsed = load(0)  # the older was replaced by the newer
    assert parses == [165] and reparsed is not first
    assert reparsed.all_classes(Family.U) == first.all_classes(Family.U)
    assert atlas_module._PARSED == ((path.with_name("s311.json").read_bytes(), text.encode()), reparsed)


def test_failed_parse_leaves_the_kept_contents(catalog_dir, parses):
    path = catalog_dir / "s311.json"
    good = path.read_text()
    first = load_atlas(str(catalog_dir))
    kept = atlas_module._PARSED
    for bad in ("[{", "{}", good.replace('"r": 7', '"r": "7"', 1)):
        path.write_text(bad)
        with pytest.raises(CatalogError):
            load_atlas(str(catalog_dir))
        assert atlas_module._PARSED is kept  # the same pair
    del parses[:]
    path.write_text(good)
    assert load_atlas(str(catalog_dir)) is first
    assert parses == []


def test_threads_loading_several_catalogs_each_get_their_own(catalog_dir, tmp_path):
    # Six contents, more than are kept, loaded by more threads than cores: each load must
    # return the atlas of the files it read, and the one kept pair must match.
    text = (catalog_dir / "s311.json").read_text()
    dirs = []
    for n in range(6):
        path = tmp_path / f"c{n}"
        path.mkdir()
        (path / "s311.json").write_text(text.replace('"No.17"', f'"X{n}"', 1))
        (path / "u.json").write_text((catalog_dir / "u.json").read_text())
        dirs.append(str(path))
    wrong = []
    barrier = threading.Barrier(4)

    def work(turn):
        barrier.wait()
        for i in range(12):
            n = (i * (turn + 1)) % 6
            if load_atlas(dirs[n]).lookup_index(Family.S311, f"X{n}") is None:
                wrong.append((turn, n))

    threads = [threading.Thread(target=work, args=(turn,)) for turn in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    (s311, _u), atlas = atlas_module._PARSED
    index = next(f"X{n}" for n in range(6) if f'"X{n}"'.encode() in s311)
    assert atlas.lookup_index(Family.S311, index) is not None


def test_external_atlas_sees_edit_with_same_size_and_mtime(catalog_dir):
    path = catalog_dir / "s311.json"
    before = load_atlas(str(catalog_dir))
    stat = path.stat()
    text = path.read_text()
    path.write_text(text.replace('"No.17"', '"No.71"', 1))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    after = load_atlas(str(catalog_dir))
    assert after.lookup_index(Family.S311, "No.17") is None
    assert after.lookup_index(Family.S311, "No.71").key == before.lookup_index(Family.S311, "No.17").key


def test_empty_data_dir_is_embedded(atlas, catalog_dir, monkeypatch):
    monkeypatch.setenv("ATLAS_DATA_DIR", str(catalog_dir))
    assert load_atlas() is not atlas
    assert load_atlas(data_dir="") is atlas
    monkeypatch.delenv("ATLAS_DATA_DIR")
    assert load_atlas() is atlas


def _read_with_environ_get() -> Atlas:
    """What ``load_atlas()`` returns when it reads the variable with ``os.environ.get``."""
    return load_atlas(os.environ.get("ATLAS_DATA_DIR") or "")


def test_load_atlas_follows_every_change_of_the_variable(atlas, catalog_dir, monkeypatch):
    monkeypatch.delenv("ATLAS_DATA_DIR", raising=False)  # restored afterwards, writes below too
    external = load_atlas(str(catalog_dir))
    assert external is not atlas
    changes = [
        (lambda: os.environ.__setitem__("ATLAS_DATA_DIR", str(catalog_dir)), external),
        (lambda: os.environ.__setitem__("ATLAS_DATA_DIR", ""), atlas),
        (lambda: monkeypatch.setenv("ATLAS_DATA_DIR", str(catalog_dir)), external),
        (lambda: os.environ.pop("ATLAS_DATA_DIR"), atlas),
        (lambda: monkeypatch.setenv("ATLAS_DATA_DIR", str(catalog_dir)), external),
        (lambda: monkeypatch.setenv("ATLAS_DATA_DIR", ""), atlas),
        (lambda: monkeypatch.setenv("ATLAS_DATA_DIR", str(catalog_dir)), external),
        (lambda: monkeypatch.delenv("ATLAS_DATA_DIR"), atlas),
    ]
    for change, expected in changes:
        change()
        assert load_atlas() is expected
        assert _read_with_environ_get() is expected


@pytest.mark.skipif(os.name != "posix", reason="a POSIX name may be any bytes")
def test_non_utf8_data_dir_is_read_as_environ_get_reads_it(atlas, catalog_dir, tmp_path, monkeypatch):
    directory = os.path.join(str(tmp_path), os.fsdecode(b"catalogs-\xff"))  # surrogate-escaped
    os.mkdir(directory)
    monkeypatch.setenv("ATLAS_DATA_DIR", directory)
    with pytest.raises(CatalogError) as expected:
        _read_with_environ_get()
    with pytest.raises(CatalogError) as found:
        load_atlas()
    assert found.value.file == expected.value.file == os.path.join(directory, "s311.json")
    assert str(found.value) == str(expected.value)
    for name in ("s311.json", "u.json"):
        with open(os.path.join(directory, name), "wb") as f:
            f.write((catalog_dir / name).read_bytes())
    assert load_atlas() is _read_with_environ_get() is load_atlas(str(catalog_dir))


def test_corrupt_catalog_is_not_cached(catalog_dir):
    path = catalog_dir / "u.json"
    good = path.read_text()
    records = json.loads(good)
    del records[2]["delta"]
    path.write_text(json.dumps(records))
    for _ in range(2):
        with pytest.raises(CatalogError) as excinfo:
            load_atlas(str(catalog_dir))
        assert str(excinfo.value) == f"{path}: record 2: field 'delta' is missing"
    path.write_text(good)
    assert validate_atlas(load_atlas(str(catalog_dir))).ok
