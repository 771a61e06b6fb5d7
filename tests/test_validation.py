"""``run_all_checks`` derives each fact once per call and reports as before."""

import cProfile
import pstats

from k3atlas import degenerations, tables, validation
from k3atlas.atlas import Family, InvolutionClass, load_atlas
from k3atlas.degenerations import Derivation, TableSide
from k3atlas.topology import STAR_KEY_H0, STAR_KEY_Z2, TopCase, candidate_isotopy_types


def test_one_derivation_per_outcome_and_euler_triple(monkeypatch):
    pairs, triples = [], []
    apply = degenerations.apply_degeneration
    euler = validation.double_cover_euler_check

    def counting_apply(c, move, atlas=None):
        pairs.append((c, move))
        return apply(c, move, atlas)

    def counting_euler(case, alpha, beta):
        triples.append((case, alpha, beta))
        return euler(case, alpha, beta)

    monkeypatch.setattr(degenerations, "apply_degeneration", counting_apply)
    # a direct call from validation would be counted too
    monkeypatch.setattr(validation, "apply_degeneration", counting_apply, raising=False)
    monkeypatch.setattr(validation, "double_cover_euler_check", counting_euler)
    summary = validation.run_all_checks(load_atlas())
    assert summary.ok
    assert len(pairs) == len(set(pairs)) == 368
    assert len(triples) == len(set(triples)) == 201
    # a second call derives everything again: nothing is kept between calls
    validation.run_all_checks(load_atlas())
    assert len(pairs) == 2 * 368 and len(triples) == 2 * 201


def test_one_candidate_list_per_class(monkeypatch):
    calls = []
    # every section reads the lists through the Derivation in degenerations
    candidates = degenerations.candidate_isotopy_types

    def counting_candidates(c, include_degenerate=False):
        calls.append((c, include_degenerate))
        return candidates(c, include_degenerate)

    monkeypatch.setattr(degenerations, "candidate_isotopy_types", counting_candidates)
    atlas = load_atlas()
    assert validation.run_all_checks(atlas).ok
    s311 = atlas.all_classes(Family.S311)
    assert calls == [(c, True) for c in s311]
    # a second call derives every list again: nothing is kept between calls
    validation.run_all_checks(atlas)
    assert len(calls) == 2 * 102


def test_shared_table_lists_are_the_table_candidates():
    atlas = load_atlas()
    derivation = Derivation(atlas)
    s311 = atlas.all_classes(Family.S311)
    for c in s311:
        assert derivation.candidates(c) == candidate_isotopy_types(c, include_degenerate=True)
        assert derivation.table_candidates(c) == candidate_isotopy_types(c)
        # each request returns the list derived once, not a new one
        assert derivation.candidates(c) is derivation.candidates(c)
        assert derivation.table_candidates(c) is derivation.table_candidates(c)
    for key in (STAR_KEY_H0, STAR_KEY_Z2):
        star = atlas.lookup(Family.S311, *key)
        assert any(t.case is TopCase.NODE_STAR for t in derivation.table_candidates(star))
        assert derivation.table_candidates(star) == candidate_isotopy_types(star)


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


def test_euler_failure_is_reported_for_every_carrier(monkeypatch):
    bad = (TopCase.NODE1, 0, 7)
    seen = []

    def failing_euler(case, alpha, beta):
        seen.append((case, alpha, beta))
        return (case, alpha, beta) != bad

    monkeypatch.setattr(validation, "double_cover_euler_check", failing_euler)
    summary = validation.run_all_checks(load_atlas())
    section = next(s for s in summary.sections if s.name == "double-cover Euler identity")
    assert section.checked == 461
    assert section.violations == [
        "No.3 Node (1) (0,7): chi mismatch",
        "No.4 Node (1) (0,7): chi mismatch",
        "No.3' Node (1) (0,7): chi mismatch",
        "No.4' Node (1) (0,7): chi mismatch",
    ]
    assert seen.count(bad) == 1
    assert summary.summary_line() == "102/51, 63/37, 4 violations, 1 whitelisted discrepancy"


def test_warm_call_stays_under_its_call_budget():
    # pstats counts 22,863 to 23,180 calls on CPython 3.10 to 3.13.  It keeps
    # one entry per (file, line, name), so of the generated NamedTuple
    # __new__ methods, which share one label, only one is counted; but each
    # value built calls the builtin tuple.__new__, which counts every time.
    # With frozen dataclasses, whose generated __init__ methods also share
    # one label, the count was 22,597 to 22,998, and the call was slower.
    atlas = load_atlas()
    validation.run_all_checks(atlas)
    profile = cProfile.Profile()
    profile.runcall(validation.run_all_checks, atlas)
    assert pstats.Stats(profile).total_calls <= 26_500


def _calls_to(code, func, *args) -> int:
    profile = cProfile.Profile()
    profile.runcall(func, *args)
    return sum(entry.callcount for entry in profile.getstats() if entry.code is code)


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
    atlas = load_atlas()
    for side, n in ((TableSide.UNPRIMED, 150), (TableSide.PRIMED, 150), (TableSide.STAR, 2)):
        del pairs[:]
        degenerations.degeneration_table(side, atlas)
        assert len(pairs) == len(set(pairs)) == n
    assert not lists
    del pairs[:]
    degenerations.transition_graph(atlas)
    assert len(pairs) == len(set(pairs)) == 368
    assert not lists
    del pairs[:]
    assert degenerations.correspondence_check(atlas).ok
    assert len(pairs) == len(set(pairs)) == 302
    assert lists == list(atlas.all_classes(Family.S311))


def test_one_derivation_shares_its_outcomes(monkeypatch):
    pairs = _count_outcomes(monkeypatch)
    atlas = load_atlas()
    derivation = Derivation(atlas)
    for side in TableSide:
        degenerations.degeneration_table(side, derivation)
    degenerations.transition_graph(derivation)
    assert len(pairs) == len(set(pairs)) == 368
    # two separate derivations derive everything twice
    del pairs[:]
    for derivation in (Derivation(atlas), Derivation(atlas)):
        for side in TableSide:
            degenerations.degeneration_table(side, derivation)
        degenerations.transition_graph(derivation)
    assert len(pairs) == 2 * 368 and len(set(pairs)) == 368
