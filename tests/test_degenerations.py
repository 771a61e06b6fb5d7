import copy
import json
import pickle
import random
import re

import pytest

from k3atlas import degenerations, tables, validation
from k3atlas.atlas import (
    Atlas,
    Family,
    HInvariant,
    InvolutionClass,
    _embedded_classes,
    gk_invariants,
    load_atlas,
)
from k3atlas.degenerations import (
    PRIMED_MOVES,
    UNPRIMED_MOVES,
    STAR_MOVES,
    TABLE_MOVES,
    Degeneration,
    TableSide,
    TransitionEdge,
    TransitionGraph,
    apply_degeneration,
    applicable_moves,
    correspondence_check,
    degeneration_table,
    graph_to_dot,
    graph_to_json,
    transition_graph,
)
from k3atlas.errors import InconsistentInput, MoveNotApplicable, NotInAtlas, SpecialClass, WrongFamily
from k3atlas.topology import (
    PieceKind,
    Region,
    RegionPiece,
    SurfaceDescriptor,
    TopCase,
    candidate_isotopy_types,
    region_descriptor,
)


@pytest.fixture(scope="module")
def atlas():
    return load_atlas()


def test_conj1_from_no1(atlas):
    c = atlas.lookup_index(Family.U, "No.1")
    outcome = apply_degeneration(c, Degeneration.CONJ1, atlas)
    assert outcome.iso.triple == (TopCase.NODE1, 0, 8)
    assert outcome.target is atlas.lookup_index(Family.S311, "No.1")


def test_conj2_impossible_from_no26(atlas):
    c = atlas.lookup_index(Family.U, "No.26")
    outcome = apply_degeneration(c, Degeneration.CONJ2, atlas)
    assert outcome.impossible and outcome.target is None


def test_an_impossible_outcome_reads_impossible(atlas):
    outcome = apply_degeneration(atlas.lookup_index(Family.U, "No.1"), Degeneration.CONJ1P, atlas)
    assert outcome.impossible and str(outcome) == "Conjunction 1'): impossible"


def test_conj2p_from_no1_prime(atlas):
    c = atlas.lookup_index(Family.U, "No.1'")
    assert c.triple == (19, 1, 1)
    outcome = apply_degeneration(c, Degeneration.CONJ2P, atlas)
    assert outcome.iso.triple == (TopCase.NODE2, 0, 7)
    assert outcome.target is atlas.lookup_index(Family.S311, "No.1'")
    assert outcome.target.triple == (18, 2, 1)


def test_self_conjunctions(atlas):
    c = atlas.lookup(Family.U, 9, 9, 1)
    outcome = apply_degeneration(c, Degeneration.CONJ4, atlas)
    assert outcome.iso.case is TopCase.NODE_STAR
    assert outcome.target.key == (10, 8, 0, HInvariant.ZERO)
    c = atlas.lookup(Family.U, 11, 9, 1)
    outcome = apply_degeneration(c, Degeneration.CONJ4P, atlas)
    assert outcome.target.key == (9, 9, 0, HInvariant.Z2)
    with pytest.raises(MoveNotApplicable):
        apply_degeneration(atlas.lookup(Family.U, 1, 1, 1), Degeneration.CONJ4, atlas)
    with pytest.raises(MoveNotApplicable):
        apply_degeneration(atlas.lookup(Family.U, 9, 9, 1), Degeneration.CONJ4P, atlas)


def test_excluded_classes_raise(atlas):
    with pytest.raises(SpecialClass, match="empty real part"):
        apply_degeneration(atlas.lookup(Family.U, 10, 10, 0), Degeneration.CONJ1, atlas)
    with pytest.raises(SpecialClass):
        apply_degeneration(atlas.lookup(Family.U, 10, 8, 0), Degeneration.CONJ1, atlas)


@pytest.mark.parametrize(
    "reader, value",
    [
        ("table", "graph"),  # the graph's own reader key, once read as the graph's two fields
        ("table", "unprimed"),
        ("table", None),
        ("table", Degeneration.CONJ1),
        ("move", "conj1"),
        ("move", None),
        ("move", TableSide.STAR),
        ("move", Degeneration.CONJ1.spec),
    ],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__,
)
def test_foreign_side_or_move_is_refused(reader, value):
    # A value equal to a member's value, or a plain string, is no member: each public reader
    # refuses it with its one message, before the atlas derives anything.
    fresh = Atlas(_embedded_classes())
    if reader == "table":
        message = "a side is TableSide.UNPRIMED, TableSide.PRIMED or TableSide.STAR"
        with pytest.raises(InconsistentInput, match=f"^{re.escape(message)}$"):
            degeneration_table(value, fresh)
    else:
        with pytest.raises(InconsistentInput, match="^a move is a Degeneration member$"):
            apply_degeneration(fresh.lookup_index(Family.U, "No.22"), value, fresh)
    assert "_pass" not in vars(fresh)


def test_wrong_family(atlas):
    with pytest.raises(WrongFamily):
        apply_degeneration(
            atlas.lookup_index(Family.S311, "No.1"), Degeneration.CONJ1, atlas
        )


def test_untabulated_class_has_no_moves(atlas):
    c = atlas.lookup(Family.U, 10, 10, 1)
    for move in UNPRIMED_MOVES + PRIMED_MOVES:
        assert apply_degeneration(c, move, atlas).impossible
    assert applicable_moves(c) == UNPRIMED_MOVES + PRIMED_MOVES


def test_applicable_moves_in_declaration_order(atlas):
    for c in atlas.all_classes(Family.U):
        expected = tuple(m for m in Degeneration if m.spec.source in (None, c.triple))
        assert applicable_moves(c) == expected
    assert applicable_moves(atlas.lookup(Family.U, 9, 9, 1))[-1] is Degeneration.CONJ4
    assert applicable_moves(atlas.lookup(Family.U, 11, 9, 1))[-1] is Degeneration.CONJ4P


def test_spec_rows(atlas):
    # (14,2,0): g=3, k=6
    c = atlas.lookup(Family.U, 14, 2, 0)
    cells = {m: apply_degeneration(c, m, atlas).cell() for m in UNPRIMED_MOVES}
    assert cells == {
        Degeneration.CONJ1: (6, 1),
        Degeneration.CONJ2: (6, 0),
        Degeneration.CONTR3: (6, 1),
    }
    # (2,0,0): g=10, k=1 under the primed moves
    c = atlas.lookup(Family.U, 2, 0, 0)
    cells = {m: apply_degeneration(c, m, atlas).cell() for m in PRIMED_MOVES}
    assert cells == {
        Degeneration.CONJ1P: (9, 0),
        Degeneration.CONJ2P: None,
        Degeneration.CONTR3P: (9, 0),
    }


def _compare_table(side, golden_rows, names, whitelist):
    rows = degeneration_table(side)
    assert len(rows) == len(golden_rows)
    diffs = []
    for row, golden in zip(rows, golden_rows):
        assert (row.index, row.r, row.a, row.delta, row.g, row.k) == (
            golden.index,
            golden.r,
            golden.a,
            golden.delta,
            golden.g,
            golden.k,
        )
        generated = {m.value: cell for m, cell in row.cells}
        for name, shipped in zip(names, (golden.conj1, golden.conj2, golden.contr3)):
            if generated[name] != shipped:
                diffs.append((golden.index, name, generated[name], shipped))
    assert diffs == whitelist


def test_unprimed_table_reproduced(atlas):
    _compare_table(
        TableSide.UNPRIMED, tables.MOVES_UNPRIMED, ("conj1", "conj2", "contr3"), []
    )


def test_primed_table_reproduced_up_to_whitelist(atlas):
    # Exactly one shipped cell disagrees with the derived value.
    _compare_table(
        TableSide.PRIMED,
        tables.MOVES_PRIMED,
        ("conj1p", "conj2p", "contr3p"),
        [("No.16'", "contr3p", (1, 3), (1, 2))],
    )


def test_star_table(atlas):
    rows = degeneration_table(TableSide.STAR)
    assert [(r.index, r.r, r.a, r.delta) for r in rows] == [
        ("No.26", 9, 9, 1),
        ("No.26'", 11, 9, 1),
    ]
    assert all(cell is None for row in rows for _m, cell in row.cells)


def test_impossibility_criteria(atlas):
    for c in atlas.all_classes(Family.U):
        if c.triple in tables.U_EXCLUDED_TRIPLES:
            continue
        g, k = gk_invariants(c)
        assert apply_degeneration(c, Degeneration.CONJ2, atlas).impossible == (g <= 2)
        assert apply_degeneration(c, Degeneration.CONJ2P, atlas).impossible == (k <= 1)
        assert apply_degeneration(c, Degeneration.CONJ1, atlas).impossible == (g < 2)
        assert apply_degeneration(c, Degeneration.CONTR3P, atlas).impossible == (k < 1)


def test_correspondence(atlas):
    report = correspondence_check(atlas)
    assert report.ok, report.violations[:5]
    assert report.checked == 302  # 2 * 50 * 3 moves + 2 self-conjunctions


def test_spec_correspondence_examples(atlas):
    from k3atlas.topology import candidate_isotopy_types

    u22 = atlas.lookup_index(Family.U, "No.22")
    assert u22.triple == (9, 1, 1)
    outcome = apply_degeneration(u22, Degeneration.CONJ1, atlas)
    s22 = atlas.lookup_index(Family.S311, "No.22")
    node1 = next(t for t in candidate_isotopy_types(s22) if t.case is TopCase.NODE1)
    assert outcome.cell() == (node1.alpha, node1.beta) == (4, 4)

    u26 = atlas.lookup_index(Family.U, "No.26")
    s26 = atlas.lookup_index(Family.S311, "No.26")
    assert apply_degeneration(u26, Degeneration.CONJ2, atlas).impossible
    assert all(t.case is not TopCase.NODE2 for t in candidate_isotopy_types(s26))

    u1p = atlas.lookup_index(Family.U, "No.1'")
    s1p = atlas.lookup_index(Family.S311, "No.1'")
    outcome = apply_degeneration(u1p, Degeneration.CONTR3P, atlas)
    isolated = next(t for t in candidate_isotopy_types(s1p) if t.case is TopCase.ISOLATED)
    assert outcome.cell() == (isolated.alpha, isolated.beta) == (0, 8)


def test_outcome_str(atlas):
    # the README's library example
    u22 = atlas.lookup_index(Family.U, "No.22")
    outcome = apply_degeneration(u22, Degeneration.CONJ1, atlas)
    assert str(outcome) == "Conjunction 1): Node (1) (4,4) -> S:(9,1,1,0)"


def test_correspondence_reports_swapped_labels(atlas):
    records = atlas.to_records(Family.S311) + atlas.to_records(Family.U)
    swapped = {"No.1": "No.2", "No.2": "No.1"}
    for rec in records:
        if rec["family"] == "u" and rec["index"] in swapped:
            rec["index"] = swapped[rec["index"]]
    report = correspondence_check(Atlas.from_records(records))
    assert (report.checked, len(report.violations)) == (302, 18)
    assert report.violations[:2] == [
        "No.1 conj1: produced (1, 8), candidate is (0, 8)",
        "No.1 conj1: target S:(2,0,0,0) is not No.1",
    ]


@pytest.mark.parametrize(
    "edits, checked",
    [
        ({("u", "No.1"): "No.1²"}, 299),
        ({("u", "No.26'"): None}, 299),  # (11,9,1), also the source of conj4p
        ({("u", "No.17"): "No.17²", ("s311", "No.17"): "No.17²"}, 299),
        ({("s311", "No.3'"): "No.3'²"}, 299),
        ({("u", "No.2"): "No.2²", ("s311", "No.40"): "No.40²"}, 293),  # No.2 labels No.2' too
    ],
    ids=["u-relabelled", "u-dropped", "both-relabelled", "s311-relabelled", "u-and-s311"],
)
def test_a_missing_pair_class_takes_its_three_moves_off_the_count(atlas, edits, checked):
    # A label missing from either catalog, or from both, compares none of its three moves.
    records = []
    for family in Family:
        for rec in atlas.to_records(family):
            index = edits.get((rec["family"], rec["index"]), rec["index"])  # None: dropped
            if index is not None:
                records.append(dict(rec, index=index))
    report = correspondence_check(Atlas.from_records(records))
    missing = [v for v in report.violations if v.endswith(": missing from one of the catalogs")]
    assert (report.checked, len(missing)) == (checked, (302 - checked) // 3)


def test_transition_graph_shape(atlas):
    graph = transition_graph(atlas)
    assert len(graph.nodes) == 165
    assert len(graph.edges) == 280
    outdeg = {}
    indeg = {}
    for e in graph.edges:
        outdeg[e.source.index] = outdeg.get(e.source.index, 0) + 1
        indeg[e.target.index] = indeg.get(e.target.index, 0) + 1
    assert outdeg["No.26"] == 3  # conj1, contr3, conj4; conj2 impossible
    assert indeg["special-(10,8,0)"] == 1
    assert indeg["special-(9,9,0)"] == 1
    assert "special-(10,10,0)" not in outdeg
    assert "special-(10,8,0)" not in outdeg
    assert "special-(10,10,1)" not in outdeg
    # every numbered class receives an edge from its same-index partner
    for k in range(1, 51):
        assert indeg[atlas.lookup_index(Family.S311, f"No.{k}").index] >= 1
        assert indeg[atlas.lookup_index(Family.S311, f"No.{k}'").index] >= 1


def test_graph_exports(atlas):
    graph = transition_graph(atlas)
    dot = graph_to_dot(graph)
    assert dot == graph_to_dot(transition_graph(atlas))  # deterministic
    assert dot.startswith("digraph degenerations {")
    assert '"U:No.1 (1,1,1)" -> "S:(1,1,1,0)" [label="conj1"];' in dot
    assert dot.count(" -> ") == 280
    payload = graph_to_json(graph)
    assert len(payload["nodes"]) == 165 and len(payload["edges"]) == 280
    edge = payload["edges"][0]
    assert set(edge) == {"from", "to", "move", "alpha", "beta", "case"}
    node_ids = {n["id"] for n in payload["nodes"]}
    assert all(e["from"] in node_ids and e["to"] in node_ids for e in payload["edges"])


def test_graph_exports_of_equal_copies(atlas):
    # a graph whose edges hold equal copies of the nodes, or classes that are
    # not nodes, exports the same text
    def copy(c):
        return InvolutionClass(c.family, c.r, c.a, c.delta, c.h, c.index)

    graph = transition_graph(atlas)
    edges = tuple(
        e._replace(source=copy(e.source), target=copy(e.target)) for e in graph.edges
    )
    copied = TransitionGraph(graph.nodes, edges)
    assert graph_to_dot(copied) == graph_to_dot(graph)
    assert graph_to_json(copied) == graph_to_json(graph)
    no_nodes = TransitionGraph((), graph.edges)
    assert graph_to_dot(no_nodes).count(" -> ") == 280
    assert graph_to_json(no_nodes)["edges"] == graph_to_json(graph)["edges"]


def _dot_quoting_every_use(graph: TransitionGraph) -> str:
    def quote(s: str) -> str:
        return '"{}"'.format(s.replace('"', r"\""))

    lines = ["digraph degenerations {"]
    lines += [f"  {quote(node.label)};" for node in graph.nodes]
    lines += [
        f"  {quote(e.source.label)} -> {quote(e.target.label)} [label={quote(e.move.value)}];"
        for e in graph.edges
    ]
    return "\n".join(lines + ["}"]) + "\n"


def test_dot_export_quotes_every_label_and_move(atlas):
    graph = transition_graph(atlas)
    edge = graph.edges[0]
    # an endpoint that is not a node, with a quote in its label
    s = edge.source
    stray = edge._replace(source=InvolutionClass(s.family, s.r, s.a, s.delta, s.h, 'say "No.1"'))
    for exported in (
        graph,
        TransitionGraph((), graph.edges),
        TransitionGraph(graph.nodes, graph.edges + (stray,)),
    ):
        assert graph_to_dot(exported) == _dot_quoting_every_use(exported)
    assert r'"U:say \"No.1\" (1,1,1)" -> "S:(1,1,1,0)" [label="conj1"];' in graph_to_dot(
        TransitionGraph((), (stray,))
    )


def test_dot_export_is_formatted_once_per_graph(atlas):
    graph = TransitionGraph(*transition_graph(atlas))
    first = graph_to_dot(graph)
    assert graph_to_dot(graph) is first


def test_json_payload_is_fresh_on_every_call(atlas):
    graph = transition_graph(atlas)
    first = graph_to_json(graph)
    untouched = copy.deepcopy(first)
    first["nodes"][0]["id"] = "edited"
    first["edges"].pop()
    first["nodes"].append({"id": "extra"})
    second = graph_to_json(graph)
    assert second == untouched
    assert not _container_ids(first) & _container_ids(second)


def _container_ids(payload: dict) -> set[int]:
    return {id(x) for x in (payload, *payload.values(), *payload["nodes"], *payload["edges"])}


def test_no_stale_export_across_graphs(atlas, tmp_path, monkeypatch):
    graph = transition_graph(atlas)
    graph_to_dot(graph)
    graph_to_json(graph)
    # a pickle, and so a copy, holds the fields only: it formats its own exports
    assert pickle.dumps(graph) == pickle.dumps(TransitionGraph(*graph))
    for other in (graph._replace(edges=graph.edges[:1]), TransitionGraph((), graph.edges)):
        assert graph_to_dot(other) == _dot_quoting_every_use(other)
        payload = graph_to_json(other)
        assert [n["id"] for n in payload["nodes"]] == [c.label for c in other.nodes]
        assert [(e["from"], e["move"]) for e in payload["edges"]] == [
            (e.source.label, e.move.value) for e in other.edges
        ]
    # an edited external catalog parses to a new atlas, so a new graph and text
    for family in Family:
        (tmp_path / f"{family.value}.json").write_text(json.dumps(atlas.to_records(family)))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(tmp_path))
    before = graph_to_dot(transition_graph())
    assert before == graph_to_dot(graph)
    records = atlas.to_records(Family.U)
    (tmp_path / "u.json").write_text(json.dumps(records + records[:1]))
    after = graph_to_dot(transition_graph())
    assert after != before
    assert (before.count("\n"), after.count("\n")) == (447, 451)
    assert graph_to_dot(transition_graph()) == after


def test_exports_do_not_depend_on_record_order(atlas, tmp_path, monkeypatch):
    # The graph and the move tables come out in atlas order, which the Atlas
    # builds by sorting; a shuffled external catalog must give the same text.
    rng = random.Random(20121)
    for family in Family:
        records = atlas.to_records(family)
        rng.shuffle(records)
        (tmp_path / f"{family.value}.json").write_text(json.dumps(records))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(tmp_path))
    shuffled = load_atlas()
    assert shuffled is not atlas
    assert graph_to_dot(transition_graph(shuffled)) == graph_to_dot(transition_graph(atlas))
    assert graph_to_json(transition_graph(shuffled)) == graph_to_json(transition_graph(atlas))
    for side in TableSide:
        assert degeneration_table(side, shuffled) == degeneration_table(side, atlas)


def test_oval_monotonicity(atlas):
    drop = {
        Degeneration.CONJ1: 1,
        Degeneration.CONJ2: 2,
        Degeneration.CONTR3: 1,
        Degeneration.CONJ1P: 1,
        Degeneration.CONJ2P: 2,
        Degeneration.CONTR3P: 1,
    }
    for c in atlas.all_classes(Family.U):
        if c.triple in tables.U_EXCLUDED_TRIPLES:
            continue
        g, k = gk_invariants(c)
        before = (g - 1) + k
        for move in UNPRIMED_MOVES + PRIMED_MOVES:
            outcome = apply_degeneration(c, move, atlas)
            if outcome.impossible:
                continue
            after = outcome.iso.alpha + outcome.iso.beta
            assert before - after == drop[move]


def test_shared_outcomes_match_apply_degeneration(atlas):
    pairs = [
        (c, move)
        for c in atlas.all_classes(Family.U)
        if c.triple not in tables.U_EXCLUDED_TRIPLES
        for move in applicable_moves(c)
    ]
    assert len(pairs) == 368
    # An atlas of its own derives its pass afresh: each possible outcome is one graph edge, in
    # the order of the pairs, and the self-conjunctions' outcomes are kept whole.
    fresh = Atlas(_embedded_classes())
    own = [apply_degeneration(c, move, fresh) for c, move in pairs]
    edges = [
        TransitionEdge(c, o.target, move, o.iso) for (c, move), o in zip(pairs, own) if not o.impossible
    ]
    kept = transition_graph(fresh).edges
    assert kept == tuple(edges) and all(e.target is o.target for e, o in zip(kept, edges))
    stars = [apply_degeneration(fresh.lookup(Family.U, *m.spec.source), m, fresh) for m in STAR_MOVES]
    assert fresh._pass.stars == tuple(stars) and degenerations._read(fresh) is fresh._pass
    # what the public functions read of one atlas's pass, they read alike of another's
    for side in TableSide:
        rows = degeneration_table(side, fresh)
        assert rows == degeneration_table(side, atlas) == degeneration_table(side)
    assert correspondence_check(fresh) == correspondence_check(atlas)
    assert transition_graph(fresh) == transition_graph(atlas)
    assert transition_graph(atlas) is transition_graph(None) is transition_graph()


@pytest.mark.parametrize(
    "family, index, failing, error, lost",
    [
        # the target of the primed moves from U:No.17' (13,7,1) only
        (Family.S311, "No.17'", {TableSide.PRIMED, "graph"}, r"\(12, 8, 1\) and H=Z2", (13, 7, 1)),
        # the target of conj4 only, and no correspondence pair
        (Family.S311, "special-(10,8,0)", {TableSide.STAR, "graph"}, r"\(10, 8, 0\) and H=0", None),
        # the partner that labels U:No.43 (13,5,1) in the primed table
        (Family.U, "No.16", {TableSide.PRIMED}, r"related invariants of U:No.43 \(13,5,1\)", None),
    ],
    ids=["s311-No.17'", "s311-special-(10,8,0)", "u-No.16"],
)
def test_a_missing_class_fails_only_what_reads_it(atlas, family, index, failing, error, lost):
    records = [rec for f in Family for rec in atlas.to_records(f) if (f, rec["index"]) != (family, index)]
    dropped = Atlas.from_records(records)
    readers = {side: lambda a, side=side: degeneration_table(side, a) for side in TableSide}
    readers["graph"] = transition_graph
    for _call in range(2):  # a first and a warm call
        for reader, read in readers.items():
            if reader in failing:
                with pytest.raises(NotInAtlas, match=error):
                    read(dropped)
            else:
                assert read(dropped)
        # the checks read every outcome and row, each through the reader of the whole pass
        checks = validation._check_move_tables, validation._check_monotonicity, validation._check_graph
        for check in (degenerations._read, correspondence_check, *checks):
            with pytest.raises(NotInAtlas, match=error):
                check(dropped)
    if lost:  # the point query raises as the pass recorded
        with pytest.raises(NotInAtlas, match=error):
            for move in TABLE_MOVES:
                apply_degeneration(dropped.lookup(Family.U, *lost), move, dropped)


# One instance of each catalog value type, with the repr it had when the types
# were frozen dataclasses: NamedTuples print the same text.
VALUE_REPRS = {
    "IsotopyType": "IsotopyType(case=<TopCase.NODE1: 'Node (1)'>, alpha=4, beta=4, "
    "table_data=True, conjectured_nonrealizable=False)",
    "SurfaceDescriptor": "SurfaceDescriptor(genera=(2, 1, 0, 0))",
    "RegionPiece": "RegionPiece(kind=<PieceKind.ANNULUS_WITH_HOLES: 'annulus with holes'>, "
    "holes=3)",
    "RegionDescriptor": "RegionDescriptor(pieces=(RegionPiece(kind=<PieceKind.ANNULUS_WITH_"
    "HOLES: 'annulus with holes'>, holes=1), RegionPiece(kind=<PieceKind.DISK: 'disk'>, "
    "holes=0), RegionPiece(kind=<PieceKind.DISK: 'disk'>, holes=0), RegionPiece(kind="
    "<PieceKind.DISK: 'disk'>, holes=0)))",
    "MoveSpec": "MoveSpec(label=\"Conjunction 4')\", case=<TopCase.NODE_STAR: 'Node (*)'>, "
    "primed=True, ovals=1, source=(11, 9, 1), star_target=(9, 9, 0, <HInvariant.Z2: 'Z2'>))",
    "DegenerationOutcome": "DegenerationOutcome(move=<Degeneration.CONJ1: 'conj1'>, "
    "iso=IsotopyType(case=<TopCase.NODE1: 'Node (1)'>, alpha=4, beta=4, table_data=True, "
    "conjectured_nonrealizable=False), target=InvolutionClass(family=<Family.S311: "
    "'s311'>, r=9, a=1, delta=1, h=<HInvariant.ZERO: '0'>, index='No.22'))",
    "MoveTableRow": "MoveTableRow(index='No.26', r=9, a=9, delta=1, g=2, k=0, "
    "cells=((<Degeneration.CONJ4: 'conj4'>, None),))",
    "TransitionEdge": "TransitionEdge(source=InvolutionClass(family=<Family.U: 'u'>, r=1, "
    "a=1, delta=1, h=<HInvariant.NOT_APPLICABLE: 'NA'>, index='No.1'), target="
    "InvolutionClass(family=<Family.S311: 's311'>, r=1, a=1, delta=1, h=<HInvariant.ZERO: "
    "'0'>, index='No.1'), move=<Degeneration.CONJ1: 'conj1'>, iso=IsotopyType(case="
    "<TopCase.NODE1: 'Node (1)'>, alpha=0, beta=8, table_data=True, "
    "conjectured_nonrealizable=False))",
    "TransitionGraph": "TransitionGraph(nodes=(InvolutionClass(family=<Family.S311: "
    "'s311'>, r=1, a=1, delta=0, h=<HInvariant.Z2: 'Z2'>, index=\"No.50'\"),), edges=("
    "TransitionEdge(source=InvolutionClass(family=<Family.U: 'u'>, r=1, a=1, delta=1, "
    "h=<HInvariant.NOT_APPLICABLE: 'NA'>, index='No.1'), target=InvolutionClass(family="
    "<Family.S311: 's311'>, r=1, a=1, delta=1, h=<HInvariant.ZERO: '0'>, index='No.1'), "
    "move=<Degeneration.CONJ1: 'conj1'>, iso=IsotopyType(case=<TopCase.NODE1: 'Node (1)'>, "
    "alpha=0, beta=8, table_data=True, conjectured_nonrealizable=False)),))",
}


@pytest.fixture(scope="module")
def values(atlas):
    graph = transition_graph(atlas)
    return {
        "IsotopyType": candidate_isotopy_types(atlas.lookup_index(Family.S311, "No.22"))[0],
        "SurfaceDescriptor": SurfaceDescriptor((0, 2, 1, 0)),
        "RegionPiece": RegionPiece(PieceKind.ANNULUS_WITH_HOLES, 3),
        "RegionDescriptor": region_descriptor(TopCase.NODE2, 1, 2, Region.A_PLUS),
        "MoveSpec": Degeneration.CONJ4P.spec,
        "DegenerationOutcome": apply_degeneration(
            atlas.lookup_index(Family.U, "No.22"), Degeneration.CONJ1, atlas
        ),
        "MoveTableRow": degeneration_table(TableSide.STAR, atlas)[0],
        "TransitionEdge": graph.edges[0],
        "TransitionGraph": TransitionGraph(graph.nodes[:1], graph.edges[:1]),
    }


@pytest.mark.parametrize("name", list(VALUE_REPRS))
def test_value_type_contract(values, name):
    value = values[name]
    assert type(value).__name__ == name
    assert repr(value) == VALUE_REPRS[name]
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)

