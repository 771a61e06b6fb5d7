"""The eight non-increasing simplest degenerations and their transition graph.

A class of the nonsingular-curve family bounds its region by the
non-contractible component, the section, and two pools of empty ovals:
(g-1) inner ones and k outer ones.  Conjunctions merge an oval with the
non-contractible component (1, 1') or with another oval of the same pool
(2, 2'); contractions shrink one oval to a point (3, 3'); the two
self-conjunctions (4, 4') produce the non-contractible node case.  Each
move is described once, by its ``MoveSpec`` (``Degeneration.spec``); the
outcomes, the move tables, the correspondence check and the CLI choices
are all derived from these specs.  Every outcome is a candidate only: none
of these degenerations is known to be realizable for every pair of end
curves.

``degeneration_table``, ``correspondence_check``, ``transition_graph`` and ``validation``
read the two passes an atlas derives on first use and keeps, ``_u_pass`` and ``_s311_pass``,
whose docstrings state what they keep.  A side or move that is no member of its enum is
refused with ``InconsistentInput``.  Specs, outcomes, rows, edges and graphs are NamedTuples.
"""

from collections import Counter
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType, SimpleNamespace
from typing import NamedTuple

from . import tables
from ._checked import Checked
from .atlas import (
    Atlas,
    CheckSection,
    Family,
    HInvariant,
    IdentityEnum,
    InvolutionClass,
    gk_invariants,
    load_atlas,
    related_key,
)
from .errors import InconsistentInput, MoveNotApplicable, NotInAtlas, SpecialClass, WrongFamily
from .tables import _CELLS, _SHARED
from .topology import (
    ISOTOPY_CELL_CASES,
    STAR_KEY_H0,
    STAR_KEY_Z2,
    IsotopyType,
    Region,
    TopCase,
    _invariants,
    _shared_datum,
    candidate_isotopy_types,
    isotopy_row,
)

# Module globals, read per call in place of class attributes: see IdentityEnum.
_S311, _U, _NODE_STAR, _NODE2 = Family.S311, Family.U, TopCase.NODE_STAR, TopCase.NODE2
_ZERO, _Z2, _NOT_APPLICABLE = HInvariant.ZERO, HInvariant.Z2, HInvariant.NOT_APPLICABLE


class MoveSpec(NamedTuple):
    """What one move does.

    A move draws on one oval pool, k when ``primed`` and g-1 otherwise, and
    consumes ``ovals`` of them: it is impossible when the pool is smaller,
    and otherwise leaves (alpha, beta) = (the other pool, this pool minus
    ``ovals``) in the case ``case``.  It lands on the class with the same
    (r, a, delta) and H = 0, or on (r-1, a+1, delta) with H = Z/2 when
    primed.  A self-conjunction instead starts from the class ``source``
    only, whose pool holds one oval and the other pool none, and lands on
    the star class ``star_target``, where no oval is left.
    """

    label: str
    case: TopCase
    primed: bool
    ovals: int
    source: tuple[int, int, int] | None = None
    star_target: tuple[int, int, int, HInvariant] | None = None

    def pools(self, g: int, k: int) -> tuple[int, int]:
        """(this move's pool, the other pool) of a class with invariants (g, k)."""
        return (k, g - 1) if self.primed else (g - 1, k)

    def cell(self, g: int, k: int) -> tuple[int, int] | None:
        pool, other = self.pools(g, k)
        return None if pool < self.ovals else (other, pool - self.ovals)

    def target_key(self, c: InvolutionClass) -> tuple[int, int, int, HInvariant]:
        if self.star_target is not None:
            return self.star_target
        if self.primed:
            return (c.r - 1, c.a + 1, c.delta, _Z2)
        return (c.r, c.a, c.delta, _ZERO)


class Degeneration(IdentityEnum):
    """A move: its value is the name the CLI takes, ``spec`` what it does."""

    spec: MoveSpec

    CONJ1 = "conj1", MoveSpec("Conjunction 1)", TopCase.NODE1, False, 1)
    CONJ2 = "conj2", MoveSpec("Conjunction 2)", TopCase.NODE2, False, 2)
    CONTR3 = "contr3", MoveSpec("Contraction 3)", TopCase.ISOLATED, False, 1)
    CONJ1P = "conj1p", MoveSpec("Conjunction 1')", TopCase.NODE1, True, 1)
    CONJ2P = "conj2p", MoveSpec("Conjunction 2')", TopCase.NODE2, True, 2)
    CONTR3P = "contr3p", MoveSpec("Contraction 3')", TopCase.ISOLATED, True, 1)
    CONJ4 = "conj4", MoveSpec(
        "Conjunction 4)", TopCase.NODE_STAR, False, 1, (9, 9, 1), STAR_KEY_H0
    )
    CONJ4P = "conj4p", MoveSpec(
        "Conjunction 4')", TopCase.NODE_STAR, True, 1, (11, 9, 1), STAR_KEY_Z2
    )

    def __new__(cls, value: str, spec: MoveSpec):
        # A plain attribute, not a property over a table: the checks read
        # ``move.spec`` on every step.
        move = object.__new__(cls)
        move._value_ = value
        move.spec = spec
        return move


UNPRIMED_MOVES = tuple(m for m in Degeneration if not m.spec.source and not m.spec.primed)
PRIMED_MOVES = tuple(m for m in Degeneration if not m.spec.source and m.spec.primed)
STAR_MOVES = tuple(m for m in Degeneration if m.spec.source)
TABLE_MOVES = UNPRIMED_MOVES + PRIMED_MOVES  # the order of the U pass's moves per class


class DegenerationOutcome(NamedTuple):
    """Result of one move: a candidate isotopy type with its target class,
    or an impossibility when the required oval pool is too small."""

    move: Degeneration
    iso: IsotopyType | None
    target: InvolutionClass | None

    @property
    def impossible(self) -> bool:
        return self.iso is None

    def cell(self) -> tuple[int, int] | None:
        if self.iso is None or self.iso.case is _NODE_STAR:
            return None
        return _CELLS[self.iso.alpha][self.iso.beta]  # the shared cell: see tables

    def __str__(self) -> str:
        if self.impossible:
            return f"{self.move.spec.label}: impossible"
        return f"{self.move.spec.label}: {self.iso} -> {self.target}"


# The two classes of the nonsingular-curve family that no move starts from.
_NO_MOVES = {
    (10, 10, 0): "(10,10,0) has an empty real part; no real curve degenerates",
    (10, 8, 0): "(10,8,0) carries no oval bookkeeping; degenerations are undefined",
}


def apply_degeneration(
    c: InvolutionClass, move: Degeneration, atlas: Atlas | None = None
) -> DegenerationOutcome:
    """One simplest degeneration step applied to a nonsingular-curve class."""
    atlas = atlas or load_atlas()
    if c.family is not _U:
        raise WrongFamily("degenerations start from the nonsingular-curve family")
    if c.triple in _NO_MOVES:
        raise SpecialClass(_NO_MOVES[c.triple])
    if type(move) is not Degeneration:
        raise InconsistentInput("a move is a Degeneration member")
    spec = move.spec
    if spec.source and c.triple != spec.source:
        raise MoveNotApplicable(
            "the self-conjunction {} starts from ({},{},{}) only".format(
                spec.label.split()[-1], *spec.source
            )
        )
    cell = spec.cell(*gk_invariants(c))
    if cell is None:
        return DegenerationOutcome(move, None, None)
    key = spec.target_key(c)
    target = atlas.lookup(_S311, *key)
    if target is None:
        raise NotInAtlas(f"no class with invariants {key[:3]} and H={key[3].value} exists")
    return DegenerationOutcome(move, IsotopyType(spec.case, *cell), target)


def applicable_moves(c: InvolutionClass) -> tuple[Degeneration, ...]:
    return TABLE_MOVES + tuple(m for m in STAR_MOVES if m.spec.source == c.triple)


# The No.k / No.k' labels the correspondence pairs, each with its side: 0 unprimed, 1 primed.
_PAIR_LABELS = tuple((f"No.{k}{p}", side) for k in range(1, 51) for side, p in ((0, ""), (1, "'")))
# Per side, its table moves and the getter of the IsotopyRow fields that hold their cases' cells.
_SIDES = tuple(
    (moves, itemgetter(*(6 + ISOTOPY_CELL_CASES.index(m.spec.case) for m in moves)))
    for moves in (UNPRIMED_MOVES, PRIMED_MOVES)
)


def _u_pass(atlas: Atlas) -> SimpleNamespace:
    """The U pass, kept by ``Atlas._pass``: what the move tables, the graph and the checks
    read of the U family.  It calls ``apply_degeneration`` once for each applicable (class,
    move) of the classes with moves, 368 times, and keeps ``stars`` (the outcomes of
    ``STAR_MOVES``, None for a missing source class), ``flat`` (the unprimed and the primed
    move-table rows as tuples (index, r, a, delta, g, k, cell, cell, cell)), ``star_flat`` (the
    star rows as tuples (index, r, a, delta, g, k, case)), each row the shipped ``tables`` row
    object where equal (see ``tables._SHARED``), ``rows`` (``TableSide`` -> the ``MoveTableRow``
    s built from them), ``oval_data`` (each distinct (pools, after) of a table move, its pool,
    the other pool and the ovals it uses with the alpha + beta it leaves, None where impossible,
    mapped to its carriers (number, class, move), numbered in move order; and the move count),
    ``pairs`` (per No.k / No.k' label, the cells of the moves of its side and the targets of the
    possible ones; None for a missing class or one without moves) and ``graph``.  ``missing``
    keeps the first ``NotInAtlas`` per reader, for ``_read`` to raise: a missing target under
    its move's table and ``"graph"``, a missing partner under the primed table, and either
    under ``None``, the reader of the whole pass (the checks).  A class without an integral
    (g, k) raises ``SpecialClass`` under its label.

    All are tuples, or dicts whose values are immutable.  Only generator outputs are kept,
    never a verdict: every check compares them with its expected side on every call, and
    walks them only to word a mismatch.  So does ``_s311_pass``.
    """
    u = SimpleNamespace(missing={})
    flat, sides, stars, edges, ovals, n = ([], []), {}, {}, [], {}, 0  # n: the moves numbered so far
    for c in atlas.all_classes(_U):
        if c.triple in tables.U_EXCLUDED_TRIPLES:
            continue
        try:
            g, k = gk_invariants(c)
        except SpecialClass as exc:  # name the class: an external catalog may hold any record
            raise SpecialClass(f"{c.index}: {exc}") from None
        head = c.r, c.a, c.delta, g, k
        # The primed table labels a class after its related partner (a plain lookup, so that
        # a shadowed duplicate is labelled too); whenever k >= 1 the partner has g = k + 1 >= 2
        # and hence an unprimed label.
        if k >= 1:
            try:  # related_class raises for a missing partner
                partner = atlas.lookup(_U, *related_key(c)) or atlas.related_class(c)
            except NotInAtlas as exc:
                for reader in (_PRIMED, None):
                    u.missing.setdefault(reader, exc.with_traceback(None))
        got = {}  # move -> its outcome
        for move in applicable_moves(c):
            try:
                outcome = got[move] = apply_degeneration(c, move, atlas)
            except NotInAtlas as exc:
                for reader in (_TABLE_OF[move], "graph", None):
                    u.missing.setdefault(reader, exc.with_traceback(None))
                # Stands in, unkept, in rows that raise before they are read.
                got[move] = DegenerationOutcome(move, None, None)
                continue
            if outcome.iso is not None:
                edges.append(TransitionEdge(c, outcome.target, move, outcome.iso))
            if move.spec.source:
                stars[move] = outcome
        outcomes = tuple([got[m] for m in TABLE_MOVES])
        for move, o in zip(TABLE_MOVES, outcomes):
            datum = move.spec.pools(g, k) + (move.spec.ovals,), o.iso and o.iso.alpha + o.iso.beta
            ovals[datum] = ovals.get(datum, ()) + ((n, c, move),)
            n += 1
        unprimed, primed = sides[c.key] = [
            (tuple([o.cell() for o in part]), tuple([o.target for o in part if o.iso is not None]))
            for part in (outcomes[:3], outcomes[3:])
        ]
        if g >= 2:
            flat[0].append((c.index, *head, *unprimed[0]))
        if k >= 1 and _PRIMED not in u.missing:  # else no primed row is read
            flat[1].append((f"{partner.index}'", *head, *primed[0]))
    for rows in flat:  # by the number in the label (17 for No.17'); a label without one goes last
        rows.sort(key=lambda row: int("".join(filter(str.isdecimal, row[0])) or 10**6))
    u.flat, u.oval_data = tuple([tuple(map(_SHARED.get, rows, rows)) for rows in flat]), (ovals, n)
    u.rows = {
        side: tuple([MoveTableRow(*row[:6], tuple(zip(moves, row[6:]))) for row in rows])
        for side, (moves, _getter), rows in zip((_UNPRIMED, _PRIMED), _SIDES, u.flat)
    }
    u.stars = tuple([stars.get(m) for m in STAR_MOVES])
    heads = [(m, o, (c.index, c.r, c.a, c.delta, *c.gk)) for m, o in zip(STAR_MOVES, u.stars)
             if o and (c := atlas.lookup(_U, *m.spec.source))]
    u.rows[_STAR] = tuple([MoveTableRow(*head, ((m, o.cell()),)) for m, o, head in heads])
    star = [head + (m.spec.case.value,) for m, _o, head in heads]
    u.star_flat = tuple(map(_SHARED.get, star, star))
    u.pairs = tuple([c and sides.get(c.key, (None, None))[side] for c, side in _resolve(atlas, _U)])
    u.graph = _derive_graph(atlas, edges)
    return u


def _s311_pass(atlas: Atlas) -> SimpleNamespace:
    """The S311 pass, kept by ``Atlas._s``: what the checks read of the S311 family.  It calls
    ``candidate_isotopy_types`` once per class and keeps ``full`` (c.key -> its candidates with
    the degenerate variants), ``rows`` (H -> (r, a, delta) -> the isotopy row of its table
    candidates, the shipped row object where equal), ``shipped`` (per H: H, the shipped isotopy
    table as read here, and the row generated for each of its rows, which the isotopy section
    reuses while the table is that same object), ``roundtrip_data`` (each distinct (r, a, H,
    case is Node (2), found) of a non-star table candidate, found being the (r, a, H) that
    ``topology._invariants`` recovers and its alpha + beta, mapped to its carriers (number,
    class, candidate) numbered in table candidate order; and the count of those, star ones
    too), ``euler`` (the distinct ``topology._shared_datum`` of all candidates, first seen
    first, and their count) and ``pairs`` (per label, the cells of its isotopy row in the order
    of those moves, and the S311 class once per cell that is not None; () for a missing class).
    """
    s = SimpleNamespace(full={}, rows={_ZERO: {}, _Z2: {}})
    data, n = {}, 0  # the roundtrip data, and the table candidates numbered so far
    classes = atlas.all_classes(_S311)
    for c in classes:
        full = s.full[c.key] = tuple(candidate_isotopy_types(c, include_degenerate=True))
        table = [t for t in full if t.table_data]
        s.rows[c.h][c.triple] = isotopy_row(c, table)  # below, the shipped row where equal
        covered = Region.A_MINUS if c.h is _ZERO else Region.A_PLUS
        for t in table:
            if t.case is not _NODE_STAR:
                datum = c.r, c.a, c.h, t.case is _NODE2, _invariants(*t[:3], covered) + (t.alpha + t.beta,)
                data[datum] = data.get(datum, ()) + ((n, c, t),)
            n += 1
    s.roundtrip_data = data, n
    s.rows = {h: dict(zip(rows, map(_SHARED.get, rows.values(), rows.values()))) for h, rows in s.rows.items()}
    shipped = (_ZERO, tables.ISOTOPY_H0), (_Z2, tables.ISOTOPY_Z2)
    s.shipped = tuple([(h, table, _generated_rows(s.rows[h], table)) for h, table in shipped])
    lists = [s.full[c.key] for c in classes]
    triples = dict.fromkeys(t[:3] for ts in lists for t in ts)
    s.euler = tuple(dict.fromkeys([_shared_datum(*t) for t in triples])), sum(map(len, lists))
    rows = [(c, c and _SIDES[side][1](s.rows[c.h][c.triple])) for c, side in _resolve(atlas, _S311)]
    s.pairs = tuple([
        () if c is None else (cells, tuple([c for cell in cells if cell is not None]))
        for c, cells in rows
    ])
    return s


_TRIPLE = itemgetter(slice(1, 4))  # (r, a, delta) of a shipped isotopy row


def _generated_rows(rows: dict, shipped: tuple) -> tuple:  # None for a row of no class
    return tuple(map(rows.get, map(_TRIPLE, shipped)))


def _resolve(atlas: Atlas, family: Family) -> list:
    # The class of ``family`` under each pair label (None where missing) with the label's side.
    return [(atlas.lookup_index(family, label), side) for label, side in _PAIR_LABELS]


class TableSide(IdentityEnum):
    UNPRIMED = "unprimed"
    PRIMED = "primed"
    STAR = "star"


_UNPRIMED, _PRIMED, _STAR = TableSide.UNPRIMED, TableSide.PRIMED, TableSide.STAR
# The table that reads each move's outcomes.
_TABLE_OF = {m: side for side, ms in zip(TableSide, (UNPRIMED_MOVES, PRIMED_MOVES, STAR_MOVES)) for m in ms}


class MoveTableRow(NamedTuple):
    index: str
    r: int
    a: int
    delta: int
    g: int
    k: int
    cells: tuple[tuple[Degeneration, tuple[int, int] | None], ...]


def _read(atlas: Atlas | None, reader=None):
    """Of the U pass of ``atlas`` (default ``load_atlas()``): the rows of ``reader`` (a
    ``TableSide``), the graph (``"graph"``) or the whole pass (``None``), or the
    ``NotInAtlas`` that ``missing`` keeps for that reader, raised."""
    u = (atlas or load_atlas())._pass
    if reader in u.missing:
        raise u.missing[reader].with_traceback(None)
    return u if reader is None else u.graph if reader == "graph" else u.rows[reader]


def degeneration_table(side: TableSide, atlas: Atlas | None = None) -> list[MoveTableRow]:
    """Regenerate a full move table from ``apply_degeneration``.

    The unprimed table lists every class with g >= 2, the primed table
    every class with k >= 1, each under its index on that side; the star
    table holds the two self-conjunction rows.  Each call returns a new list.
    """
    if type(side) is not TableSide:
        raise InconsistentInput("a side is TableSide.UNPRIMED, TableSide.PRIMED or TableSide.STAR")
    return list(_read(atlas, side))


# ---------------------------------------------------------------------------
# The correspondence between degeneration outcomes and isotopy candidates


def correspondence_check(atlas: Atlas | None = None) -> CheckSection:
    """Degenerations of the class No.k land exactly on the isotopy
    candidates of the class No.k on the other side, move by move; likewise
    for No.k' with the primed moves, and for the two self-conjunctions.
    """
    atlas = atlas or load_atlas()
    u, s = _read(atlas), atlas._s
    # Three moves a pair label, none for a pair missing a class: None and () equal no other side.
    violations, checked = [], 3 * len(_PAIR_LABELS) + len(STAR_MOVES)
    if u.pairs != s.pairs:  # compared whole first; only the pairs that differ are worded
        for (label, side), u_side, s_side in zip(_PAIR_LABELS, u.pairs, s.pairs):
            if u_side != s_side:
                violations += _word_pair(atlas, label, side, u_side, s_side)
                checked -= 3 * (u_side is None or s_side == ())
    # Each self-conjunction lands on a star class: its target is apply_degeneration's
    # lookup of ``move.spec.star_target``, whose isotopy row has a star real part.
    for move, o in zip(STAR_MOVES, u.stars):
        if o is None:  # the source class is missing
            violations.append(f"{move.spec.source}: missing from the catalog")
        elif o.iso is None or s.rows[o.target.h][o.target.triple].node_star is None:
            violations.append(f"{move.spec.source} {move.value}: star outcome mismatch")
    return CheckSection("correspondence", checked, violations, [], {})


def _word_pair(atlas: Atlas, label: str, side: int, u_side, s_side) -> list[str]:
    if u_side is None or s_side == ():
        if u_side is None and (u_class := atlas.lookup_index(_U, label)):  # skipped: an excluded triple
            raise SpecialClass(_NO_MOVES[u_class.triple])
        return [f"{label}: missing from one of the catalogs"]
    s_class, targets, out = atlas.lookup_index(_S311, label), iter(u_side[1]), []
    for move, cell, expected in zip(_SIDES[side][0], u_side[0], s_side[0]):
        name, case = f"{label} {move.value}", move.spec.case.value
        if cell is None:  # impossible: a table move has no star case
            if expected is not None:
                out.append(f"{name}: impossible, but {case} {expected} is a candidate")
            continue
        if expected is None:
            out.append(f"{name}: produced {cell}, but {case} is not a candidate of {label}")
        elif cell != expected:
            out.append(f"{name}: produced {cell}, candidate is {expected}")
        if (target := next(targets)) is not s_class:
            out.append(f"{name}: target {target} is not {label}")
    return out


# ---------------------------------------------------------------------------
# Transition graph


class TransitionEdge(NamedTuple):
    source: InvolutionClass
    target: InvolutionClass
    move: Degeneration
    iso: IsotopyType


class _GraphFields(NamedTuple):
    nodes: tuple[InvolutionClass, ...]
    edges: tuple[TransitionEdge, ...]


class TransitionGraph(Checked, _GraphFields):
    """The nodes and edges; the exports are formatted on first use and kept in
    the instance ``__dict__``, so copies and unpickled graphs format their own."""

    @cached_property
    def _dot(self) -> str:
        lines = ["digraph degenerations {"]
        lines += [f"  {_quote(node.label)};" for node in self.nodes]
        lines += [
            f"  {_quote(e.source.label)} -> {_quote(e.target.label)}"
            f" [label={_quote(e.move.value)}];"
            for e in self.edges
        ]
        lines.append("}")
        return "\n".join(lines) + "\n"

    @cached_property
    def in_degree(self) -> MappingProxyType:
        """node key -> the number of edges into that node, read-only."""
        into = Counter(e.target.key for e in self.edges)
        return MappingProxyType({n.key: into[n.key] for n in self.nodes})

    @cached_property
    def _records(self) -> tuple[tuple[dict, ...], tuple[dict, ...]]:
        nodes = tuple(
            {
                "id": c.label,
                "family": c.family.value,
                "index": c.index,
                "r": c.r,
                "a": c.a,
                "delta": c.delta,
                "h": None if c.h is _NOT_APPLICABLE else c.h.value,
            }
            for c in self.nodes
        )
        edges = tuple(
            {
                "from": e.source.label,
                "to": e.target.label,
                "move": e.move.value,
                "alpha": e.iso.alpha,
                "beta": e.iso.beta,
                "case": e.iso.case.value,
            }
            for e in self.edges
        )
        return nodes, edges


def transition_graph(atlas: Atlas | None = None) -> TransitionGraph:
    """All candidate degeneration edges over both catalogs, in atlas order."""
    return _read(atlas, "graph")


def _derive_graph(atlas: Atlas, edges: list) -> TransitionGraph:
    # The U pass's edges over both catalogs' classes; the last step of that pass.
    return TransitionGraph(atlas.all_classes(_S311) + atlas.all_classes(_U), tuple(edges))


def _quote(s: str) -> str:
    """``s`` as a DOT quoted string."""
    return '"{}"'.format(s.replace('"', r"\""))


def graph_to_dot(graph: TransitionGraph) -> str:
    """The graph as DOT text, formatted once per graph: later calls return the same str."""
    return graph._dot


def graph_to_json(graph: TransitionGraph) -> dict:
    """A fresh ``{"nodes": [...], "edges": [...]}`` payload on every call: new lists of
    copies of record dicts built once per graph, whose values are str, int or None."""
    nodes, edges = graph._records
    return {"nodes": list(map(dict.copy, nodes)), "edges": list(map(dict.copy, edges))}
