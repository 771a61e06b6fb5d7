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
read outcomes (also six per U class in one tuple, their cells and targets per side and
the alpha + beta each leaves), candidate lists (also each one's roundtrip (r, a, H) and oval
sum), isotopy rows (also per shipped row), move-table rows (also flat), No.k / No.k' class
pairs (also their cells) and the graph (with each node's in-degree) through the atlas's one
``Derivation`` (``Derivation.of``), which derives each on first request and keeps it while the
atlas lives.  Only generator outputs are kept, never a verdict: every check runs on every call,
comparing whole tuples.  The specs, outcomes, table rows, edges and graphs are immutable NamedTuples.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
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
)
from .errors import MoveNotApplicable, NotInAtlas, SpecialClass, WrongFamily
from .tables import U_EXCLUDED_TRIPLES, IsotopyRow
from .topology import (
    ISOTOPY_CELL_CASES,
    STAR_KEY_H0,
    STAR_KEY_Z2,
    IsotopyType,
    Region,
    TopCase,
    _invariants,
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
TABLE_MOVES = UNPRIMED_MOVES + PRIMED_MOVES  # the order of Derivation.outcomes


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
        return (self.iso.alpha, self.iso.beta)

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


# Each table move with the field of an IsotopyRow that holds its case's cell;
# per side (unprimed, primed), its part of both and the getter of those fields.
_CELL_AT = tuple((m, 6 + ISOTOPY_CELL_CASES.index(m.spec.case)) for m in TABLE_MOVES)
_PARTS = slice(0, 3), slice(3, 6)
_ROW_CELLS = tuple(itemgetter(*(at for _m, at in _CELL_AT[part])) for part in _PARTS)


class Derivation:
    """The outcomes (also as cells and targets, and oval counts), candidate lists (also as
    roundtrips), distinct Euler triples, isotopy rows (also per shipped row), No.k / No.k' pairs
    (also as cells), move-table rows (also flat) and graph of one atlas, each derived on first
    request and kept while it lives; all immutable. The tables, correspondence and graph take one."""

    def __init__(self, atlas: Atlas):
        self.atlas = atlas
        self._outcomes: dict[tuple[tuple, Degeneration], DegenerationOutcome] = {}
        self._by_class: dict[tuple, tuple[DegenerationOutcome, ...]] = {}
        self._cells: dict[tuple, tuple[tuple[tuple, tuple], ...]] = {}
        self._rows: dict[TableSide, tuple[MoveTableRow, ...]] = {}

    @classmethod
    def of(cls, atlas: Atlas | Derivation | None) -> Derivation:
        """A Derivation as given, else the one stored on the atlas (default
        ``load_atlas()``), made on first request; ``Derivation(atlas)``
        makes a new, unshared one."""
        if isinstance(atlas, Derivation):
            return atlas
        atlas = atlas or load_atlas()
        # Two threads may both make one; either serves, as both derive alike.
        if atlas._derivation is None:
            atlas._derivation = cls(atlas)
        return atlas._derivation

    # Keyed by ``c.key``, a tuple hashed in C: its H part fixes the family, and
    # apply_degeneration and candidate_isotopy_types read nothing else of c.
    def outcome(self, c: InvolutionClass, move: Degeneration) -> DegenerationOutcome:
        pair = c.key, move
        found = self._outcomes.get(pair)
        if found is None:
            found = self._outcomes[pair] = apply_degeneration(c, move, self.atlas)
        return found

    def outcomes(self, c: InvolutionClass) -> tuple[DegenerationOutcome, ...]:
        """The outcomes of ``TABLE_MOVES`` from the U class ``c``, in that order."""
        found = self._by_class.get(c.key)
        if found is None:
            found = self._by_class[c.key] = tuple(self.outcome(c, m) for m in TABLE_MOVES)
        return found

    def outcome_cells(self, c: InvolutionClass) -> tuple[tuple[tuple, tuple], ...]:
        """Per side of ``outcomes(c)``: their cells and the targets of the possible ones."""
        found = self._cells.get(c.key)
        if found is None:
            parts = map(self.outcomes(c).__getitem__, _PARTS)
            found = self._cells[c.key] = tuple(
                (tuple(o.cell() for o in p), tuple(o.target for o in p if o.iso is not None))
                for p in parts
            )
        return found

    @cached_property
    def _full(self) -> dict[tuple, tuple[IsotopyType, ...]]:
        return {
            c.key: tuple(candidate_isotopy_types(c, include_degenerate=True))
            for c in self.atlas.all_classes(_S311)
        }

    @cached_property
    def _table(self) -> dict[tuple, tuple[IsotopyType, ...]]:
        return {key: tuple(t for t in types if t.table_data) for key, types in self._full.items()}

    def candidates(self, c: InvolutionClass) -> tuple[IsotopyType, ...]:
        """With the degenerate variants; the first request derives all 102."""
        return self._full[c.key]

    def table_candidates(self, c: InvolutionClass) -> tuple[IsotopyType, ...]:
        """What ``candidate_isotopy_types(c)`` returns, as a tuple."""
        return self._table[c.key]

    @cached_property
    def roundtrips(self) -> MappingProxyType:
        """Per S311 class: its ``table_candidates``, then for each non-star one the (r, a, H)
        that ``_invariants`` recovers and alpha + beta, plus one for Node (2)."""
        out = {}
        for c in self.atlas.all_classes(_S311):
            covered = Region.A_MINUS if c.h is _ZERO else Region.A_PLUS
            ts = [t for t in self._table[c.key] if t.case is not _NODE_STAR]
            sums = tuple(t.alpha + t.beta + (t.case is _NODE2) for t in ts)
            out[c.key] = self._table[c.key], tuple(_invariants(*t[:3], covered) for t in ts), sums
        return MappingProxyType(out)

    @cached_property
    def ovals_after(self) -> MappingProxyType:
        """Per U class with moves: alpha + beta after each of its ``outcomes``, None where impossible."""
        moving = (c for c in self.atlas.all_classes(_U) if c.triple not in U_EXCLUDED_TRIPLES)
        after = {c.key: tuple(o.iso and o.iso.alpha + o.iso.beta for o in self.outcomes(c)) for c in moving}
        return MappingProxyType(after)

    @cached_property
    def euler_triples(self) -> tuple[tuple[tuple[TopCase, int, int], ...], int]:
        """The distinct (case, alpha, beta) of all ``candidates``, first seen first, and the candidate count."""
        lists = [self._full[c.key] for c in self.atlas.all_classes(_S311)]
        return tuple(dict.fromkeys(t[:3] for ts in lists for t in ts)), sum(map(len, lists))

    @cached_property
    def _isotopy_rows(self) -> dict[tuple, IsotopyRow]:
        table = self._table
        return {c.key: isotopy_row(c, table[c.key]) for c in self.atlas.all_classes(_S311)}

    def isotopy_row(self, c: InvolutionClass) -> IsotopyRow:
        """``isotopy_row(c, self.table_candidates(c))``; the first request derives all 102."""
        return self._isotopy_rows[c.key]

    @cached_property
    def isotopy_parts(self) -> tuple[tuple[IsotopyRow | None, ...], ...]:
        """Per part of the shipped isotopy table (H = 0, then Z/2), as it read when first
        requested: the ``isotopy_row`` of each row's (r, a, delta, H), None where no class has it."""
        rows, parts = self._isotopy_rows, ((_ZERO, tables.ISOTOPY_H0), (_Z2, tables.ISOTOPY_Z2))
        return tuple(tuple([rows.get(row[1:4] + (h,)) for row in shipped]) for h, shipped in parts)

    def _table_rows(self, side: TableSide) -> tuple[MoveTableRow, ...]:
        rows = self._rows.get(side)
        if rows is None:
            rows = self._rows[side] = _derive_rows(self, side)
        return rows

    @cached_property
    def flat_rows(self) -> MappingProxyType:
        """Each unprimed and primed table row as (index, r, a, delta, g, k, cell, ...)."""
        return MappingProxyType({
            side: tuple(row[:6] + tuple(cell for _m, cell in row.cells) for row in self._table_rows(side))
            for side in (TableSide.UNPRIMED, _PRIMED)
        })

    @cached_property
    def _graph(self) -> TransitionGraph:
        return _derive_graph(self)

    @cached_property
    def _pairs(self) -> tuple[tuple[str, int, InvolutionClass | None, InvolutionClass | None], ...]:
        # (label, side: 0 or 1, U class, S311 class) of each No.k and No.k'; None if missing.
        find, sides = self.atlas.lookup_index, ((0, ""), (1, "'"))
        labels = [(f"No.{k}{prime}", side) for k in range(1, 51) for side, prime in sides]
        return tuple((label, side, find(_U, label), find(_S311, label)) for label, side in labels)

    @cached_property
    def pair_cells(self) -> tuple[tuple, tuple] | None:
        """Per No.k / No.k' pair, or None if a class is missing: the ``outcome_cells`` of its U
        class on its side, then its S311 class's isotopy-row cells with that class per target."""
        if not all([u and s for _label, _side, u, s in self._pairs]):
            return None
        u_side = tuple([self.outcome_cells(u)[side] for _label, side, u, _s in self._pairs])
        s_rows = [(_ROW_CELLS[side](self._isotopy_rows[s.key]), s) for _label, side, _u, s in self._pairs]
        s_side = [(cells, (s,) * len(targets)) for (cells, s), (_c, targets) in zip(s_rows, u_side)]
        return u_side, tuple(s_side)


class TableSide(IdentityEnum):
    UNPRIMED = "unprimed"
    PRIMED = "primed"
    STAR = "star"


_PRIMED, _STAR = TableSide.PRIMED, TableSide.STAR


class MoveTableRow(NamedTuple):
    index: str
    r: int
    a: int
    delta: int
    g: int
    k: int
    cells: tuple[tuple[Degeneration, tuple[int, int] | None], ...]


def degeneration_table(
    side: TableSide, atlas: Atlas | Derivation | None = None
) -> list[MoveTableRow]:
    """Regenerate a full move table from ``apply_degeneration``.

    The unprimed table lists every class with g >= 2, the primed table
    every class with k >= 1, each under its index on that side; the star
    table holds the two self-conjunction rows.  Each call returns a new list.
    """
    return list(Derivation.of(atlas)._table_rows(side))


def _derive_rows(derivation: Derivation, side: TableSide) -> tuple[MoveTableRow, ...]:
    atlas = derivation.atlas
    rows: list[MoveTableRow] = []
    if side is _STAR:
        for move in STAR_MOVES:
            c = atlas.lookup(_U, *move.spec.source)
            if c is None:
                continue
            g, k = gk_invariants(c)
            cells = ((move, derivation.outcome(c, move).cell()),)
            rows.append(MoveTableRow(c.index, c.r, c.a, c.delta, g, k, cells))
        return tuple(rows)

    primed = side is _PRIMED
    moves = PRIMED_MOVES if primed else UNPRIMED_MOVES
    for c in atlas.all_classes(_U):
        if c.triple in U_EXCLUDED_TRIPLES:
            continue
        g, k = gk_invariants(c)
        if not ((k >= 1) if primed else (g >= 2)):
            continue
        # The primed table labels a class after its related partner; whenever
        # k >= 1 the partner has g = k + 1 >= 2 and hence an unprimed label.
        index = atlas.related_class(c).index + "'" if primed else c.index
        cells = tuple((move, derivation.outcome(c, move).cell()) for move in moves)
        rows.append(MoveTableRow(index, c.r, c.a, c.delta, g, k, cells))
    # By the number in the label (17 for No.17'); a label without one goes last.
    rows.sort(key=lambda row: int("".join(filter(str.isdecimal, row.index)) or 10**6))
    return tuple(rows)


# ---------------------------------------------------------------------------
# The correspondence between degeneration outcomes and isotopy candidates


def correspondence_check(atlas: Atlas | Derivation | None = None) -> CheckSection:
    """Degenerations of the class No.k land exactly on the isotopy
    candidates of the class No.k on the other side, move by move; likewise
    for No.k' with the primed moves, and for the two self-conjunctions.
    """
    derivation = Derivation.of(atlas)
    kept = derivation.pair_cells  # None when a class is missing
    walk = () if kept and kept[0] == kept[1] else derivation._pairs  # only to word a mismatch
    checked, violations = (0 if walk else 3 * len(kept[0])), []  # three moves per pair
    for label, side, u_class, s_class in walk:
        if u_class is None or s_class is None:
            violations.append(f"{label}: missing from one of the catalogs")
            continue
        row = derivation.isotopy_row(s_class)
        moves = _CELL_AT[_PARTS[side]]
        checked += len(moves)
        cells, targets = derivation.outcome_cells(u_class)[side]
        if cells == _ROW_CELLS[side](row) and targets == (s_class,) * len(targets):
            continue
        for (move, at), outcome in zip(moves, derivation.outcomes(u_class)[_PARTS[side]]):
            expected = row[at]
            if outcome.impossible:
                if expected is not None:
                    violations.append(
                        f"{label} {move.value}: impossible, but "
                        f"{move.spec.case.value} {expected} is a candidate"
                    )
                continue
            cell = outcome.cell()  # a table move has no star case
            if expected is None:
                violations.append(
                    f"{label} {move.value}: produced {cell}, but "
                    f"{move.spec.case.value} is not a candidate of {label}"
                )
            elif cell != expected:
                violations.append(
                    f"{label} {move.value}: produced {cell}, candidate is {expected}"
                )
            if outcome.target is not s_class:
                violations.append(
                    f"{label} {move.value}: target {outcome.target} is not {label}"
                )

    for move in STAR_MOVES:
        checked += 1
        triple = move.spec.source
        u_class = derivation.atlas.lookup(_U, *triple)
        if u_class is None:
            violations.append(f"{triple}: missing from the catalog")
            continue
        # The target is apply_degeneration's lookup of ``move.spec.star_target``.
        outcome = derivation.outcome(u_class, move)
        if outcome.impossible or derivation.isotopy_row(outcome.target).node_star is None:
            violations.append(f"{triple} {move.value}: star outcome mismatch")
    return CheckSection("correspondence", checked, violations, [], {})


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
        quote = _Quoted()  # each label and move name is quoted once
        move = {m: quote[m.value] for m in Degeneration}
        lines = ["digraph degenerations {"]
        lines += [f"  {quote[node.label]};" for node in self.nodes]
        lines += [
            f"  {quote[e.source.label]} -> {quote[e.target.label]} [label={move[e.move]}];"
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


def transition_graph(atlas: Atlas | Derivation | None = None) -> TransitionGraph:
    """All candidate degeneration edges over both catalogs, in atlas order."""
    return Derivation.of(atlas)._graph


def _derive_graph(derivation: Derivation) -> TransitionGraph:
    atlas = derivation.atlas
    edges = []
    for c in atlas.all_classes(_U):
        if c.triple in U_EXCLUDED_TRIPLES:
            continue
        for move in applicable_moves(c):
            outcome = derivation.outcome(c, move)
            if not outcome.impossible:
                edges.append(TransitionEdge(c, outcome.target, move, outcome.iso))
    nodes = atlas.all_classes(_S311) + atlas.all_classes(_U)
    return TransitionGraph(nodes, tuple(edges))


class _Quoted(dict):
    """string -> its DOT quoted form, made on first use."""

    def __missing__(self, s: str) -> str:
        quoted = self[s] = '"{}"'.format(s.replace('"', r"\""))
        return quoted


def graph_to_dot(graph: TransitionGraph) -> str:
    """The graph as DOT text, formatted once per graph: later calls return the same str."""
    return graph._dot


def graph_to_json(graph: TransitionGraph) -> dict:
    """A fresh ``{"nodes": [...], "edges": [...]}`` payload on every call: new lists of
    copies of record dicts built once per graph, whose values are str, int or None."""
    nodes, edges = graph._records
    return {"nodes": list(map(dict.copy, nodes)), "edges": list(map(dict.copy, edges))}
