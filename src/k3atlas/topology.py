"""Topological case analysis for one-double-point real trigonal curves.

A singular real curve in |12c + 3s| with one real double point falls into
six cases, grouped by how the double point sits relative to the fiber
intersection point: group I (Node (1), Cusp (1), Isolated point), group
II (Node (2), Cusp (2)), and group III (Node (*)).  The oval counts
(alpha, beta) in the two regions R1, R2 determine, and are determined by,
the lattice invariants (r, a) and the H invariant of the covering
involutions; the closed forms here were checked cell by cell against the
shipped tables, which remain authoritative.  The value types are immutable
NamedTuples; ``IsotopyType`` and the two descriptors check their fields on
every build, ``_replace``, ``_make``, copies and unpickling included.
``region_descriptor`` and ``real_part_topology`` may return the same
immutable descriptor object for equal inputs: one memo per oval datum keeps
the region and the real part over each side, whose four Euler characteristics
``double_cover_euler_check`` compares for a datum it checks, ``_euler_failures`` in one loop
over data checked before.  A descriptor computes its Euler characteristic when built, as do its
copies and pickles, which carry only its fields.
A region or cover that is not a ``Region`` or ``Cover`` member is refused.

Group II is group I with ``extra`` = 1 more oval in R2: each closed form is written once
and read at beta + extra, every case but Node (*) reads the descriptors of Node (1) at its
``_shared_datum``, and alpha + beta <= 9 - extra keeps the recovered a = 9 or 10 minus
alpha + beta + extra nonnegative, so ``invariants_from_isotopy`` needs no range check of its own.
"""

import functools
import operator
from itertools import starmap
from typing import NamedTuple

from ._checked import Checked
from .atlas import Family, HInvariant, IdentityEnum, InvolutionClass, gk_invariants
from .errors import InconsistentInput, WrongFamily
from .tables import _CELLS, IsotopyRow


class TopCase(IdentityEnum):
    NODE1 = "Node (1)"
    NODE2 = "Node (2)"
    NODE_STAR = "Node (*)"
    CUSP1 = "Cusp (1)"
    CUSP2 = "Cusp (2)"
    ISOLATED = "Isolated point"


class Region(IdentityEnum):
    A_PLUS = "A+"
    A_MINUS = "A-"


_NOT_A_REGION = "a region is Region.A_PLUS or Region.A_MINUS"


class Cover(IdentityEnum):
    PHI = "phi"
    RELATED_PHI = "related_phi"


# Module globals, read per call in place of class attributes: see IdentityEnum.
_NODE1, _NODE2, _NODE_STAR, _CUSP1, _CUSP2, _ISOLATED = TopCase
_A_PLUS, _A_MINUS = Region
_S311, _ZERO, _Z2, _RELATED_PHI = Family.S311, HInvariant.ZERO, HInvariant.Z2, Cover.RELATED_PHI


# (r, a, delta, H) of the two classes whose singular component is
# non-contractible; fixed data, not covered by the case I/II formulas.
STAR_KEY_H0 = (10, 8, 0, HInvariant.ZERO)
STAR_KEY_Z2 = (9, 9, 0, HInvariant.Z2)
STAR_KEYS = (STAR_KEY_H0, STAR_KEY_Z2)

# case -> the ovals its double point adds to R2: none in group I, one in group II
_EXTRA = {_NODE1: 0, _CUSP1: 0, _ISOLATED: 0, _NODE2: 1, _CUSP2: 1}

# case -> (largest alpha + beta, the message past it)
_OVAL_CAPS = {c: (9 - e, f"alpha + beta <= {9 - e} in group {'I' * (1 + e)}") for c, e in _EXTRA.items()}
_OVAL_CAPS[_NODE_STAR] = (0, "the non-contractible node case has no ovals")

# The cases of an IsotopyRow's cells, fields 6 to 8.
ISOTOPY_CELL_CASES = (_NODE1, _ISOLATED, _NODE2)


def _check_oval_bounds(case: TopCase, alpha: int, beta: int) -> None:
    """Raise InconsistentInput unless (alpha, beta) are oval counts of ``case``."""
    if type(case) is not TopCase or type(alpha) is not int or type(beta) is not int:
        raise InconsistentInput("oval data is a TopCase and two integer counts")
    if alpha < 0 or beta < 0:
        raise InconsistentInput("oval counts are nonnegative")
    cap, message = _OVAL_CAPS[case]
    if alpha + beta > cap:
        raise InconsistentInput(message)


class _IsotopyFields(NamedTuple):
    case: TopCase
    alpha: int
    beta: int
    table_data: bool
    conjectured_nonrealizable: bool


class IsotopyType(Checked, _IsotopyFields):
    """A topological case with oval counts in the regions R1 and R2."""

    __slots__ = ()

    def __new__(cls, case, alpha, beta, table_data=True, conjectured_nonrealizable=False):
        _check_oval_bounds(case, alpha, beta)
        return tuple.__new__(cls, (case, alpha, beta, table_data, conjectured_nonrealizable))

    @property
    def triple(self) -> tuple[TopCase, int, int]:
        return (self.case, self.alpha, self.beta)

    def __str__(self) -> str:
        if self.case is TopCase.NODE_STAR:
            return self.case.value
        return f"{self.case.value} ({self.alpha},{self.beta})"


def candidate_isotopy_types(
    c: InvolutionClass, include_degenerate: bool = False
) -> list[IsotopyType]:
    """All candidate (case, alpha, beta) data for a class of the 102-atlas.

    Follows the shipped tables: the H = 0 side assigns (k, g-2) to group I,
    the H = Z/2 side (g-1, k), and group II takes the group I cell with one
    oval less in R2.  Assignments with a negative entry are omitted, matching
    empty table cells.  Cusp variants are emitted only when
    ``include_degenerate`` is set and are flagged as non-table data.
    """
    if c.family is not _S311:
        raise WrongFamily("isotopy candidates are defined for the 102-class family")

    if c.key == STAR_KEY_H0:
        return [IsotopyType(_NODE_STAR, 0, 0)]

    g, k = gk_invariants(c)
    alpha, beta = (k, g - 2) if c.h is _ZERO else (g - 1, k)  # the group I cell

    # Of the star class with H = Z/2, Node (1) and the isolated point are
    # conjectured not realizable.
    conjectured = c.key == STAR_KEY_Z2
    out = [
        IsotopyType(case, alpha, beta - _EXTRA[case], True, conjectured and case is not _NODE2)
        for case in ISOTOPY_CELL_CASES
        if alpha >= 0 and beta >= _EXTRA[case]
    ]
    if conjectured:
        out.append(IsotopyType(_NODE_STAR, 0, 0))
    if include_degenerate:
        for case in (_CUSP1, _CUSP2):
            if alpha >= 0 and beta >= _EXTRA[case]:
                out.append(IsotopyType(case, alpha, beta - _EXTRA[case], False))
    return out


def invariants_from_isotopy(
    case: TopCase, alpha: int, beta: int, covered: Region
) -> tuple[int, int, HInvariant]:
    """Recover (r, a) and H of the covering involution from a candidate.

    ``covered`` is the region the involution covers; it determines H (the
    lower region A- gives H = 0).
    """
    if case is _NODE_STAR:
        keys = " and ".join("({},{},{},H={})".format(*k[:3], k[3].value) for k in STAR_KEYS)
        raise InconsistentInput(f"the non-contractible node case carries fixed invariants, {keys}")
    _check_oval_bounds(case, alpha, beta)
    if type(covered) is not Region:
        raise InconsistentInput(_NOT_A_REGION)
    return _invariants(case, alpha, beta, covered)


def _invariants(case: TopCase, alpha: int, beta: int, covered: Region) -> tuple[int, int, HInvariant]:
    # invariants_from_isotopy on checked oval data of a case but Node (*): group I's forms.
    beta += _EXTRA[case]
    if covered is _A_MINUS:
        return 9 + alpha - beta, 9 - alpha - beta, _ZERO
    return 10 - alpha + beta, 10 - alpha - beta, _Z2


# ---------------------------------------------------------------------------
# Real parts of the covering surfaces


class _SurfaceFields(NamedTuple):
    genera: tuple[int, ...]


class SurfaceDescriptor(Checked, _SurfaceFields):
    """Disjoint union of closed orientable surfaces; genus 0 means a sphere.  Its
    ``euler_characteristic`` is computed when it is built."""

    def __new__(cls, genera):
        genera = tuple(genera)
        try:
            # operator.index takes ints and bools but refuses a float or a string.
            ordered = tuple(sorted(map(operator.index, genera), reverse=True))
        except TypeError:
            raise ValueError(f"each genus must be an integer: {genera!r}") from None
        if ordered and ordered[-1] < 0:
            raise ValueError("genus is nonnegative")
        self = tuple.__new__(cls, (ordered,))
        self.__dict__["euler_characteristic"] = 2 * len(ordered) - 2 * sum(ordered)
        return self

    def __str__(self) -> str:
        parts = []
        spheres = 0
        for g in self.genera:
            if g == 0:
                spheres += 1
            elif g == 1:
                parts.append("T^2")
            else:
                parts.append(f"Sigma_{g}")
        if spheres == 1:
            parts.append("S^2")
        elif spheres > 1:
            parts.append(f"{spheres}S^2")
        return " u ".join(parts) if parts else "empty"


def closed_surface(genus: int, spheres: int = 0) -> SurfaceDescriptor:
    return SurfaceDescriptor((genus,) + (0,) * spheres)


class PieceKind(IdentityEnum):
    ANNULUS_WITH_HOLES = "annulus with holes"
    DISK = "disk"
    MOEBIUS_COMPOSITE = "annulus-minus-disk glued to a Moebius band, with holes"
    PAIR_OF_PANTS = "disk minus two disks"
    ANNULUS = "annulus"
    MOEBIUS_BAND = "Moebius band"


# kind -> (base, per_hole): a piece with h holes has Euler characteristic
# base + per_hole * h.
_PIECE_EULER = {
    PieceKind.ANNULUS_WITH_HOLES: (0, -1),
    PieceKind.DISK: (1, 0),
    PieceKind.MOEBIUS_COMPOSITE: (-1, -1),
    PieceKind.PAIR_OF_PANTS: (-1, 0),
    PieceKind.ANNULUS: (0, 0),
    PieceKind.MOEBIUS_BAND: (0, 0),
}


class RegionPiece(NamedTuple):
    kind: PieceKind
    holes: int = 0

    @property
    def euler_characteristic(self) -> int:
        base, per_hole = _PIECE_EULER[self.kind]
        return base + per_hole * self.holes


_DISK = RegionPiece(PieceKind.DISK)  # built once; region_descriptor repeats it
_ANNULUS_WITH_HOLES = PieceKind.ANNULUS_WITH_HOLES
_MOEBIUS_COMPOSITE = PieceKind.MOEBIUS_COMPOSITE


class _RegionFields(NamedTuple):
    pieces: tuple[RegionPiece, ...]


class RegionDescriptor(Checked, _RegionFields):
    """A region of the quotient torus as a disjoint union of pieces.  Its
    ``euler_characteristic``, the sum of its pieces', is computed when it is built."""

    def __new__(cls, pieces):
        pieces = tuple(pieces)  # a list would make the descriptor unhashable, a generator empty
        chi = 0
        for piece in pieces:  # checked in the loop that sums, with no generator to resume
            if type(piece) is not RegionPiece or type(piece.kind) is not PieceKind:
                raise ValueError(f"each piece must be a RegionPiece of a PieceKind: {pieces!r}")
            if type(piece.holes) is not int or piece.holes < 0:
                raise ValueError(f"a piece's holes are an int >= 0: {pieces!r}")
            chi += piece.euler_characteristic
        self = tuple.__new__(cls, (pieces,))
        self.__dict__["euler_characteristic"] = chi
        return self

    def __str__(self) -> str:
        named: list[str] = []
        counted: dict[str, int] = {}
        for p in self.pieces:
            if p.kind in (PieceKind.ANNULUS_WITH_HOLES, PieceKind.MOEBIUS_COMPOSITE):
                named.append(f"({p.kind.value.replace('holes', f'{p.holes} holes')})")
            else:
                counted[p.kind.value] = counted.get(p.kind.value, 0) + 1
        for kind, count in counted.items():
            named.append(kind if count == 1 else f"{count} {kind}s")
        return " u ".join(named) if named else "empty"


def region_descriptor(
    case: TopCase, alpha: int, beta: int, region: Region
) -> RegionDescriptor:
    """Homeomorphism type of a region cut out by the real branch curve."""
    _check_oval_bounds(case, alpha, beta)
    if type(region) is not Region:
        raise InconsistentInput(_NOT_A_REGION)
    return _cover(case, alpha, beta)[region is _A_MINUS][0]


def _shared_datum(case: TopCase, alpha: int, beta: int) -> tuple[TopCase, int, int]:
    # The datum whose cover a case reads: Node (1)'s at beta + extra, or Node (*)'s own.
    return (case, alpha, beta) if case is _NODE_STAR else (_NODE1, alpha, beta + _EXTRA[case])


# Memoised: callers pass checked oval data (``_euler_failures`` data its candidates checked), so
# the memo holds at most 6 cases x 55 (alpha, beta) = 330 entries.  Any case but Node (*) holds
# the entry of its ``_shared_datum``, read through the memo: equal covers are one set of objects.
@functools.cache
def _cover(case: TopCase, alpha: int, beta: int) -> tuple[tuple[RegionDescriptor, SurfaceDescriptor], ...]:
    # (region, real part) over A+, then over A-, for oval data its caller has already
    # checked; the real part is that of the involution whose image is the region.
    if case is _NODE_STAR:
        pants = RegionDescriptor((RegionPiece(PieceKind.PAIR_OF_PANTS),))
        band = RegionDescriptor((RegionPiece(PieceKind.MOEBIUS_BAND), RegionPiece(PieceKind.ANNULUS)))
        return (pants, closed_surface(2)), (band, SurfaceDescriptor((1, 1)))
    if case is not _NODE1:
        return _cover(*_shared_datum(case, alpha, beta))
    upper = (RegionPiece(_ANNULUS_WITH_HOLES, alpha),) + (_DISK,) * beta
    lower = (RegionPiece(_MOEBIUS_COMPOSITE, beta),) + (_DISK,) * alpha
    return (
        (RegionDescriptor(upper), closed_surface(1 + alpha, beta)),
        (RegionDescriptor(lower), closed_surface(2 + beta, alpha)),
    )


def real_part_topology(
    c: InvolutionClass, iso: IsotopyType, which: Cover = Cover.PHI
) -> SurfaceDescriptor:
    """Real part of the chosen covering involution for a class candidate.

    The involution with H = 0 covers the lower region; its related
    involution covers the other one.
    """
    if c.family is not _S311:
        raise WrongFamily("real-part types are defined for the 102-class family")
    if type(which) is not Cover:
        raise InconsistentInput("a cover is Cover.PHI or Cover.RELATED_PHI")
    region = _A_MINUS if c.h is _ZERO else _A_PLUS
    if iso.case is _NODE_STAR:
        fits = c.key in STAR_KEYS
    else:
        fits = invariants_from_isotopy(*iso.triple, region) == (c.r, c.a, c.h)
    if not fits:
        raise InconsistentInput(f"{iso} does not occur for ({c.r},{c.a},{c.delta})")
    lower = (region is _A_MINUS) is not (which is _RELATED_PHI)
    return _cover(iso.case, iso.alpha, iso.beta)[lower][1]


def isotopy_row(c: InvolutionClass, candidates) -> IsotopyRow:
    """The row of the S311 class ``c`` as the shipped isotopy tables write it,
    from its ``candidates``: the Node (1), isolated-point and Node (2) cells
    (None where no candidate), and the real part over a star candidate."""
    found = {t.case: t for t in candidates}
    cells = [None if t is None else _CELLS[t.alpha][t.beta] for t in map(found.get, ISOTOPY_CELL_CASES)]
    star = found.get(_NODE_STAR)
    real_part = None if star is None else str(real_part_topology(c, star))
    return IsotopyRow(c.index, c.r, c.a, c.delta, *gk_invariants(c), *cells, real_part)


def double_cover_euler_check(case: TopCase, alpha: int, beta: int) -> bool:
    """Branched double cover consistency: chi(real part) = 2 chi(region).

    The branch locus consists of circles, which carry no Euler
    characteristic, so the identity holds on both sides simultaneously.
    """
    _check_oval_bounds(case, alpha, beta)
    return not _euler_failures(((case, alpha, beta),))


def _euler_failures(data) -> list:
    # The checked oval data of ``data`` whose cover breaks the identity, in one loop: no call per datum.
    return [
        datum
        for datum, ((upper, upper_real), (lower, lower_real)) in zip(data, starmap(_cover, data))
        if upper_real.euler_characteristic != 2 * upper.euler_characteristic
        or lower_real.euler_characteristic != 2 * lower.euler_characteristic
    ]
