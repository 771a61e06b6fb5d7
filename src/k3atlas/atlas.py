"""Catalogs of isometry classes of integral involutions of the K3 lattice.

Two families are carried: the 102 classes living over the rank-3 fixed
lattice, keyed by (r, a, delta, H), and the 63 classes of the
nonsingular-curve family, keyed by (r, a, delta).  Classes are built from
the shipped tables; ``related_class`` realizes the pairing between an
involution and its composition with the reflection fixing the sublattice.

Setting the environment variable ``ATLAS_DATA_DIR`` to a directory that
contains ``s311.json`` and ``u.json`` (records in the export schema of
``Atlas.to_records``) replaces the embedded catalogs; ``validate_atlas``
then reports any damage in the external data.  Both files are read to
end of file with ``os.read`` on every ``load_atlas`` call and compared
byte for byte, not hashed, with the newest content parsed: an edit shows
up on the next call and unchanged files give the same ``Atlas``.  A file
that cannot be read, decoded or parsed, or a record that lacks a field or
has a bad value, raises ``CatalogError`` (and is not kept).

An ``Atlas`` is built with the related partners, the grid per H, the distinct (r, a), the
class counts and each family's self-related count that ``validate_atlas`` reads and compares on
every call.  Only its two family passes are built on first use, by ``degenerations._u_pass`` and
``degenerations._s311_pass`` (whose docstrings state what they keep), and kept while it lives;
an edited catalog parses to a new one.
"""

import bisect
import os
import reprlib
from enum import Enum
from functools import cached_property, lru_cache
from operator import is_
from typing import NamedTuple

from . import tables
from ._checked import Checked
from .errors import CatalogError, InconsistentInput, NotInAtlas, SpecialClass
from .tables import U_EXCLUDED_TRIPLES, U_UNTABULATED_TRIPLES


class IdentityEnum(Enum):
    """An enum hashed by identity.

    Members are singletons that compare by identity, so the object hash
    agrees with ``==``; ``Enum.__hash__`` is a Python-level function on
    CPython up to 3.13, and the catalog checks hash members on every
    lookup.  The order of a set of members follows memory addresses, so no
    output may depend on it.

    Reading a member off its class (``Family.U``) takes 110-180 ns on CPython
    3.10 and 3.11, whose ``EnumType.__getattr__`` routes every class attribute
    read through a Python-level hook; 30 ns on 3.12, 15 ns for a module
    global.  So the functions the checks run per class, candidate or move read
    members from private module globals bound once (``_U = Family.U``).
    """

    __hash__ = object.__hash__


class Family(IdentityEnum):
    S311 = "s311"
    U = "u"


class HInvariant(IdentityEnum):
    ZERO = "0"
    Z2 = "Z2"
    NOT_APPLICABLE = "NA"


_S311, _U = Family.S311, Family.U  # module globals: see IdentityEnum
_NOT_A_FAMILY = "a family is Family.S311 or Family.U"
_ZERO, _Z2, _NOT_APPLICABLE = HInvariant.ZERO, HInvariant.Z2, HInvariant.NOT_APPLICABLE


class InvolutionClass(Checked):
    """A class of its family: the invariants (r, a, delta, H) and a catalog index.
    ``key``, ``triple``, ``label`` and ``gk`` are built with it, as the checks and the
    graph exports read them per use.  Slots: a NamedTuple field reads slower."""

    __slots__ = ("family", "r", "a", "delta", "h", "index", "key", "triple", "label", "gk")

    def __init__(self, family: Family, r: int, a: int, delta: int, h: HInvariant, index: str):
        if type(family) is not Family or type(h) is not HInvariant:
            raise ValueError("family and H are Family and HInvariant members")
        if not (type(r) is type(a) is type(delta) is int and isinstance(index, str)):
            raise ValueError("r, a and delta are ints, not bools, and the index is a str")
        if delta not in (0, 1):
            raise ValueError("delta is 0 or 1")
        if r < 0 or a < 0:
            raise ValueError("r and a are nonnegative")
        if family is _U and h is not _NOT_APPLICABLE:
            raise ValueError("the nonsingular-curve family carries no H invariant")
        if family is _S311 and h is _NOT_APPLICABLE:
            raise ValueError("classes of this family need H = 0 or H = Z/2")
        triple = (r, a, delta)
        if family is _U:
            label = f"U:{index} ({r},{a},{delta})"
        else:
            label = f"S:({r},{a},{delta},{h.value})"
        # gk_invariants' value, or None where it raises.
        g2, k2 = 22 - r - a, r - a
        excluded = family is _U and triple in U_EXCLUDED_TRIPLES
        gk = None if excluded or g2 < 0 or k2 < 0 or g2 % 2 or k2 % 2 else (g2 // 2, k2 // 2)
        values = (family, r, a, delta, h, index, triple + (h,), triple, label, gk)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __iter__(self):  # the six fields, which ==, hash, repr, copies and pickles read
        return iter((self.family, self.r, self.a, self.delta, self.h, self.index))

    def __eq__(self, other):
        return tuple(self) == tuple(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        fields = "family={!r}, r={!r}, a={!r}, delta={!r}, h={!r}, index={!r}"
        return f"InvolutionClass({fields.format(*self)})"

    def __str__(self) -> str:
        return self.label


def gk_invariants(c: InvolutionClass) -> tuple[int, int]:
    """Genus and sphere count of the fixed real part, (22-r-a)/2 and (r-a)/2."""
    if c.gk is not None:
        return c.gk
    if c.family is _U and c.triple in U_EXCLUDED_TRIPLES:
        raise SpecialClass(f"{c.index} carries no genus/sphere description")
    raise SpecialClass(f"({c.r},{c.a},{c.delta}) has no integral (g, k)")


def related_key(c: InvolutionClass) -> tuple[int, int, int, HInvariant]:
    """Invariants of the related involution (composition with the reflection)."""
    if c.family is _U:
        return (20 - c.r, c.a, c.delta, _NOT_APPLICABLE)
    if c.h is _ZERO:
        return (19 - c.r, c.a + 1, c.delta, _Z2)
    return (19 - c.r, c.a - 1, c.delta, _ZERO)


class Atlas:
    """Immutable pair of class catalogs with exact-match lookups."""

    def __init__(self, classes: list[InvolutionClass]):
        self._by_family: dict[Family, tuple[InvolutionClass, ...]] = {}
        self._by_key: dict[tuple, InvolutionClass] = {}
        self._by_index: dict[tuple[Family, str], InvolutionClass] = {}
        for family in Family:
            members = tuple(
                sorted(
                    (c for c in classes if c.family is family),
                    key=lambda c: (c.r, c.a, c.delta, c.h is HInvariant.Z2),
                )
            )
            self._by_family[family] = members
        for c in classes:
            self._by_key.setdefault((c.family,) + c.key, c)
            self._by_index.setdefault((c.family, c.index), c)
        self._labels = len(self._by_index)  # the distinct (family, label) pairs, less the held aliases
        self._held: list[tuple[str, InvolutionClass]] = []  # (alias, its partner) a canonical label holds
        for c in classes:
            # "No.k'" names the related class of "No.k"; register the alias
            # for classes whose canonical label comes from the other table.
            if (
                c.family is Family.U
                and c.index.startswith("No.")
                and not c.index.endswith("'")
            ):
                partner = self._by_key.get((Family.U,) + related_key(c))
                alias = c.index + "'"
                if partner is not None and self._by_index.setdefault((_U, alias), partner) is not partner:
                    self._held.append((alias, partner))
        self._labels -= len(self._held)
        # What validate_atlas reads and compares on every call.
        get = self._by_key.get  # a plain lookup per member, None for a missing partner
        self._partners = {f: tuple(get((f,) + related_key(c)) for c in cs) for f, cs in self._by_family.items()}
        s311, u = self._by_family[_S311], self._by_family[_U]
        # Per H: {(r, a): sorted deltas} like tables.GRID_H0; a duplicate class repeats its delta.
        self._grid: dict[HInvariant, dict[tuple[int, int], tuple[int, ...]]] = {_ZERO: {}, _Z2: {}}
        for c in s311:  # sorted by (r, a, delta)
            cells = self._grid[c.h]
            cells[c.r, c.a] = cells.get((c.r, c.a), ()) + (c.delta,)
        self._ra = tuple(dict.fromkeys([(c.r, c.a) for cs in (s311, u) for c in cs]))  # the distinct (r, a)
        # Each family's number of self-related classes, and the class counts validate_atlas reports.
        s311_fixed, u_fixed = sum(map(is_, self._partners[_S311], s311)), sum(map(is_, self._partners[_U], u))
        self._fixed = (s311_fixed, u_fixed)
        hs, deltas = [c.h for c in s311], [c.delta for c in u]
        self._counts = {
            "s311": len(s311),
            "s311 H=0": hs.count(_ZERO),
            "s311 H=Z2": hs.count(_Z2),
            "u": len(u),
            "u delta=0": deltas.count(0),
            "u delta=1": deltas.count(1),
            "s311 quotient": (len(s311) - s311_fixed) // 2 + s311_fixed,
            "u quotient": (len(u) - u_fixed) // 2 + u_fixed,
        }

    # A family that is no Family member is refused on the miss path only: a hit costs nothing.
    def all_classes(self, family: Family) -> tuple[InvolutionClass, ...]:
        try:
            return self._by_family[family]
        except (KeyError, TypeError):
            raise InconsistentInput(_NOT_A_FAMILY) from None

    # The two family passes, each built on first use by a builder imported then: the class
    # and isotopy queries load no degenerations code.
    @cached_property
    def _pass(self):  # the U pass, with ``missing``: read through ``degenerations._read``
        from .degenerations import _u_pass
        return _u_pass(self)

    @cached_property
    def _s(self):  # the S311 pass
        from .degenerations import _s311_pass
        return _s311_pass(self)

    def lookup(
        self,
        family: Family,
        r: int,
        a: int,
        delta: int,
        h: HInvariant = HInvariant.NOT_APPLICABLE,
    ) -> InvolutionClass | None:
        """Exact-match retrieval; None means the tuple is not realizable."""
        try:
            if (found := self._by_key.get((family, r, a, delta, h))) is not None or type(family) is Family:
                return found
        except TypeError:  # unhashable: a Family's invariant raises it, any other family is refused
            if type(family) is Family:
                raise
        raise InconsistentInput(_NOT_A_FAMILY)

    def lookup_index(self, family: Family, index: str) -> InvolutionClass | None:
        try:
            if (found := self._by_index.get((family, index))) is not None or type(family) is Family:
                return found
        except TypeError:  # as in ``lookup``
            if type(family) is Family:
                raise
        raise InconsistentInput(_NOT_A_FAMILY)

    def related_class(self, c: InvolutionClass) -> InvolutionClass:
        if self._by_key.get((c.family,) + c.key) is not c:
            raise NotInAtlas(f"{c} is not a member of this atlas")
        partner = self._by_key.get((c.family,) + related_key(c))
        if partner is None:
            raise NotInAtlas(f"related invariants of {c} are missing from the atlas")
        return partner

    def related_index(self, c: InvolutionClass) -> str:
        # The pairing is written No.k <-> No.k'; toggling the prime always
        # names the partner (possibly as an alias of its canonical label).
        partner = self.related_class(c)
        if c.index.startswith("No."):
            return c.index[:-1] if c.index.endswith("'") else c.index + "'"
        return partner.index

    def to_records(self, family: Family) -> list[dict]:
        records = []
        for c in self.all_classes(family):
            g, k = c.gk or (None, None)
            records.append(
                {
                    "family": c.family.value,
                    "r": c.r,
                    "a": c.a,
                    "delta": c.delta,
                    "h": None if c.h is HInvariant.NOT_APPLICABLE else c.h.value,
                    "index": c.index,
                    "g": g,
                    "k": k,
                    "related_index": self.related_index(c),
                }
            )
        return records

    @classmethod
    def from_records(cls, records: list[dict]) -> "Atlas":
        """The atlas of export-schema records (see ``to_records``).

        A malformed record raises CatalogError naming its position in
        ``records`` and the field at fault.
        """
        return cls([_class_from_record(rec, number) for number, rec in enumerate(records)])


def _integer(value) -> int:
    # JSON integers only: int() would turn 1.9, true or "7" into an int.
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(value)
    return value


def _string(value) -> str:
    # JSON strings only: str() would turn null, 17 or [1] into a label.
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _class_from_record(rec, number: int) -> InvolutionClass:
    if not isinstance(rec, dict):
        raise CatalogError(f"expected a JSON object, got {type(rec).__name__}", record=number)

    def value(name: str, convert):
        if name not in rec:
            raise CatalogError(f"field {name!r} is missing", record=number)
        try:
            return convert(rec[name])
        except (TypeError, ValueError, OverflowError):
            raise CatalogError(
                f"field {name!r} has bad value {reprlib.repr(rec[name])}", record=number
            ) from None

    try:
        return InvolutionClass(
            family=value("family", Family),
            r=value("r", _integer),
            a=value("a", _integer),
            delta=value("delta", _integer),
            h=(
                HInvariant.NOT_APPLICABLE
                if rec.get("h") in (None, "", "NA")
                else value("h", HInvariant)
            ),
            index=value("index", _string),
        )
    except ValueError as exc:  # the invariants do not fit together
        raise CatalogError(str(exc), record=number) from None


def _embedded_classes() -> list[InvolutionClass]:
    classes = [
        InvolutionClass(Family.S311, row.r, row.a, row.delta, h, row.index)
        for h, rows in ((HInvariant.ZERO, tables.ISOTOPY_H0), (HInvariant.Z2, tables.ISOTOPY_Z2))
        for row in rows
    ]
    u_members: dict[tuple[int, int, int], str] = {}
    for row in tables.MOVES_UNPRIMED + tables.MOVES_PRIMED:
        u_members.setdefault((row.r, row.a, row.delta), row.index)
    for triple in U_EXCLUDED_TRIPLES + U_UNTABULATED_TRIPLES:
        u_members[triple] = "special-({},{},{})".format(*triple)
    for (r, a, delta), index in u_members.items():
        classes.append(
            InvolutionClass(Family.U, r, a, delta, HInvariant.NOT_APPLICABLE, index)
        )
    return classes


@lru_cache(maxsize=None)
def _embedded_atlas() -> Atlas:
    return Atlas(_embedded_classes())


_CATALOG_FILES = ("s311.json", "u.json")
_DATA_DIR_KEY = os.environ.encodekey("ATLAS_DATA_DIR")
_O_RDONLY = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # O_BINARY: no text translation on Windows


# The newest parsed (contents, atlas) pair; the initial ``((), None)`` matches no contents.  A
# lookup compares the contents with ``==``: equal bytes are one memcmp and unequal ones of the
# same length stop at the first differing byte, while a dict or lru_cache would hash both first.
_PARSED: tuple[tuple[bytes, ...], Atlas | None] = ((), None)


def _atlas_from_bytes(*contents: bytes) -> Atlas:
    """The atlas in the contents of ``_CATALOG_FILES``; errors name each file by its base name."""
    import json  # here, so that the embedded catalog never loads it

    records: list = []
    starts: list[int] = []
    for name, data in zip(_CATALOG_FILES, contents):
        # Decode first: json.loads on raw bytes would accept a UTF-8 BOM.
        try:
            parsed = json.loads(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CatalogError(f"not UTF-8: {exc.reason} at byte {exc.start}", name) from None
        except (ValueError, RecursionError) as exc:
            raise CatalogError(f"bad JSON: {exc}", name) from None
        if not isinstance(parsed, list):
            raise CatalogError("expected a JSON array of records", name)
        starts.append(len(records))
        records.extend(parsed)
    try:
        return Atlas.from_records(records)
    except CatalogError as exc:
        # from_records numbers the records of both files as one list.
        which = bisect.bisect_right(starts, exc.record) - 1
        raise CatalogError(exc.problem, _CATALOG_FILES[which], exc.record - starts[which]) from None


def _atlas_from_dir(path: str) -> Atlas:
    global _PARSED
    contents = []
    for name in _CATALOG_FILES:
        file = os.path.join(path, name)
        try:
            fd = os.open(file, _O_RDONLY)  # openat, reads, close: no fstat, lseek or file object
            try:  # a directory opens, and its first read raises EISDIR
                chunks = []
                while chunk := os.read(fd, 1 << 16):  # up to the read that returns b""
                    chunks.append(chunk)
                contents.append(b"".join(chunks))  # a single chunk is returned, not copied
            finally:
                os.close(fd)
        except OSError as exc:
            raise CatalogError(f"cannot read: {exc.strerror or exc}", file) from None
    key = tuple(contents)
    kept, atlas = _PARSED
    if kept == key:
        return atlas
    try:
        atlas = _atlas_from_bytes(*key)
    except CatalogError as exc:
        raise CatalogError(exc.problem, os.path.join(path, exc.file), exc.record) from None
    # Only a parse that succeeded is kept, so a failed one is retried on the next call.  The
    # pair is replaced whole, so another thread reads the contents with their own atlas.
    _PARSED = (key, atlas)
    return atlas


def load_atlas(data_dir: str | None = None) -> Atlas:
    """The embedded atlas, or the one under data_dir / $ATLAS_DATA_DIR.

    $ATLAS_DATA_DIR is read on every call, raising no KeyError when unset;
    empty means embedded.  An external catalog is read on every call and
    parsed when it differs from the newest parsed; see the module docstring.
    """
    if data_dir is None:  # os.environ's own mapping answers an unset variable without a KeyError
        data_dir = os.environ._data.get(_DATA_DIR_KEY)
        data_dir = data_dir and os.environ.decodevalue(data_dir)
    if data_dir:
        return _atlas_from_dir(data_dir)
    return _embedded_atlas()


# ---------------------------------------------------------------------------
# Validation


class CheckSection(NamedTuple):
    """One group of checks, built when it is done: how many ran, the violations,
    the whitelisted discrepancies and, for the catalog audit, the class counts."""

    name: str
    checked: int
    violations: list[str]
    whitelisted: list[str]
    counts: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_atlas(atlas: Atlas | None = None) -> CheckSection:
    """Check uniqueness, the pairing, the grid consistency, the counts and
    the (r, a) ranges, reporting violations in that order."""
    atlas = atlas or load_atlas()
    violations: list[str] = []
    s311 = atlas.all_classes(_S311)
    u = atlas.all_classes(_U)
    s311_fixed, u_fixed = atlas._fixed
    counts = dict(atlas._counts)

    n = counts["s311"] + counts["u"]
    if len(atlas._by_key) < n or atlas._labels < n:  # some class shadows another of its key or label
        for family, members in ((_S311, s311), (_U, u)):
            seen: dict[tuple, str] = {}
            named: dict[str, list[str]] = {}  # label -> the invariants of the classes it names
            for c in members:
                h = "" if family is _U else f" (H={c.h.value})"
                if c.key in seen:
                    violations.append(
                        f"{family.value}: duplicate invariants {c.triple}{h} ({seen[c.key]} and {c.index})"
                    )
                else:
                    named.setdefault(c.index, []).append(f"{c.triple}{h}")
                seen[c.key] = c.index
            for alias, partner in atlas._held if family is _U else ():
                named.setdefault(alias, []).append(str(partner.triple))
            violations += [
                f"{family.value}: label {label} names {' and '.join(found)}"
                for label, found in named.items()
                if len(found) > 1
            ]

    # related_key keeps delta, is an involution on keys, sends U's (g, k) to
    # (k+1, g-1) and S311's H = 0 (r, a) to (19-r, a+1) with H = Z/2; so only
    # a missing partner and the fixed points (hence the quotient counts) are
    # checked.  A plain lookup: related_class also refuses a shadowed duplicate.
    for family, members, fixed, expected_fixed in ((_S311, s311, s311_fixed, 0), (_U, u, u_fixed, 11)):
        partners = atlas._partners[family]
        if not all(partners):  # a class is always true, a missing partner None
            violations += [
                f"{c.index}: related invariants {related_key(c)[:3]} missing from {family.value}"
                for c, partner in zip(members, partners)
                if partner is None
            ]
        if fixed != expected_fixed:
            message = f"{family.value}: {fixed} self-related classes, expected {expected_fixed}"
            violations.append(message)

    # Grid <-> row-list consistency, both directions; equal dicts have equal cell sets.
    for h, grid in ((_ZERO, tables.GRID_H0), (_Z2, tables.GRID_Z2)):
        if atlas._grid[h] == grid:
            continue
        cells = {(r, a, d) for (r, a), deltas in grid.items() for d in deltas}
        rows = {c.triple for c in s311 if c.h is h}
        for missing in sorted(cells - rows):
            violations.append(f"grid cell {missing} (H={h.value}) has no catalog row")
        for extra in sorted(rows - cells):
            violations.append(f"catalog row {extra} (H={h.value}) is not a grid cell")

    if counts["s311"] != 102:
        violations.append(f"expected 102 classes, found {counts['s311']}")
    if counts["s311 H=0"] != 51 or counts["s311 H=Z2"] != 51:
        violations.append("expected a 51 + 51 split across the H invariant")
    if counts["u"] != 63:
        violations.append(f"expected 63 classes, found {counts['u']}")
    if counts["u delta=0"] != 14 or counts["u delta=1"] != 49:
        violations.append("expected a 14 / 49 delta split")
    if counts["s311 quotient"] != 51:
        violations.append("expected 51 classes after identifying related pairs")
    if counts["u quotient"] != 37:
        violations.append("expected 37 classes after identifying related pairs")

    # 2-rank bounds: a is a 2-rank of both the fixed and anti-fixed parts.
    # Parity: r - a and 22 - r - a are even for every class of both families.
    # Tested once per distinct (r, a); the classes are walked only to name those that fail.
    failed = [(r, a) for r, a in atlas._ra if a > r or a > 22 - r or (r - a) % 2]
    for c in s311 + u if failed else ():
        if c.a > c.r or c.a > 22 - c.r:
            violations.append(f"{c.index}: a = {c.a} exceeds min(r, 22 - r)")
        if (c.r - c.a) % 2:
            violations.append(f"{c.index}: r - a is odd")

    return CheckSection("catalogs", 0, violations, [], counts)
