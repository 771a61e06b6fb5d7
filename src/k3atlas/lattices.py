"""Exact linear algebra for integral lattices.

Gram matrices are immutable tuples of Python integers, and every derived
quantity (determinant, Smith normal form, signature, discriminant group,
the rank / 2-rank / delta triple) is computed with arbitrary-precision
integers or bit masks over F_2.  No floating point is involved anywhere,
so classification decisions cannot be corrupted by rounding.

The value types are validated NamedTuples: every build checks its fields,
``_replace``, ``_make``, copies and unpickling included.  A lattice keeps
what it computes on first use: one symmetric Bareiss elimination, which
gives both its determinant and its signature, and its Smith invariant
factors.  A copy or an unpickled lattice computes its own.
"""

import operator
import sys
from functools import cached_property, reduce
from typing import Iterable, NamedTuple, Sequence

from ._checked import INTEGER_RULE, Checked, beyond_integer_rule
from .errors import DegenerateLattice, GramParseError, NotTwoElementary


def _integers(row: Iterable[int]) -> tuple[int, ...]:
    row = tuple(row)
    try:
        # operator.index takes ints and bools but refuses a float or a string.
        return tuple(map(operator.index, row))
    except TypeError:
        raise ValueError(f"entries must be integers: {row!r}") from None


def _frozen_gram(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    gram = tuple(map(_integers, rows))
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError("Gram matrix must be square")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Gram matrix must be symmetric")
    return gram


class _LatticeFields(NamedTuple):
    gram: tuple[tuple[int, ...], ...]


class IntegralLattice(Checked, _LatticeFields):
    """A finitely generated free abelian group with an integer pairing; it
    keeps its elimination (pos, neg, det) and invariant factors once computed."""

    def __new__(cls, gram):
        return tuple.__new__(cls, (_frozen_gram(gram),))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def det(self) -> int:
        return self._elimination[2]

    @cached_property
    def _elimination(self) -> tuple[int, int, int]:
        return _symmetric_bareiss(self.gram)

    @cached_property
    def _invariant_factors(self) -> tuple[int, ...]:
        d, _u, _v = smith_normal_form(self.gram)
        return tuple(d[i][i] for i in range(self.rank))


class _TwoElemFields(NamedTuple):
    r: int
    a: int
    delta: int


class TwoElemInvariants(Checked, _TwoElemFields):
    """The (r, a, delta) triple of an even 2-elementary lattice."""

    __slots__ = ()

    def __new__(cls, r, a, delta):
        if not type(r) is type(a) is type(delta) is int:
            raise ValueError("r, a and delta are ints, not bools")
        if not 0 <= a <= r:
            raise ValueError("need 0 <= a <= r")
        if delta not in (0, 1):
            raise ValueError("delta is 0 or 1")
        return tuple.__new__(cls, (r, a, delta))

    @property
    def triple(self) -> tuple[int, int, int]:
        return tuple(self)


class _GroupFields(NamedTuple):
    cyclic_orders: tuple[int, ...]


class DiscriminantGroup(Checked, _GroupFields):
    """Dual lattice modulo the lattice, as a product of cyclic groups."""

    __slots__ = ()

    def __new__(cls, cyclic_orders):
        orders = tuple(cyclic_orders)
        if not all(type(order) is int and order > 1 for order in orders):
            raise ValueError(f"each cyclic order is an int above 1: {orders!r}")
        if any(cur % prev for prev, cur in zip(orders, orders[1:])):
            raise ValueError("cyclic orders must form a divisibility chain")
        return tuple.__new__(cls, (orders,))


def _symmetric_bareiss(gram: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    # (pos, neg, det) in one fraction-free symmetric pass (Bareiss, Math.
    # Comp. 22, 1968).  Each pivot d is a nonzero diagonal entry; it leaves
    # with its row and column c, and the rest becomes (d*x - c_i*c_j) // prev.
    # Every entry is a minor of a unimodular congruent of the gram, so the
    # division is exact, and the pivots are its leading principal minors:
    # d is a positive square when its sign is prev's (Jacobi).  det is the
    # last pivot, or 0 once the rest is all zero.
    m = [list(row) for row in gram]
    pos = neg = 0
    prev = 1
    while m:
        n = len(m)
        p = next((i for i in range(n) if m[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]), None)
            if pair is None:
                return pos, neg, 0
            p, j = pair
            # Isotropic diagonal: e_p += e_j makes m[p][p] = 2 m[p][j] != 0.
            m[p] = [x + y for x, y in zip(m[p], m[j])]
            for row in m:
                row[p] += row[j]
        c = m.pop(p)
        d = c.pop(p)
        for row in m:
            del row[p]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        m = [[(d * x - ci * cj) // prev for x, cj in zip(row, c)] for row, ci in zip(m, c)]
        prev = d
    return pos, neg, prev


def _nearest_quotient(a: int, b: int) -> int:
    # Quotient with |a - q*b| <= |b| / 2; balanced remainders keep the
    # intermediate entries small (Havas-Majewski pivoting).  Python's
    # divmod remainder carries the sign of b, so r - b is the balanced
    # remainder whenever |r| exceeds |b| / 2.
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns ``(d, u, v)`` with ``u @ mat @ v == d``, the diagonal of ``d``
    nonnegative with each entry dividing the next, and ``det(u), det(v)``
    equal to +-1.  Total on rectangular integer matrices.

    Pivots are always chosen as a smallest-magnitude nonzero entry of the
    trailing block and reductions use nearest-integer quotients; without
    both, entry sizes explode on matrices as small as 20 x 20.  The
    operations run on one bordered matrix ``[[mat, 1], [1, 0]]``, so each
    is written once and carries ``u`` and ``v`` along with ``d``.
    """
    a = [list(_integers(row)) for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    if any(len(row) != m for row in a):
        raise ValueError("matrix rows must have equal length")
    # b = [[mat, 1_n], [1_m, 0]]: an operation on one of the first n rows
    # updates d and u at once, one on one of the first m columns d and v.
    b = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    b += [[int(i == j) for j in range(m)] + [0] * n for i in range(m)]

    def add_row(i, j, c):
        # row i += c * row j
        bi, bj = b[i], b[j]
        for k in range(m + n):
            bi[k] += c * bj[k]

    def move_smallest_pivot(t):
        pivot = best = None
        for i in range(t, n):
            for j in range(t, m):
                value = abs(b[i][j])
                if value and (best is None or value < best):
                    pivot = (i, j)
                    best = value
        if pivot is None:
            return False
        i, j = pivot
        b[t], b[i] = b[i], b[t]
        if j != t:
            for row in b:
                row[t], row[j] = row[j], row[t]
        return True

    for t in range(min(n, m)):
        if not move_smallest_pivot(t):
            break
        while True:
            # One balanced-remainder pass; then re-pick the smallest pivot.
            p = b[t][t]
            dirty = False
            for i in range(t + 1, n):
                if b[i][t]:
                    add_row(i, t, -_nearest_quotient(b[i][t], p))
                    dirty = dirty or bool(b[i][t])
            for j in range(t + 1, m):
                if b[t][j]:
                    # column j += c * column t
                    c = -_nearest_quotient(b[t][j], p)
                    for row in b:
                        row[j] += c * row[t]
                    dirty = dirty or bool(b[t][j])
            if dirty:
                move_smallest_pivot(t)
                continue
            tail = range(t + 1, m)
            offender = next((i for i in range(t + 1, n) if any(b[i][j] % p for j in tail)), None)
            if offender is None:
                break
            # Pull the offending row up so the next pivot divides it too.
            add_row(t, offender, 1)
            move_smallest_pivot(t)
        if b[t][t] < 0:
            b[t] = [-x for x in b[t]]

    return [row[:m] for row in b[:n]], [row[m:] for row in b[:n]], [row[:m] for row in b[n:]]


def discriminant_group(l: IntegralLattice) -> DiscriminantGroup:
    """Dual modulo lattice: the invariant factors above 1 of the Gram matrix."""
    factors = l._invariant_factors
    if 0 in factors:
        raise DegenerateLattice("discriminant group needs a nondegenerate pairing")
    return DiscriminantGroup(tuple(x for x in factors if x > 1))


def _kernel_mod_2(gram: Sequence[Sequence[int]]) -> list[int]:
    # A basis of ker(gram mod 2) for a symmetric gram, as bit masks: each row
    # that reduces to zero on bit-mask rows yields the rows it was summed from
    # (bit i for row i).  pivots maps a kept row's lowest bit to (row, sources).
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for i, row in enumerate(gram):
        bits, sources = sum(1 << j for j, x in enumerate(row) if x & 1), 1 << i
        while bits and (bits & -bits) in pivots:
            pivot_bits, pivot_sources = pivots[bits & -bits]
            bits, sources = bits ^ pivot_bits, sources ^ pivot_sources
        if bits:
            pivots[bits & -bits] = (bits, sources)
        else:
            kernel.append(sources)
    return kernel


def two_elementary_invariants(l: IntegralLattice) -> TwoElemInvariants:
    """The (r, a, delta) triple of an even lattice with 2-elementary dual quotient.

    The 2-torsion of L*/L is {y/2 : Gy = 0 mod 2} modulo L (Nikulin, Math.
    USSR Izv. 14 (1980), section 1), so its 2-rank is a = dim ker(G mod 2)
    and L is 2-elementary exactly when |det G| = 2^a.  delta is 0 exactly
    when every x = y/2 has an integral square y^T G y / 4; as 2 x.x' is an
    integer, x.x mod 1 is additive and a kernel basis decides it.  The
    Smith normal form runs only for a lattice that is not 2-elementary, to
    name its factors (or to report a degenerate one).
    """
    if not l.is_even():
        raise NotTwoElementary("lattice is odd (some basis vector has odd square)")
    gram = l.gram
    kernel = _kernel_mod_2(gram)
    if abs(l.det()) != 1 << len(kernel):
        bad = [o for o in discriminant_group(l).cyclic_orders if o != 2]
        raise NotTwoElementary(f"discriminant group has cyclic factors {bad}")
    # y^T G y for each kernel vector y, lifted to 0/1 entries.
    supports = ([i for i in range(l.rank) if y >> i & 1] for y in kernel)
    delta = int(any(sum(gram[i][j] for i in s for j in s) % 4 for s in supports))
    return TwoElemInvariants(l.rank, len(kernel), delta)


def signature(l: IntegralLattice) -> tuple[int, int]:
    """Counts of positive and negative squares; p + n < rank only when degenerate."""
    pos, neg, _det = l._elimination
    return pos, neg


def direct_sum(l1: IntegralLattice, l2: IntegralLattice) -> IntegralLattice:
    """Orthogonal direct sum; Gram matrices go block diagonal."""
    n1, n2 = l1.rank, l2.rank
    return IntegralLattice(
        [row + (0,) * n2 for row in l1.gram] + [(0,) * n1 + row for row in l2.gram]
    )


# ---------------------------------------------------------------------------
# Fixtures


def gram_U() -> IntegralLattice:
    """The even unimodular hyperbolic plane."""
    return IntegralLattice(((0, 1), (1, 0)))


def gram_minus2() -> IntegralLattice:
    """Rank-one lattice spanned by a (-2)-vector."""
    return IntegralLattice(((-2,),))


def gram_S311() -> IntegralLattice:
    """Pairing of the classes E, F, A0 on the double-cover side."""
    return IntegralLattice(((-2, 2, 1), (2, -2, 0), (1, 0, -2)))


def gram_PicY() -> IntegralLattice:
    """Pairing of the classes e, f, A0 on the quotient surface."""
    return IntegralLattice(((-1, 1, 1), (1, -1, 0), (1, 0, -4)))


def gram_E8_minus() -> IntegralLattice:
    """Negative definite even unimodular lattice of rank 8."""
    cartan = (
        (2, 0, -1, 0, 0, 0, 0, 0),
        (0, 2, 0, -1, 0, 0, 0, 0),
        (-1, 0, 2, -1, 0, 0, 0, 0),
        (0, -1, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, 0),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, 0, 0, -1, 2),
    )
    rows = tuple(tuple(-x for x in row) for row in cartan)
    return IntegralLattice(rows)


def gram_LK3() -> IntegralLattice:
    """Reference form of the K3 lattice: three hyperbolic planes plus two E8(-1)."""
    return reduce(direct_sum, [gram_U()] * 3 + [gram_E8_minus()] * 2)


# ---------------------------------------------------------------------------
# Gram-matrix file format: line one holds n, then n rows of n integers, each an optional
# '-' then ASCII digits.  Lines whose first non-blank character is '#' are comments.  UTF-8, LF.


def parse_gram_text(text: str) -> IntegralLattice:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        raise GramParseError("empty Gram file")
    body = "".join(lines)
    if beyond_integer_rule(body):  # int() reads these; is one in an entry?
        for k, line in enumerate(lines):
            for bad in filter(beyond_integer_rule, line.split()):
                where = f"row {k}" if k else "the size line"
                raise GramParseError(f"{where} has {bad!r}: {INTEGER_RULE}")
    try:
        n = int(lines[0])
    except ValueError:
        raise GramParseError(f"first line must be the size, got {lines[0]!r}") from None
    if n < 0:
        raise GramParseError("size must be nonnegative")
    if len(lines) != n + 1:
        raise GramParseError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != n:
            raise GramParseError(f"row {k} has {len(parts)} entries, expected {n}")
        try:
            rows.append(tuple(map(int, parts)))
        except ValueError:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
            if limit and any(p.lstrip("-").isdigit() and len(p.lstrip("-")) > limit for p in parts):
                problem = f"an integer over Python's {limit}-digit int-string limit"
                raise GramParseError(f"row {k} contains {problem}") from None
            raise GramParseError(f"row {k} contains a non-integer entry") from None
    try:
        return IntegralLattice(tuple(rows))
    except ValueError as exc:
        raise GramParseError(str(exc)) from None


def load_gram_file(path) -> IntegralLattice:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise GramParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GramParseError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_gram_text(text)
