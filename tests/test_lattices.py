import copy
import hashlib
import math
import pickle
import random
import re

import pytest
import numpy as np
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from conftest import delta_by_enumeration, int_det, matmul, shear_conjugate, transpose
from k3atlas import lattices
from k3atlas.atlas import Family, HInvariant, load_atlas, related_key
from k3atlas.divisors import f4_class
from k3atlas.errors import DegenerateLattice, GramParseError, NotTwoElementary
from k3atlas.lattices import (
    DiscriminantGroup,
    IntegralLattice,
    TwoElemInvariants,
    direct_sum,
    discriminant_group,
    gram_E8_minus,
    gram_LK3,
    gram_PicY,
    gram_S311,
    gram_U,
    gram_minus2,
    parse_gram_text,
    signature,
    smith_normal_form,
    two_elementary_invariants,
)
from k3atlas.topology import PieceKind, RegionDescriptor, RegionPiece


def snf_diag(mat):
    d, _u, _v = smith_normal_form(mat)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def test_lattice_validation():
    with pytest.raises(ValueError):
        IntegralLattice(((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        IntegralLattice(((0, 1),))
    empty = IntegralLattice(())
    assert empty.rank == 0 and empty.det() == 1 and signature(empty) == (0, 0)


@pytest.mark.parametrize("entry", [-2.9, 2.0, "2", None])
def test_lattice_refuses_non_integer_entries(entry):
    # A float is not truncated and a string is not parsed: both raise.
    with pytest.raises(ValueError, match="must be integers"):
        IntegralLattice(((entry,),))
    assert IntegralLattice(((True, 0), (0, -2))).gram == ((1, 0), (0, -2))


def test_fixture_pairings():
    # In the basis (E, F, A0): E.E = -2, E.F = 2, E.A0 = 1, F.F = -2,
    # F.A0 = 0, A0.A0 = -2.
    assert gram_S311().gram == ((-2, 2, 1), (2, -2, 0), (1, 0, -2))
    # In the basis (e, f, A0): e.e = -1, e.f = 1, e.A0 = 1, f.f = -1,
    # f.A0 = 0, A0.A0 = -4.
    assert gram_PicY().gram == ((-1, 1, 1), (1, -1, 0), (1, 0, -4))


def test_snf_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    d, u, v = smith_normal_form(eye)
    assert d == eye and matmul(matmul(u, eye), v) == d


@pytest.mark.parametrize("entry", [2.7, "2"])
def test_snf_refuses_non_integer_entries(entry):
    with pytest.raises(ValueError, match="must be integers"):
        smith_normal_form([[entry]])


def test_snf_diag22():
    d, u, v = smith_normal_form([[2, 0], [0, 2]])
    assert d == [[2, 0], [0, 2]]
    assert matmul(matmul(u, [[2, 0], [0, 2]]), v) == d


def test_snf_s311():
    # Independent oracle (sympy) pins the invariant factors to 1, 1, 2.
    mat = [list(r) for r in gram_S311().gram]
    assert snf_diag(mat) == [1, 1, 2]
    oracle = sympy_snf(sympy.Matrix(mat))
    assert [oracle[i, i] for i in range(3)] == [1, 1, 2]


@pytest.mark.parametrize("trial", range(60))
def test_snf_properties_random(trial):
    rng = random.Random(1000 + trial)
    n = rng.randint(0, 5)
    m = rng.randint(0, 5)
    mat = [[rng.randint(-20, 20) for _ in range(m)] for _ in range(n)]
    d, u, v = smith_normal_form(mat)
    assert matmul(matmul(u, mat), v) == d
    assert abs(int_det(u)) == 1 and abs(int_det(v)) == 1
    diag = [d[i][i] for i in range(min(n, m))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y == 0 if x == 0 else y % x == 0
    for i in range(n):
        for j in range(m):
            if i != j:
                assert d[i][j] == 0
    if n == m and n:
        assert abs(int_det(mat)) == abs(int_det(d))
    # Cross-check the invariant factors against sympy.
    if n and m:
        oracle = sympy_snf(sympy.Matrix(mat), domain=sympy.ZZ)
        oracle_diag = sorted(abs(oracle[i, i]) for i in range(min(n, m)))
        assert sorted(diag) == oracle_diag


# (d, u, v) exactly as computed when they were pinned: a change to the pivot
# rule or to the order of the operations shows here even when the result is
# still a valid Smith form.  The 3 x 5 and 5 x 3 inputs are the randint(-9, 9)
# draws, row by row, of random.Random(35) and random.Random(53).
SNF_PINS = [
    (
        [list(row) for row in gram_S311().gram],
        [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        [[1, 0, 0], [2, 3, 1], [0, -1, 0]],
        [[0, 1, 2], [0, 1, 3], [1, 0, -2]],
    ),
    (
        [[8, 1, -5, 1, -5], [0, 4, -1, 9, -8], [7, -1, 2, 9, -6]],
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]],
        [[1, 0, 0], [1, 0, 1], [66, -1, 62]],
        [
            [0, 0, 13, 205, 2],
            [1, 14, 33, 524, 5],
            [0, 3, 25, 395, 3],
            [0, 1, -12, -189, -1],
            [0, 0, 0, 0, 1],
        ],
    ),
    (
        [[-3, 5, 7], [6, 7, 2], [5, -9, -8], [-4, 2, -5], [-1, -8, -4]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]],
        [
            [0, 0, 0, 0, -1],
            [0, 0, 0, 1, -4],
            [-6, -8, 1, -3, -13],
            [28, 35, -3, 14, 55],
            [-99, -109, 0, -47, -169],
        ],
        [[1, 4, -48], [0, 1, -11], [0, -3, 34]],
    ),
    (
        [[2, 4, -6, 8], [1, 3, 5, -7], [3, 7, -1, 1], [4, 8, -12, 16]],
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 0, 0], [-1, 2, 0, 0], [-1, -1, 1, 0], [-2, 0, 0, 1]],
        [[1, -3, 19, -26], [0, 1, -8, 11], [0, 0, 1, 0], [0, 0, 0, 1]],
    ),
]


@pytest.mark.parametrize("mat, d, u, v", SNF_PINS, ids=["S311", "3x5", "5x3", "singular"])
def test_snf_pinned_transforms(mat, d, u, v):
    assert smith_normal_form(mat) == (d, u, v)


def test_snf_pinned_transforms_of_conjugated_lk3():
    d, u, v = smith_normal_form(shear_conjugate(gram_LK3().gram, random.Random(2212)))
    assert d == [[int(i == j) for j in range(22)] for i in range(22)]
    digest = hashlib.sha256(repr((d, u, v)).encode()).hexdigest()
    assert digest == "e7b53524905aa35024a34a16326f3501dda6d205d81acb8a08f76d37e6369bf9"


def dense_conjugate(gram, rng, steps=25):
    # Reference for shear_conjugate: the same shears multiplied into p, then
    # p . gram . p^T as two dense products.
    n = len(gram)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    return matmul(matmul(p, [list(row) for row in gram]), transpose(p))


def test_shear_conjugate_matches_dense_product():
    # One stream per route, fed through three fixtures in turn, as the
    # tests that share an rng across basis changes use it.
    for seed in range(10):
        fast, dense = random.Random(seed), random.Random(seed)
        for fixture in (gram_S311, gram_LK3, gram_U):
            gram = fixture().gram
            assert shear_conjugate(gram, fast) == dense_conjugate(gram, dense)


def test_discriminant_group_examples():
    assert discriminant_group(gram_U()).cyclic_orders == ()
    assert discriminant_group(gram_minus2()).cyclic_orders == (2,)
    group = discriminant_group(gram_S311())
    assert group.cyclic_orders == (2,)
    assert math.prod(group.cyclic_orders) == abs(gram_S311().det()) == 2
    six = discriminant_group(direct_sum(scaled(gram_U(), 2), IntegralLattice(((6,),))))
    assert six.cyclic_orders == (2, 2, 6) and math.prod(six.cyclic_orders) == 24
    with pytest.raises(DegenerateLattice):
        discriminant_group(IntegralLattice(((0,),)))


def test_two_elementary_examples():
    assert two_elementary_invariants(gram_S311()).triple == (3, 1, 1)
    assert two_elementary_invariants(gram_U()).triple == (2, 0, 0)
    e8 = gram_E8_minus()
    assert e8.det() == 1
    assert two_elementary_invariants(e8).triple == (8, 0, 0)
    assert two_elementary_invariants(gram_minus2()).triple == (1, 1, 1)
    assert two_elementary_invariants(IntegralLattice(())).triple == (0, 0, 0)


def test_two_elementary_errors():
    with pytest.raises(NotTwoElementary, match="odd"):
        two_elementary_invariants(gram_PicY())
    for entry, bad in ((-4, "[4]"), (6, "[6]")):
        with pytest.raises(NotTwoElementary) as info:
            two_elementary_invariants(IntegralLattice(((entry,),)))
        assert str(info.value) == f"discriminant group has cyclic factors {bad}"
    # Even and singular: det 0 is never 2^a, and the Smith form reports it.
    for gram in (((0, 0), (0, 0)), ((2, 2), (2, 2))):
        with pytest.raises(DegenerateLattice, match="nondegenerate pairing"):
            two_elementary_invariants(IntegralLattice(gram))


def test_signature_examples():
    assert signature(gram_LK3()) == (3, 19)
    assert signature(gram_S311()) == (1, 2)
    assert signature(gram_minus2()) == (0, 1)
    assert signature(gram_U()) == (1, 1)
    assert signature(gram_PicY()) == (1, 2)
    assert signature(gram_E8_minus()) == (0, 8)
    # Degenerate pairing: p + n falls short of the rank by the radical.
    assert signature(IntegralLattice(((2, 0), (0, 0)))) == (1, 0)


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def descartes_signature(mat):
    """(pos, neg) by Descartes' rule of signs on the exact characteristic
    polynomial, highest degree first: the rule counts roots exactly when all
    of them are real, as for a symmetric matrix.  neg counts the positive
    roots of p(-x)."""
    n = len(mat)
    coeffs = DomainMatrix([[sympy.ZZ(x) for x in row] for row in mat], (n, n), sympy.ZZ).charpoly()
    flipped = [c if (n - k) % 2 == 0 else -c for k, c in enumerate(coeffs)]
    return _sign_changes(coeffs), _sign_changes(flipped)


def symmetric_matrix(n, kind, rng):
    """A symmetric integer matrix of size n, half its entries 0, plain, with a
    zero diagonal, or singular (row and column i copied from j)."""
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = rng.choice((0, 0, 0, 0, -1, 1, -2, 3, -4))
    if kind == "zero diagonal":
        for i in range(n):
            mat[i][i] = 0
    if kind == "singular" and n > 1:
        i, j = rng.sample(range(n), 2)
        mat[i] = list(mat[j])
        for row in mat:
            row[i] = row[j]
    return mat


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    n=st.integers(0, 8),
    kind=st.sampled_from(["plain", "zero diagonal", "singular"]),
    rng=st.randoms(use_true_random=False),
)
def test_det_and_signature_match_independent_oracles(n, kind, rng):
    # Neither oracle runs k3atlas code: cofactor expansion for det, and
    # Descartes' rule on sympy's characteristic polynomial for the signature.
    mat = symmetric_matrix(n, kind, rng)
    lattice = IntegralLattice(mat)
    assert lattice.det() == int_det(mat)
    assert signature(lattice) == descartes_signature(mat)


def test_lattice_keeps_one_elimination_and_one_smith_form(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(lattices, name)
        return lambda m: calls.append(name) or original(m)

    for name in ("_symmetric_bareiss", "smith_normal_form"):
        monkeypatch.setattr(lattices, name, counted(name))
    six = IntegralLattice(((6, 0), (0, 2)))
    assert (six.det(), signature(six), six.det()) == (12, (2, 0), 12)
    with pytest.raises(NotTwoElementary, match=r"\[6\]"):
        two_elementary_invariants(six)
    assert discriminant_group(six).cyclic_orders == (2, 6)
    assert calls == ["_symmetric_bareiss", "smith_normal_form"]
    # a copy or an unpickled lattice carries the gram alone and computes its own
    assert pickle.dumps(six) == pickle.dumps(IntegralLattice(six.gram))
    assert copy.copy(six).det() == 12
    assert calls[2:] == ["_symmetric_bareiss"]


@pytest.mark.parametrize("trial", range(30))
def test_signature_numpy_crosscheck(trial):
    rng = random.Random(2000 + trial)
    n = rng.randint(1, 5)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            mat[i][j] = mat[j][i] = rng.randint(-4, 4)
    lattice = IntegralLattice(tuple(tuple(r) for r in mat))
    if lattice.det() == 0:
        return
    eigenvalues = np.linalg.eigvalsh(np.array(mat, dtype=float))
    expected = (int((eigenvalues > 1e-6).sum()), int((eigenvalues < -1e-6).sum()))
    assert signature(lattice) == expected


def test_direct_sum_examples():
    s_like = direct_sum(gram_U(), gram_minus2())
    assert s_like.rank == 3 and s_like.det() == 2
    assert two_elementary_invariants(s_like).triple == (3, 1, 1)
    assert two_elementary_invariants(s_like).triple == two_elementary_invariants(gram_S311()).triple

    empty = IntegralLattice(())
    assert direct_sum(empty, gram_U()).gram == gram_U().gram

    uu = direct_sum(gram_U(), gram_U())
    assert uu.rank == 4 and signature(uu) == (2, 2)

    big = direct_sum(
        direct_sum(gram_S311(), gram_U()),
        direct_sum(gram_U(), direct_sum(gram_E8_minus(), gram_E8_minus())),
    )
    assert big.rank == 23
    assert two_elementary_invariants(big).triple == (23, 1, 1)


def test_lk3_shape():
    lk3 = gram_LK3()
    assert lk3.rank == 22 and lk3.is_even() and abs(lk3.det()) == 1
    assert two_elementary_invariants(lk3).triple == (22, 0, 0)


@pytest.mark.parametrize(
    "fixture,expected_sig,expected_inv,expected_det",
    [
        (gram_S311, (1, 2), (3, 1, 1), 2),
        (gram_U, (1, 1), (2, 0, 0), -1),
    ],
)
def test_unimodular_invariance(fixture, expected_sig, expected_inv, expected_det):
    base = fixture()
    rng = random.Random(42)
    for _ in range(10):
        changed = IntegralLattice(shear_conjugate(base.gram, rng))
        assert signature(changed) == expected_sig
        assert two_elementary_invariants(changed).triple == expected_inv
        assert changed.det() == expected_det


def test_delta_uses_full_group():
    # Two copies of <-2>: each generator has square -1/2 but their sum has
    # square -1; one class with a non-integral square already makes delta 1.
    lattice = direct_sum(gram_minus2(), gram_minus2())
    assert two_elementary_invariants(lattice).triple == (2, 2, 1)
    assert delta_by_enumeration(lattice) == 1
    # y = (1, 1) lies in ker(G mod 2) with y^T G y = -4, so x = y/2 has x.x = -1.
    assert sum(lattice.gram[i][j] for i in range(2) for j in range(2)) == -4


def scaled(lattice, k):
    return IntegralLattice(tuple(tuple(k * x for x in row) for row in lattice.gram))


def block_sum(blocks):
    lattice = IntegralLattice(())
    for block in blocks:
        lattice = direct_sum(lattice, block)
    return lattice


def test_delta_for_twenty_generators():
    u2 = scaled(gram_U(), 2)
    assert two_elementary_invariants(block_sum([u2] * 10)).triple == (20, 20, 0)
    mixed = block_sum([u2] * 9 + [gram_minus2()] * 2)
    assert two_elementary_invariants(mixed).triple == (20, 20, 1)


def test_two_elementary_route_runs_no_smith_normal_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("a 2-elementary lattice needs no Smith normal form")

    monkeypatch.setattr(lattices, "smith_normal_form", refuse)
    monkeypatch.setattr(lattices, "discriminant_group", refuse)
    rng = random.Random(20)
    for name, (block, a, delta, _sig) in BLOCKS.items():
        changed = IntegralLattice(shear_conjugate(block.gram, rng)) if block.rank > 1 else block
        assert two_elementary_invariants(changed).triple == (block.rank, a, delta), name
    u2 = scaled(gram_U(), 2)
    assert two_elementary_invariants(block_sum([u2] * 10)).triple == (20, 20, 0)
    assert two_elementary_invariants(block_sum([u2] * 9 + [gram_minus2()] * 2)).triple == (20, 20, 1)
    assert two_elementary_invariants(gram_S311()).triple == (3, 1, 1)
    assert two_elementary_invariants(gram_LK3()).triple == (22, 0, 0)
    assert two_elementary_invariants(IntegralLattice(())).triple == (0, 0, 0)


D4_MINUS = IntegralLattice(
    ((-2, 1, 0, 0), (1, -2, 1, 1), (0, 1, -2, 0), (0, 1, 0, -2))
)
# name: (lattice, a, delta, signature), each known in closed form.
BLOCKS = {
    "U": (gram_U(), 0, 0, (1, 1)),
    "U(2)": (scaled(gram_U(), 2), 2, 0, (1, 1)),
    "<2>": (scaled(gram_minus2(), -1), 1, 1, (1, 0)),
    "<-2>": (gram_minus2(), 1, 1, (0, 1)),
    "D4(-1)": (D4_MINUS, 2, 0, (0, 4)),
    # E8's diagram less the end of its long arm
    "E7(-1)": (IntegralLattice(tuple(row[:7] for row in gram_E8_minus().gram[:7])), 1, 1, (0, 7)),
    "E8(-1)": (gram_E8_minus(), 0, 0, (0, 8)),
    "E8(-2)": (scaled(gram_E8_minus(), 2), 8, 0, (0, 8)),
}


def fit_rank_22(names):
    kept, rank = [], 0
    for name in names:
        block_rank = BLOCKS[name][0].rank
        if rank + block_rank <= 22:
            kept.append(name)
            rank += block_rank
    return kept


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(BLOCKS)), min_size=1, max_size=12).map(fit_rank_22),
    rng=st.randoms(use_true_random=False),
)
def test_conjugated_block_sums_match_closed_form(names, rng):
    blocks, a_values, deltas, signatures = zip(*(BLOCKS[name] for name in names))
    base = block_sum(blocks)
    gram = base.gram
    if base.rank > 1:
        gram = shear_conjugate(gram, rng)
    changed = IntegralLattice(gram)
    a = sum(a_values)
    invariants = two_elementary_invariants(changed)
    assert invariants.triple == (base.rank, a, max(deltas))
    assert signature(changed) == (sum(p for p, _ in signatures), sum(n for _, n in signatures))
    assert abs(changed.det()) == 2**a
    # The Smith normal form is the oracle for a, and for delta when a <= 10.
    assert discriminant_group(changed).cyclic_orders == (2,) * a
    if a <= 10:
        assert invariants.delta == delta_by_enumeration(changed)


# A witness has exactly one positive block, so its signature is (1, r - 1).
POSITIVE_BLOCKS = ("U", "U(2)", "<2>")
NEGATIVE_BLOCKS = ("<-2>", "D4(-1)", "E7(-1)", "E8(-1)", "E8(-2)")


def witness(r: int, a: int, delta: int) -> list[str] | None:
    """The names of the first block sum, in a fixed search order, with one positive block whose
    closed-form invariants are (r, a, delta): r and a add over blocks, and delta is 1 exactly
    when some block has delta 1.  None when there is none."""

    def fill(names, start, rank, two_rank):  # negative blocks from NEGATIVE_BLOCKS[start:]
        if rank == two_rank == 0:
            return names if max(BLOCKS[n][2] for n in names) == delta else None
        for at in range(start, len(NEGATIVE_BLOCKS)):
            name = NEGATIVE_BLOCKS[at]
            block, block_a = BLOCKS[name][:2]
            if block.rank <= rank and block_a <= two_rank:
                found = fill(names + [name], at, rank - block.rank, two_rank - block_a)
                if found:
                    return found
        return None

    for name in POSITIVE_BLOCKS:
        block, block_a = BLOCKS[name][:2]
        if block.rank <= r and block_a <= a:
            found = fill([name], 0, r - block.rank, a - block_a)
            if found:
                return found
    return None


def _check_witness(triple, rng) -> None:
    # The lattice half recomputes the triple and the signature after a change of basis.
    names = witness(*triple)
    assert names is not None, triple
    gram = block_sum([BLOCKS[n][0] for n in names]).gram
    changed = IntegralLattice(shear_conjugate(gram, rng) if len(gram) > 1 else gram)
    assert two_elementary_invariants(changed).triple == triple, (triple, names)
    assert signature(changed) == (1, triple[0] - 1), (triple, names)


@pytest.mark.parametrize("family", ["u", "s311 H=0"])
def test_every_class_has_a_block_sum_witness(family):
    atlas = load_atlas()
    if family == "u":
        triples = [c.triple for c in atlas.all_classes(Family.U)]
    else:
        triples = [c.triple for c in atlas.all_classes(Family.S311) if c.h is HInvariant.ZERO]
    assert len(triples) == (63 if family == "u" else 51)
    rng = random.Random(2012)
    for triple in triples:
        _check_witness(triple, rng)
    # the two triples without oval bookkeeping, through E8(-2)
    assert witness(10, 8, 0) == ["U", "E8(-2)"] and witness(10, 10, 0) == ["U(2)", "E8(-2)"]


def test_h_z2_classes_are_reached_through_related_key():
    # An H = Z/2 class with delta = 0 has r = 1 mod 4 and so an odd a, which no even
    # 2-elementary lattice with delta = 0 has: none of those 12 has a witness.  Each H = Z/2
    # class is reached through its related_key partner, an H = 0 class with a witness.
    atlas = load_atlas()
    z2 = [c for c in atlas.all_classes(Family.S311) if c.h is HInvariant.Z2]
    even = [c for c in z2 if c.delta == 0]
    assert len(z2) == 51 and len(even) == 12
    assert all(c.r % 4 == 1 and c.a % 2 and witness(*c.triple) is None for c in even)
    rng = random.Random(2013)
    partners = [atlas.lookup(Family.S311, *related_key(c)) for c in z2]
    assert all(p.h is HInvariant.ZERO and related_key(p) == c.key for c, p in zip(z2, partners))
    for partner in partners:
        _check_witness(partner.triple, rng)


GRAM_TEXT = """\
# demo file
3
-2 2 1
2 -2 0
1 0 -2
"""


def test_parse_gram_text():
    lattice = parse_gram_text(GRAM_TEXT)
    assert lattice.gram == gram_S311().gram


_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])
_EXTRA = st.sampled_from(["", "", "\n", "   \n", "\t\n", "# a comment\n", "  # 1 2 3\n"])


def _exactly(n, strategy):
    return st.lists(strategy, min_size=n, max_size=n)


@st.composite
def gram_texts(draw):
    """A symmetric integer matrix and Gram text for it, with comment lines,
    blank lines and whitespace around and between the entries."""
    n = draw(st.integers(1, 6))
    upper = iter(draw(_exactly(n * (n + 1) // 2, st.integers(-(10**12), 10**12))))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(upper)
    spaces = iter(draw(_exactly((n + 1) ** 2, _SPACE)))
    extras = draw(_exactly(n + 2, _EXTRA))
    text = "".join(
        extra + "".join(next(spaces) + str(x) for x in line) + next(spaces) + "\n"
        for extra, line in zip(extras, [(n,), *rows])
    )
    return tuple(map(tuple, rows)), text + extras[-1]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=gram_texts())
def test_parse_gram_text_roundtrip(case):
    gram, text = case
    assert parse_gram_text(text).gram == gram


def _print_gram(gram) -> str:
    """The Gram text of the README's grammar: the size, then one line per row."""
    return "".join(f"{line}\n" for line in [str(len(gram)), *(" ".join(map(str, row)) for row in gram)])


# What int() reads beyond the grammar, and what it refuses: each replaces one entry or the size.
_SPELLINGS = ["+1", "1_0", "-0_1", "\u0661", "\uff17", "1\u0662", "x", "-", "--1", "1-2", "1.0", "0x1", "", "1 1"]


@st.composite
def edited_gram_texts(draw):
    """Gram text with one entry or the size written another way, or text of Gram-like characters."""
    if draw(st.booleans()):
        return draw(st.text(alphabet="0123456789-+_ \t\n#x\u0661\u00b2", max_size=30))
    _, text = draw(gram_texts())
    lines = text.split("\n")
    spots = [
        (k, m.span())
        for k, line in enumerate(lines) if not line.lstrip().startswith("#")
        for m in re.finditer("-?[0-9]+", line)
    ]
    k, (start, end) = draw(st.sampled_from(spots))
    lines[k] = lines[k][:start] + draw(st.sampled_from(_SPELLINGS)) + lines[k][end:]
    return "\n".join(lines)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=st.one_of(gram_texts().map(lambda case: case[1]), edited_gram_texts()))
def test_gram_text_parses_exactly_the_grammar(text):
    # Any text parses or raises GramParseError.  Accepted text writes every integer as an
    # optional '-' then ASCII digits, and its lattice round-trips through the grammar's printer.
    try:
        lattice = parse_gram_text(text)
    except GramParseError:
        return
    content = [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]
    assert all(re.fullmatch("-?[0-9]+", token) for line in content for token in line.split()), text
    printed = _print_gram(lattice.gram)
    assert parse_gram_text(printed).gram == lattice.gram


@pytest.mark.parametrize(
    "text, where, entry",
    [
        ("1\n1_0\n", "row 1", "1_0"),
        ("1\n+1\n", "row 1", "+1"),
        ("2\n2 1\n1 \u0662\n", "row 2", "\u0662"),
        ("+1\n2\n", "the size line", "+1"),
        ("1_0\n", "the size line", "1_0"),
    ],
)
def test_parse_gram_refuses_what_int_reads_beyond_the_grammar(text, where, entry):
    with pytest.raises(GramParseError) as caught:
        parse_gram_text(text)
    assert str(caught.value) == f"{where} has {entry!r}: an integer is an optional '-' then ASCII digits"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n1\n",
        "2\n1 0\n",
        "2\n1 0\n0 one\n",
        "1\n1 2\n",
        "2\n0 1\n2 0\n",  # asymmetric
        "-1\n",
    ],
)
def test_parse_gram_errors(text):
    with pytest.raises(GramParseError):
        parse_gram_text(text)


# One value of each lattice-half value type: the repr it had as a frozen
# dataclass, an edit of its protocol-0 pickle (the last occurrence of the
# first bytes becomes the second) that makes it invalid, and a _replace that
# its constructor refuses.
LATTICE_VALUES = {
    "IntegralLattice": (
        IntegralLattice(((0, 1), (1, 0))),
        "IntegralLattice(gram=((0, 1), (1, 0)))",
        (b"I1\n", b"I2\n"),
        {"gram": ((0, 1), (2, 0))},
    ),
    "TwoElemInvariants": (
        TwoElemInvariants(3, 1, 1),
        "TwoElemInvariants(r=3, a=1, delta=1)",
        (b"I1\n", b"I2\n"),
        {"delta": 2},
    ),
    "DiscriminantGroup": (
        DiscriminantGroup((2, 6)),
        "DiscriminantGroup(cyclic_orders=(2, 6))",
        (b"I6\n", b"I9\n"),
        {"cyclic_orders": (4, 6)},
    ),
    "DivisorClass": (
        f4_class(12, 3),
        "DivisorClass(surface=<Surface.F4: 'f4'>, coords=(12, 3))",
        (b"I3\n", b"F3.5\n"),
        {"coords": (1, 2, 3)},
    ),
}


@pytest.mark.parametrize("name", list(LATTICE_VALUES))
def test_lattice_value_type_contract(name):
    value, text, (old, new), bad = LATTICE_VALUES[name]
    assert type(value).__name__ == name
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, next(iter(bad)), None)
    with pytest.raises(AttributeError):
        value.extra = None
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
    head, found, tail = pickle.dumps(value, 0).rpartition(old)
    assert found
    with pytest.raises(ValueError):
        pickle.loads(head + new + tail)
    with pytest.raises(ValueError):
        value._replace(**bad)


_HOLED = PieceKind.ANNULUS_WITH_HOLES

# Builds that raise ValueError with the message given: a field of the wrong type or out of
# range, or a region piece without an Euler characteristic.
REFUSED_BUILDS = {
    "r a float": (lambda: TwoElemInvariants(3.0, 1, 1), "r, a and delta are ints, not bools"),
    "bools": (lambda: TwoElemInvariants(True, True, True), "r, a and delta are ints, not bools"),
    "delta a float": (lambda: TwoElemInvariants(3, 1, 1.0), "r, a and delta are ints, not bools"),
    "a above r": (lambda: TwoElemInvariants(1, 2, 0), "need 0 <= a <= r"),
    "float orders": (lambda: DiscriminantGroup((2.0, 4.0)), "each cyclic order is an int above 1"),
    "bool order": (lambda: DiscriminantGroup((True, 2)), "each cyclic order is an int above 1"),
    "str order": (lambda: DiscriminantGroup(("2",)), "each cyclic order is an int above 1"),
    "negative order": (lambda: DiscriminantGroup((-2, 4)), "each cyclic order is an int above 1"),
    "order 1": (lambda: DiscriminantGroup((1, 2)), "each cyclic order is an int above 1"),
    "order 0": (lambda: DiscriminantGroup((0, 2)), "each cyclic order is an int above 1"),
    "ragged matrix": (lambda: smith_normal_form([[1, 2], [3]]), "matrix rows must have equal length"),
    "str piece": (lambda: RegionDescriptor(("disk",)), "each piece must be a RegionPiece"),
    "str kind": (
        lambda: RegionDescriptor((RegionPiece("disk"),)), "each piece must be a RegionPiece"
    ),
    "negative holes": (lambda: RegionDescriptor((RegionPiece(_HOLED, -3),)), "holes are an int >= 0"),
    "float holes": (lambda: RegionDescriptor((RegionPiece(_HOLED, 2.5),)), "holes are an int >= 0"),
    "bool holes": (lambda: RegionDescriptor((RegionPiece(_HOLED, True),)), "holes are an int >= 0"),
}


@pytest.mark.parametrize("name", list(REFUSED_BUILDS))
def test_refused_builds(name):
    build, message = REFUSED_BUILDS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_region_descriptor_keeps_its_pieces_as_a_tuple():
    # a list is kept as a tuple, so the descriptor hashes
    listed = RegionDescriptor([RegionPiece(PieceKind.DISK)])
    assert type(listed.pieces) is tuple and listed.euler_characteristic == 1
    assert hash(listed) == hash(RegionDescriptor((RegionPiece(PieceKind.DISK),)))
    # a generator is read once, and its pieces are kept
    made = RegionDescriptor(RegionPiece(PieceKind.DISK) for _ in range(2))
    assert len(made.pieces) == 2 and made.euler_characteristic == 2 and str(made) == "2 disks"
