"""Seeded Gram matrices for the ``lattice`` workload, with closed-form answers.

Every input is an orthogonal direct sum of the even 2-elementary blocks
U, U(2), <2>, <-2>, D4(-1), E7(-1), E8(-1) and E8(-2), in seeded order,
conjugated by a seeded unimodular change of basis.  The expected rank, 2-rank a, delta,
signature and determinant follow from the blocks alone (Nikulin 1980):
r, a, p and n add over blocks, delta is 1 exactly when some block has
delta 1, and |det| = 2^a with sign (-1)^n.  None of this depends on the
basis, so the answers are checked without calling the code under test.

This module imports nothing from ``k3atlas``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

MAX_RANK = 22
MAX_A = 12  # a = 14 takes over a second per op at the seed commit
MAX_ENTRY_BITS = 17


def _cartan(n: int, edges) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for i, j in edges:
        m[i][j] = m[j][i] = -1
    return m


def _scaled(m: list[list[int]], s: int) -> list[list[int]]:
    return [[s * x for x in row] for row in m]


_E8 = _cartan(8, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)])
_E7 = _cartan(7, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)])
_D4 = _cartan(4, [(0, 1), (1, 2), (1, 3)])


@dataclass(frozen=True)
class Block:
    name: str
    gram: tuple[tuple[int, ...], ...]
    a: int
    delta: int
    pos: int
    neg: int

    @property
    def rank(self) -> int:
        return len(self.gram)


def _block(name, gram, a, delta, pos, neg) -> Block:
    return Block(name, tuple(tuple(row) for row in gram), a, delta, pos, neg)


BLOCKS: tuple[Block, ...] = (
    _block("U", [[0, 1], [1, 0]], 0, 0, 1, 1),
    _block("U(2)", [[0, 2], [2, 0]], 2, 0, 1, 1),
    _block("<2>", [[2]], 1, 1, 1, 0),
    _block("<-2>", [[-2]], 1, 1, 0, 1),
    _block("D4(-1)", _scaled(_D4, -1), 2, 0, 0, 4),
    _block("E7(-1)", _scaled(_E7, -1), 1, 1, 0, 7),
    _block("E8(-1)", _scaled(_E8, -1), 0, 0, 0, 8),
    _block("E8(-2)", _scaled(_E8, -2), 8, 0, 0, 8),
)


@dataclass(frozen=True)
class Expected:
    """Invariants of a block sum; none of them depends on the basis."""

    r: int
    a: int
    delta: int
    signature: tuple[int, int]
    det: int


def expected_for(counts: tuple[int, ...]) -> Expected:
    r = a = pos = neg = delta = 0
    for block, count in zip(BLOCKS, counts):
        r += count * block.rank
        a += count * block.a
        pos += count * block.pos
        neg += count * block.neg
        if count and block.delta:
            delta = 1
    return Expected(r, a, delta, (pos, neg), (-1) ** neg * 2**a)


@lru_cache(maxsize=None)
def decompositions() -> dict[tuple[int, int, int], tuple[tuple[int, ...], ...]]:
    """Every block multiset of rank <= MAX_RANK and a <= MAX_A, by (a, delta, r)."""
    found: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}

    def extend(i: int, counts: list[int], r: int, a: int) -> None:
        if i == len(BLOCKS):
            if r >= 2:
                e = expected_for(tuple(counts))
                found.setdefault((e.a, e.delta, e.r), []).append(tuple(counts))
            return
        block = BLOCKS[i]
        count = 0
        while r + count * block.rank <= MAX_RANK and a + count * block.a <= MAX_A:
            counts.append(count)
            extend(i + 1, counts, r + count * block.rank, a + count * block.a)
            counts.pop()
            count += 1

    extend(0, [], 0, 0)
    return {key: tuple(value) for key, value in found.items()}


def cells() -> list[tuple[int, int]]:
    """The (a, delta) ladder: a = 0..12, delta = 1 wherever a > 0 and
    delta = 0 wherever a is even (an even lattice with delta = 0 has even a)."""
    out = []
    for a in range(MAX_A + 1):
        if a % 2 == 0:
            out.append((a, 0))
        if a > 0:
            out.append((a, 1))
    return out


# Every cell runs unconjugated at its smallest rank, and also in one of two
# conjugated shapes in turn (by (a + delta) mod 3, where 0 means no second
# slot): the middle of the cell's rank range with 2r seeded shears, or the
# largest rank <= 22 with 8r shears, which reach the entry-size cap.  Cells
# with a >= HEAVY_A never take the largest shape, so the slowest op is the
# unconjugated a = 12, delta = 0 sum (the 2^a delta loop alone), whose
# cost does not depend on the seed.  Fixed shapes and lengths keep an op's
# cost nearly the same from seed to seed, and a short round lets every op
# repeat many times within a run.
SHAPES = ((0.0, 0), (0.5, 2), (1.0, 8))  # (place in the rank range, shears per rank)
HEAVY_A = 8


@lru_cache(maxsize=None)
def slots() -> tuple[tuple[int, int, int, int], ...]:
    """(a, delta, rank, shears) for every op of one round."""
    table = decompositions()
    out = []
    for a, delta in cells():
        ranks = sorted(r for (ca, cd, r) in table if (ca, cd) == (a, delta))
        shape = (a + delta) % 3
        if a >= HEAVY_A and shape == 2:
            shape = 1
        for place, multiple in sorted({SHAPES[0], SHAPES[shape]}):
            target = ranks[0] + place * (ranks[-1] - ranks[0])
            rank = min(ranks, key=lambda r: (abs(r - target), r))
            out.append((a, delta, rank, multiple * rank))
    return tuple(out)


def block_sum(order: list[Block]) -> list[list[int]]:
    n = sum(b.rank for b in order)
    gram = [[0] * n for _ in range(n)]
    offset = 0
    for b in order:
        for i, row in enumerate(b.gram):
            gram[offset + i][offset : offset + b.rank] = row
        offset += b.rank
    return gram


def conjugate(gram: list[list[int]], rng: random.Random, shears: int) -> list[list[int]]:
    """Apply ``shears`` seeded congruences e_i += c e_j (c in +-1, +-2), in
    place, stopping early rather than let an entry reach MAX_ENTRY_BITS + 1 bits."""
    n = len(gram)
    limit = 1 << MAX_ENTRY_BITS
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        gi, gj = gram[i], gram[j]
        diag = gi[i] + 2 * c * gi[j] + c * c * gj[j]
        row = [x + c * y for x, y in zip(gi, gj)]
        row[i] = diag
        if max(abs(x) for x in row) >= limit:
            break
        gram[i] = row
        for t in range(n):
            gram[t][i] = row[t]
    return gram


def gram_text(gram: list[list[int]], comment: str) -> str:
    lines = [f"# {comment}", str(len(gram))]
    lines.extend(" ".join(str(x) for x in row) for row in gram)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LatticeInput:
    text: str
    expected: Expected


def block_mix(a: int, delta: int, rank: int) -> tuple[int, ...]:
    """The slot's block counts: the decomposition with the most distinct
    blocks (the first such in enumeration order).  A fixed mix per slot
    keeps an op's cost from swinging with the seed."""
    return max(decompositions()[(a, delta, rank)], key=lambda counts: sum(c > 0 for c in counts))


def make_input(rng: random.Random, a: int, delta: int, rank: int, shears: int) -> LatticeInput:
    """The slot's block sum in seeded order, conjugated by ``shears`` seeded shears."""
    counts = block_mix(a, delta, rank)
    order = [b for b, count in zip(BLOCKS, counts) for _ in range(count)]
    rng.shuffle(order)
    gram = conjugate(block_sum(order), rng, shears)
    names = "+".join(b.name for b in order)
    return LatticeInput(
        gram_text(gram, f"{names}, {shears} shears"),
        expected_for(counts),
    )


def make_inputs(rng: random.Random) -> list[LatticeInput]:
    """One input per slot."""
    return [make_input(rng, *slot) for slot in slots()]


# A fixed, unconjugated input for untimed warm-up: U + U(2) + D4(-1).
WARMUP_TEXT = gram_text(block_sum([BLOCKS[0], BLOCKS[1], BLOCKS[4]]), "warm-up")
