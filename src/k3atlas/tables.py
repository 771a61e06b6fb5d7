"""Shipped catalog data, transcribed row for row from the published tables.

This module is pure data.  Everything else in the package either derives
its catalogs from these tables or is validated against them cell by cell;
the tables, not the closed-form generators, are the final arbiter.

The isotopy and move tables are text in whitespace columns, as printed:
index, r, a, delta ("d"), g, k, then the cells.  A cell "a,b" is the
(alpha, beta) pair (a, b), "-" an empty or "impossible" cell (None).  The
last isotopy column, a Node (*) real part, runs to the end of its line in
the canonical ASCII rendering ("Sigma_g", "T^2", "S^2", joined by " u ").
Every pair, shipped or derived, is the one ``_CELLS[a][b]``: comparisons stop at ``is``.
"""

from typing import NamedTuple


class IsotopyRow(NamedTuple):
    index: str
    r: int
    a: int
    delta: int
    g: int
    k: int
    node1: tuple[int, int] | None
    isolated: tuple[int, int] | None
    node2: tuple[int, int] | None
    node_star: str | None


class MoveRow(NamedTuple):
    index: str
    r: int
    a: int
    delta: int
    g: int
    k: int
    conj1: tuple[int, int] | None
    conj2: tuple[int, int] | None
    contr3: tuple[int, int] | None


class StarRow(NamedTuple):
    index: str
    r: int
    a: int
    delta: int
    g: int
    k: int
    result: str


# The shared (alpha, beta) cells, alpha and beta from 0 to 9: no cell holds more than 9 ovals.
_CELLS = tuple([tuple([(alpha, beta) for beta in range(10)]) for alpha in range(10)])


def _cell(text: str):
    """A cell's value: the shared pair for "a,b", None for "-", an int for digits, else the
    text (a real part)."""
    if "," in text:
        alpha, beta = map(int, text.split(","))
        return _CELLS[alpha][beta]
    return None if text == "-" else int(text) if text.isdigit() else text


def _rows(row: type, text: str) -> tuple:
    """One ``row`` per line of ``text``: the index, then each field's cell."""
    rows = []
    for line in text.strip().split("\n"):
        index, *fields = line.split(None, len(row._fields) - 1)  # a real part may hold spaces
        rows.append(row(index, *map(_cell, fields)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Class grids, H = 0 and H = Z/2 sides: (r, a) -> realizable delta values.

GRID_H0: dict[tuple[int, int], tuple[int, ...]] = {
    (9, 9): (1,),
    (8, 8): (1,), (10, 8): (0, 1),
    (7, 7): (1,), (9, 7): (1,), (11, 7): (1,),
    (6, 6): (1,), (8, 6): (1,), (10, 6): (0, 1), (12, 6): (1,),
    (5, 5): (1,), (7, 5): (1,), (9, 5): (1,), (11, 5): (1,), (13, 5): (1,),
    (4, 4): (1,), (6, 4): (0, 1), (8, 4): (1,), (10, 4): (0, 1),
    (12, 4): (1,), (14, 4): (0, 1),
    (3, 3): (1,), (5, 3): (1,), (7, 3): (1,), (9, 3): (1,), (11, 3): (1,),
    (13, 3): (1,), (15, 3): (1,),
    (2, 2): (0, 1), (4, 2): (1,), (6, 2): (0,), (8, 2): (1,), (10, 2): (0, 1),
    (12, 2): (1,), (14, 2): (0,), (16, 2): (1,),
    (1, 1): (1,), (3, 1): (1,), (9, 1): (1,), (11, 1): (1,), (17, 1): (1,),
    (2, 0): (0,), (10, 0): (0,), (18, 0): (0,),
}

GRID_Z2: dict[tuple[int, int], tuple[int, ...]] = {
    (10, 10): (1,),
    (9, 9): (0, 1), (11, 9): (1,),
    (8, 8): (1,), (10, 8): (1,), (12, 8): (1,),
    (7, 7): (1,), (9, 7): (0, 1), (11, 7): (1,), (13, 7): (1,),
    (6, 6): (1,), (8, 6): (1,), (10, 6): (1,), (12, 6): (1,), (14, 6): (1,),
    (5, 5): (0, 1), (7, 5): (1,), (9, 5): (0, 1), (11, 5): (1,),
    (13, 5): (0, 1), (15, 5): (1,),
    (4, 4): (1,), (6, 4): (1,), (8, 4): (1,), (10, 4): (1,), (12, 4): (1,),
    (14, 4): (1,), (16, 4): (1,),
    (3, 3): (1,), (5, 3): (0,), (7, 3): (1,), (9, 3): (0, 1), (11, 3): (1,),
    (13, 3): (0,), (15, 3): (1,), (17, 3): (0, 1),
    (2, 2): (1,), (8, 2): (1,), (10, 2): (1,), (16, 2): (1,), (18, 2): (1,),
    (1, 1): (0,), (9, 1): (0,), (17, 1): (0,),
}


# ---------------------------------------------------------------------------
# Isotopy candidate tables (one real nondegenerate double point), H = 0 side.
# index            r  a  d  g  k  node1 isol. node2 star
ISOTOPY_H0: tuple[IsotopyRow, ...] = _rows(IsotopyRow, """
No.1               1  1  1 10  0  0,8   0,8   0,7   -
No.2               2  0  0 10  1  1,8   1,8   1,7   -
No.3               2  2  0  9  0  0,7   0,7   0,6   -
No.4               2  2  1  9  0  0,7   0,7   0,6   -
No.5               3  1  1  9  1  1,7   1,7   1,6   -
No.6               3  3  1  8  0  0,6   0,6   0,5   -
No.7               4  2  1  8  1  1,6   1,6   1,5   -
No.8               4  4  1  7  0  0,5   0,5   0,4   -
No.9               5  3  1  7  1  1,5   1,5   1,4   -
No.10              5  5  1  6  0  0,4   0,4   0,3   -
No.11              6  2  0  7  2  2,5   2,5   2,4   -
No.12              6  4  0  6  1  1,4   1,4   1,3   -
No.13              6  4  1  6  1  1,4   1,4   1,3   -
No.14              6  6  1  5  0  0,3   0,3   0,2   -
No.15              7  3  1  6  2  2,4   2,4   2,3   -
No.16              7  5  1  5  1  1,3   1,3   1,2   -
No.17              7  7  1  4  0  0,2   0,2   0,1   -
No.18              8  2  1  6  3  3,4   3,4   3,3   -
No.19              8  4  1  5  2  2,3   2,3   2,2   -
No.20              8  6  1  4  1  1,2   1,2   1,1   -
No.21              8  8  1  3  0  0,1   0,1   0,0   -
No.22              9  1  1  6  4  4,4   4,4   4,3   -
No.23              9  3  1  5  3  3,3   3,3   3,2   -
No.24              9  5  1  4  2  2,2   2,2   2,1   -
No.25              9  7  1  3  1  1,1   1,1   1,0   -
No.26              9  9  1  2  0  0,0   0,0   -     -
No.27             10  0  0  6  5  5,4   5,4   5,3   -
No.28             10  2  0  5  4  4,3   4,3   4,2   -
No.29             10  2  1  5  4  4,3   4,3   4,2   -
No.30             10  4  0  4  3  3,2   3,2   3,1   -
No.31             10  4  1  4  3  3,2   3,2   3,1   -
No.32             10  6  0  3  2  2,1   2,1   2,0   -
No.33             10  6  1  3  2  2,1   2,1   2,0   -
special-(10,8,0)  10  8  0  2  1  -     -     -     T^2 u T^2
No.34             10  8  1  2  1  1,0   1,0   -     -
No.35             11  1  1  5  5  5,3   5,3   5,2   -
No.36             11  3  1  4  4  4,2   4,2   4,1   -
No.37             11  5  1  3  3  3,1   3,1   3,0   -
No.38             11  7  1  2  2  2,0   2,0   -     -
No.39             12  2  1  4  5  5,2   5,2   5,1   -
No.40             12  4  1  3  4  4,1   4,1   4,0   -
No.41             12  6  1  2  3  3,0   3,0   -     -
No.42             13  3  1  3  5  5,1   5,1   5,0   -
No.43             13  5  1  2  4  4,0   4,0   -     -
No.44             14  2  0  3  6  6,1   6,1   6,0   -
No.45             14  4  0  2  5  5,0   5,0   -     -
No.46             14  4  1  2  5  5,0   5,0   -     -
No.47             15  3  1  2  6  6,0   6,0   -     -
No.48             16  2  1  2  7  7,0   7,0   -     -
No.49             17  1  1  2  8  8,0   8,0   -     -
No.50             18  0  0  2  9  9,0   9,0   -     -
""")


# Isotopy candidate table, H = Z/2 side.
# index            r  a  d  g  k  node1 isol. node2 star
ISOTOPY_Z2: tuple[IsotopyRow, ...] = _rows(IsotopyRow, """
No.1'             18  2  1  1  8  0,8   0,8   0,7   -
No.2'             17  1  0  2  8  1,8   1,8   1,7   -
No.3'             17  3  0  1  7  0,7   0,7   0,6   -
No.4'             17  3  1  1  7  0,7   0,7   0,6   -
No.5'             16  2  1  2  7  1,7   1,7   1,6   -
No.6'             16  4  1  1  6  0,6   0,6   0,5   -
No.7'             15  3  1  2  6  1,6   1,6   1,5   -
No.8'             15  5  1  1  5  0,5   0,5   0,4   -
No.9'             14  4  1  2  5  1,5   1,5   1,4   -
No.10'            14  6  1  1  4  0,4   0,4   0,3   -
No.11'            13  3  0  3  5  2,5   2,5   2,4   -
No.12'            13  5  0  2  4  1,4   1,4   1,3   -
No.13'            13  5  1  2  4  1,4   1,4   1,3   -
No.14'            13  7  1  1  3  0,3   0,3   0,2   -
No.15'            12  4  1  3  4  2,4   2,4   2,3   -
No.16'            12  6  1  2  3  1,3   1,3   1,2   -
No.17'            12  8  1  1  2  0,2   0,2   0,1   -
No.18'            11  3  1  4  4  3,4   3,4   3,3   -
No.19'            11  5  1  3  3  2,3   2,3   2,2   -
No.20'            11  7  1  2  2  1,2   1,2   1,1   -
No.21'            11  9  1  1  1  0,1   0,1   0,0   -
No.22'            10  2  1  5  4  4,4   4,4   4,3   -
No.23'            10  4  1  4  3  3,3   3,3   3,2   -
No.24'            10  6  1  3  2  2,2   2,2   2,1   -
No.25'            10  8  1  2  1  1,1   1,1   1,0   -
No.26'            10 10  1  1  0  0,0   0,0   -     -
No.27'             9  1  0  6  4  5,4   5,4   5,3   -
No.28'             9  3  0  5  3  4,3   4,3   4,2   -
No.29'             9  3  1  5  3  4,3   4,3   4,2   -
No.30'             9  5  0  4  2  3,2   3,2   3,1   -
No.31'             9  5  1  4  2  3,2   3,2   3,1   -
No.32'             9  7  0  3  1  2,1   2,1   2,0   -
No.33'             9  7  1  3  1  2,1   2,1   2,0   -
special-(9,9,0)    9  9  0  2  0  1,0   1,0   -     Sigma_2
No.34'             9  9  1  2  0  1,0   1,0   -     -
No.35'             8  2  1  6  3  5,3   5,3   5,2   -
No.36'             8  4  1  5  2  4,2   4,2   4,1   -
No.37'             8  6  1  4  1  3,1   3,1   3,0   -
No.38'             8  8  1  3  0  2,0   2,0   -     -
No.39'             7  3  1  6  2  5,2   5,2   5,1   -
No.40'             7  5  1  5  1  4,1   4,1   4,0   -
No.41'             7  7  1  4  0  3,0   3,0   -     -
No.42'             6  4  1  6  1  5,1   5,1   5,0   -
No.43'             6  6  1  5  0  4,0   4,0   -     -
No.44'             5  3  0  7  1  6,1   6,1   6,0   -
No.45'             5  5  0  6  0  5,0   5,0   -     -
No.46'             5  5  1  6  0  5,0   5,0   -     -
No.47'             4  4  1  7  0  6,0   6,0   -     -
No.48'             3  3  1  8  0  7,0   7,0   -     -
No.49'             2  2  1  9  0  8,0   8,0   -     -
No.50'             1  1  0 10  0  9,0   9,0   -     -
""")


# ---------------------------------------------------------------------------
# Degeneration tables for the nonsingular-curve family.  Unprimed moves
# consume the (g-1) empty ovals, primed moves the k empty ovals; None
# marks an "impossible" cell.
# index            r  a  d  g  k  conj1 conj2 contr3
MOVES_UNPRIMED: tuple[MoveRow, ...] = _rows(MoveRow, """
No.1               1  1  1 10  0  0,8   0,7   0,8
No.2               2  0  0 10  1  1,8   1,7   1,8
No.3               2  2  0  9  0  0,7   0,6   0,7
No.4               2  2  1  9  0  0,7   0,6   0,7
No.5               3  1  1  9  1  1,7   1,6   1,7
No.6               3  3  1  8  0  0,6   0,5   0,6
No.7               4  2  1  8  1  1,6   1,5   1,6
No.8               4  4  1  7  0  0,5   0,4   0,5
No.9               5  3  1  7  1  1,5   1,4   1,5
No.10              5  5  1  6  0  0,4   0,3   0,4
No.11              6  2  0  7  2  2,5   2,4   2,5
No.12              6  4  0  6  1  1,4   1,3   1,4
No.13              6  4  1  6  1  1,4   1,3   1,4
No.14              6  6  1  5  0  0,3   0,2   0,3
No.15              7  3  1  6  2  2,4   2,3   2,4
No.16              7  5  1  5  1  1,3   1,2   1,3
No.17              7  7  1  4  0  0,2   0,1   0,2
No.18              8  2  1  6  3  3,4   3,3   3,4
No.19              8  4  1  5  2  2,3   2,2   2,3
No.20              8  6  1  4  1  1,2   1,1   1,2
No.21              8  8  1  3  0  0,1   0,0   0,1
No.22              9  1  1  6  4  4,4   4,3   4,4
No.23              9  3  1  5  3  3,3   3,2   3,3
No.24              9  5  1  4  2  2,2   2,1   2,2
No.25              9  7  1  3  1  1,1   1,0   1,1
No.26              9  9  1  2  0  0,0   -     0,0
No.27             10  0  0  6  5  5,4   5,3   5,4
No.28             10  2  0  5  4  4,3   4,2   4,3
No.29             10  2  1  5  4  4,3   4,2   4,3
No.30             10  4  0  4  3  3,2   3,1   3,2
No.31             10  4  1  4  3  3,2   3,1   3,2
No.32             10  6  0  3  2  2,1   2,0   2,1
No.33             10  6  1  3  2  2,1   2,0   2,1
No.34             10  8  1  2  1  1,0   -     1,0
No.35             11  1  1  5  5  5,3   5,2   5,3
No.36             11  3  1  4  4  4,2   4,1   4,2
No.37             11  5  1  3  3  3,1   3,0   3,1
No.38             11  7  1  2  2  2,0   -     2,0
No.39             12  2  1  4  5  5,2   5,1   5,2
No.40             12  4  1  3  4  4,1   4,0   4,1
No.41             12  6  1  2  3  3,0   -     3,0
No.42             13  3  1  3  5  5,1   5,0   5,1
No.43             13  5  1  2  4  4,0   -     4,0
No.44             14  2  0  3  6  6,1   6,0   6,1
No.45             14  4  0  2  5  5,0   -     5,0
No.46             14  4  1  2  5  5,0   -     5,0
No.47             15  3  1  2  6  6,0   -     6,0
No.48             16  2  1  2  7  7,0   -     7,0
No.49             17  1  1  2  8  8,0   -     8,0
No.50             18  0  0  2  9  9,0   -     9,0
""")


# The contraction cell of No.16' is shipped exactly as printed, (1, 2); the
# generator derives (1, 3).  Validators whitelist this one cell.
# index            r  a  d  g  k  conj1 conj2 contr3
MOVES_PRIMED: tuple[MoveRow, ...] = _rows(MoveRow, """
No.1'             19  1  1  1  9  0,8   0,7   0,8
No.2'             18  0  0  2  9  1,8   1,7   1,8
No.3'             18  2  0  1  8  0,7   0,6   0,7
No.4'             18  2  1  1  8  0,7   0,6   0,7
No.5'             17  1  1  2  8  1,7   1,6   1,7
No.6'             17  3  1  1  7  0,6   0,5   0,6
No.7'             16  2  1  2  7  1,6   1,5   1,6
No.8'             16  4  1  1  6  0,5   0,4   0,5
No.9'             15  3  1  2  6  1,5   1,4   1,5
No.10'            15  5  1  1  5  0,4   0,3   0,4
No.11'            14  2  0  3  6  2,5   2,4   2,5
No.12'            14  4  0  2  5  1,4   1,3   1,4
No.13'            14  4  1  2  5  1,4   1,3   1,4
No.14'            14  6  1  1  4  0,3   0,2   0,3
No.15'            13  3  1  3  5  2,4   2,3   2,4
No.16'            13  5  1  2  4  1,3   1,2   1,2
No.17'            13  7  1  1  3  0,2   0,1   0,2
No.18'            12  2  1  4  5  3,4   3,3   3,4
No.19'            12  4  1  3  4  2,3   2,2   2,3
No.20'            12  6  1  2  3  1,2   1,1   1,2
No.21'            12  8  1  1  2  0,1   0,0   0,1
No.22'            11  1  1  5  5  4,4   4,3   4,4
No.23'            11  3  1  4  4  3,3   3,2   3,3
No.24'            11  5  1  3  3  2,2   2,1   2,2
No.25'            11  7  1  2  2  1,1   1,0   1,1
No.26'            11  9  1  1  1  0,0   -     0,0
No.27'            10  0  0  6  5  5,4   5,3   5,4
No.28'            10  2  0  5  4  4,3   4,2   4,3
No.29'            10  2  1  5  4  4,3   4,2   4,3
No.30'            10  4  0  4  3  3,2   3,1   3,2
No.31'            10  4  1  4  3  3,2   3,1   3,2
No.32'            10  6  0  3  2  2,1   2,0   2,1
No.33'            10  6  1  3  2  2,1   2,0   2,1
No.34'            10  8  1  2  1  1,0   -     1,0
No.35'             9  1  1  6  4  5,3   5,2   5,3
No.36'             9  3  1  5  3  4,2   4,1   4,2
No.37'             9  5  1  4  2  3,1   3,0   3,1
No.38'             9  7  1  3  1  2,0   -     2,0
No.39'             8  2  1  6  3  5,2   5,1   5,2
No.40'             8  4  1  5  2  4,1   4,0   4,1
No.41'             8  6  1  4  1  3,0   -     3,0
No.42'             7  3  1  6  2  5,1   5,0   5,1
No.43'             7  5  1  5  1  4,0   -     4,0
No.44'             6  2  0  7  2  6,1   6,0   6,1
No.45'             6  4  0  6  1  5,0   -     5,0
No.46'             6  4  1  6  1  5,0   -     5,0
No.47'             5  3  1  7  1  6,0   -     6,0
No.48'             4  2  1  8  1  7,0   -     7,0
No.49'             3  1  1  9  1  8,0   -     8,0
No.50'             2  0  0 10  1  9,0   -     9,0
""")


MOVES_STAR: tuple[StarRow, ...] = (
    StarRow("No.26", 9, 9, 1, 2, 0, "Node (*)"),
    StarRow("No.26'", 11, 9, 1, 1, 1, "Node (*)"),
)


# The one shipped cell that disagrees with the generated value.
WHITELISTED_CELLS: tuple[tuple[str, str, tuple[int, int], tuple[int, int]], ...] = (
    # (row index, move, shipped cell, derived cell)
    ("No.16'", "contr3p", (1, 2), (1, 3)),
)


# ---------------------------------------------------------------------------
# Nonsingular-curve classes that carry no table row.  The two exclusions
# have no oval bookkeeping at all; (10, 10, 1) has g = 1 and k = 0, so
# every degeneration move is impossible and both tables omit it.

U_EXCLUDED_TRIPLES: tuple[tuple[int, int, int], ...] = ((10, 8, 0), (10, 10, 0))
U_UNTABULATED_TRIPLES: tuple[tuple[int, int, int], ...] = ((10, 10, 1),)


# Coarse classification counts carried as metadata only; no per-row
# assignment is published, so none is invented here.
TYPE_COUNTS = {"Type 0": 12, "Type Ia": 12, "Type Ib (H=0)": 39, "Type Ib (H=Z2)": 39}
