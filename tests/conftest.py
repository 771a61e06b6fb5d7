"""Shared helpers for exact-matrix tests."""

import random

from k3atlas.lattices import smith_normal_form


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def transpose(m):
    return [[m[j][i] for j in range(len(m))] for i in range(len(m[0]))] if m else []


def int_det(m):
    # Plain cofactor expansion; fine for the small transform matrices.
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * int_det(minor)
    return total


def shear_conjugate(gram, rng: random.Random, steps: int = 25):
    """p . gram . p^T for a random unimodular p, a product of ``steps``
    shears e_i += c e_j (c in +-1, +-2); each shear is applied to the Gram
    matrix as one row update and one column update."""
    g = [list(row) for row in gram]
    n = len(g)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in g:
            row[i] += c * row[j]
    return g


def delta_by_enumeration(lattice):
    """Reference delta: 1 when some x in the 2-elementary discriminant group
    has a non-integral square, found by walking all 2^a classes (a <= 10).

    With u G v = d in Smith form, the factors d_i = 2 are spanned by
    x_i = v_i / 2 for the columns v_i of v, so the products are taken in
    integers on the v_i, four times x.y, and divided by 4 once per class."""
    d, _u, v = smith_normal_form(lattice.gram)
    factors = [d[i][i] for i in range(lattice.rank)]
    if any(f not in (1, 2) for f in factors):
        raise ValueError("the reference walk needs a 2-elementary discriminant group")
    vectors = [[row[i] for row in v] for i, f in enumerate(factors) if f == 2]
    a = len(vectors)
    if a > 10:
        raise ValueError(f"2^{a} classes is too many for the reference walk")
    images = [[sum(gij * wj for gij, wj in zip(row, w)) for row in lattice.gram] for w in vectors]
    prod = [[sum(x * y for x, y in zip(u, image)) for image in images] for u in vectors]
    # x_T.x_T for a subset T expands into single and pairwise products.
    for mask in range(1, 1 << a):
        members = [i for i in range(a) if mask >> i & 1]
        norm = sum(prod[i][i] for i in members)
        norm += 2 * sum(
            prod[i][j] for idx, i in enumerate(members) for j in members[idx + 1 :]
        )
        if norm % 4:
            return 1
    return 0
