import random

import pytest

from k3atlas.divisors import (
    DivisorClass,
    Surface,
    anti_bicanonical,
    arithmetic_genus,
    canonical_class,
    f4_class,
    intersect,
    y_class,
)
from k3atlas.errors import SurfaceMismatch, UnsupportedSurface


FIBER = f4_class(1, 0)
SECTION = f4_class(0, 1)
BRANCH = f4_class(12, 3)  # the trigonal curve class
ZERO = f4_class(0, 0)


def test_pairing_basics():
    assert intersect(FIBER, FIBER) == 0
    assert intersect(FIBER, SECTION) == 1
    assert intersect(SECTION, SECTION) == -4


def test_trigonal_class():
    assert intersect(BRANCH, FIBER) == 3
    assert intersect(BRANCH, SECTION) == 0


def test_anti_bicanonical():
    anti = anti_bicanonical(Surface.F4)
    assert anti.coords == (12, 4)
    # anti-bicanonical = section + branch curve
    assert anti - SECTION - BRANCH == ZERO
    assert intersect(anti, FIBER) == 4
    # -2K is the double of the canonical class, with the opposite sign
    assert anti + 2 * canonical_class(Surface.F4) == ZERO
    with pytest.raises(UnsupportedSurface):
        anti_bicanonical(Surface.Y)
    with pytest.raises(UnsupportedSurface):
        canonical_class(Surface.Y)


def test_classes_scale_on_the_left_only():
    assert 2 * BRANCH == f4_class(24, 6)
    # a DivisorClass is a tuple, but d * n must not repeat it
    for other in (2, BRANCH):
        with pytest.raises(TypeError):
            BRANCH * other


def test_arithmetic_genus():
    assert intersect(BRANCH, BRANCH) == 36
    assert intersect(BRANCH, canonical_class(Surface.F4)) == -18
    assert arithmetic_genus(BRANCH) == 10
    assert arithmetic_genus(SECTION) == 0
    assert arithmetic_genus(FIBER) == 0
    # One nondegenerate double point drops the geometric genus to 9.
    assert arithmetic_genus(BRANCH) - 1 == 9
    with pytest.raises(UnsupportedSurface):
        arithmetic_genus(y_class(1, 0, 0))


def test_genus_parity_always_holds():
    # d.(d + K) is even for every integral class, so adjunction is total.
    rng = random.Random(5)
    for _ in range(200):
        d = f4_class(rng.randint(-9, 9), rng.randint(-9, 9))
        assert isinstance(arithmetic_genus(d), int)


def test_surface_mismatch():
    with pytest.raises(SurfaceMismatch):
        intersect(FIBER, y_class(1, 0, 0))
    with pytest.raises(SurfaceMismatch):
        FIBER + y_class(1, 0, 0)


def test_coordinate_validation():
    with pytest.raises(ValueError):
        DivisorClass(Surface.F4, (1, 2, 3))
    with pytest.raises(ValueError):
        DivisorClass(Surface.Y, (1, 2))


@pytest.mark.parametrize("coords", [(1.9, 2), (1, "2"), (1.0, 2)])
def test_coordinates_must_be_integers(coords):
    # A float is not truncated and a string is not parsed: both raise.
    with pytest.raises(ValueError, match="must be integers"):
        DivisorClass(Surface.F4, coords)
    assert DivisorClass(Surface.F4, (True, 2)).coords == (1, 2)


def _canonical_class_y():
    # Adjunction pins K on the blow-up: e and f are rational (-1)-curves
    # and A0 is rational with square -4, giving K.e = K.f = -1, K.A0 = 2.
    # Solve the three linear conditions exactly.
    targets = {y_class(1, 0, 0): -1, y_class(0, 1, 0): -1, y_class(0, 0, 1): 2}
    for x in range(-8, 9):
        for y in range(-8, 9):
            for z in range(-4, 5):
                k = y_class(x, y, z)
                if all(intersect(k, basis) == value for basis, value in targets.items()):
                    return (x, y, z)
    raise AssertionError("no canonical class found")


def test_branch_curve_class_on_blowup():
    k_y = _canonical_class_y()
    assert k_y == (-6, -5, -2)
    assert intersect(y_class(*k_y), y_class(*k_y)) == 7  # 8 - 1 for the one blow-up
    # A = A0 + A1 is anti-bicanonical, so A1 = -2K - A0.
    a1 = y_class(-2 * k_y[0], -2 * k_y[1], -2 * k_y[2] - 1)
    assert a1.coords == (12, 10, 3)
    assert intersect(a1, y_class(1, 0, 0)) == 1  # A1.e
    assert intersect(a1, y_class(0, 1, 0)) == 2  # A1.f


def test_elliptic_fiber_class_on_blowup():
    fiber = y_class(1, 1, 0)  # e + f
    assert intersect(fiber, fiber) == 0
    assert intersect(fiber, y_class(0, 0, 1)) == 1


@pytest.mark.parametrize("surface", list(Surface))
def test_pairing_bilinear_symmetric(surface):
    rng = random.Random(11)
    size = 2 if surface is Surface.F4 else 3
    for _ in range(50):
        a = DivisorClass(surface, tuple(rng.randint(-6, 6) for _ in range(size)))
        b = DivisorClass(surface, tuple(rng.randint(-6, 6) for _ in range(size)))
        c = DivisorClass(surface, tuple(rng.randint(-6, 6) for _ in range(size)))
        m = rng.randint(-3, 3)
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a + b, c) == intersect(a, c) + intersect(b, c)
        assert intersect(m * a, b) == m * intersect(a, b)


def test_class_printing():
    assert str(f4_class(12, 3)) == "12c+3s"
    assert str(f4_class(-6, -2)) == "-6c-2s"
    assert str(f4_class(0, 0)) == "0"
    assert str(f4_class(1, -1)) == "c-s"
    assert str(y_class(12, 10, 3)) == "12e+10f+3A0"
