"""Divisor-class arithmetic on the fourth Hirzebruch surface and its blow-up.

Two fixed bases are supported: (c, s) on the Hirzebruch surface, where c
is a fiber (c^2 = 0) and s the exceptional section (s^2 = -4, c.s = 1),
and (e, f, A0) on the blow-up Y, with the pairing taken from the Picard
lattice fixture.  The canonical class of the Hirzebruch surface is pinned
to -6c - 2s, the unique divisor class doubling to -(12c + 4s).
"""

from enum import Enum
from typing import NamedTuple

from ._checked import Checked
from .errors import SurfaceMismatch, UnsupportedSurface
from .lattices import _integers, gram_PicY


class Surface(Enum):
    F4 = "f4"
    Y = "y"


_PAIRINGS = {
    Surface.F4: ((0, 1), (1, -4)),
    Surface.Y: gram_PicY().gram,
}

_BASIS = {Surface.F4: ("c", "s"), Surface.Y: ("e", "f", "A0")}


class _DivisorFields(NamedTuple):
    surface: Surface
    coords: tuple[int, ...]


class DivisorClass(Checked, _DivisorFields):
    """Coordinates of a class in the fixed basis of its surface."""

    __slots__ = ()

    def __new__(cls, surface: Surface, coords):
        coords = _integers(coords)
        expected = len(_BASIS[surface])
        if len(coords) != expected:
            raise ValueError(f"{surface.value} classes take {expected} coordinates")
        return tuple.__new__(cls, (surface, coords))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.surface is not other.surface:
            raise SurfaceMismatch("cannot add classes on different surfaces")
        return DivisorClass(
            self.surface, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(-a for a in self.coords))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(scalar * a for a in self.coords))

    def __mul__(self, other):  # n * d scales; d * n raises instead of repeating
        return NotImplemented

    def __str__(self) -> str:
        names = _BASIS[self.surface]
        parts = []
        for coeff, name in zip(self.coords, names):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else ("+" if parts else "")
            mag = abs(coeff)
            parts.append(f"{sign}{'' if mag == 1 else mag}{name}")
        return "".join(parts) or "0"


def f4_class(c: int, s: int) -> DivisorClass:
    return DivisorClass(Surface.F4, (c, s))


def y_class(e: int, f: int, a0: int) -> DivisorClass:
    return DivisorClass(Surface.Y, (e, f, a0))


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number of two divisor classes on the same surface."""
    if d1.surface is not d2.surface:
        raise SurfaceMismatch(f"classes live on {d1.surface.value} and {d2.surface.value}")
    gram = _PAIRINGS[d1.surface]
    return sum(x * gram[i][j] * y for i, x in enumerate(d1.coords) for j, y in enumerate(d2.coords))


def canonical_class(surface: Surface) -> DivisorClass:
    """The canonical class; only pinned down on the Hirzebruch surface."""
    if surface is Surface.F4:
        return f4_class(-6, -2)
    raise UnsupportedSurface("canonical data is modelled on the Hirzebruch surface only")


def anti_bicanonical(surface: Surface) -> DivisorClass:
    """The class of anti-bicanonical curves, 12c + 4s."""
    if surface is Surface.F4:
        return f4_class(12, 4)
    raise UnsupportedSurface("anti-bicanonical class is only pinned down on f4")


def arithmetic_genus(d: DivisorClass) -> int:
    """Adjunction genus 1 + (d.d + d.K) / 2 of a divisor class.

    The quotient is always an integer: K = -6c - 2s is characteristic (Wu's
    formula, d.d = d.K mod 2), and for d = xc + ys the sum d.d + d.K is
    2xy - 4y^2 - 2x + 2y.  On Y, ``canonical_class`` raises first.
    """
    k = canonical_class(d.surface)
    return 1 + (intersect(d, d) + intersect(d, k)) // 2
