"""The base of the package's validated, immutable value types, and the integer token rule."""

# README's integer, which int() extends with a '+', a '_' between digits and non-ASCII digits.
INTEGER_RULE = "an integer is an optional '-' then ASCII digits"


def beyond_integer_rule(token: str) -> bool:
    return not token.isascii() or "+" in token or "_" in token


class Checked:
    """Base of ``class V(Checked, _VFields)``, a NamedTuple checked in ``__new__``, and of
    the slotted ``InvolutionClass``: ``_make``, copies and unpickling rebuild from ``tuple(self)``
    through the check, and no attribute can be set or deleted.  A ``V`` without ``__slots__``
    keeps in its ``__dict__`` what its ``__new__`` computes and its ``cached_property`` values;
    copies recompute the first and not the second."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __reduce__(self):
        return type(self), tuple(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

