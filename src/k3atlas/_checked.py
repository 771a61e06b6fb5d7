"""The base of the package's validated, immutable NamedTuples."""


class Checked:
    """Base of ``class V(Checked, _VFields)``, whose ``__new__`` checks the fields:
    ``_make`` (so ``_replace``), copies and unpickling call it, and no attribute
    can be set.  A ``V`` without ``__slots__`` keeps its ``cached_property``
    values in its ``__dict__``, which copies and pickles do not carry."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __reduce__(self):
        return type(self), tuple(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")
