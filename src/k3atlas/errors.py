"""Exception types shared across the package."""


class AtlasError(Exception):
    """Base class for every error raised by this package."""


class DegenerateLattice(AtlasError):
    """The Gram matrix is singular where a nondegenerate lattice is required."""


class NotTwoElementary(AtlasError):
    """The lattice is odd, or its discriminant group has a cyclic factor != 2."""


class GramParseError(AtlasError):
    """A Gram-matrix file does not follow the expected format."""


class SurfaceMismatch(AtlasError):
    """Divisor classes on different surfaces cannot be paired."""


class UnsupportedSurface(AtlasError):
    """The requested divisor data is only defined on the Hirzebruch surface."""


class NotInAtlas(AtlasError):
    """The class is not a member of the shipped (or loaded) catalogs."""


class SpecialClass(AtlasError):
    """The operation is undefined for this class (no surface/oval bookkeeping)."""


class WrongFamily(AtlasError):
    """The operation applies to the other involution family."""


class MoveNotApplicable(AtlasError):
    """The degeneration move is only defined for specific source classes."""


class InconsistentInput(AtlasError):
    """Topological case, oval counts and class data do not fit together."""


class CatalogError(AtlasError):
    """An external catalog cannot be read or parsed, or a record in it is malformed.

    ``str()`` is one line: the file (when known), the record number (when
    one record is at fault) and the problem.
    """

    def __init__(self, problem: str, file: str | None = None, record: int | None = None):
        self.problem = problem
        self.file = file
        self.record = record
        where = [] if file is None else [file]
        if record is not None:
            where.append(f"record {record}")
        super().__init__(": ".join(where + [problem]))
