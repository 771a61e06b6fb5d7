"""Exact-arithmetic atlases for real 2-elementary K3 involution classes,
candidate real isotopy types of one-node real anti-bicanonical curves on
the fourth real Hirzebruch surface, and their simplest-degeneration
correspondence.

Submodules load on first use: ``import k3atlas`` loads none of them, and
reading an exported name such as ``k3atlas.load_atlas`` loads only the
module that defines it.  So the catalog half never loads the lattice code
(``lattices``) or the divisor code (``divisors``).  Each export is a
descriptor on the package's class, a ``ModuleType`` subclass, so a read runs
no failed attribute lookup first.
"""

import sys as _sys
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "atlas": (
        "Atlas", "CheckSection", "Family", "HInvariant", "InvolutionClass",
        "gk_invariants", "load_atlas", "validate_atlas",
    ),
    "degenerations": (
        "Degeneration", "DegenerationOutcome", "MoveSpec", "TableSide",
        "TransitionGraph", "apply_degeneration", "correspondence_check",
        "degeneration_table", "graph_to_dot", "graph_to_json", "transition_graph",
    ),
    "divisors": (
        "DivisorClass", "Surface", "anti_bicanonical", "arithmetic_genus",
        "canonical_class", "f4_class", "intersect", "y_class",
    ),
    "errors": (
        "AtlasError", "CatalogError", "DegenerateLattice", "GramParseError",
        "InconsistentInput", "MoveNotApplicable", "NotInAtlas", "NotTwoElementary",
        "SpecialClass", "SurfaceMismatch", "UnsupportedSurface", "WrongFamily",
    ),
    "lattices": (
        "DiscriminantGroup", "IntegralLattice", "TwoElemInvariants", "direct_sum",
        "discriminant_group", "gram_E8_minus", "gram_LK3", "gram_PicY", "gram_S311",
        "gram_U", "gram_minus2", "parse_gram_text", "signature", "smith_normal_form",
        "two_elementary_invariants",
    ),
    "topology": (
        "Cover", "IsotopyType", "Region", "RegionDescriptor", "SurfaceDescriptor",
        "TopCase", "candidate_isotopy_types", "double_cover_euler_check",
        "invariants_from_isotopy", "real_part_topology", "region_descriptor",
    ),
    "validation": ("ValidationSummary", "run_all_checks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_LOADED: dict = {}  # submodule name -> the module import_module returned

__all__ = list(_MODULE_OF)


class _Export:
    # No __set__: a name set on the package (as mock.patch does) goes to its
    # __dict__ and wins over this read until it is deleted.
    __slots__ = ("module", "name")

    def __init__(self, module: str, name: str):
        self.module, self.name = module, name

    def __get__(self, package, owner=None):
        # Nothing is bound here, so each read asks the submodule: a function
        # that is replaced there (by a test or a tracer) is seen at once.
        loaded = _LOADED.get(self.module)
        if loaded is None:  # kept once import_module returns: no thread reads a half-imported module
            loaded = _LOADED[self.module] = import_module(f"{__name__}.{self.module}")
        return getattr(loaded, self.name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())


_Package = type("_Package", (type(_sys),), {n: _Export(m, n) for n, m in _MODULE_OF.items()})
_sys.modules[__name__].__class__ = _Package
