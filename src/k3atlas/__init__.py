"""Exact-arithmetic atlases for real 2-elementary K3 involution classes,
candidate real isotopy types of one-node real anti-bicanonical curves on
the fourth real Hirzebruch surface, and their simplest-degeneration
correspondence."""

from .atlas import (
    Atlas,
    CheckSection,
    Family,
    HInvariant,
    InvolutionClass,
    gk_invariants,
    load_atlas,
    validate_atlas,
)
from .degenerations import (
    Degeneration,
    DegenerationOutcome,
    MoveSpec,
    TableSide,
    TransitionGraph,
    apply_degeneration,
    correspondence_check,
    degeneration_table,
    graph_to_dot,
    graph_to_json,
    transition_graph,
)
from .divisors import (
    DivisorClass,
    Surface,
    anti_bicanonical,
    arithmetic_genus,
    canonical_class,
    f4_class,
    intersect,
    y_class,
)
from .errors import (
    AtlasError,
    CatalogError,
    DegenerateLattice,
    GramParseError,
    InconsistentInput,
    MoveNotApplicable,
    NonIntegerGenus,
    NotInAtlas,
    NotTwoElementary,
    OutOfRange,
    SpecialClass,
    SurfaceMismatch,
    UnsupportedSurface,
    WrongFamily,
)
from .lattices import (
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
from .topology import (
    Cover,
    IsotopyType,
    Region,
    RegionDescriptor,
    Side,
    SurfaceDescriptor,
    TopCase,
    candidate_isotopy_types,
    double_cover_euler_check,
    invariants_from_isotopy,
    real_part_topology,
    region_descriptor,
)
from .validation import ValidationSummary, run_all_checks

__version__ = "0.1.0"
