"""Exact desk-scale engine for reduced complex orbifold atlases, their
translation groupoids, and Morita equivalence."""

from .atlas import (
    Atlas,
    Chart,
    Embedding,
    Span,
    common_span,
    find_conjugator,
    has_trivial_stabilizer,
    induced_homomorphism,
    overlap_transport,
    restrict_chart,
    stabilizer,
    validate_atlas,
    validate_chart,
    validate_embedding,
)
from .field import CycNum, sign_real
from .geometry import AffineMap, Ball, Point, PolyMap
from .groupoids import (
    ActionGroupoid,
    Arrow,
    GroupoidMorphism,
    GroupoidPresentation,
    GrpNatTrans,
    UnitPoint,
    check_groupoid_axioms,
    hcomp_grp,
    structural_predicates,
    validate_groupoid_morphism,
    validate_grp_nat_trans,
    vcomp_grp,
)
from .morita import (
    MoritaReport,
    atlases_equivalent,
    bijection_demo,
    check_morita,
    common_refinement,
    is_refinement,
    morita_equivalence_chain,
    pushforward_atlas,
    reconstruct_atlas,
    reconstruction_morita_morphism,
    subatlas_inclusion_morphism,
    union_atlas,
)
from .systems import (
    CompatibleSystem,
    OrbNatTrans,
    check_2cat_laws,
    compose_compatible,
    hcomp_orb,
    identity_cell,
    identity_system,
    validate_compatible_system,
    validate_orb_nat_trans,
    vcomp_orb,
)
from .translation import (
    TranslationGroupoid,
    build_translation_groupoid,
    check_functor_laws,
)

__version__ = "0.1.0"
