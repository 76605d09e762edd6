"""spanlab: a verification engine for iterated spans over finite bases.

Finite posets of interval shapes, Cartesian diagrams built by iterated
pullbacks, level groupoids of spans, Segal/completeness/mapping-category
checkers, adjunction and duality certification, labeled spans over internal
categories, and an exact linear shadow in Lagrangian correspondences.
"""

__version__ = "1.0.0"

from .fincat import FinCategory, FinFunction, FinSetCategory, Functor, finset
from .groupoid import FinGroupoid, equivalent, groupoids_equivalent, iso_comma
from .shapes import LambdaShape, SigmaShape, lambda_shape, lambda_wedge_check, sigma_map, sigma_shape
from .spans import (
    Span,
    SpanDiagram,
    completeness_check,
    compose_spans,
    enumerate_lambda_data,
    identity_span,
    invertible_span_check,
    is_cartesian,
    kan_extend,
    mapping_category_check,
    reverse_span,
    segal_check,
    span_level,
)
from .duality import (
    AdjunctionWitness,
    build_adjunction,
    object_duality_check,
    tensor_spans,
    triangle_check,
)
from .locsys import (
    InternalCategory,
    LocalSystemSpan,
    compose_locsys,
    identity_locsys,
    locsys_battery_check,
    locsys_equivalence_check,
    locsys_level,
    locsys_mapping_fiber_check,
    validate_internal,
)
from .lagrangian import (
    LagrangianCorrespondence,
    SymplecticSpace,
    compose_lagrangian,
    duality_zigzag_check,
    random_pair_check,
    standard_symplectic,
)
from .verdict import EXIT_CODES, ResourceError, SpanlabError, Verdict

