"""Exact-arithmetic toolkit for colourful simplicial depth.

Computes the colourful simplicial depth of the origin in configurations of
d+1 colour classes of d+1 points in dimension d, decides deformed cross
position by exact cone-coverage certificates, constructs the guaranteed
floor((d+2)^2/4) origin-containing simplices, and searches configuration
space for low-depth instances.  All predicates are exact over rationals.
"""

from .arrangement import (
    CentralHyperplane,
    CoverageCertificate,
    SignVector,
    covers_space,
    enumerate_cells,
    facet_hyperplanes,
    monte_carlo_refuter,
)
from .configuration import (
    Configuration,
    Transversal,
    ValidationReport,
    configuration_to_json_dict,
    enumerate_transversals,
    parse_configuration,
    parse_pairs,
    transversal_points,
    validate,
)
from .crosspos import (
    CrossPosition,
    CrossSearchFailure,
    find_cross_position,
    is_deformed_cross_position,
)
from .depth import (
    ConeSpec,
    DepthReport,
    antipodal_check,
    colourful_depth,
    cone_contains,
    d_depth,
    origin_in_convex_hull,
    simplex_contains_origin,
)
from .errors import CsdepthError, InputError, ParseError, ViolationError
from .exactgeom import Point, format_rational, parse_rational
from .search import SearchReport, minimize_depth, random_configuration
from .witness import WitnessSet, generate_witnesses, theorem_bound, verify_witness_set

__version__ = "0.1.0"

__all__ = [
    "CentralHyperplane",
    "ConeSpec",
    "Configuration",
    "CoverageCertificate",
    "CrossPosition",
    "CrossSearchFailure",
    "CsdepthError",
    "DepthReport",
    "InputError",
    "ParseError",
    "Point",
    "SearchReport",
    "SignVector",
    "Transversal",
    "ValidationReport",
    "ViolationError",
    "WitnessSet",
    "antipodal_check",
    "colourful_depth",
    "cone_contains",
    "configuration_to_json_dict",
    "covers_space",
    "d_depth",
    "enumerate_cells",
    "enumerate_transversals",
    "facet_hyperplanes",
    "find_cross_position",
    "format_rational",
    "generate_witnesses",
    "is_deformed_cross_position",
    "minimize_depth",
    "monte_carlo_refuter",
    "origin_in_convex_hull",
    "parse_configuration",
    "parse_pairs",
    "parse_rational",
    "random_configuration",
    "simplex_contains_origin",
    "theorem_bound",
    "transversal_points",
    "validate",
    "verify_witness_set",
]
