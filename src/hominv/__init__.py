"""Inversion of positively homogeneous maps.

A map ``f : R^n -> R^n`` is positively homogeneous of order ``kappa > 0``
when ``f(tau * xi) = tau**kappa * f(xi)`` for all ``tau > 0`` and nonzero
``xi``.  When such a map is continuously differentiable away from the origin
with nonvanishing Jacobian determinant and ``n >= 3``, it is a bijection of
``R^n`` whose inverse is again homogeneous, of order ``1/kappa``.  This
package verifies those hypotheses numerically, computes the inverse by
homotopy continuation, and measures preimage counts and mapping degrees so
that failures of the hypotheses (including the classical planar
counterexample, where ``n = 2``) are visible rather than silent.
"""

from .catalog import (
    acceptance_maps,
    axis_cube_map,
    blackbox_of,
    complex_square_map,
    diag_map,
    identity_map,
    linear_map,
    perturbed_radial_blackbox,
    radial_cube_map,
    radial_linear_map,
    random_admissible_map,
    random_polymap_spec,
    reflection_map,
)
from .degree import DegreeReport, count_preimages, injectivity_probe, mapping_degree
from .errors import (
    ContinuationFailedError,
    DimensionMismatchError,
    HominvError,
    InvalidInputError,
    InvalidKappaError,
    InvalidParameterError,
    MapDefinitionError,
    MapSyntaxError,
    MixedDegreeError,
    NoBracketError,
    PreconditionError,
    SingularJacobianError,
    UndefinedAtOriginError,
)
from .hypotheses import (
    ExtremaEstimate,
    HypothesisReport,
    JacobianCheck,
    SphereSample,
    check_hypotheses,
    check_jacobian_nonvanishing,
    coercivity_bracket,
    estimate_extrema,
    sample_sphere,
)
from .inverter import (
    InversionResult,
    inverse_homogeneity_check,
    inverse_jacobian,
    invert,
    roundtrip_check,
)
from .mapcore import (
    BlackBox,
    MapSpec,
    PolyMap,
    eval_jacobian,
    eval_jacobian_batch,
    eval_map,
    extend_at_origin,
    homogeneity_residual,
)
from .polyparser import (
    HomogeneityVerdict,
    check_homogeneity_symbolic,
    format_map,
    parse_map,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # map representations
    "PolyMap",
    "BlackBox",
    "MapSpec",
    "eval_map",
    "eval_jacobian",
    "eval_jacobian_batch",
    "extend_at_origin",
    "homogeneity_residual",
    # parsing and formatting
    "parse_map",
    "format_map",
    "check_homogeneity_symbolic",
    "HomogeneityVerdict",
    # hypothesis checks
    "SphereSample",
    "sample_sphere",
    "ExtremaEstimate",
    "estimate_extrema",
    "JacobianCheck",
    "check_jacobian_nonvanishing",
    "HypothesisReport",
    "check_hypotheses",
    "coercivity_bracket",
    # inversion
    "InversionResult",
    "invert",
    "inverse_homogeneity_check",
    "roundtrip_check",
    "inverse_jacobian",
    # degree
    "DegreeReport",
    "count_preimages",
    "mapping_degree",
    "injectivity_probe",
    # examples
    "identity_map",
    "linear_map",
    "diag_map",
    "radial_linear_map",
    "reflection_map",
    "radial_cube_map",
    "axis_cube_map",
    "complex_square_map",
    "random_admissible_map",
    "random_polymap_spec",
    "perturbed_radial_blackbox",
    "blackbox_of",
    "acceptance_maps",
    # errors
    "HominvError",
    "InvalidInputError",
    "InvalidParameterError",
    "UndefinedAtOriginError",
    "MapDefinitionError",
    "MapSyntaxError",
    "MixedDegreeError",
    "DimensionMismatchError",
    "InvalidKappaError",
    "PreconditionError",
    "NoBracketError",
    "SingularJacobianError",
    "ContinuationFailedError",
]
