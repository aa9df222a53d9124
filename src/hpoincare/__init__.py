"""Sharp higher-order Poincare inequalities on hyperbolic space, numerically.

Computes the sharp constant, verifies the inequality on test functions, and
reproduces sharpness via the explicit extremizing family and iterates of the
radial inverse Laplacian.
"""

from .geometry import (SpaceParams, ball_volume, radius_for_volume, surface_measure,
                       unit_ball_volume)
from .numerics import DomainError, GridSpec, QuadratureError
from .profiles import RadialProfile, constant_profile, indicator_profile, sampled_profile
from .rearrangement import (decreasing_rearrangement, distribution_function,
                            hardy_check, maximal_function)
from .extremizers import (ExtremizerParams, averaged_extremizer_profile,
                          extremizer_lp_mass, extremizer_profile, inverse_laplacian,
                          inverse_laplacian_iterates, sandwich_decomposition,
                          second_order_majorant, select_s0)

__all__ = [
    "SpaceParams", "ball_volume", "radius_for_volume", "surface_measure",
    "unit_ball_volume",
    "DomainError", "GridSpec", "QuadratureError",
    "RadialProfile", "constant_profile", "indicator_profile", "sampled_profile",
    "decreasing_rearrangement", "distribution_function", "hardy_check",
    "maximal_function",
    "ExtremizerParams", "averaged_extremizer_profile", "extremizer_lp_mass",
    "extremizer_profile",
    "inverse_laplacian", "inverse_laplacian_iterates", "sandwich_decomposition",
    "second_order_majorant", "select_s0",
    "sharp_constant", "gradient_laplacian_constant", "PoincareParams",
    "TestFunction", "check_inequality", "sharpness_sweep",
]

from .variational import (PoincareParams, TestFunction,  # noqa: E402
                          check_inequality, gradient_laplacian_constant,
                          sharp_constant, sharpness_sweep)

__version__ = "0.1.0"
