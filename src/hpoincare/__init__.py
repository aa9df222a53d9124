"""Sharp higher-order Poincare inequalities on hyperbolic space, numerically.

Computes the sharp constant, verifies the inequality on test functions, and
reproduces sharpness via the explicit extremizing family and iterates of the
radial inverse Laplacian.

Public names and submodules load on first access (PEP 562), so a process
imports only the modules it uses: `constants` needs the standard library
alone, the other modules numpy.
"""

import importlib

__version__ = "0.1.0"

# module: the public names it defines
_EXPORTS = {
    "geometry": ("SpaceParams", "ball_volume", "radius_for_volume", "surface_measure",
                 "unit_ball_volume"),
    "constants": ("DomainError", "QuadratureError", "sharp_constant",
                  "gradient_laplacian_constant"),
    "numerics": ("GridSpec",),
    "profiles": ("RadialProfile", "constant_profile", "indicator_profile", "sampled_profile"),
    "rearrangement": ("decreasing_rearrangement", "distribution_function", "hardy_check",
                      "maximal_function"),
    "extremizers": ("ExtremizerParams", "averaged_extremizer_profile", "extremizer_lp_mass",
                    "extremizer_profile", "inverse_laplacian", "inverse_laplacian_iterates",
                    "sandwich_decomposition", "second_order_majorant", "select_s0"),
    "variational": ("PoincareParams", "TestFunction", "check_inequality", "sharpness_sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__: list[str] = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
