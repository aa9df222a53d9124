"""Hyperbolic-space primitives in the ball model and radial coordinates.

Everything is phrased for radial functions: the volume of a geodesic ball,
its inverse (radius as a function of enclosed volume), the area of the
geodesic sphere enclosing a given volume, and the radial Laplacian in both
the geodesic and the volume coordinate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import DomainError, batched_gauss


def unit_ball_volume(n: int) -> float:
    """Euclidean volume of the unit n-ball, pi^(n/2) / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class SpaceParams:
    """Fixes the hyperbolic space by its dimension n >= 2.

    omega_n, derived from n, is the Euclidean unit-ball volume, so that
    n * omega_n is the area of the unit sphere.
    """

    n: int
    omega_n: float = field(init=False)

    def __post_init__(self):
        if self.n < 2 or int(self.n) != self.n:
            raise DomainError("dimension n must be an integer >= 2")
        object.__setattr__(self, "omega_n", unit_ball_volume(self.n))

    @property
    def sphere_area(self) -> float:
        """Area n * omega_n of the Euclidean unit sphere."""
        return self.n * self.omega_n


def _binom_terms(n: int):
    """Exponents and coefficients of 2^(1-n) expansion of sinh^(n-1)."""
    nm1 = n - 1
    terms = []
    for k in range(nm1 + 1):
        a = nm1 - 2 * k
        coef = math.comb(nm1, k) * (-1.0) ** k / 2.0 ** nm1
        terms.append((a, coef))
    return terms


def sinh_power_primitive(rho, n: int):
    """Integral of sinh^(n-1) r over [0, rho].

    The binomial expm1 expansion cancels catastrophically for small rho
    (the result is ~rho^n while the terms are ~rho), so small radii are
    integrated directly: the integrand is positive and smooth, and a single
    high-order Gauss panel is exact to machine precision there.
    """
    rho = np.asarray(rho, dtype=float)
    scalar = rho.ndim == 0
    rho = np.atleast_1d(rho)
    out = np.zeros_like(rho)
    small = rho < 1.0
    if np.any(small):
        r_small = rho[small]
        out[small] = batched_gauss(lambda r: np.sinh(r) ** (n - 1),
                                   np.zeros_like(r_small), r_small, 32)
    big = ~small
    if np.any(big):
        acc = np.zeros_like(rho[big])
        for a, coef in _binom_terms(n):
            if a == 0:
                acc = acc + coef * rho[big]
            else:
                acc = acc + coef * np.expm1(a * rho[big]) / a
        out[big] = acc
    return out[0] if scalar else out


def ball_volume(rho, sp: SpaceParams):
    """Hyperbolic volume of the geodesic ball of radius rho."""
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise DomainError("geodesic radius must be nonnegative")
    out = sp.sphere_area * sinh_power_primitive(rho_arr, sp.n)
    return float(out) if np.isscalar(rho) or rho_arr.ndim == 0 else out


def sphere_area_of_radius(rho, sp: SpaceParams):
    """Area of the geodesic sphere of radius rho: n * omega_n * sinh^(n-1) rho."""
    rho = np.asarray(rho, dtype=float)
    return sp.sphere_area * np.sinh(rho) ** (sp.n - 1)


def log_sphere_area_of_radius(rho, sp: SpaceParams):
    """Natural log of the geodesic sphere area; safe for radii where
    sinh^(n-1) overflows. Returns -inf at rho = 0."""
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore"):
        log_sinh = rho + np.log1p(-np.exp(-2.0 * rho)) - math.log(2.0)
    return math.log(sp.sphere_area) + (sp.n - 1) * log_sinh


def radius_for_volume(s, sp: SpaceParams):
    """Geodesic radius of the ball with hyperbolic volume s (inverse of ball_volume).

    Safeguarded vectorized Newton iteration on ln(volume), run until the
    volume is within 1e-13 relative; seeded by the small-ball power law and
    the large-ball exponential asymptote.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < 0):
        raise DomainError("volume must be nonnegative")
    n = sp.n
    rho = np.zeros_like(s_arr)
    pos = s_arr > 0
    if np.any(pos):
        sv = s_arr[pos]
        # small-ball seed overestimates the root, the exponential-asymptote
        # seed underestimates it; use the former only for moderate radii to
        # avoid overflowing sinh during the iteration
        seed_small = np.minimum((sv / sp.omega_n) ** (1.0 / n), 3.0)
        with np.errstate(invalid="ignore"):
            seed_big = np.log(sv * (n - 1) * 2.0 ** (n - 1) / sp.sphere_area) / (n - 1)
        r = np.maximum(seed_small, np.where(np.isfinite(seed_big), seed_big, 0.0))
        r = np.maximum(r, 1e-300)
        target = np.log(sv)
        for _ in range(80):
            vol = sp.sphere_area * sinh_power_primitive(r, n)
            area = sp.sphere_area * np.sinh(r) ** (n - 1)
            step = (np.log(vol) - target) * vol / area
            r_new = r - step
            r_new = np.where(r_new <= 0, 0.5 * r, r_new)
            done = np.abs(vol - sv) <= 1e-13 * sv
            if np.all(done):
                break
            r = np.where(done, r, r_new)
        rho[pos] = r
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return float(rho[0])
    return rho


def surface_measure(s, sp: SpaceParams):
    """Area A(s) of the geodesic sphere enclosing hyperbolic volume s."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise DomainError("volume must be nonnegative")
    rho = radius_for_volume(s_arr, sp)
    out = sphere_area_of_radius(rho, sp)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def surface_measure_slope(s, sp: SpaceParams):
    """dA/ds = (n-1) * coth(radius), used by the volume-coordinate Laplacian."""
    rho = radius_for_volume(s, sp)
    return (sp.n - 1) / np.tanh(rho)


def hyperbolic_distance_from_origin(x_norm):
    """Geodesic distance from the origin in the ball model: ln((1+|x|)/(1-|x|))."""
    x = np.asarray(x_norm, dtype=float)
    if np.any(x < 0) or np.any(x >= 1):
        raise DomainError("ball-model norm must lie in [0, 1)")
    out = np.log1p(x) - np.log1p(-x)
    return float(out) if np.isscalar(x_norm) or x.ndim == 0 else out


def radial_laplacian_geodesic(u, rho, sp: SpaceParams):
    """Laplacian of a radial function at geodesic radius rho.

    u must expose d1(rho) and d2(rho) (first and second radial derivatives).
    At rho = 0 the removable singularity gives the limit n * u''(0).
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise DomainError("geodesic radius must be nonnegative")
    d1 = np.asarray(u.d1(rho_arr), dtype=float)
    d2 = np.asarray(u.d2(rho_arr), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = d2 + (sp.n - 1) * d1 / np.tanh(rho_arr)
    at_origin = rho_arr == 0
    if np.any(at_origin):
        out = np.where(at_origin, sp.n * d2, out)
    return float(out) if np.isscalar(rho) or rho_arr.ndim == 0 else out


def laplacian_volume_coord(v, s, sp: SpaceParams):
    """(A(s)^2 v'(s))' for a radial profile v of the volume coordinate.

    Expands to A^2 v'' + 2 A A' v'. Breakpoint abscissae are evaluated
    one-sided (from the right) and flagged with a warning.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0):
        raise DomainError("volume coordinate must be positive")
    bks = getattr(v, "breakpoints", ())
    if len(bks) and np.any(np.isin(s_arr, np.asarray(bks))):
        warnings.warn("evaluating Laplacian one-sided at a segment breakpoint",
                      RuntimeWarning, stacklevel=2)
    a = surface_measure(s_arr, sp)
    da = surface_measure_slope(s_arr, sp)
    d1 = np.asarray(v.derivative(s_arr), dtype=float)
    d2 = np.asarray(v.second_derivative(s_arr), dtype=float)
    out = a * a * d2 + 2.0 * a * da * d1
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out
