"""Hyperbolic-space primitives in the ball model and radial coordinates.

Everything is phrased for radial functions: the volume of a geodesic ball,
its inverse (radius as a function of enclosed volume), the area of the
geodesic sphere enclosing a given volume, and the radial Laplacian in both
the geodesic and the volume coordinate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import DomainError


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
    """Exponents a and signed binomials c of 2^(n-1) sinh^(n-1) r = sum c e^(a r)."""
    nm1 = n - 1
    return [(nm1 - 2 * k, (-1) ** k * math.comb(nm1, k)) for k in range(n)]


@functools.cache
def _series_coefs(n: int) -> list[float]:
    """Coefficients b_k of the integral of sinh^(n-1) over [0, rho] as
    rho^n sum_k b_k rho^(2k), highest k first.

    Expanding the exponentials of `_binom_terms` gives each b_k as an exact
    rational, sum_i c_i a_i^(n-1+2k) / (2^(n-1) (n+2k)!), rounded once. All
    b_k are positive; the sum stops where the next term at rho = 1 is below
    1e-17 of it (9, 11, 17 and 23 terms for n = 2, 3, 8 and 16).
    """
    terms = _binom_terms(n)
    coefs, total = [], 0.0
    while True:
        j = n - 1 + 2 * len(coefs)
        b = sum(c * a ** j for a, c in terms) / (2 ** (n - 1) * math.factorial(j + 1))
        if b < 1e-17 * total:
            break
        coefs.append(b)
        total += b
    return coefs[::-1]


def sinh_power_primitive(rho, n: int):
    """Integral of sinh^(n-1) r over [0, rho].

    For rho >= 1 it sums the binomial expansion in expm1. That expansion
    cancels catastrophically for small rho (the result is ~rho^n while the
    terms are ~rho), so below rho = 1 it sums the power series of
    `_series_coefs` by Horner in rho^2; its terms are all positive, and the
    two branches meet within 1e-14 relative at rho = 1.
    """
    rho = np.asarray(rho, dtype=float)
    scalar = rho.ndim == 0
    rho = np.atleast_1d(rho)
    out = np.zeros_like(rho)
    small = rho < 1.0
    if np.any(small):
        r_small = rho[small]
        x = r_small * r_small
        coefs = _series_coefs(n)
        acc = coefs[0]
        for b in coefs[1:]:
            acc = acc * x + b
        out[small] = r_small ** n * acc
    big = ~small
    if np.any(big):
        r_big = rho[big]
        acc = np.zeros_like(r_big)
        for a, c in _binom_terms(n):
            coef = c / 2.0 ** (n - 1)
            if a == 0:
                acc = acc + coef * r_big
            else:
                acc = acc + coef * np.expm1(a * r_big) / a
        out[big] = acc
    return out[0] if scalar else out


def ball_volume(rho, sp: SpaceParams):
    """Hyperbolic volume of the geodesic ball of radius rho; past _LOG_FAR
    the leading exponential of `_far_volume_ratio`, which stays finite
    where expm1((n-1) rho) overflows."""
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise DomainError("geodesic radius must be nonnegative")
    far = (sp.n - 1) * rho_arr > _LOG_FAR
    out = np.where(far, _far_volume_ratio(np.where(far, rho_arr, 0.0), 1.0, sp),
                   sp.sphere_area * sinh_power_primitive(np.where(far, 0.0, rho_arr), sp.n))
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


# above (n-1) rho = 500 the ball volume is its leading exponential to 1e-27;
# below, the primitive's rounding and the volume step between neighbouring
# radii stay inside the 1e-13 test
_LOG_FAR = 500.0


def radius_for_volume(s, sp: SpaceParams):
    """Geodesic radius of the ball with hyperbolic volume s (inverse of ball_volume).

    `_newton_radius` from the small-ball power law and the large-ball
    exponential asymptote. Inverts every finite volume; DomainError, naming
    the first such volume, for one that underflows to 0 in the iteration or
    does not converge in 80 steps (a subnormal one).
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < 0):
        raise DomainError("volume must be nonnegative")
    n = sp.n
    rho = np.zeros_like(s_arr)
    pos = s_arr > 0
    sv = s_arr[pos]
    with np.errstate(over="ignore", divide="ignore"):
        # small-ball seed overestimates the root, the exponential-asymptote
        # seed underestimates it; use the former only for moderate radii to
        # avoid overflowing sinh during the iteration
        seed_small = np.minimum((sv / sp.omega_n) ** (1.0 / n), 3.0)
        seed_big = np.log(sv * (n - 1) * 2.0 ** (n - 1) / sp.sphere_area) / (n - 1)
        r = np.maximum(seed_small, np.where(np.isfinite(seed_big), seed_big, 0.0))
    rho[pos] = _newton_radius(sv, r, sp)
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return float(rho[0])
    return rho


def _far_volume_ratio(rho, s, sp: SpaceParams):
    """ball_volume(rho) / s past _LOG_FAR: the leading exponential as
    (e^rho)^(n-1), binary exponents split off, so that nothing overflows and
    no rounding of ln s near 700 (up to 1e-13) enters."""
    n = sp.n
    m, e = np.frexp(np.exp(rho))
    ms, es = np.frexp(s)
    return np.ldexp(sp.sphere_area / ((n - 1) * 2.0 ** (n - 1)) * m ** (n - 1) / ms,
                    (n - 1) * e - es)


def _newton_radius(sv, r, sp: SpaceParams):
    """Radii of the positive volumes sv by safeguarded vectorized Newton on
    ln(volume) from the seeds r, until the volume is within 1e-13 relative;
    each step evaluates only the points not yet converged, and reads
    `_far_volume_ratio` past _LOG_FAR, where expm1((n-1) rho) overflows or
    rounds too coarsely for the test. DomainError as in radius_for_volume."""
    n = sp.n
    r = np.maximum(r, 1e-300)
    live = np.arange(sv.size)  # indices of the points not yet converged
    r_live, s_live = r, sv
    # an overflow, or the log of 0, ends as a non-finite iterate, which raises
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(80):
            vol = sp.sphere_area * sinh_power_primitive(r_live, n)
            done = np.abs(vol - s_live) <= 1e-13 * s_live
            far = None
            if (n - 1) * r_live.max(initial=0.0) > _LOG_FAR:
                far = (n - 1) * r_live > _LOG_FAR
                done[far] = np.abs(_far_volume_ratio(r_live[far], s_live[far], sp) - 1.0) <= 1e-13
            keep = ~done
            live, r_live, s_live, vol = live[keep], r_live[keep], s_live[keep], vol[keep]
            if not live.size:
                break
            area = sphere_area_of_radius(r_live, sp)
            step = (np.log(vol) - np.log(s_live)) * vol / area
            if far is not None:
                far = far[keep]  # there ln(volume) rises by n-1 per unit of rho
                step[far] = np.log(_far_volume_ratio(r_live[far], s_live[far], sp)) / (n - 1)
            r_new = r_live - step
            r_new = np.where(r_new <= 0, 0.5 * r_live, r_new)
            bad = ~np.isfinite(r_new)
            if np.any(bad):
                raise DomainError(f"radius_for_volume: non-finite Newton iterate for "
                                  f"volume {float(sv[live[bad][0]])!r}")
            r[live] = r_live = r_new
        else:
            raise DomainError(f"radius_for_volume: volume {float(sv[live[0]])!r} not "
                              f"within 1e-13 relative after 80 Newton steps")
    return r


def radius_on_log_grid(s, stride: int, sp: SpaceParams):
    """radius_for_volume on log-uniform volumes s, len(s) - 1 a multiple of
    stride. Only every stride-th node starts from the default seeds; each
    node between is seeded by the cubic Hermite step in ln s through the two
    around it, with the exact slope drho/d(ln s) = s / A(s)."""
    s = np.asarray(s, dtype=float)
    rho = np.empty_like(s)
    rho[::stride] = coarse = radius_for_volume(s[::stride], sp)
    # drho/d(ln s) times the coarse step, and the fractions of it between
    slope = s[::stride] / sphere_area_of_radius(coarse, sp) * math.log(s[stride] / s[0])
    u = (np.arange(1, stride) / stride)[:, None]
    seeds = ((1 + 2 * u) * (1 - u) ** 2 * coarse[:-1] + u * (1 - u) ** 2 * slope[:-1]
             + u * u * (3 - 2 * u) * coarse[1:] + u * u * (u - 1) * slope[1:])
    between = np.arange(s.size) % stride != 0
    rho[between] = _newton_radius(s[between], seeds.T.ravel(), sp)
    return rho


def surface_measure(s, sp: SpaceParams):
    """Area A(s) of the geodesic sphere enclosing hyperbolic volume s."""
    s_arr = np.asarray(s, dtype=float)
    rho = radius_for_volume(s_arr, sp)
    out = sphere_area_of_radius(rho, sp)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


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
    rho = radius_for_volume(s_arr, sp)
    a = sphere_area_of_radius(rho, sp)
    da = (sp.n - 1) / np.tanh(rho)
    d1 = np.asarray(v.derivative(s_arr), dtype=float)
    d2 = np.asarray(v.second_derivative(s_arr), dtype=float)
    out = a * a * d2 + 2.0 * a * da * d1
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out
