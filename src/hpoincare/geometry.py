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

from .constants import DomainError


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


@functools.cache
def _series_coefs(n: int) -> list[float]:
    """Coefficients b_k of the integral of sinh^(n-1) over [0, rho] as
    rho^n sum_k b_k rho^(2k), highest k first.

    Expanding the exponentials of 2^(n-1) sinh^(n-1) r = sum_i c_i e^(a_i r), a_i = n-1-2i,
    c_i = (-1)^i C(n-1, i), gives each b_k as an exact rational, sum_i c_i a_i^(n-1+2k) /
    (2^(n-1) (n+2k)!), rounded once. All b_k are positive; the sum stops where the next
    term at rho = 1 is below 1e-17 of it (9, 11, 17 and 23 terms for n = 2, 3, 8 and 16).
    """
    terms = [(n - 1 - 2 * i, (-1) ** i * math.comb(n - 1, i)) for i in range(n)]
    coefs, total = [], 0.0
    while True:
        j = n - 1 + 2 * len(coefs)
        b = sum(c * a ** j for a, c in terms) / (2 ** (n - 1) * math.factorial(j + 1))
        if b < 1e-17 * total:
            break
        coefs.append(b)
        total += b
    return coefs[::-1]


def volume_ratios(rho, s, sp: SpaceParams):
    """q = V(rho) / s and g = V(rho) / A(rho) for an array of radii rho >= 0 and volumes
    s > 0 (a scalar or one per radius), finite wherever q is, as neither V nor A is formed.

    Below rho = 1 V is |S^(n-1)| rho^n times the series of `_series_coefs` in rho^2 (the
    binomial expansion of sinh^(n-1) cancels there). From rho = 1 on g = I_(n-1) / sinh^(n-1)
    rho, I_k the integral of sinh^k over [0, rho], by g_k = (coth rho - (k-1) g_(k-2) /
    sinh^2 rho) / k from g_0 = rho or g_1 = tanh(rho/2), stable where sinh^2 rho > 1, and
    q = |S^(n-1)| sinh^(n-1)(rho) g / s with sinh rho and s split by frexp into mantissas
    and binary exponents. The two meet within 1e-14 relative at rho = 1. Both work in place
    where they can: a freed large temporary can go back to the system and fault again.
    """
    s = np.asarray(s, dtype=float)
    near = rho < 1.0
    k = np.count_nonzero(near)
    if k in (0, rho.size):
        return (_near_ratios if k else _far_ratios)(rho, s, sp)
    if near[:k].all():  # ascending radii: slices, not masked copies
        (qn, gn), (qf, gf) = (_near_ratios(rho[:k], s[:k] if s.ndim else s, sp),
                              _far_ratios(rho[k:], s[k:] if s.ndim else s, sp))
        return np.concatenate([qn, qf]), np.concatenate([gn, gf])
    q, g = np.empty_like(rho), np.empty_like(rho)
    q[near], g[near] = _near_ratios(rho[near], s[near] if s.ndim else s, sp)
    q[~near], g[~near] = _far_ratios(rho[~near], s[~near] if s.ndim else s, sp)
    return q, g


def _near_ratios(r, s, sp: SpaceParams):
    """q and g of `volume_ratios` below rho = 1; g is rho acc (rho / sinh rho)^(n-1)."""
    n = sp.n
    x = r * r
    coefs = _series_coefs(n)
    acc = coefs[0] * x + coefs[1]
    for b in coefs[2:]:
        acc *= x
        acc += b
    g = np.divide(r, np.sinh(r), out=np.ones_like(r), where=r > 0)
    g **= n - 1
    g *= acc * r
    acc *= np.power(r, n, out=x)
    acc *= sp.sphere_area  # before dividing: |S^(n-1)| / s overflows for s near DBL_MIN
    return np.divide(acc, s, out=acc), g


def _far_ratios(r, s, sp: SpaceParams):
    """q and g of `volume_ratios` from rho = 1 on."""
    n = sp.n
    sh = np.sinh(r)
    m, e = np.frexp(sh)
    g = r if n % 2 else np.tanh(0.5 * r)
    if n > 2:
        csch2 = np.square(np.divide(1.0, sh, out=sh), out=sh)  # sh itself is done with
        coth = np.sqrt(csch2 + 1.0)
    for k in range(3 - n % 2, n, 2):
        step = (k - 1) * csch2
        step *= g
        g = np.subtract(coth, step, out=step)
        g /= k
    ms, es = np.frexp(s)
    m **= n - 1
    m *= g
    m *= sp.sphere_area / ms
    return np.ldexp(m, (n - 1) * e - es, out=m), g


def ball_volume(rho, sp: SpaceParams):
    """Hyperbolic volume of the geodesic ball of radius rho (the q of
    `volume_ratios` at s = 1)."""
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise DomainError("geodesic radius must be nonnegative")
    out = volume_ratios(np.atleast_1d(rho_arr), 1.0, sp)[0]
    return float(out[0]) if np.isscalar(rho) or rho_arr.ndim == 0 else out


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

    Safeguarded vectorized Newton on ln(volume) from the small-ball power law
    and the large-ball exponential asymptote, until the volume is within 1e-13
    relative: the step is ln(q) g with q and g from `volume_ratios`, and each
    step evaluates only the points not yet converged. Inverts every finite
    volume; DomainError, naming the first such volume, for one that underflows
    to 0 in the iteration or does not converge in 80 steps (a subnormal one).
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
        # seed underestimates it; use the former only for moderate radii,
        # where its volume and the first Newton step stay finite
        seed_small = np.minimum((sv / sp.omega_n) ** (1.0 / n), 3.0)
        seed_big = np.log(sv * (n - 1) * 2.0 ** (n - 1) / sp.sphere_area) / (n - 1)
        r = np.maximum(seed_small, np.where(np.isfinite(seed_big), seed_big, 0.0))
    r = np.maximum(r, 1e-300)
    live = np.arange(sv.size)  # indices of the points not yet converged
    r_live, s_live = r, sv
    # an overflow, or the log of 0, ends as a non-finite iterate, which raises
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(80):
            q, g = volume_ratios(r_live, s_live, sp)
            # q - 1 is resolved to 2^-53 only: that much below 1e-13 keeps
            # the volume itself within 1e-13 of s
            keep = ~(np.abs(q - 1.0) <= 1e-13 - 2.0 ** -52)
            live, r_live, s_live = live[keep], r_live[keep], s_live[keep]
            if not live.size:
                break
            r_new = r_live - np.log(q[keep]) * g[keep]
            r_new = np.where(r_new <= 0, 0.5 * r_live, r_new)
            bad = ~np.isfinite(r_new)
            if np.any(bad):
                raise DomainError(f"radius_for_volume: non-finite Newton iterate for "
                                  f"volume {float(sv[live[bad][0]])!r}")
            r[live] = r_live = r_new
        else:
            raise DomainError(f"radius_for_volume: volume {float(sv[live[0]])!r} not "
                              f"within 1e-13 relative after 80 Newton steps")
    rho[pos] = r
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return float(rho[0])
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
