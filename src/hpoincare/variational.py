"""Sharp constants, test functions, norms, and the sharpness sweep.

The inequality under study bounds the L^p norm of a function on hyperbolic
n-space by a dimensional constant times the L^p norm of its m-th order
gradient. This module evaluates both sides on concrete radial test
functions, forms Rayleigh quotients of the extremizing family, and sweeps
the quotient toward the sharp constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import extremizers, numerics
from .geometry import SpaceParams, surface_measure
from .numerics import DomainError
from .profiles import RadialProfile


def sharp_constant(n: int, m: int, p: float) -> float:
    """Best constant in the m-th order L^p Poincare inequality on
    hyperbolic n-space.

    Even m = 2k: (p * p' / (n-1)^2)^k with p' = p/(p-1).
    Odd m = 2k+1: (p / (n-1)) * (p * p' / (n-1)^2)^k.
    """
    if n < 2 or int(n) != n:
        raise DomainError("dimension n must be an integer >= 2")
    if m < 1 or int(m) != m:
        raise DomainError("derivative order m must be an integer >= 1")
    if p <= 1:
        raise DomainError("exponent p must exceed 1")
    pc = p / (p - 1.0)
    base = p * pc / (n - 1.0) ** 2
    if m % 2 == 0:
        return base ** (m // 2)
    return (p / (n - 1.0)) * base ** ((m - 1) // 2)


def gradient_laplacian_constant(n: int, p: float) -> float:
    """Constant for the intermediate gradient-vs-Laplacian bound
    ||grad u||_p <= K ||Delta u||_p on hyperbolic n-space:
    K = max(p, p') / (n-1) with p' = p/(p-1).

    The one-sided constant p/(n-1) is not enough for p < 2: radial
    functions u = (1 + a rho) e^{-a rho} with a just above (n-1)/p push
    the quotient arbitrarily close to p'/(n-1) (numerically: n = 2,
    p = 3/2, a = 0.8 already gives a quotient of about 2.8 > p/(n-1)).
    Taking the larger of the two conjugate exponents covers both regimes.
    """
    sharp_constant(n, 1, p)  # validates the arguments
    return max(p, p / (p - 1.0)) / (n - 1.0)


@dataclass(frozen=True)
class PoincareParams:
    n: int
    m: int
    p: float

    def __post_init__(self):
        sharp_constant(self.n, self.m, self.p)  # validates

    @property
    def constant(self) -> float:
        return sharp_constant(self.n, self.m, self.p)


class TestFunction:
    """Radial test function P(rho) * exp(-alpha * rho) with polynomial P.

    Smooth at the origin is enforced by requiring P'(0) = alpha * P(0), so
    the radial derivative vanishes at rho = 0. Integrability of the norms
    requires alpha > (n-1)/p.
    """

    def __init__(self, coeffs, alpha: float):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ValueError("need a nonempty 1-d coefficient array")
        if alpha <= 0:
            raise ValueError("decay rate alpha must be positive")
        self.alpha = float(alpha)
        self.poly = np.polynomial.Polynomial(self.coeffs)
        d1_at_0 = self.poly.deriv()(0.0)
        if not math.isclose(d1_at_0, alpha * self.coeffs[0],
                            rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError("smoothness at the origin needs P'(0) = alpha * P(0)")
        a = self.alpha
        self._p1 = self.poly.deriv() - a * self.poly
        self._p2 = self._p1.deriv() - a * self._p1

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        return self.poly(rho) * np.exp(-self.alpha * rho)

    def d1(self, rho):
        rho = np.asarray(rho, dtype=float)
        return self._p1(rho) * np.exp(-self.alpha * rho)

    def d2(self, rho):
        rho = np.asarray(rho, dtype=float)
        return self._p2(rho) * np.exp(-self.alpha * rho)

    @classmethod
    def random(cls, n: int, p: float, seed: int = 1) -> "TestFunction":
        """Random admissible test function with integrable norms: a cubic P
        and a decay rate alpha in (n-1)/p + [0.5, 1.5)."""
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, 4)
        if abs(coeffs[0]) < 0.2:
            coeffs[0] = 0.2 * (1.0 if coeffs[0] >= 0 else -1.0)
        alpha = (n - 1) / p + 0.5 + rng.uniform(0.0, 1.0)
        coeffs[1] = alpha * coeffs[0]
        return cls(coeffs, alpha)


# Radial integrands over hyperbolic space (sphere-area factor included) decay
# exponentially, so decay exponent 2 bounds their tail: the truncation point
# rho needs |integrand(rho)| rho <= tol. The first cut is at rho = 20.
_GEODESIC_TAIL = {"breakpoints": (20.0,), "tail_decay": 2.0}


def _weighted_power(values, rho, sp: SpaceParams, p: float, log_offset=None):
    """|values * exp(log_offset)|^p * (sphere area at rho), computed through
    logarithms so that slowly decaying integrands survive radii where either
    sinh^(n-1) overflows or the bare values underflow (the product is finite
    even when the factors are not)."""
    from .geometry import log_sphere_area_of_radius

    values = np.atleast_1d(np.asarray(values, dtype=float))
    rho = np.broadcast_to(np.asarray(rho, dtype=float), values.shape)
    out = np.zeros_like(values)
    live = values != 0.0
    if np.any(live):
        log_mag = np.log(np.abs(values[live]))
        if log_offset is not None:
            log_mag = log_mag + np.broadcast_to(
                np.asarray(log_offset, dtype=float), values.shape)[live]
        log_area = log_sphere_area_of_radius(rho[live], sp)
        out[live] = np.exp(p * log_mag + log_area)
    return out


def _test_function_integrand(u, sp: SpaceParams, p: float, mantissa):
    """Integrand with the exponential factor of a TestFunction kept in the
    log domain: mantissa(rho) is the polynomial part of the derivative."""
    def fn(r):
        r = np.asarray(r, dtype=float)
        return _weighted_power(mantissa(r), r, sp, p, log_offset=-u.alpha * r)
    return fn


def lp_norm_geodesic(u, sp: SpaceParams, p: float) -> float:
    """L^p norm of a radial function u(rho) over hyperbolic space."""
    if isinstance(u, TestFunction):
        fn = _test_function_integrand(u, sp, p, u.poly)
    else:
        fn = lambda r: _weighted_power(u(r), r, sp, p)
    return numerics.integrate(fn, 0.0, np.inf, **_GEODESIC_TAIL) ** (1.0 / p)


def grad_norm_geodesic(u, sp: SpaceParams, p: float) -> float:
    """L^p norm of the gradient of a radial function u(rho): |u'| is the
    pointwise gradient length."""
    if isinstance(u, TestFunction):
        fn = _test_function_integrand(u, sp, p, u._p1)
    else:
        fn = lambda r: _weighted_power(u.d1(r), r, sp, p)
    return numerics.integrate(fn, 0.0, np.inf, **_GEODESIC_TAIL) ** (1.0 / p)


def laplacian_norm_geodesic(u, sp: SpaceParams, p: float) -> float:
    """L^p norm of the Laplacian of a radial function u(rho)."""
    from .geometry import radial_laplacian_geodesic

    if isinstance(u, TestFunction):
        # Laplacian of P(rho) e^{-alpha rho} is
        # (P2(rho) + (n-1) coth(rho) P1(rho)) e^{-alpha rho}; P1 vanishes
        # at the origin so the coth factor stays finite there
        def mantissa(r):
            r = np.asarray(r, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                coth_term = (sp.n - 1) * u._p1(r) / np.tanh(r)
            coth_term = np.where(r == 0.0, (sp.n - 1) * u._p1.deriv()(r), coth_term)
            return u._p2(r) + coth_term

        fn = _test_function_integrand(u, sp, p, mantissa)
    else:
        fn = lambda r: _weighted_power(radial_laplacian_geodesic(u, r, sp), r, sp, p)
    return numerics.integrate(fn, 0.0, np.inf, **_GEODESIC_TAIL) ** (1.0 / p)


def lp_norm_volume(v: RadialProfile, p: float) -> float:
    """L^p norm of a volume-coordinate profile (the coordinate is
    measure-preserving, so this is the hyperbolic-space norm)."""
    return v.lp_power(p) ** (1.0 / p)


def grad_norm_volume(v: RadialProfile, sp: SpaceParams, p: float) -> float:
    """L^p norm of the gradient: (integral of (A(s) |v'(s)|)^p ds)^(1/p)."""
    # |v'| ~ s^-(tail_bound+1) and A ~ s: the integrand decays like |v|^p
    total = sum(v.segment_integral(
        seg, lambda s, seg=seg: (surface_measure(s, sp) * np.abs(seg.deriv(s))) ** p, p)
        for seg in v.segments if not seg.is_zero())
    return total ** (1.0 / p)


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    constant: float
    margin: float  # rhs - lhs
    ratio: float  # lhs / rhs
    holds: bool


def check_inequality(u: TestFunction, params: PoincareParams) -> InequalityReport:
    """Evaluate both sides of the order-m inequality on a radial test
    function (m <= 2 for direct evaluation)."""
    sp = SpaceParams(params.n)
    lhs = lp_norm_geodesic(u, sp, params.p)
    if params.m == 1:
        dnorm = grad_norm_geodesic(u, sp, params.p)
    elif params.m == 2:
        dnorm = laplacian_norm_geodesic(u, sp, params.p)
    else:
        raise DomainError("direct evaluation supports m <= 2")
    c = params.constant
    rhs = c * dnorm
    return InequalityReport(lhs, rhs, c, rhs - lhs, lhs / rhs if rhs else math.inf,
                            lhs <= rhs * (1 + 1e-10))


def corollary_chain(u: TestFunction, params: PoincareParams):
    """Reports for every intermediate order l = 1, ..., m (m <= 2): the
    inequality of each order must hold with its own sharp constant."""
    return [check_inequality(u, PoincareParams(params.n, l, params.p))
            for l in range(1, params.m + 1)]


def rayleigh_quotient(params: PoincareParams, ext: extremizers.ExtremizerParams) -> float:
    """Quotient ||u||_p / ||grad^m u||_p for the near-extremal function of
    order m built from the extremizing profile.

    Even m = 2k: u is the k-th inverse-Laplacian iterate, the denominator
    is the norm of the base profile. Odd m = 2k+1: the denominator is the
    gradient norm of the base profile; for m = 1 the gradient norm of the
    extremizer is evaluated directly.
    """
    m, p = params.m, params.p
    sp = ext.sp
    base = extremizers.extremizer_profile(ext)
    base_norm = extremizers.extremizer_lp_mass(ext) ** (1.0 / p)
    k = m // 2
    if m == 1:
        return base_norm / grad_norm_volume(base, sp, p)
    iterates = extremizers.inverse_laplacian_iterates(ext, k)
    top = lp_norm_volume(iterates[-1], p)
    if m % 2 == 0:
        return top / base_norm
    return top / grad_norm_volume(base, sp, p)


@dataclass(frozen=True)
class SweepPoint:
    log_ratio: float
    quotient: float
    fraction_of_sharp: float


@dataclass(frozen=True)
class SweepResult:
    params: PoincareParams
    eps: float
    points: list
    extrapolated: float
    constant: float


LOG_RATIO_CAP_HIGH_ORDER = 60.0


def sharpness_sweep(n: int, m: int, p: float, eps: float | None = None,
                    log_ratios=(10.0, 20.0, 40.0)) -> SweepResult:
    """Rayleigh quotients of the extremizing family along increasing
    plateau-to-support log ratios, with a 1/log extrapolation.

    For m >= 2 the log ratio is capped (the grid supporting the iterated
    inverse Laplacian loses accuracy on extremely wide supports).
    """
    params = PoincareParams(n, m, p)
    if eps is None:
        eps = 0.01 if m == 1 else 0.05
    sp = SpaceParams(n)
    c = params.constant
    pts = []
    for lr in log_ratios:
        if m >= 2 and lr > LOG_RATIO_CAP_HIGH_ORDER:
            raise DomainError(
                f"log ratio {lr} exceeds the cap {LOG_RATIO_CAP_HIGH_ORDER} for m >= 2")
        ext = extremizers.ExtremizerParams.create(sp, p, eps, lr)
        q = rayleigh_quotient(params, ext)
        pts.append(SweepPoint(lr, q, q / c))
    if len(pts) >= 2:
        # fit quotient ~ q_inf + slope / log_ratio through the last two points
        (x1, y1), (x2, y2) = [(pt.log_ratio, pt.quotient) for pt in pts[-2:]]
        if x1 != x2:
            slope = (y1 - y2) / (1.0 / x1 - 1.0 / x2)
            extrap = y2 - slope / x2
        else:
            extrap = y2
    else:
        extrap = pts[-1].quotient
    return SweepResult(params, eps, pts, extrap, c)
