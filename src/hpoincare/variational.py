"""Test functions, norms, and the sharpness sweep.

The inequality under study bounds the L^p norm of a function on hyperbolic
n-space by a dimensional constant times the L^p norm of its m-th order
gradient. This module evaluates both sides on concrete radial test
functions, forms Rayleigh quotients of the extremizing family, and sweeps
the quotient toward the sharp constant. The constants themselves live in
`constants` and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import extremizers, numerics
from .constants import DomainError, gradient_laplacian_constant, sharp_constant
from .geometry import SpaceParams, log_sphere_area_of_radius, radius_for_volume, volume_ratios
from .profiles import RadialProfile

__all__ = ["sharp_constant", "gradient_laplacian_constant", "PoincareParams", "ExpRadial",
           "TestFunction", "lp_norm_geodesic", "grad_norm_geodesic", "laplacian_norm_geodesic",
           "lp_norm_volume", "grad_norm_volume", "InequalityReport", "check_inequality",
           "rayleigh_quotient", "SweepPoint", "SweepResult", "LOG_RATIO_CAP_HIGH_ORDER",
           "sharpness_sweep"]


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


def _horner(coef, x):
    """The polynomial with coefficients coef (lowest degree first) at x, in
    the operation order of numpy.polynomial.polynomial.polyval."""
    if coef.size == 1:
        return np.full_like(x, coef[0])
    out = coef[-1] * x + coef[-2]
    for c in coef[-3::-1]:
        out = out * x + c
    return out


class ExpRadial:
    """Radial function m(rho) e^(-alpha rho) kept in the log domain.

    The mantissa is m(rho) = P(rho) + c coth(rho) Q(rho), with P and Q
    given by coefficient arrays (lowest degree first) and Q(0) = 0, so the
    coth term has the limit c Q'(0) at the origin. The norm kernel adds
    -alpha rho to log|m| instead of forming the product, which underflows
    at radii where the integrand is still finite.
    """

    def __init__(self, p_coef, alpha: float, q_coef=(0.0,), c: float = 0.0):
        self.p_coef = np.asarray(p_coef, dtype=float)
        self.q_coef = np.asarray(q_coef, dtype=float)
        self.c = float(c)
        self.alpha = float(alpha)
        self._origin = self.c * (self.q_coef[1] if self.q_coef.size > 1 else 0.0)

    def mantissa(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = _horner(self.p_coef, rho)
        if self.c:
            with np.errstate(divide="ignore", invalid="ignore"):
                coth_term = self.c * _horner(self.q_coef, rho) / np.tanh(rho)
            out = out + np.where(rho == 0.0, self._origin, coth_term)
        return out

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        return self.mantissa(rho) * np.exp(-self.alpha * rho)


class TestFunction(ExpRadial):
    """Radial test function P(rho) * exp(-alpha * rho) with polynomial P.

    Smooth at the origin is enforced by requiring P'(0) = alpha * P(0), so
    the radial derivative vanishes at rho = 0. Integrability of the norms
    requires alpha > (n-1)/p. The derivatives are (P1, P2)(rho) e^(-alpha rho)
    with P1 = P' - alpha P and P2 = P1' - alpha P1, built once.
    """

    def __init__(self, coeffs, alpha: float):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ValueError("need a nonempty 1-d coefficient array")
        if alpha <= 0:
            raise ValueError("decay rate alpha must be positive")
        super().__init__(coeffs, alpha)
        self.coeffs = coeffs
        if not math.isclose(coeffs[1] if coeffs.size > 1 else 0.0, self.alpha * coeffs[0],
                            rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError("smoothness at the origin needs P'(0) = alpha * P(0)")
        # imported here, not at module level: the CLI starts without it
        from numpy.polynomial import polynomial as P

        a = self.alpha
        self._p1 = P.polysub(P.polyder(coeffs), a * coeffs)
        self._p2 = P.polysub(P.polyder(self._p1), a * self._p1)

    @property
    def poly(self):
        return np.polynomial.Polynomial(self.coeffs)

    def gradient(self) -> ExpRadial:
        """u' in the log domain (its absolute value is the gradient length)."""
        return ExpRadial(self._p1, self.alpha)

    def laplacian(self, n: int) -> ExpRadial:
        """Delta u = (P2 + (n-1) coth(rho) P1)(rho) e^(-alpha rho) on
        hyperbolic n-space, in the log domain; P1(0) = 0 keeps it finite."""
        return ExpRadial(self._p2, self.alpha, self._p1, n - 1)

    def d1(self, rho):
        return self.gradient()(rho)

    def d2(self, rho):
        return ExpRadial(self._p2, self.alpha)(rho)

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


def lp_norm_geodesic(u, sp: SpaceParams, p: float):
    """L^p norm of a radial function u(rho) over hyperbolic space, or the
    array of norms of a list of them from one batched quadrature.

    The integrand |u|^p times the sphere area is formed through logarithms,
    exp(p log|m| - p alpha rho + log area), so it survives radii where
    sinh^(n-1) overflows or u underflows. An ExpRadial supplies its
    mantissa m and alpha; any other callable is its own mantissa. A single
    function is the batch of one; a norm in a list is bit-identical to its
    own call, as the quadrature contracts each panel on its own.
    """
    batched = isinstance(u, (list, tuple))
    terms = [(f.mantissa, f.alpha) if isinstance(f, ExpRadial) else (f, 0.0)
             for f in (u if batched else [u])]

    def density(r, i):
        mant, offset = np.empty_like(r), np.empty_like(r)
        for j, (fn, alpha) in enumerate(terms):
            sel = i == j
            mant[sel], offset[sel] = fn(r[sel]), -alpha * r[sel]
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.abs(mant)) + offset
        return np.exp(p * log_mag + log_sphere_area_of_radius(r, sp))

    masses = numerics.integrate(density, np.zeros(len(terms)), np.inf, **_GEODESIC_TAIL)
    # the root of each mass as a Python float pow, which numpy's vectorized
    # power can round differently
    norms = [m ** (1.0 / p) for m in masses.tolist()]
    return np.array(norms) if batched else norms[0]


def grad_norm_geodesic(u: TestFunction, sp: SpaceParams, p: float) -> float:
    """L^p norm of the gradient of a radial test function: |u'| is the
    pointwise gradient length."""
    return lp_norm_geodesic(u.gradient(), sp, p)


def laplacian_norm_geodesic(u: TestFunction, sp: SpaceParams, p: float) -> float:
    """L^p norm of the Laplacian of a radial test function."""
    return lp_norm_geodesic(u.laplacian(sp.n), sp, p)


def lp_norm_volume(v: RadialProfile, p: float) -> float:
    """L^p norm of a volume-coordinate profile (the coordinate is
    measure-preserving, so this is the hyperbolic-space norm)."""
    return v.lp_power(p) ** (1.0 / p)


def grad_norm_volume(ext: extremizers.ExtremizerParams) -> float:
    """L^p norm of the gradient of the extremizer in its scaled form with r = A/((n-1) s),
    (n-1)/p (int r^p d(ln s) over [s0, R] + p^p int (x r)^p dx over x = s/R in [1, 2])^(1/p),
    in rho: with q = V/R and g = V/A from `volume_ratios`, r = 1/((n-1) g), d(ln s) = drho/g
    and dx = q drho/g. The integrands are O(1), and only rho(s0), rho(R), rho(2R) are inverted."""
    sp, p, R = ext.sp, ext.p, ext.R
    rho0, rho1, rho2 = radius_for_volume(np.array([ext.s0, R, 2.0 * R]), sp)

    def integrands(rho, i):
        q, g = volume_ratios(rho, R, sp)
        return ((sp.n - 1) * g) ** -p / g * np.power(q, p + 1, out=np.ones_like(q), where=i == 1)

    power, ramp = numerics.integrate(integrands, np.array([rho0, rho1]), np.array([rho1, rho2]))
    return (sp.n - 1.0) / p * (power + p ** p * ramp) ** (1.0 / p)


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
    function (m <= 2 for direct evaluation): ||u||_p and ||D^m u||_p come
    from one batched quadrature."""
    sp = SpaceParams(params.n)
    if params.m == 1:
        du = u.gradient()
    elif params.m == 2:
        du = u.laplacian(sp.n)
    else:
        raise DomainError("direct evaluation supports m <= 2")
    lhs, dnorm = (float(x) for x in lp_norm_geodesic([u, du], sp, params.p))
    c = params.constant
    rhs = c * dnorm
    return InequalityReport(lhs, rhs, c, rhs - lhs, lhs / rhs if rhs else math.inf,
                            lhs <= rhs * (1 + 1e-10))


def rayleigh_quotient(params: PoincareParams, ext: extremizers.ExtremizerParams) -> float:
    """Quotient ||u||_p / ||grad^m u||_p for the near-extremal function of
    order m built from the extremizing profile v.

    Even m = 2k: u is the k-th inverse-Laplacian iterate of v, and the
    denominator is ||v||_p in closed form. Odd m = 2k+1: the denominator is
    grad_norm_volume(ext), the gradient norm of v in its scaled form; for
    m = 1 the numerator is ||v||_p itself.
    """
    m, p = params.m, params.p
    base_norm = extremizers.extremizer_lp_mass(ext) ** (1.0 / p)
    top = base_norm if m == 1 else lp_norm_volume(
        extremizers.inverse_laplacian_iterates(ext, m // 2)[-1], p)
    return top / (base_norm if m % 2 == 0 else grad_norm_volume(ext))


@dataclass(frozen=True)
class SweepPoint:
    log_ratio: float
    quotient: float
    fraction_of_sharp: float


@dataclass(frozen=True)
class SweepResult:
    params: PoincareParams
    eps: float
    s0: float
    points: list
    extrapolated: float
    constant: float


LOG_RATIO_CAP_HIGH_ORDER = 60.0


def sharpness_sweep(n: int, m: int, p: float, eps: float | None = None,
                    log_ratios=(10.0, 20.0, 40.0)) -> SweepResult:
    """Rayleigh quotients of the extremizing family along increasing
    plateau-to-support log ratios, with a 1/log extrapolation.

    For m >= 2 the log ratio is capped (the grid supporting the iterated
    inverse Laplacian loses accuracy on extremely wide supports); m = 1 has
    none, as grad_norm_volume forms no power of R, V or A (it runs to the L where 2R
    overflows). An empty sequence, or an entry not finite or above the cap, raises
    DomainError before any work; so does, once s0 is chosen, one whose 2R overflows.
    """
    params = PoincareParams(n, m, p)
    log_ratios = tuple(log_ratios)
    if not log_ratios:
        raise DomainError("sharpness_sweep needs at least one log ratio")
    for lr in log_ratios:
        if not math.isfinite(lr):
            raise DomainError(f"log ratio {lr} is not finite")
    if m >= 2 and max(log_ratios) > LOG_RATIO_CAP_HIGH_ORDER:
        raise DomainError(f"log ratio {max(log_ratios)} exceeds the cap "
                          f"{LOG_RATIO_CAP_HIGH_ORDER} for m >= 2")
    if eps is None:
        eps = 0.01 if m == 1 else 0.05
    sp = SpaceParams(n)
    s0 = extremizers.select_s0(sp, eps)
    radii = [extremizers.support_radius(s0, lr) for lr in log_ratios]
    c = params.constant
    pts = []
    for lr, R in zip(log_ratios, radii):
        ext = extremizers.ExtremizerParams(eps, s0, R, p, sp)
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
    return SweepResult(params, eps, s0, pts, extrap, c)
