"""Shared numerical kernels.

`integrate` is the one adaptive quadrature: a G10/K21 Gauss-Kronrod rule
with bisection, which evaluates all panels still open at a bisection level
in one call of the integrand and counts panel splits against
`max_subdivisions`. Wide spans are integrated in t = ln s, and semi-infinite
integrals have a single tail rule: extend by chunks [B, 8B] until both the
declared power-law majorant at B and the last chunk's mass are within
tolerance. `batched_gauss` is a fixed Gauss-Legendre rule over many
intervals, for cached cumulative grids. Also: bracketed inversion of
monotone functions and log-spaced grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BracketError(ValueError):
    """The target value is not enclosed by the supplied bracket."""


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the best estimate found."""

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be nonnegative")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class GridSpec:
    s_min: float
    s_max: float
    points: int = 4096

    def __post_init__(self):
        if not (self.s_min > 0):
            raise ValueError("s_min must be positive")
        if not (self.s_max > self.s_min):
            raise ValueError("s_max must exceed s_min")
        if self.points < 2:
            raise ValueError("need at least two grid points")


def log_grid(spec: GridSpec) -> np.ndarray:
    """Log-uniform nodes covering [s_min, s_max] (constant node ratio)."""
    return np.geomspace(spec.s_min, spec.s_max, spec.points)


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order):
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS_CACHE[order]


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21): nonnegative
# abscissae in decreasing order, their Kronrod weights, and the weights of
# the embedded 10-point Gauss rule, whose nodes are _XK[1::2].
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208032429197, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_X21 = np.concatenate([-_XK, _XK[-2::-1]])
# columns: Kronrod weights, and Gauss weights (zero on the Kronrod-only nodes)
_W21 = np.zeros((21, 2))
_W21[:, 0] = np.concatenate([_WK, _WK[-2::-1]])
_W21[1:10:2, 1] = _WG
_W21[19:10:-2, 1] = _WG


def _vectorize(f):
    def fv(x):
        x = np.asarray(x, dtype=float)
        y = f(x)
        y = np.asarray(y, dtype=float)
        if y.shape != x.shape:
            y = np.array([f(xi) for xi in x.ravel()], dtype=float).reshape(x.shape)
        return y

    return fv


def _kronrod(fv, lo, hi, log):
    """K21 estimates and |K21 - G10| error estimates on the panels
    [lo_i, hi_i], all evaluated in one call of fv. A panel flagged in log
    lives in t = ln s and integrates fv(e^t) e^t."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _X21
    s = x.copy()
    s[log] = np.exp(x[log])
    vals = fv(s.ravel()).reshape(s.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        val, at = vals[bad][0], float(s[bad][0])
        raise QuadratureError(
            f"integrand returned {'NaN' if np.isnan(val) else val} at {at!r}")
    jacobian = np.where(log[:, None], s, 1.0)
    kg = half[:, None] * ((vals * jacobian) @ _W21)
    return kg[:, 0], np.abs(kg[:, 0] - kg[:, 1])


def _panels(a, b, breakpoints):
    """Initial panels of [a, b] as (lo, hi, log) rows: [a, b] is cut at the
    breakpoints, and a piece spanning more than a factor 20 is integrated in
    t = ln s, in panels of width <= 15."""
    cuts = sorted({a, b} | {float(c) for c in breakpoints if a < c < b})
    rows = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo > 0 and hi / lo > 20.0:
            tlo, thi = np.log(lo), np.log(hi)
            edges = np.linspace(tlo, thi, max(2, int(np.ceil((thi - tlo) / 15.0)) + 1))
            rows += [(u, v, True) for u, v in zip(edges[:-1], edges[1:])]
        else:
            rows.append((lo, hi, False))
    return rows


def _adaptive(fv, a, b, breakpoints, cfg, budget):
    """Adaptive bisection of the initial panels of [a, b] with a G10/K21
    error estimate; every panel still open at a level is evaluated in one
    call of fv. A panel is accepted when its error estimate is within
    max(abs_tol, rel_tol * scale) * max(width fraction, 1e-3), where the
    scale and the width fraction refer to the initial panel it came from;
    budget[0] counts the splits left."""
    rows = _panels(a, b, breakpoints)
    lo, hi, log = (np.array(col) for col in zip(*rows))
    origin = np.arange(len(rows))
    width = hi - lo
    totals = np.zeros(len(rows))
    scale = None
    err_total = 0.0
    while lo.size:
        est, err = _kronrod(fv, lo, hi, log)
        if scale is None:
            scale = np.maximum(np.abs(est), cfg.abs_tol)
        tol = (np.maximum(cfg.abs_tol, cfg.rel_tol * scale[origin])
               * np.maximum((hi - lo) / width[origin], 1e-3))
        done = (err <= tol) | ((hi - lo) < 1e-14 * (np.abs(lo) + np.abs(hi) + 1.0))
        np.add.at(totals, origin[done], est[done])
        err_total += float(np.sum(err[done]))
        scale = np.maximum(scale, np.abs(totals))
        split = ~done
        budget[0] -= int(np.count_nonzero(split))
        if budget[0] <= 0:
            raise QuadratureError(
                "quadrature did not converge within max_subdivisions",
                estimate=float(np.sum(totals) + np.sum(est[split])),
                error_bound=err_total + float(np.sum(err[split])))
        lo, hi, log, origin = lo[split], hi[split], log[split], origin[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        log, origin = np.concatenate([log, log]), np.concatenate([origin, origin])
    return float(np.sum(totals)), err_total


def integrate(f, a, b, cfg: QuadratureConfig = DEFAULT_QUADRATURE,
              breakpoints=(), tail_decay: float | None = None) -> float:
    """Integrate f over [a, b] by adaptive G10/K21 Gauss-Kronrod bisection.

    [a, b] is cut at the breakpoints; pieces spanning more than a factor 20
    are integrated in t = ln s. Every panel still open at a bisection level
    is evaluated in one call of f, so f should accept arrays (a scalar
    function is applied element by element). cfg.max_subdivisions bounds the
    number of panel splits over the whole call.

    b may be np.inf when |f(s)| <= C s^(-tail_decay) (tail_decay > 1)
    beyond the truncation point B: the integral over [a, B] is extended by
    chunks [B, 8B] until both the majorant |f(B)| B / (tail_decay - 1) of
    the remainder and the mass of the last chunk are within tolerance.

    Raises QuadratureError, with the best estimate and its error bound, on a
    NaN or infinite value of f, when the splits run out, or when the tail
    does not converge.
    """
    if not (a < b):
        raise ValueError("need a < b")
    if np.isinf(b) and (tail_decay is None or tail_decay <= 1):
        raise ValueError("semi-infinite integral needs tail decay exponent > 1")
    fv = _vectorize(f)
    budget = [cfg.max_subdivisions]
    # _kronrod raises on a non-finite value of f, naming it and its
    # abscissa, so numpy's overflow and invalid-value warnings inside f
    # would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isinf(b):
            return _adaptive(fv, a, b, breakpoints, cfg, budget)[0]
        bks = [float(c) for c in breakpoints if np.isfinite(c)]
        B = max([2.0 * abs(a), 1.0, a + 1.0] + [2.0 * c for c in bks if c > a])
        total, err = _adaptive(fv, a, B, bks, cfg, budget)
        part = total  # [a, B] counts as the first chunk
        for _ in range(300):
            if not np.isfinite(total):
                break
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
            majorant = abs(float(fv(np.array([B]))[0])) * B / (tail_decay - 1.0)
            if majorant <= tol and abs(part) <= tol:
                return total
            part, e = _adaptive(fv, B, 8.0 * B, (), cfg, budget)
            total += part
            err += e
            B *= 8.0
    raise QuadratureError("tail truncation did not converge",
                          estimate=total, error_bound=err)


def batched_gauss(fn, a, b, order: int = 16) -> np.ndarray:
    """Fixed-order Gauss-Legendre integrals of fn over many intervals [a_i, b_i].

    fn must be vectorized; all intervals are evaluated in one call.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x, w = _gauss(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    return half * (vals * w[None, :]).sum(axis=1)


def invert_monotone(g, y: float, bracket, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Solve g(x) = y for strictly increasing g on the given bracket."""
    lo, hi = bracket
    if not (lo < hi):
        raise BracketError("bracket must satisfy lo < hi")
    glo, ghi = g(lo), g(hi)
    if not (glo <= y <= ghi):
        raise BracketError(f"target {y} outside [g(lo), g(hi)] = [{glo}, {ghi}]")
    if glo == y:
        return lo
    if ghi == y:
        return hi
    x = brentq(lambda s: g(s) - y, lo, hi, xtol=1e-15 * (1.0 + abs(hi)), rtol=8.9e-16)
    resid = abs(g(x) - y)
    if resid > max(cfg.abs_tol, cfg.rel_tol * abs(y)) * 10.0:
        raise QuadratureError("monotone inversion did not reach tolerance", estimate=x,
                              error_bound=resid)
    return float(x)
