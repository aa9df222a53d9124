"""Shared numerical kernels.

`integrate` is the one adaptive quadrature: a G10/K21 Gauss-Kronrod rule
with bisection, which evaluates all panels still open at a bisection level
in one call of the integrand and counts panel splits against
`MAX_SPLITS`. Wide spans are integrated in t = ln s, and semi-infinite
integrals have a single tail rule: extend by chunks [B, 8B] until both the
declared power-law majorant at B and the last chunk's mass are within
`REL_TOL` of the total. Given arrays of ends it integrates k problems at
once, finite or semi-infinite, with one integrand call f(s, i) per level
for all of them; a per-row K21/G10 contraction, free of BLAS, makes each result
bit-identical to its own scalar call on any BLAS build.
`batched_gauss` is a fixed Gauss-Legendre rule over many intervals; it
serves only the L^p masses of costly callable segments.
`cumulative_simpson` is composite Simpson on uniformly spaced samples; it
serves the inverse Laplacian and the L^p masses of sampled segments.
`illinois` is the one bracketed root-finder, a safeguarded regula falsi
vectorized over many problems; it serves the rearrangement. The module,
like the package, needs numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# the one tolerance of `integrate`, relative to each problem's magnitude,
# and the panel splits allowed over one call
REL_TOL = 1e-10
MAX_SPLITS = 4000


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the best estimate found."""

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


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
        # the inverse Laplacian's half grid needs the five samples of Simpson
        if self.points < 3:
            raise ValueError("need at least three grid points")


@functools.cache
def _gauss(order):
    return np.polynomial.legendre.leggauss(order)


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
# rows: Kronrod weights, and Gauss weights (zero on the Kronrod-only nodes)
_W21 = np.zeros((2, 21))
_W21[0] = np.concatenate([_WK, _WK[-2::-1]])
_W21[1, 1:10:2] = _WG
_W21[1, 19:10:-2] = _WG


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


def _kronrod_gauss(fj):
    """K21 and G10 sums of the rows of fj (one panel each) in a (panels, 2)
    array. einsum contracts each row on its own; a BLAS product rounds a
    row differently with the number of rows and with the CPU kernel."""
    return np.einsum("ij,kj->ik", fj, _W21)


def _bisect(call, lo, hi, log, iprob, probes, owner, total, magnitude, budget, err_total,
            fail):
    """G10/K21 bisection of the initial panels [lo, hi] (in t = ln s where
    `log`) of the problems `iprob`, with all open panels evaluated in one
    call of f per level. f at the points `probes` of the problems `owner`
    rides along in the first call. Returns each problem's mass over its
    panels and f at the probes.

    A panel is accepted when its error estimate is within
    REL_TOL * magnitude * max(width fraction, 1e-3), where the magnitude is
    the largest |estimate| of any of its problem's panels so far and the
    width is that of the initial panel it came from. The per-problem
    `magnitude`, `budget` (panel splits left) and `err_total` (error bound
    of the accepted panels) are updated in place; `total`, the mass of each
    problem's earlier pieces, enters only the estimate of a budget failure.
    The lowest-numbered problem failing at a level raises `fail(i, ...)`.
    """
    k = total.size
    org = np.arange(lo.size)  # the initial panel each open panel came from
    width, totals = hi - lo, np.zeros(lo.size)  # per initial panel
    fprobe = probes  # f at the probes, once the first call has taken it
    while lo.size:
        prob = iprob[org]
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _X21
        s = x.copy()
        s[log] = np.exp(x[log])
        pts = np.concatenate([s.ravel(), probes])
        vals = np.asarray(call(pts, np.concatenate([np.repeat(prob, 21), owner])), dtype=float)
        if vals.shape != pts.shape:
            raise ValueError(
                "the integrand must be vectorized: f(s), and f(s, i) in the batched form "
                "where i holds the problem index of each abscissa, must map a 1-d array "
                f"of abscissae to an array of the same shape; got shape {vals.shape} "
                f"for {pts.shape}")
        if probes.size:
            fprobe, probes, owner = vals[s.size:], probes[:0], owner[:0]
        vals = vals[:s.size].reshape(s.shape)
        bad = ~np.isfinite(vals)
        if bad.any():
            i = prob[bad.any(axis=1)].min()
            mine = bad & (prob == i)[:, None]
            val, at = vals[mine][0], float(s[mine][0])
            raise fail(i, f"integrand returned {'NaN' if np.isnan(val) else val} at {at!r}")
        # a panel flagged in log lives in t = ln s and integrates f(e^t) e^t
        kg = half[:, None] * _kronrod_gauss(vals * np.where(log[:, None], s, 1.0))
        est, err = kg[:, 0], np.abs(kg[:, 0] - kg[:, 1])
        np.maximum.at(magnitude, prob, np.abs(est))
        tol = REL_TOL * magnitude[prob] * np.maximum((hi - lo) / width[org], 1e-3)
        done = (err <= tol) | ((hi - lo) < 1e-14 * (np.abs(lo) + np.abs(hi) + 1.0))
        np.add.at(totals, org[done], est[done])
        err_total += np.bincount(prob[done], weights=err[done], minlength=k)
        split = ~done
        budget -= np.bincount(prob[split], minlength=k)
        if (budget <= 0).any():
            i = np.flatnonzero(budget <= 0)[0]
            mine = split & (prob == i)
            raise fail(i, f"quadrature did not converge within {MAX_SPLITS} panel splits",
                       float(total[i] + np.sum(totals[iprob == i]) + np.sum(est[mine])),
                       float(err_total[i] + np.sum(err[mine])))
        lo, hi, log, org = lo[split], hi[split], log[split], org[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        log, org = np.concatenate([log, log]), np.concatenate([org, org])
    return np.bincount(iprob, weights=totals, minlength=k), fprobe


def _solve(call, a, b, breakpoints, tail_decay, batched):
    """The integrals of `integrate` for the problems [a_i, b_i].

    One `_bisect` integrates each problem's piece: [a_i, b_i], or [a_i, B_i]
    with f at B_i. Then each round extends the problems whose tail test
    failed by a chunk [B_i, 8 B_i], with f at 8 B_i, by one `_bisect` over
    those chunks, until the majorant |f(B_i)| B_i / (tail_decay - 1) of the
    remainder and the last chunk's mass are both within REL_TOL of the total.

    A scalar call is the batch of one, and `batched` only prefixes error
    messages with `problem i:`. `_kronrod_gauss` contracts each panel on its
    own, so no problem's result depends on the panels of the others.
    """
    k = a.size
    bks = [float(c) for c in breakpoints if np.isfinite(c)]
    # right end of each problem's last piece: b, or the truncation point
    right = b.copy()
    rows = []
    for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
        if math.isinf(bi):
            right[i] = bi = max([2.0 * abs(ai), 1.0, ai + 1.0] + [2.0 * c for c in bks if c > ai])
        rows += [(lo, hi, log, i) for lo, hi, log in _panels(ai, bi, bks)]
    magnitude = np.zeros(k)  # largest |estimate| of each problem's panels so far
    budget = np.full(k, MAX_SPLITS)
    total, err_total = np.zeros(k), np.zeros(k)
    growing = np.zeros(k, dtype=int)  # tail chunks in a row that outweighed the one before

    def fail(i, message, estimate=None, error_bound=None):
        if growing[i]:
            message = (f"integrand does not decay like s^-{tail_decay:g}: the tail chunk "
                       f"masses grew {growing[i]} times in a row, to {abs(part[i]):.3g} on "
                       f"[{right[i] / 8.0:g}, {right[i]:g}] ({message})")
        return QuadratureError(f"problem {i}: {message}" if batched else message,
                               estimate=estimate, error_bound=error_bound)

    ends = np.flatnonzero(np.isinf(b))  # the tail problems still extending
    part, fprobe = _bisect(call, *(np.array(col) for col in zip(*rows)), right[ends], ends,
                           total, magnitude, budget, err_total, fail)
    total += part
    chunks = 0  # tail chunks each problem in `ends` has run
    while ends.size:
        # majorant of the tail beyond each right end, from f there
        remainder = np.abs(fprobe) * right[ends] / (tail_decay - 1.0)
        stuck = ends[~np.isfinite(total[ends]) | (chunks >= 300)]
        if stuck.size:
            i = stuck[0]
            raise fail(i, "tail truncation did not converge", float(total[i]),
                       float(err_total[i]))
        t_tol = REL_TOL * np.abs(total[ends])
        ends = ends[~((remainder <= t_tol) & (np.abs(part[ends]) <= t_tol))]
        if not ends.size:
            break
        chunks += 1
        hi = 8.0 * right[ends]
        piece, fprobe = _bisect(call, right[ends], hi, np.zeros(ends.size, dtype=bool), ends,
                                hi, ends, total, magnitude, budget, err_total, fail)
        growing[ends] = np.where(np.abs(piece[ends]) > np.abs(part[ends]), growing[ends] + 1, 0)
        right[ends] = hi
        part[ends] = piece[ends]
        total[ends] += part[ends]
    return total


def integrate(f, a, b, breakpoints=(), tail_decay: float | None = None):
    """Integrate f over [a, b] by adaptive G10/K21 Gauss-Kronrod bisection.

    [a, b] is cut at the breakpoints; pieces spanning more than a factor 20
    are integrated in t = ln s. Every panel still open at a bisection level
    is evaluated in one call of f, so f must be vectorized: it maps a 1-d
    array of abscissae to an array of the same shape. The integral is
    taken to REL_TOL of its magnitude, the largest |estimate| of any of its
    panels, so integrate(c f) is c integrate(f) up to rounding at every
    scale c; MAX_SPLITS bounds the number of panel splits over the whole
    call.

    b may be np.inf when |f(s)| <= C s^(-tail_decay) (tail_decay > 1)
    beyond the truncation point B: the integral over [a, B] is extended by
    chunks [B, 8B] until both the majorant |f(B)| B / (tail_decay - 1) of
    the remainder and the mass of the last chunk are within REL_TOL of the
    total.

    Batched form: when a or b is an array, they broadcast to shape (k,) and
    the k integrals over [a_i, b_i], finite or not, are returned as an
    array. f is then called as f(s, i), where i holds the problem index of
    each abscissa, and one call serves the open panels of every problem.
    The breakpoints are shared, each problem using those inside its
    interval; every problem keeps its own panels, tolerance, MAX_SPLITS
    budget, truncation point and chunks, and a panel's K21/G10 sums are a
    per-row contraction, so each result is bit-identical to its own scalar
    call. Scalar a and b are the case k = 1, with f(s).

    Raises QuadratureError when the splits run out or the tail does not
    converge, carrying the best estimate and its error bound; a failure
    while the tail chunk masses still grow is reported as missing decay.
    A NaN or infinite value of f raises QuadratureError naming the value and
    its abscissa, with estimate and error_bound None. In the batched form
    the message starts with the index of the failing problem. ValueError if
    f breaks the shape rule.
    """
    batched = np.ndim(a) > 0 or np.ndim(b) > 0
    if batched:
        a, b = (np.array(x, dtype=float) for x in np.broadcast_arrays(a, b))
        if a.ndim != 1:
            raise ValueError("a and b must broadcast to one dimension")
    else:
        a, b = np.array([a], dtype=float), np.array([b], dtype=float)
    if not (a < b).all():
        raise ValueError("need a < b")
    if np.isinf(b).any() and (tail_decay is None or tail_decay <= 1):
        raise ValueError("semi-infinite integral needs tail decay exponent > 1")
    if not a.size:
        return np.zeros(0)
    call = f if batched else (lambda s, i: f(s))
    # a NaN or infinite value of f is raised naming it and its abscissa, so
    # numpy's overflow and invalid-value warnings inside f would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        out = _solve(call, a, b, breakpoints, tail_decay, batched)
    return out if batched else float(out[0])


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


def cumulative_simpson(y, h):
    """Cumulative integral with composite Simpson on a uniform grid of an
    odd number of samples, at least five (ValueError otherwise).

    Each odd node adds one step of the cubic through its four nearest
    samples to the even node before it: every node is exact for cubics.
    """
    n = len(y)
    if n % 2 == 0 or n < 5:
        raise ValueError(f"composite Simpson needs an odd number of samples >= 5, got {n}")
    out = np.zeros(n)
    # two-step Simpson increments
    inc2 = h / 3.0 * (y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(inc2)
    out[1] = h / 24.0 * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3])
    out[3::2] = out[2:-1:2] + h / 24.0 * (-y[1:-3:2] + 13.0 * (y[2:-2:2] + y[3:-1:2])
                                          - y[4::2])
    return out


# a bisection at least every fourth step takes an ln-bracket of width 80
# down to float resolution in under 250 steps
_MAX_ITER = 250


def illinois(g, lo, hi, glo, ghi, ftol):
    """Roots of g on the brackets [lo, hi], vectorized over problems.

    g(x, i) returns the residuals of the problems with indices i at x;
    glo and ghi are the residuals at the bracket ends and must differ in
    sign (a problem whose ends do not is solved by the end with the smaller
    residual). Each step is regula falsi that halves the residual kept at
    an end retained twice in a row (Illinois), or a bisection when three
    steps did not halve the bracket, so rounding noise in g cannot stall
    it. A problem stops once |g| <= ftol or its bracket is no wider than
    4 ulp of max(1, |lo|, |hi|), the resolution of x where x is a logarithm.
    """
    lo, hi, glo, ghi, ftol = (np.array(a, dtype=float) for a in
                              np.broadcast_arrays(lo, hi, glo, ghi, ftol))
    x = np.where(np.abs(glo) <= np.abs(ghi), lo, hi)
    xtol = 2 * np.spacing(np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))
    idx = np.flatnonzero((np.sign(glo) * np.sign(ghi) < 0) & (hi - lo > 2 * xtol)
                         & (np.abs(glo) > ftol) & (np.abs(ghi) > ftol))
    lo, hi, glo, ghi, ftol, xtol = (a[idx] for a in (lo, hi, glo, ghi, ftol, xtol))
    side = np.zeros(idx.size)  # +1: lo moved last, -1: hi moved last
    w1 = w2 = w3 = np.full(idx.size, np.inf)  # bracket widths 1-3 steps back
    for _ in range(_MAX_ITER):
        if not idx.size:
            break
        w = hi - lo
        xn = (lo * ghi - hi * glo) / (ghi - glo)
        xn = np.where(w > 0.5 * w3, 0.5 * (lo + hi), xn)
        # a step onto an end (a root within resolution of it) moves by xtol
        # instead, which closes the bracket on the next test
        xn = np.clip(xn, lo + xtol, hi - xtol)
        gx = g(xn, idx)
        x[idx] = xn
        right = np.sign(gx) == np.sign(glo)  # the root lies right of xn
        ghi = np.where(right & (side == 1), 0.5 * ghi, ghi)
        glo = np.where(~right & (side == -1), 0.5 * glo, glo)
        lo, glo = np.where(right, xn, lo), np.where(right, gx, glo)
        hi, ghi = np.where(right, hi, xn), np.where(right, ghi, gx)
        side = np.where(right, 1.0, -1.0)
        w3, w2, w1 = w2, w1, w
        live = (np.abs(gx) > ftol) & (hi - lo > 2 * xtol)
        idx, lo, hi, glo, ghi, ftol, xtol, side, w1, w2, w3 = (
            a[live] for a in (idx, lo, hi, glo, ghi, ftol, xtol, side, w1, w2, w3))
    return x

