"""Symmetrization toolkit in the volume coordinate.

Distribution function, decreasing rearrangement, running-average maximal
function and the Hardy inequality check with the conjugate-exponent constant.

The distribution function mu of |v| is summed in closed form over the
monotone pieces of v, cut where v or v' changes sign; where they show v
>= 0 and never rising from s = 0, v is its own rearrangement f*. Otherwise
f* reads a table of mu at the critical values of |v| (the ends of the
pieces) and just below each: a level t inside a jump of mu lies on a
plateau of f*, which is returned exactly; elsewhere mu is strictly
monotone on the bracket and f*(t) is refined by a vectorized Illinois
(safeguarded regula falsi) iteration in ln y. The primitive of f* comes
from the layer-cake identity int_0^s f* = int_{|v| > y} |v| + y (s - mu(y))
with y = f*(s), so running averages and Hardy checks of f* need no
quadrature grid over f*. Distribution functions of f* itself invert f* on s
with the same Illinois iteration, independently of the mu of its source.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, QuadratureError, illinois
from .profiles import FuncSegment, PowerSegment, RadialProfile, zero_tail


@dataclass
class _Piece:
    """A maximal interval on which |v| is monotone and v single-signed."""

    a: float
    b: float  # may be inf (then |v| decays to 0)
    seg: object
    sign: float
    va: float  # |v| at the left end
    vb: float  # |v| at the right end (its limit on an infinite piece)

    @property
    def increasing(self):
        return self.vb > self.va


_PROBE = 129

# monotone pieces of each profile, computed once per profile
_PIECES = weakref.WeakKeyDictionary()


def _segment_cuts(seg):
    """Interior abscissae where v or v' changes sign within the segment:
    sign changes on a probe grid, all refined at once by the Illinois
    iteration. A single power term and a piece of a decreasing
    rearrangement (>= 0, never rising) need no cuts."""
    lo, hi = seg.s_lo, seg.s_hi
    if np.isinf(hi) or isinstance(seg, _RearrangedSegment) or (
            isinstance(seg, PowerSegment) and len(seg.terms) <= 1):
        return []
    eps = (hi - lo) * 1e-9
    if lo > 0 and hi / lo > 10:
        xs = np.geomspace(lo + eps, hi - eps, _PROBE)
    else:
        xs = np.linspace(lo + eps, hi - eps, _PROBE)
    cuts = []
    for fn in (seg.value, seg.deriv):
        ys = np.asarray(fn(xs), dtype=float)
        i = np.flatnonzero(np.diff(np.signbit(ys)))
        if i.size:
            cuts.extend(illinois(lambda x, _: fn(x), xs[i], xs[i + 1], ys[i], ys[i + 1], 0.0))
    return sorted(cuts)


def _abs_at(seg, a):
    """|v(a)|, inf at a pole at a = 0."""
    with np.errstate(divide="ignore"):
        return abs(float(seg.value(np.array([a]))[0]))


def _tail_limit(seg):
    """|v| at infinity on an infinite segment: a power segment's constant
    terms (inf where a term grows); 0 on others, which decay by tail_bound."""
    if not isinstance(seg, PowerSegment):
        return 0.0
    grows = any(c and e > 0 for c, e in seg.terms)
    return np.inf if grows else abs(sum(c for c, e in seg.terms if e == 0.0))


def _monotone_pieces(profile):
    pieces = _PIECES.get(profile)
    if pieces is not None:
        return pieces
    pieces = []
    for seg in profile.segments:
        if seg.is_zero():
            continue
        edges = [seg.s_lo] + _segment_cuts(seg) + [seg.s_hi]
        for a, b in zip(edges[:-1], edges[1:]):
            if np.isinf(b):
                sign = np.sign(float(seg.value(np.array([max(2 * a, 1.0)]))[0])) or 1.0
                pieces.append(_Piece(a, b, seg, sign, _abs_at(seg, a), _tail_limit(seg)))
                continue
            mid = 0.5 * (a + b)
            va = _abs_at(seg, a)
            vb = abs(float(seg.value(np.array([b]))[0]))
            sign = np.sign(float(seg.value(np.array([mid]))[0])) or 1.0
            pieces.append(_Piece(a, b, seg, sign, va, vb))
    _PIECES[profile] = pieces
    return pieces


def _invert_piece(piece, y):
    """Abscissae where |v| = y inside the piece (y within the value range)."""
    seg, sign = piece.seg, piece.sign
    v = sign * np.asarray(y, dtype=float)  # target for v itself
    if isinstance(seg, PowerSegment):
        terms = seg.terms
        if len(terms) == 1:
            c, e = terms[0]
            if e == 0.0:
                raise ValueError("plateau pieces are never inverted")
            return (v / c) ** (1.0 / e)
        expos = {e for _, e in terms}
        if expos <= {0.0, 1.0}:
            a0 = sum(c for c, e in terms if e == 0.0)
            b1 = sum(c for c, e in terms if e == 1.0)
            return (v - a0) / b1
    return _solve_piece(piece, np.asarray(y, dtype=float))


def _solve_piece(piece, y):
    """Abscissae where |v| = y on a piece without a closed-form inverse, by
    the Illinois iteration in ln s; on an infinite piece the bracket is
    first widened by factors of 4."""
    absv = lambda s: np.abs(piece.seg.value(s))
    lo = np.full_like(y, piece.a if piece.a > 0 else piece.b * 1e-15)
    if np.isinf(piece.b):
        hi = np.full_like(y, max(2 * piece.a, 1.0))
        for _ in range(300):
            need = absv(hi) > y
            if not np.any(need):
                break
            hi = np.where(need, hi * 4.0, hi)
    else:
        hi = np.full_like(y, piece.b)
    resid = lambda x, i: absv(np.exp(x)) - y[i]
    every = np.arange(y.size)
    lo, hi = np.log(lo), np.log(hi)
    return np.exp(illinois(resid, lo, hi, resid(lo, every), resid(hi, every),
                           4 * np.spacing(y)))


def _superlevel_span(piece, y):
    """Ends lo <= hi of {s in the piece : |v(s)| > y}, with lo == hi where
    that set is empty."""
    lo = np.full_like(y, piece.a)
    hi = lo.copy()
    full = y < min(piece.va, piece.vb)
    inside = ~full & (y < max(piece.va, piece.vb))
    hi[full] = piece.b
    if np.any(inside):
        x = _invert_piece(piece, y[inside])
        if piece.increasing:
            lo[inside], hi[inside] = x, piece.b
        else:
            hi[inside] = x
    return lo, hi


def _measure_above(profile, y):
    """mu(y) = |{s : |v(s)| > y}|, vectorized over positive levels y."""
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    for piece in _monotone_pieces(profile):
        lo, hi = _superlevel_span(piece, y)
        total = total + (hi - lo)
    return total


def distribution_function(v: RadialProfile, t):
    """Measure of the strict super-level set {s : |v(s)| > t}, t > 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise DomainError("levels must be positive (the measure may be infinite at 0)")
    out = _measure_above(v, np.atleast_1d(t_arr))
    return float(out[0]) if t_arr.ndim == 0 else out


def _occupied(pieces, levels):
    """Which break intervals of a level table have positive measure, from
    the pieces alone: the plateau at c_j (interval 2j) iff a piece is
    constant at c_j, the ramp below it (interval 2j + 1) iff a nonconstant
    piece spans [c_j+1, c_j]."""
    lo = np.array([min(p.va, p.vb) for p in pieces])[:, None]
    hi = np.array([max(p.va, p.vb) for p in pieces])[:, None]
    flat = lo == hi
    plateau = np.any(flat & (lo == levels[:-1]), axis=0)
    ramp = np.any(~flat & (lo <= levels[1:]) & (hi >= levels[:-1]), axis=0)
    return np.column_stack([plateau, ramp]).ravel()


def _is_own_rearrangement(pieces, sup):
    """Whether the monotone pieces show v >= 0 and never rising from s = 0,
    with no gap between pieces (a zero segment inside the support). Each
    comparison allows 4 ulp of sup: closed forms round up at segment joins."""
    slack = 4 * np.spacing(sup)
    # where the piece before each ends, and |v| there
    before = [(0.0, np.inf)] + [(p.b, p.vb) for p in pieces]
    return all(p.sign > 0 and p.a == end and p.va <= top + slack and p.vb <= p.va + slack
               for p, (end, top) in zip(pieces, before))


class _LevelTable:
    """f*(t) = inf{y : mu(y) <= t} of a profile v, from mu at the critical
    values c_0 = sup > c_1 > ... > c_K = floor of |v| (the ends of its
    monotone pieces) and just below each.

    mu(c_k) <= t < mu(c_k-) is a plateau of f*, where f*(t) = c_k exactly.
    Between mu(c_k-) and mu(c_{k+1}), mu is continuous and strictly
    decreasing on (c_{k+1}, c_k), and f*(t) is its root there (Illinois in
    ln y, stopped at a residual of 4 ulp of t or a bracket of 4 ulp of
    ln y). f* is 0 from mu(floor) on.
    """

    def __init__(self, v: RadialProfile, sup: float):
        self.source = v
        self.floor = sup * 1e-18
        pieces = _monotone_pieces(v)
        crit = {sup} | {p.va for p in pieces} | {p.vb for p in pieces}
        self.levels = np.array(sorted((c for c in crit if self.floor < c <= sup),
                                      reverse=True) + [self.floor])
        self.mu = _measure_above(v, self.levels)
        self.mu_below = _measure_above(v, np.nextafter(self.levels, 0.0))
        # mu(c_0) <= mu(c_0-) <= mu(c_1) <= ..., made monotone against rounding
        self.breaks = np.maximum.accumulate(
            np.column_stack([self.mu, self.mu_below]).ravel())
        self.dead = 2 * (len(self.levels) - 1)  # break index of mu(floor)

    def bracket(self, t):
        """Index k of the break interval [breaks[k], breaks[k+1]) holding t:
        even k = 2j is the plateau at c_j, odd k = 2j+1 the ramp below it."""
        return np.maximum(np.searchsorted(self.breaks, t, side="right") - 1, 0)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        k = self.bracket(t)
        out = np.zeros(t.shape)
        plateau = (k % 2 == 0) & (k < self.dead)
        out[plateau] = self.levels[k[plateau] // 2]
        ramp = (k % 2 == 1) & (k < self.dead)
        if np.any(ramp):
            j, tr = k[ramp] // 2, t[ramp]
            resid = lambda x, i: _measure_above(self.source, np.exp(x)) - tr[i]
            x = illinois(resid, np.log(self.levels[j + 1]),
                         np.log(np.nextafter(self.levels[j], 0.0)),
                         self.mu[j + 1] - tr, self.mu_below[j] - tr, 4 * np.spacing(tr))
            out[ramp] = np.exp(x)
        return out

    def derivative(self, t):
        """Right derivative of f* at y = f*(t): 0 where a piece of |v| is
        constant at y (a plateau) and where y = 0; elsewhere
        1 / mu'(y) = -1 / sum 1/|v'(x_i)|, over the pieces whose |v| takes
        the levels just below y, at their x_i with |v(x_i)| = y. A plateau
        of f* only as wide as the rounding noise of mu reads the ramp."""
        y = self(t)
        pieces = _monotone_pieces(self.source)
        rate = np.zeros(y.shape)  # -mu'(y)
        with np.errstate(divide="ignore"):  # a flat point of v adds nothing
            for piece in pieces:
                cross = (min(piece.va, piece.vb) < y) & (y <= max(piece.va, piece.vb))
                if np.any(cross):
                    rate[cross] += 1.0 / np.abs(piece.seg.deriv(_invert_piece(piece, y[cross])))
            flat = np.isin(y, [p.va for p in pieces if p.va == p.vb]) | (y == 0.0)
            return np.where(flat, 0.0, -1.0 / rate)

    def integral(self, s):
        """Integral of f* over [0, s] by the layer-cake identity
        int_{|v| > y} |v| + y (s - mu(y)) with y = f*(s), the first term in
        closed form over the monotone pieces of the source."""
        # f* is 0 from mu(floor) on, and so adds nothing beyond it
        s = np.minimum(np.asarray(s, dtype=float), self.breaks[self.dead])
        y = np.maximum(self(s), self.floor)
        mass = np.zeros(s.shape)
        mu = np.zeros(s.shape)
        for piece in _monotone_pieces(self.source):
            lo, hi = _superlevel_span(piece, y)
            mu += hi - lo
            live = hi > lo
            if np.any(live):
                prim = piece.seg.primitive_from_lo
                mass[live] += piece.sign * (prim(hi[live]) - prim(lo[live]))
        return mass + y * (s - mu)


class _RearrangedSegment(FuncSegment):
    """A piece of the decreasing rearrangement: f* from the level table of
    its source, with its exact derivative and primitive."""

    def __init__(self, s_lo, s_hi, table: _LevelTable):
        super().__init__(s_lo, s_hi, table, table.derivative)
        self._base = None  # integral of f* over [0, s_lo]

    def primitive_from_lo(self, s):
        if self._base is None:
            self._base = float(self.fn.integral(np.array([self.s_lo]))[0])
        return self.fn.integral(s) - self._base


def decreasing_rearrangement(v: RadialProfile) -> RadialProfile:
    """Decreasing rearrangement of |v|, equimeasurable with |v|.

    v itself where its monotone pieces show it is its own rearrangement;
    otherwise plateaus of f* become constant segments and the parts between
    are _RearrangedSegments, all reading one level table of v.
    """
    pieces = _monotone_pieces(v)
    sup = max([max(p.va, p.vb) for p in pieces], default=0.0)
    if not np.isfinite(sup):
        raise QuadratureError("unbounded profiles are not supported by the rearrangement")
    if _is_own_rearrangement(pieces, sup):
        return v
    # verify all super-level sets are finite
    probe = _measure_above(v, np.array([sup * 1e-12]))
    if not np.all(np.isfinite(probe)):
        raise QuadratureError(f"super-level set at level {sup * 1e-12:g} has infinite measure")
    table = _LevelTable(v, sup)
    # total measure of the support (finite iff compactly supported)
    compact = not any(np.isinf(p.b) for p in pieces)
    total = float(table.mu[-1]) if compact else np.inf
    # one segment per break interval of positive measure; an empty one
    # (its width rounding noise of mu) joins the segment after it, and the
    # last segment runs to the end of the support
    keep = np.flatnonzero(_occupied(pieces, table.levels)
                          & (table.breaks[:table.dead] < total))
    segs = []
    a = 0.0
    for i, k in enumerate(keep):
        b = float(table.breaks[k + 1]) if i + 1 < keep.size else total
        if not a < b:
            continue
        if k % 2 == 0:
            segs.append(PowerSegment(a, b, [(float(table.levels[k // 2]), 0.0)]))
        else:
            segs.append(_RearrangedSegment(a, b, table))
        a = b
    if compact:
        segs.append(zero_tail(total))
        tail_bound = np.inf
    else:
        tail_bound = v.tail_bound
    return RadialProfile(segs, tail_bound=tail_bound)


def maximal_function(vstar: RadialProfile) -> RadialProfile:
    """Running average (1/s) * integral of vstar over [0, s]; at s = 0 its
    limits, vstar(0) and the slope vstar'(0) / 2."""
    first = vstar.segments[0]
    if isinstance(first, PowerSegment) and any(e <= -1.0 for _, e in first.terms):
        raise QuadratureError("profile is not integrable at 0")
    with np.errstate(divide="ignore"):  # inf at a pole
        at_zero = vstar(0.0)

    def avg(s):
        s = np.asarray(s, dtype=float)
        return np.divide(vstar.running_integral(s), s, out=np.full(s.shape, at_zero),
                         where=s > 0)

    def avg_d1(s):
        s = np.asarray(s, dtype=float)
        # the limit at s = 0 is vstar'(0) / 2, evaluated only where asked for
        limit = 0.5 * vstar.derivative(0.0) if not s.all() else 0.0
        return np.divide(vstar(s) - avg(s), s, out=np.full(s.shape, limit), where=s > 0)

    segs = []
    prev = 0.0
    for seg in vstar.segments:
        hi = seg.s_hi
        if np.isinf(hi):
            break
        segs.append(FuncSegment(prev, hi, avg, d1=avg_d1))
        prev = hi
    support = vstar.support_end()
    if support is not None:
        mass = float(vstar.running_integral(np.array([support]))[0])
        segs.append(PowerSegment(prev, np.inf, [(mass, -1.0)] if mass != 0 else []))
        tail_bound = 1.0
    else:
        tb = vstar.tail_bound
        tail_bound = min(tb, 1.0) if tb is not None else None
        segs.append(FuncSegment(prev, np.inf, avg, d1=avg_d1))
    return RadialProfile(segs, tail_bound=tail_bound)


@dataclass(frozen=True)
class HardyReport:
    lhs: float
    rhs: float
    ratio: float
    holds: bool


def hardy_check(vstar: RadialProfile, p: float) -> HardyReport:
    """Compare the L^p norm of the running average against the conjugate-
    exponent multiple of the L^p norm of the profile."""
    if p <= 1:
        raise DomainError("the Hardy inequality requires p > 1")
    p_conj = p / (p - 1.0)
    base = vstar.lp_power(p) ** (1.0 / p)
    if not np.isfinite(base):
        raise QuadratureError("divergent L^p norm of the profile")
    if base == 0.0:
        return HardyReport(0.0, 0.0, 0.0, True)
    lhs = maximal_function(vstar).lp_power(p) ** (1.0 / p)
    rhs = p_conj * base
    return HardyReport(lhs, rhs, lhs / rhs, lhs <= rhs * (1 + 1e-10))
