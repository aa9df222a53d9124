"""Piecewise-analytic radial profiles of the volume coordinate.

A RadialProfile partitions [0, inf) into tagged segments: sums of power
terms (covering constants, pure powers and affine pieces), log-affine
pieces, log-grid samples with monotone interpolation, and lazily evaluated
callables (used by the rearrangement machinery).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import numerics
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig


def _power_term_integral(coef, expo, a, b):
    """Integral of coef * s^expo over [a, b] (b finite)."""
    if expo == -1.0:
        return coef * math.log(b / a)
    e1 = expo + 1.0
    return coef * (b ** e1 - a ** e1) / e1


class Segment:
    """Base: a piece of a profile on [s_lo, s_hi)."""

    kind = "abstract"

    def __init__(self, s_lo, s_hi):
        if not (0 <= s_lo < s_hi):
            raise ValueError("segment needs 0 <= s_lo < s_hi")
        self.s_lo = float(s_lo)
        self.s_hi = float(s_hi)

    def value(self, s):
        raise NotImplementedError

    def deriv(self, s):
        raise NotImplementedError

    def deriv2(self, s):
        raise NotImplementedError

    def primitive(self, a, b):
        """Integral of value over [a, b] within the segment, or None."""
        return None

    def primitive_from_lo(self, s):
        """Vectorized integral of value over [s_lo, s], or None if unavailable."""
        return None

    def lp_mass(self, p, cfg, tail_bound=None):
        """Integral of |value|^p over the segment, or None to defer to the
        generic adaptive quadrature."""
        return None

    def is_zero(self):
        return False


class PowerSegment(Segment):
    """Sum of power terms: sum_i coef_i * s^expo_i.

    Covers the constant (single exponent 0), pure power, and affine
    (exponents {0, 1}) kinds. An empty term list is the zero segment.
    """

    def __init__(self, s_lo, s_hi, terms):
        super().__init__(s_lo, s_hi)
        self.terms = tuple((float(c), float(e)) for c, e in terms)
        if not self.terms:
            self.kind = "zero"
        elif len(self.terms) == 1 and self.terms[0][1] == 0.0:
            self.kind = "constant"
        elif len(self.terms) == 1:
            self.kind = "power"
        elif {e for _, e in self.terms} <= {0.0, 1.0}:
            self.kind = "affine"
        else:
            self.kind = "powersum"

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for c, e in self.terms:
            out = out + (c * np.ones_like(s) if e == 0.0 else c * s ** e)
        return out

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for c, e in self.terms:
            if e != 0.0:
                out = out + c * e * s ** (e - 1.0)
        return out

    def deriv2(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for c, e in self.terms:
            if e not in (0.0, 1.0):
                out = out + c * e * (e - 1.0) * s ** (e - 2.0)
        return out

    def primitive(self, a, b):
        return sum(_power_term_integral(c, e, a, b) for c, e in self.terms)

    def primitive_from_lo(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for c, e in self.terms:
            if e == -1.0:
                out = out + c * np.log(s / self.s_lo)
            else:
                e1 = e + 1.0
                lo_part = 0.0 if self.s_lo == 0 else self.s_lo ** e1
                out = out + c * (s ** e1 - lo_part) / e1
        return out

    def is_zero(self):
        return not self.terms


class LogAffineSegment(Segment):
    """a + b * ln(s)."""

    kind = "log-affine"

    def __init__(self, s_lo, s_hi, a, b):
        super().__init__(s_lo, s_hi)
        self.a = float(a)
        self.b = float(b)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return self.a + self.b * np.log(s)

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        return self.b / s

    def deriv2(self, s):
        s = np.asarray(s, dtype=float)
        return -self.b / s ** 2

    def primitive(self, a, b):
        prim = lambda s: self.a * s + self.b * (s * math.log(s) - s)
        return prim(b) - prim(a)

    def primitive_from_lo(self, s):
        s = np.asarray(s, dtype=float)
        prim = lambda u: self.a * u + self.b * (u * np.log(u) - u)
        return prim(s) - prim(self.s_lo)


def _fd_log_derivatives(w, h):
    """First and second derivatives of samples w on a uniform grid (step h).

    Interior points use 5-point centered stencils (4th order); the two
    points nearest each edge fall back to lower order.
    """
    n = len(w)
    w1 = np.empty(n)
    w2 = np.empty(n)
    if n >= 5:
        w1[2:-2] = (w[:-4] - 8 * w[1:-3] + 8 * w[3:-1] - w[4:]) / (12 * h)
        w2[2:-2] = (-w[:-4] + 16 * w[1:-3] - 30 * w[2:-2] + 16 * w[3:-1] - w[4:]) / (12 * h * h)
    for i in (1, n - 2):
        w1[i] = (w[i + 1] - w[i - 1]) / (2 * h)
        w2[i] = (w[i + 1] - 2 * w[i] + w[i - 1]) / (h * h)
    w1[0] = (w[1] - w[0]) / h
    w1[-1] = (w[-1] - w[-2]) / h
    w2[0] = w2[1]
    w2[-1] = w2[-2]
    if n < 5:
        for i in range(1, n - 1):
            w1[i] = (w[i + 1] - w[i - 1]) / (2 * h)
            w2[i] = (w[i + 1] - 2 * w[i] + w[i - 1]) / (h * h)
    return w1, w2


class SampledSegment(Segment):
    """Log-grid samples with monotone piecewise-cubic interpolation."""

    kind = "sampled"

    def __init__(self, nodes, values, s_lo=None, s_hi=None):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 4:
            raise ValueError("sampled segment needs at least four nodes")
        super().__init__(nodes[0] if s_lo is None else s_lo,
                         nodes[-1] if s_hi is None else s_hi)
        self.nodes = nodes
        self.values = values
        self._t = np.log(nodes)
        h = self._t[1] - self._t[0]
        if not np.allclose(np.diff(self._t), h, rtol=1e-8):
            raise ValueError("sampled nodes must be log-uniform")
        self._interp = PchipInterpolator(self._t, values, extrapolate=True)
        w1, w2 = _fd_log_derivatives(values, h)
        self._w1 = PchipInterpolator(self._t, w1, extrapolate=True)
        self._w2 = PchipInterpolator(self._t, w2, extrapolate=True)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return self._interp(np.log(s))

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        return self._w1(np.log(s)) / s

    def deriv2(self, s):
        s = np.asarray(s, dtype=float)
        t = np.log(s)
        return (self._w2(t) - self._w1(t)) / s ** 2

    def primitive_from_lo(self, s):
        if not hasattr(self, "_cum_interp"):
            gaps = numerics.batched_gauss(self.value, self.nodes[:-1], self.nodes[1:], 8)
            cum = np.concatenate([[0.0], np.cumsum(gaps)])
            self._cum_interp = PchipInterpolator(self._t, cum, extrapolate=True)
        s = np.asarray(s, dtype=float)
        head = self.values[0] * (self.nodes[0] - self.s_lo)  # flat extension below first node
        below = s < self.nodes[0]
        out = head + self._cum_interp(np.log(np.maximum(s, self.nodes[0])))
        if np.any(below):
            out = np.where(below, self.values[0] * (s - self.s_lo), out)
        return out


class FuncSegment(Segment):
    """Lazily evaluated segment from a vectorized callable."""

    kind = "callable"

    def __init__(self, s_lo, s_hi, fn, d1=None, d2=None):
        super().__init__(s_lo, s_hi)
        self.fn = fn
        self._d1 = d1
        self._d2 = d2

    def value(self, s):
        return np.asarray(self.fn(np.asarray(s, dtype=float)), dtype=float)

    def deriv(self, s):
        if self._d1 is not None:
            return np.asarray(self._d1(np.asarray(s, dtype=float)), dtype=float)
        s = np.asarray(s, dtype=float)
        h = 1e-6 * np.maximum(s, 1e-12)
        return (self.value(s + h) - self.value(s - h)) / (2 * h)

    def deriv2(self, s):
        if self._d2 is not None:
            return np.asarray(self._d2(np.asarray(s, dtype=float)), dtype=float)
        s = np.asarray(s, dtype=float)
        h = 1e-4 * np.maximum(s, 1e-12)
        return (self.value(s + h) - 2 * self.value(s) + self.value(s - h)) / h ** 2

    _GAP = 0.02  # log-width of cached cumulative-integral gaps

    def _cum_grid(self, s_needed):
        """Cached cumulative integral on a fine log grid, extended on demand."""
        lo = self.s_lo if self.s_lo > 0 else min(self.s_hi, s_needed) * 1e-9
        hi = min(self.s_hi, max(s_needed, lo * 10.0))
        if not hasattr(self, "_cum_nodes") or hi > self._cum_nodes[-1] * (1 + 1e-12):
            npts = int(np.ceil(np.log(hi / lo) / self._GAP)) + 1
            nodes = np.geomspace(lo, hi, max(npts, 16))
            gaps = numerics.batched_gauss(self.value, nodes[:-1], nodes[1:], 16)
            cum = np.concatenate([[0.0], np.cumsum(gaps)])
            self._cum_nodes = nodes
            self._cum_vals = cum
            self._cum_interp = PchipInterpolator(np.log(nodes), cum, extrapolate=False)
        return self._cum_nodes[0]

    def primitive_from_lo(self, s):
        s = np.asarray(s, dtype=float)
        if self.s_lo > 0 and self.s_hi / self.s_lo < 1 + 1e-8:
            # degenerate span: midpoint rule is exact to rounding
            return self.value(np.full_like(s, 0.5 * (self.s_lo + self.s_hi))) \
                * (s - self.s_lo)
        smax = float(np.max(s)) if s.size else self.s_lo * 2
        lo = self._cum_grid(smax)
        out = np.empty_like(s)
        below = s <= lo
        # below the cached grid the integrand is treated as locally flat
        if np.any(below):
            sb = s[below]
            out[below] = self.value(np.maximum(sb, lo * 1e-3) * 0.5) * (sb - self.s_lo)
        inside = ~below
        if np.any(inside):
            head = self.value(np.array([lo * 0.5]))[0] * (lo - self.s_lo)
            out[inside] = head + self._cum_interp(np.log(s[inside]))
        return out

    def lp_mass(self, p, cfg, tail_bound=None):
        fn = lambda s: np.abs(self.value(s)) ** p
        hi = self.s_hi
        if math.isinf(hi):
            decay = (tail_bound or 0.0) * p
            if decay <= 1:
                raise numerics.QuadratureError(
                    f"divergent |v|^p tail on callable segment from {self.s_lo}")
            T = max(2.0 * self.s_lo, 1.0)
            probe = 0.0
            for _ in range(300):
                probe = float(fn(np.array([T]))[0]) * T / (decay - 1.0)
                if probe <= cfg.abs_tol or T > 1e280:
                    break
                T *= 4.0
            hi = T
            tail = probe
        else:
            tail = 0.0
        lo = self.s_lo if self.s_lo > 0 else hi * 1e-9
        npan = max(int(np.ceil(np.log(hi / lo) / 0.25)), 4)
        edges = np.geomspace(lo, hi, npan + 1)
        total = float(np.sum(numerics.batched_gauss(fn, edges[:-1], edges[1:], 16)))
        if self.s_lo == 0:
            total += float(fn(np.array([lo * 0.5]))[0]) * lo
        return total + tail


class RadialProfile:
    """A function of the volume coordinate s on [0, inf), stored in segments.

    tail_bound is a power-law decay exponent valid beyond the last
    breakpoint: |v(s)| <= const * s^(-tail_bound). source, when set, records
    a profile w with -Laplacian(self) = w in volume coordinates (set by the
    inverse-Laplacian operator) so norms of derivatives need no numerical
    differentiation.
    """

    def __init__(self, segments, nonincreasing=False, tail_bound=None, source=None):
        segments = tuple(segments)
        if not segments:
            raise ValueError("profile needs at least one segment")
        if segments[0].s_lo != 0.0:
            raise ValueError("first segment must start at 0")
        if not math.isinf(segments[-1].s_hi):
            raise ValueError("last segment must extend to infinity")
        for left, right in zip(segments[:-1], segments[1:]):
            if left.s_hi != right.s_lo:
                raise ValueError("segments must partition [0, inf) contiguously")
        self.segments = segments
        self.nonincreasing = bool(nonincreasing)
        self.tail_bound = tail_bound
        self.source = source
        self._bounds = np.array([seg.s_lo for seg in segments[1:]])
        self._cum_cache = None

    @property
    def breakpoints(self):
        return tuple(self._bounds)

    def _dispatch(self, s, method):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s_arr = np.atleast_1d(s)
        idx = np.searchsorted(self._bounds, s_arr, side="right")
        out = np.empty_like(s_arr)
        for k in np.unique(idx):
            mask = idx == k
            out[mask] = getattr(self.segments[k], method)(s_arr[mask])
        return float(out[0]) if scalar else out

    def __call__(self, s):
        return self._dispatch(s, "value")

    def derivative(self, s):
        return self._dispatch(s, "deriv")

    def second_derivative(self, s):
        return self._dispatch(s, "deriv2")

    def support_end(self):
        """Abscissa beyond which the profile vanishes identically, or None."""
        if self.segments[-1].is_zero():
            return self.segments[-1].s_lo
        return None

    def _segment_primitive(self, seg, a, b):
        if a == b:
            return 0.0
        exact = seg.primitive(a, b)
        if exact is not None:
            return exact
        pfl = seg.primitive_from_lo(np.array([a, b]))
        if pfl is not None:
            return float(pfl[1] - pfl[0])
        return numerics.integrate(seg.value, a, b, DEFAULT_QUADRATURE)

    def _cumulative(self):
        if self._cum_cache is None:
            cum = [0.0]
            for seg in self.segments[:-1]:
                cum.append(cum[-1] + self._segment_primitive(seg, seg.s_lo, seg.s_hi))
            self._cum_cache = np.array(cum)
        return self._cum_cache

    def running_integral(self, s):
        """Integral of the profile over [0, s], vectorized."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s_arr = np.atleast_1d(s)
        cum = self._cumulative()
        idx = np.searchsorted(self._bounds, s_arr, side="right")
        out = np.empty_like(s_arr)
        for k in np.unique(idx):
            mask = idx == k
            seg = self.segments[k]
            pts = s_arr[mask]
            if seg.is_zero():
                out[mask] = cum[k]
                continue
            partial = seg.primitive_from_lo(pts)
            if partial is None:
                partial = np.array([self._segment_primitive(seg, seg.s_lo, x)
                                    for x in pts])
            out[mask] = cum[k] + partial
        return float(out[0]) if scalar else out

    def lp_power(self, p, cfg: QuadratureConfig = DEFAULT_QUADRATURE):
        """Integral of |v|^p over [0, inf)."""
        total = 0.0
        for seg in self.segments:
            if seg.is_zero():
                continue
            special = seg.lp_mass(p, cfg, tail_bound=self.tail_bound)
            if special is not None:
                total += special
                continue
            hi = seg.s_hi
            if isinstance(seg, PowerSegment) and len(seg.terms) == 1:
                # closed forms in log domain: |c|^p alone can overflow even
                # when the integral itself is moderate
                c, e = seg.terms[0]
                ep = e * p
                if c == 0.0:
                    continue
                log_c = p * math.log(abs(c))
                if math.isinf(hi):
                    if ep >= -1 or seg.s_lo <= 0:
                        raise numerics.QuadratureError(
                            f"divergent |v|^p on tail segment starting at {seg.s_lo}")
                    total += math.exp(log_c + (ep + 1) * math.log(seg.s_lo)
                                      - math.log(-(ep + 1)))
                elif ep == -1:
                    total += math.exp(log_c + math.log(math.log(hi / seg.s_lo)))
                else:
                    e1 = ep + 1
                    if seg.s_lo == 0 and e1 <= 0:
                        raise numerics.QuadratureError(
                            f"non-integrable singularity of |v|^p at 0 (exponent {ep})")
                    edge = seg.s_lo if e1 < 0 else hi  # the endpoint that dominates
                    other = hi if e1 < 0 else seg.s_lo
                    bulk = math.exp(log_c + e1 * math.log(edge) - math.log(abs(e1)))
                    frac = 1.0 if other == 0 else -math.expm1(e1 * math.log(other / edge))
                    total += bulk * frac
                continue
            total += self.segment_integral(
                seg, lambda s, seg=seg: np.abs(seg.value(s)) ** p, p, cfg)
        return total

    def segment_integral(self, seg, integrand, p, cfg: QuadratureConfig = DEFAULT_QUADRATURE):
        """Integral of integrand over the segment seg of this profile. On the
        infinite last segment the integrand must decay like |v|^p, that is
        like s^(-tail_bound * p); QuadratureError if that is not integrable."""
        if not math.isinf(seg.s_hi):
            return numerics.integrate(integrand, seg.s_lo, seg.s_hi, cfg)
        decay = None if self.tail_bound is None else self.tail_bound * p
        if decay is None or decay <= 1:
            raise numerics.QuadratureError(
                f"divergent or unbounded tail from {seg.s_lo}; tighten tail_bound")
        return numerics.integrate(integrand, seg.s_lo, np.inf, cfg, tail_decay=decay)


def zero_tail(s_lo):
    return PowerSegment(s_lo, np.inf, ())


def constant_profile(c):
    if c == 0:
        return RadialProfile([zero_tail(0.0)], nonincreasing=True, tail_bound=np.inf)
    return RadialProfile([PowerSegment(0.0, np.inf, [(c, 0.0)])], nonincreasing=c >= 0)


def indicator_profile(lo, hi, height=1.0):
    """height on [lo, hi), zero elsewhere."""
    segs = []
    if lo > 0:
        segs.append(PowerSegment(0.0, lo, ()))
    segs.append(PowerSegment(lo, hi, [(height, 0.0)]))
    segs.append(zero_tail(hi))
    return RadialProfile(segs, nonincreasing=(lo == 0.0 and height >= 0), tail_bound=np.inf)


def sampled_profile(nodes, values, nonincreasing=False, head_value=None,
                    tail_coef=None, source=None):
    """Profile from log-grid samples, with a constant head below the first
    node and a 1/s power tail above the last node (coefficient tail_coef,
    default matched to the last sample)."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    head = values[0] if head_value is None else head_value
    segs = [PowerSegment(0.0, nodes[0], [(head, 0.0)] if head != 0 else [])]
    segs.append(SampledSegment(nodes, values))
    c = values[-1] * nodes[-1] if tail_coef is None else tail_coef
    segs.append(PowerSegment(nodes[-1], np.inf, [(c, -1.0)] if c != 0 else []))
    return RadialProfile(segs, nonincreasing=nonincreasing, tail_bound=1.0,
                         source=source)
