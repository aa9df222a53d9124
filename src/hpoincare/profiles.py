"""Piecewise-analytic radial profiles of the volume coordinate.

A RadialProfile partitions [0, inf) into segments: sums of power terms
(covering constants, pure powers and affine pieces), grid samples with
monotone piecewise-cubic (PCHIP) interpolation in ln s, and lazily
evaluated callables (used by the rearrangement machinery). Every segment
integrates itself through `primitive_from_lo`: in closed form for power sums
(and for pieces of a decreasing rearrangement), by one batched adaptive
quadrature over the abscissae otherwise. Likewise every segment gives its
L^p mass through `lp_mass`, by the adaptive quadrature unless it has a rule
that applies: closed forms for single power terms, fixed panels for
callables, and for sampled segments composite Simpson on the samples
themselves, since the interpolant's second derivative jumps at every node
and the adaptive rule would have to bisect around each of those jumps.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import numerics


class Segment:
    """Base: a piece of a profile on [s_lo, s_hi)."""

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

    def primitive_from_lo(self, s):
        """Vectorized integral of value over [s_lo, s], by one batched
        adaptive quadrature over the abscissae."""
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        right = s > self.s_lo
        out[right] = numerics.integrate(lambda t, i: self.value(t), self.s_lo, s[right])
        return out

    def lp_mass(self, p, tail_bound=None):
        """Integral of |value|^p over the segment, by the adaptive quadrature."""
        return numerics.integrate(lambda s: np.abs(self.value(s)) ** p, self.s_lo,
                                  self.s_hi, tail_decay=self._tail_decay(p, tail_bound))

    def _tail_decay(self, p, tail_bound):
        """tail_bound * p, the decay exponent of |v|^p on an infinite segment
        (None on a finite one); QuadratureError where it is not integrable."""
        if not math.isinf(self.s_hi):
            return None
        decay = (tail_bound or 0.0) * p
        if decay <= 1:
            raise numerics.QuadratureError(
                f"divergent or unbounded tail from {self.s_lo}; tighten tail_bound")
        return decay

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

    def lp_mass(self, p, tail_bound=None):
        """Closed form for a single power term, in the log domain: |c|^p
        alone can overflow even when the integral itself is moderate."""
        if len(self.terms) != 1:
            return super().lp_mass(p, tail_bound)
        c, e = self.terms[0]
        if c == 0.0:
            return 0.0
        ep = e * p
        lo, hi = self.s_lo, self.s_hi
        log_c = p * math.log(abs(c))
        if math.isinf(hi):
            if ep >= -1 or lo <= 0:
                raise numerics.QuadratureError(
                    f"divergent |v|^p on tail segment starting at {lo}")
            return math.exp(log_c + (ep + 1) * math.log(lo) - math.log(-(ep + 1)))
        if ep == -1:
            return math.exp(log_c + math.log(math.log(hi / lo)))
        e1 = ep + 1
        if lo == 0 and e1 <= 0:
            raise numerics.QuadratureError(
                f"non-integrable singularity of |v|^p at 0 (exponent {ep})")
        edge = lo if e1 < 0 else hi  # the endpoint that dominates
        other = hi if e1 < 0 else lo
        bulk = math.exp(log_c + e1 * math.log(edge) - math.log(abs(e1)))
        # log1p of the relative width: log(other / edge) from the rounded
        # ratio loses the width of a narrow segment far from 0
        return bulk * (1.0 if other == 0 else
                       -math.expm1(e1 * math.log1p((other - edge) / edge)))

    def is_zero(self):
        return not self.terms


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
    return w1, w2


def _pchip_end_slope(h0, h1, m0, m1):
    """Moler's shape-preserving three-point end slope (Numerical Computing
    with MATLAB, 3.6) from the first two steps h and secants m."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant of (x, y), at least
    three nodes (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980).

    Interior slopes are weighted harmonic means of the adjacent secants,
    zero where those differ in sign or vanish. Coefficients and evaluation
    follow scipy's PchipInterpolator operation for operation, so the two
    agree to rounding; beyond the nodes the end cubics extrapolate.
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.zeros_like(y)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        keep = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][keep] = 1.0 / whmean[keep]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self._x = x
        self._c = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self._x, x, side="right") - 1, 0, len(self._x) - 2)
        u = x - self._x[i]
        c3, c2, c1, c0 = self._c[:, i]
        return c0 + c1 * u + c2 * (u * u) + c3 * (u * u * u)


class SampledSegment(Segment):
    """Samples on a grid uniform in x = ln s, or in another x of the given
    `step` with the given `weights` ds/dx at the nodes, interpolated by
    monotone piecewise cubics in t = ln s. t and the interpolants, of the
    values and of the first and second log-derivatives, are built on first use."""

    def __init__(self, nodes, values, step=None, weights=None):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 4:
            raise ValueError("sampled segment needs at least four nodes")
        if values.shape != nodes.shape:
            raise ValueError("sampled segment needs one value per node")
        super().__init__(nodes[0], nodes[-1])
        self.nodes = nodes
        self.values = values
        self._log_grid = step is None and weights is None
        self.step = self._t[1] - self._t[0] if self._log_grid else float(step)
        self.weights = nodes if self._log_grid else np.asarray(weights, dtype=float)
        if self._log_grid and not np.allclose(np.diff(self._t), self.step, rtol=1e-8):
            raise ValueError("sampled nodes must be log-uniform")
        if self.weights.shape != nodes.shape:
            raise ValueError("sampled segment needs one weight per node")

    @functools.cached_property
    def _t(self):
        return np.log(self.nodes)

    @functools.cached_property
    def _interp(self):
        return _Pchip(self._t, self.values)

    @functools.cached_property
    def _log_derivs(self):
        w1, w2 = _fd_log_derivatives(self.values, self.step)
        if not self._log_grid:  # chain rule: t_x = (ds/dx) / s, t_xx by the same stencil
            t1, t2 = self.weights / self.nodes, _fd_log_derivatives(self._t, self.step)[1]
            w1 /= t1
            w2 = (w2 - w1 * t2) / t1 ** 2
        return _Pchip(self._t, w1), _Pchip(self._t, w2)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return self._interp(np.log(s))

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        return self._log_derivs[0](np.log(s)) / s

    def deriv2(self, s):
        s = np.asarray(s, dtype=float)
        t = np.log(s)
        w1, w2 = self._log_derivs
        return (w2(t) - w1(t)) / s ** 2

    def lp_mass(self, p, tail_bound=None):
        """Integral of |v|^p ds = |v|^p (ds/dx) dx over the segment, by
        composite Simpson in x on the samples, checked against Simpson on
        every other sample. The adaptive quadrature of the interpolant
        instead where the node count is not 1 mod 4 or below 9 (both rules
        need an odd count of at least five), the data change sign (|v|^p
        then has a kink between nodes), or the two sums differ by more than
        numerics.REL_TOL relative, which a non-finite sum always does."""
        if len(self.nodes) % 4 != 1 or len(self.nodes) < 9 or not (
                np.all(self.values > 0) or np.all(self.values < 0)):
            return super().lp_mass(p, tail_bound)
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.abs(self.values) ** p * self.weights
            full = numerics.cumulative_simpson(f, self.step)[-1]
            half = numerics.cumulative_simpson(f[::2], 2.0 * self.step)[-1]
            checked = abs(full - half) <= numerics.REL_TOL * abs(full)
        return float(full) if checked else super().lp_mass(p, tail_bound)


class FuncSegment(Segment):
    """Lazily evaluated segment from a vectorized callable and its derivative."""

    def __init__(self, s_lo, s_hi, fn, d1):
        super().__init__(s_lo, s_hi)
        self.fn = fn
        self._d1 = d1

    def value(self, s):
        return np.asarray(self.fn(np.asarray(s, dtype=float)), dtype=float)

    def deriv(self, s):
        return np.asarray(self._d1(np.asarray(s, dtype=float)), dtype=float)

    def lp_mass(self, p, tail_bound=None):
        fn = lambda s: np.abs(self.value(s)) ** p
        hi = self.s_hi
        decay = self._tail_decay(p, tail_bound)
        if decay is not None:
            # majorant of the mass beyond T, for T = T_0 4^k, k <= 300, until
            # REL_TOL of the largest at an earlier rung (a zero of |v| at
            # T_0 stops nothing) or past 1e280; 16 exact rungs per call
            start = max(2.0 * self.s_lo, 1.0)
            peak = -np.inf  # largest majorant of the earlier calls
            for k in range(0, 301, 16):
                rungs = start * 4.0 ** np.arange(k, min(k + 16, 301))
                rungs = rungs[:np.searchsorted(rungs, 1e280, side="right") + 1]
                tails = fn(rungs) * rungs / (decay - 1.0)
                peaks = np.maximum.accumulate(np.append(peak, tails))
                done = np.flatnonzero((tails <= numerics.REL_TOL * peaks[:-1]) | (rungs > 1e280))
                if done.size or k + 16 > 300:
                    last = done[0] if done.size else -1
                    hi, tail = float(rungs[last]), float(tails[last])
                    break
                peak = peaks[-1]
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
    breakpoint: |v(s)| <= const * s^(-tail_bound).
    """

    def __init__(self, segments, tail_bound=None):
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
        self.tail_bound = tail_bound
        self._bounds = np.array([seg.s_lo for seg in segments[1:]])
        self._cum_cache = None

    @property
    def breakpoints(self):
        return tuple(self._bounds)

    def _dispatch(self, s, per_segment):
        """per_segment(k, x) at the abscissae x in segment k (a breakpoint in
        the one it starts), for every segment that holds some of s; a float
        for scalar s. Slices of a 1-d ascending s, masks of any other s."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s_arr = np.atleast_1d(s)
        out = np.empty_like(s_arr)
        if s_arr.ndim == 1 and np.all(s_arr[:-1] <= s_arr[1:]):  # False at a NaN
            cuts = [0, *np.searchsorted(s_arr, self._bounds, side="left"), s_arr.size]
            for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
                if a < b:
                    out[a:b] = per_segment(k, s_arr[a:b])
        else:
            idx = np.searchsorted(self._bounds, s_arr, side="right")
            for k in np.flatnonzero(np.bincount(idx.ravel(), minlength=len(self.segments))):
                mask = idx == k
                out[mask] = per_segment(k, s_arr[mask])
        return float(out[0]) if scalar else out

    def __call__(self, s):
        return self._dispatch(s, lambda k, x: self.segments[k].value(x))

    def derivative(self, s):
        return self._dispatch(s, lambda k, x: self.segments[k].deriv(x))

    def second_derivative(self, s):
        return self._dispatch(s, lambda k, x: self.segments[k].deriv2(x))

    def support_end(self):
        """Abscissa beyond which the profile vanishes identically, or None."""
        if self.segments[-1].is_zero():
            return self.segments[-1].s_lo
        return None

    def _cumulative(self):
        if self._cum_cache is None:
            cum = [0.0]
            for seg in self.segments[:-1]:
                cum.append(cum[-1] + float(seg.primitive_from_lo(np.array([seg.s_hi]))[0]))
            self._cum_cache = np.array(cum)
        return self._cum_cache

    def running_integral(self, s):
        """Integral of the profile over [0, s], vectorized."""
        cum = self._cumulative()
        return self._dispatch(s, lambda k, x: cum[k] + self.segments[k].primitive_from_lo(x))

    def lp_power(self, p):
        """Integral of |v|^p over [0, inf): the sum of the segments' own
        `lp_mass`, where tail_bound bounds the decay of the infinite last
        segment."""
        total = 0.0
        for seg in self.segments:
            if not seg.is_zero():
                total += seg.lp_mass(p, self.tail_bound)
        return total


def zero_tail(s_lo):
    return PowerSegment(s_lo, np.inf, ())


def constant_profile(c):
    if c == 0:
        return RadialProfile([zero_tail(0.0)], tail_bound=np.inf)
    return RadialProfile([PowerSegment(0.0, np.inf, [(c, 0.0)])])


def indicator_profile(lo, hi, height=1.0):
    """height on [lo, hi), zero elsewhere."""
    segs = []
    if lo > 0:
        segs.append(PowerSegment(0.0, lo, ()))
    segs.append(PowerSegment(lo, hi, [(height, 0.0)]))
    segs.append(zero_tail(hi))
    return RadialProfile(segs, tail_bound=np.inf)


def sampled_profile(nodes, values, step=None, weights=None):
    """Profile from samples (log-uniform nodes, or a `step` and `weights` as
    in SampledSegment), with a constant head below the first node and a 1/s
    power tail above the last node, matched to the first and last samples."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    segs = [PowerSegment(0.0, nodes[0], [(values[0], 0.0)] if values[0] != 0 else [])]
    segs.append(SampledSegment(nodes, values, step, weights))
    c = values[-1] * nodes[-1]
    segs.append(PowerSegment(nodes[-1], np.inf, [(c, -1.0)] if c != 0 else []))
    return RadialProfile(segs, tail_bound=1.0)
