"""The extremizing machinery for the sharp-constant study.

The compactly supported plateau/power/ramp family, its explicit running
average, the tail weight whose derivative is the inverse conjugate power of
the sphere area, the grid-based inverse Laplacian in the volume coordinate,
its iterates, and the sandwich decomposition check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, numerics, rearrangement
from .geometry import SpaceParams, surface_measure
from .numerics import DEFAULT_QUADRATURE, GridSpec, QuadratureConfig
from .profiles import FuncSegment, PowerSegment, RadialProfile, sampled_profile, zero_tail


def area_ratio(s, sp: SpaceParams):
    """A(s) / ((n-1) s): at least 1, tends to 1 as s grows."""
    s = np.asarray(s, dtype=float)
    return surface_measure(s, sp) / ((sp.n - 1) * s)


def select_s0(sp: SpaceParams, eps: float, probe_lo: float = 1e-3,
              probe_hi: float = 1e9, probe_points: int = 600) -> float:
    """Least probe-grid abscissa above which the area ratio stays within 1+eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = np.geomspace(probe_lo, probe_hi, probe_points)
    ratio = area_ratio(grid, sp)
    suffix_max = np.maximum.accumulate(ratio[::-1])[::-1]
    ok = suffix_max <= 1.0 + eps
    if not np.any(ok):
        raise ValueError("probe grid too short to certify the area-ratio bound")
    return float(grid[np.argmax(ok)])


@dataclass(frozen=True)
class ExtremizerParams:
    eps: float
    s0: float
    R: float
    p: float
    sp: SpaceParams

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("exponent p must exceed 1")
        if not (self.R > self.s0 > 0):
            raise ValueError("need R > s0 > 0")

    @property
    def p_conj(self):
        return self.p / (self.p - 1.0)

    @classmethod
    def create(cls, sp: SpaceParams, p: float, eps: float,
               log_ratio: float) -> "ExtremizerParams":
        """Pick s0 for the given eps and set R = s0 * exp(log_ratio)."""
        s0 = select_s0(sp, eps)
        return cls(eps=eps, s0=s0, R=s0 * math.exp(log_ratio), p=p, sp=sp)


def extremizer_profile(params: ExtremizerParams) -> RadialProfile:
    """Plateau s0^(-1/p), then s^(-1/p), then a linear ramp to zero at 2R."""
    s0, R, p = params.s0, params.R, params.p
    segs = [
        PowerSegment(0.0, s0, [(s0 ** (-1.0 / p), 0.0)]),
        PowerSegment(s0, R, [(1.0, -1.0 / p)]),
        PowerSegment(R, 2 * R, [(2.0 * R ** (-1.0 / p), 0.0),
                                (-R ** (-1.0 - 1.0 / p), 1.0)]),
        zero_tail(2 * R),
    ]
    return RadialProfile(segs, nonincreasing=True, tail_bound=np.inf)


def extremizer_lp_mass(params: ExtremizerParams) -> float:
    """Closed form of the p-th power of the L^p norm of the extremizer:
    1 + ln(R/s0) + 1/(p+1)."""
    return 1.0 + math.log(params.R / params.s0) + 1.0 / (params.p + 1.0)


def averaged_extremizer(params: ExtremizerParams, s):
    """Explicit running average of the extremizer profile (all four branches)."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0):
        raise numerics.DomainError("volume coordinate must be positive")
    s0, R, p = params.s0, params.R, params.p
    pc = params.p_conj
    out = np.empty_like(s_arr)
    m1 = s_arr < s0
    m2 = (s_arr >= s0) & (s_arr < R)
    m3 = (s_arr >= R) & (s_arr < 2 * R)
    m4 = s_arr >= 2 * R
    out[m1] = s0 ** (-1.0 / p)
    out[m2] = pc * s_arr[m2] ** (-1.0 / p) - s0 ** (1.0 - 1.0 / p) / ((p - 1.0) * s_arr[m2])
    out[m3] = (((pc - 1.5) * R ** (1.0 - 1.0 / p) - s0 ** (1.0 - 1.0 / p) / (p - 1.0))
               / s_arr[m3] + 2.0 * R ** (-1.0 / p) - R ** (-1.0 - 1.0 / p) * s_arr[m3] / 2.0)
    out[m4] = ((pc * R ** (1.0 - 1.0 / p) - s0 ** (1.0 - 1.0 / p) / (p - 1.0)) / s_arr[m4]
               + R ** (1.0 - 1.0 / p) / (2.0 * s_arr[m4]))
    return float(out[0]) if np.asarray(s).ndim == 0 else out


def averaged_extremizer_profile(params: ExtremizerParams) -> RadialProfile:
    """The explicit running average as a piecewise power profile."""
    s0, R, p = params.s0, params.R, params.p
    pc = params.p_conj
    c_mid = -s0 ** (1.0 - 1.0 / p) / (p - 1.0)
    c_ramp = (pc - 1.5) * R ** (1.0 - 1.0 / p) + c_mid
    c_tail = (pc + 0.5) * R ** (1.0 - 1.0 / p) + c_mid
    segs = [
        PowerSegment(0.0, s0, [(s0 ** (-1.0 / p), 0.0)]),
        PowerSegment(s0, R, [(pc, -1.0 / p), (c_mid, -1.0)]),
        PowerSegment(R, 2 * R, [(c_ramp, -1.0), (2.0 * R ** (-1.0 / p), 0.0),
                                (-R ** (-1.0 - 1.0 / p) / 2.0, 1.0)]),
        PowerSegment(2 * R, np.inf, [(c_tail, -1.0)]),
    ]
    return RadialProfile(segs, nonincreasing=True, tail_bound=1.0)


def inverse_area_tail(s, p: float, sp: SpaceParams,
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Tail integral over [s, inf) of A(t)^(-p/(p-1)).

    Strictly decreasing with derivative -A(s)^(-p/(p-1)).
    """
    if p <= 1:
        raise numerics.DomainError("exponent p must exceed 1")
    pc = p / (p - 1.0)
    scalar = np.asarray(s).ndim == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr <= 0):
        raise numerics.DomainError("volume coordinate must be positive")
    integrand = lambda t: surface_measure(t, sp) ** (-pc)
    out = np.array([
        numerics.integrate(integrand, float(si), np.inf, cfg, tail_decay=pc)
        for si in s_arr
    ])
    return float(out[0]) if scalar else out


def inverse_area_tail_slope(s, p: float, sp: SpaceParams):
    """Derivative of the tail weight: -A(s)^(-p/(p-1))."""
    pc = p / (p - 1.0)
    return -surface_measure(s, sp) ** (-pc)


def inverse_laplacian(v: RadialProfile, sp: SpaceParams, grid: GridSpec,
                      refine: int = 4) -> RadialProfile:
    """Radial inverse of the negative Laplacian in the volume coordinate.

    Computes, on a log grid, the descending integral of A(r)^(-2) times the
    running integral of v; both cumulative passes use composite Simpson on
    an internally refined log-uniform grid. The result satisfies
    -(A^2 u')' = v and carries v as its `source`.
    """
    if refine < 1:
        raise ValueError("refine must be at least 1")
    nodes = numerics.log_grid(grid)
    n_fine = (grid.points - 1) * refine + 1
    t_fine = np.linspace(math.log(grid.s_min), math.log(grid.s_max), n_fine)
    if (n_fine - 1) % 2 != 0:
        t_fine = np.linspace(t_fine[0], t_fine[-1], n_fine + 1)
        n_fine += 1
    s_fine = np.exp(t_fine)
    h = t_fine[1] - t_fine[0]
    vals = np.asarray(v(s_fine), dtype=float)
    if np.any(np.isnan(vals)):
        raise numerics.QuadratureError("profile returned NaN on the grid")

    # inner pass: running integral V(r) of v, head treated as flat below the grid
    integrand_in = vals * s_fine
    V = _cumulative_simpson(integrand_in, h)
    V += vals[0] * s_fine[0]

    area = surface_measure(s_fine, sp)
    integrand_out = V * s_fine / area ** 2
    # analytic 1/r^2-type tail beyond the grid (integrand decays like e^-t)
    tail = integrand_out[-1]
    cum_out = _cumulative_simpson(integrand_out, h)
    Tv = tail + (cum_out[-1] - cum_out)

    # Richardson-style discretization estimate: redo the outer pass at
    # double spacing and compare the descending integrals on shared nodes
    half_idx = np.arange(0, n_fine, 2)
    if len(half_idx) % 2 == 0:
        half_idx = half_idx[:-1]
    cum_half = _cumulative_simpson(integrand_out[half_idx], 2.0 * h)
    ref = max(abs(Tv[0]), abs(Tv[n_fine // 2]))
    disc = float(np.max(np.abs(cum_out[half_idx] - cum_half))) / ref
    if disc > 1e-5:
        raise numerics.QuadratureError(
            f"grid too coarse for the inverse Laplacian (estimated error {disc:.2e}); "
            f"increase GridSpec.points")

    coarse = Tv[::refine] if (n_fine - 1) % refine == 0 else np.interp(
        np.log(nodes), t_fine, Tv)
    if len(coarse) != grid.points:
        coarse = np.interp(np.log(nodes), t_fine, Tv)
    prof = sampled_profile(nodes, coarse, nonincreasing=True, source=v)
    prof.fine_nodes = s_fine
    prof.fine_values = Tv
    return prof


def _cumulative_simpson(y, h):
    """Cumulative integral with composite Simpson on a uniform grid.

    Odd intermediate points are filled with the half-panel Simpson rule. On
    an even number of samples the last interval is closed with the
    quadratic through the last three samples.
    """
    n = len(y)
    if n % 2 == 0:
        out = np.empty(n)
        out[:-1] = _cumulative_simpson(y[:-1], h)
        out[-1] = out[-2] + h / 12.0 * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])
        return out
    out = np.zeros(n)
    # two-step Simpson increments
    inc2 = h / 3.0 * (y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    even = np.zeros(len(inc2) + 1)
    even[1:] = np.cumsum(inc2)
    out[::2] = even
    # half-panel values via local quadratic interpolation
    left = h / 12.0 * (5.0 * y[:-2:2] + 8.0 * y[1:-1:2] - y[2::2])
    out[1::2] = out[:-2:2] + left
    return out


def inverse_laplacian_iterates(params: ExtremizerParams, k: int,
                               grid: GridSpec | None = None,
                               refine: int = 4) -> list[RadialProfile]:
    """Iterated inverses of the negative Laplacian applied to the extremizer."""
    if k < 0:
        raise ValueError("iteration order must be nonnegative")
    if grid is None:
        grid = default_grid(params)
    iterates = []
    current = extremizer_profile(params)
    for _ in range(k):
        current = inverse_laplacian(current, params.sp, grid, refine=refine)
        iterates.append(current)
    return iterates


def default_grid(params: ExtremizerParams, points: int = 4096) -> GridSpec:
    return GridSpec(params.s0 * 1e-6, 2.0 * params.R * 1e3, points)


@dataclass(frozen=True)
class SandwichReport:
    w_norm_p: float
    clamp_excess_sup: float
    untouched_fraction: float
    untouched_fraction_window: float
    measured_edge_ratio: float  # iterate value at 2R times R^(1/p)


def sandwich_decomposition(params: ExtremizerParams, iterate: RadialProfile,
                           index: int, s_window=None) -> SandwichReport:
    """Clamp an iterate into the band between the two multiples of the
    extremizer and report the remainder norm and clamping statistics."""
    p, eps = params.p, params.eps
    n = params.sp.n
    c = (p * params.p_conj / (n - 1.0) ** 2) ** index
    nodes = getattr(iterate, "fine_nodes", None)
    values = getattr(iterate, "fine_values", None)
    if nodes is None:
        nodes = np.geomspace(params.s0 * 1e-6, 2 * params.R * 1e3, 4096)
        values = np.asarray(iterate(nodes), dtype=float)
    f = extremizer_profile(params)(nodes)
    upper = c * f
    lower = (1.0 + eps) ** (-2.0 * index) * c * f
    clamped = np.clip(values, lower, upper)
    w = values - clamped
    h = math.log(nodes[1] / nodes[0])
    w_norm_p = _cumulative_simpson(np.abs(w) ** p * nodes, h)[-1] ** (1.0 / p)
    untouched = np.isclose(w, 0.0, atol=0.0)
    if s_window is None:
        s_window = (10.0 * params.s0, params.R / 10.0)
    in_window = (nodes >= s_window[0]) & (nodes <= s_window[1])
    frac_all = float(np.mean(untouched))
    frac_win = float(np.mean(untouched[in_window])) if np.any(in_window) else float("nan")
    edge = float(iterate(np.array([2.0 * params.R]))[0]) * params.R ** (1.0 / p)
    return SandwichReport(w_norm_p, float(np.max(np.abs(w))), frac_all, frac_win, edge)


def second_order_majorant(f: RadialProfile, sp: SpaceParams, p: float,
                          cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> RadialProfile:
    """Majorant of rearranged preimages under the Laplacian: the descending
    integral of t * f**(t) / A(t)^2 built from the running average f** of
    the rearrangement of f."""
    fstar = rearrangement.decreasing_rearrangement(f)
    favg = rearrangement.maximal_function(fstar)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return t * favg(t) / surface_measure(t, sp) ** 2

    support = fstar.support_end()
    bks = [b for b in favg.breakpoints]

    def h_val(s):
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        for i, si in enumerate(s):
            out[i] = numerics.integrate(integrand, float(si), np.inf, cfg,
                                        breakpoints=[b for b in bks if b > si],
                                        tail_decay=2.0 if support is not None else 1.0 + (favg.tail_bound or 0.0))
        return out

    def h_d1(s):
        return -integrand(np.asarray(s, dtype=float))

    edges = [0.0] + sorted(b for b in bks if np.isfinite(b)) + [np.inf]
    segs = [FuncSegment(a, b, h_val, d1=h_d1) for a, b in zip(edges[:-1], edges[1:])]
    return RadialProfile(segs, nonincreasing=True, tail_bound=1.0)
