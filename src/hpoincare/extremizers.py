"""The extremizing machinery for the sharp-constant study.

The compactly supported plateau/power/ramp family, its explicit running
average, the grid-based inverse Laplacian in the volume coordinate, its
iterates, the sandwich decomposition check, and the second-order majorant
built from the running average of the rearranged source.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .geometry import SpaceParams, radius_for_volume, surface_measure, volume_ratios
from .numerics import GridSpec
from .profiles import (FuncSegment, PowerSegment, RadialProfile, SampledSegment,
                       sampled_profile, zero_tail)


def area_ratio(s, sp: SpaceParams):
    """A(s) / ((n-1) s): at least 1, tends to 1 as s grows."""
    s = np.asarray(s, dtype=float)
    return surface_measure(s, sp) / ((sp.n - 1) * s)


@functools.cache
def select_s0(sp: SpaceParams, eps: float) -> float:
    """Least node of a log grid from 1e-3 above which the area ratio stays
    within 1+eps.

    The grid first has 600 nodes up to 1e9. Where no suffix of it is within
    the bound (n >= 11 at eps = 0.01), it keeps its node ratio and doubles
    its number of steps, reaching 1e21, 1e45 and 1e93; the next doubling
    would pass 1e150, so ValueError when no suffix of the 1e93 grid is
    within the bound. Memoized per (sp, eps); a call that raises is not.
    """
    # where 1 + eps rounds to 1, a ratio rounded to 1 far out would pass
    if not 1.0 + eps > 1.0:
        raise ValueError("eps must be positive and 1 + eps must exceed 1 in floating point")
    steps = 599
    while -3 + 12 * steps / 599 <= 150:
        grid = np.geomspace(1e-3, 10.0 ** (-3 + 12 * steps / 599), steps + 1)
        suffix_max = np.maximum.accumulate(area_ratio(grid, sp)[::-1])[::-1]
        ok = suffix_max <= 1.0 + eps
        if np.any(ok):
            return float(grid[np.argmax(ok)])
        steps *= 2
    raise ValueError("probe grid too short to certify the area-ratio bound")


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
        if not math.isfinite(2.0 * self.R):
            raise ValueError("the support end 2R must be finite")

    @property
    def p_conj(self):
        return self.p / (self.p - 1.0)

    @classmethod
    def create(cls, sp: SpaceParams, p: float, eps: float,
               log_ratio: float) -> "ExtremizerParams":
        """Pick s0 for the given eps and set R = s0 * exp(log_ratio)."""
        s0 = select_s0(sp, eps)
        return cls(eps=eps, s0=s0, R=support_radius(s0, log_ratio), p=p, sp=sp)


def support_radius(s0: float, log_ratio: float) -> float:
    """R = s0 e^L; DomainError naming L where the support end 2R overflows."""
    try:
        R = s0 * math.exp(log_ratio)
    except OverflowError:  # e^L alone is beyond the float range
        R = math.inf
    if 2.0 * R == math.inf:
        raise numerics.DomainError(f"log ratio {log_ratio}: the support end 2R = 2 s0 e^L "
                                   f"overflows at s0 = {s0!r}")
    return R


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
    return RadialProfile(segs, tail_bound=np.inf)


def extremizer_lp_mass(params: ExtremizerParams) -> float:
    """Closed form of the p-th power of the L^p norm of the extremizer:
    1 + ln(R/s0) + 1/(p+1)."""
    return 1.0 + math.log(params.R / params.s0) + 1.0 / (params.p + 1.0)


def averaged_extremizer_profile(params: ExtremizerParams) -> RadialProfile:
    """Running average of the extremizer profile in closed form, by segment."""
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
    return RadialProfile(segs, tail_bound=1.0)


# fine-grid steps per step of the GridSpec in the inverse Laplacian: a
# multiple of 4, so that the fine grid and its every-other-node subgrid (of
# the Richardson check and the L^p mass check) have the odd node count of Simpson
_REFINE = 4


@functools.lru_cache(maxsize=1)
def _fine_grid(grid: GridSpec, sp: SpaceParams):
    """The grid refined _REFINE times, uniform in sigma = ln(e^rho - 1), kept
    read-only: its volumes s, step in sigma, Simpson weights ds/dsigma =
    A drho/dsigma = A (1 - e^-rho) and sphere areas A. Only the ends are inverted."""
    rho_ends = radius_for_volume(np.array([grid.s_min, grid.s_max]), sp)
    sigma_ends = rho_ends + np.log(-np.expm1(-rho_ends))
    sigma = np.linspace(sigma_ends[0], sigma_ends[1], (grid.points - 1) * _REFINE + 1)
    rho = np.logaddexp(0.0, sigma)
    # in place, into g and rho: a freed temporary this large faults in again
    s, area = volume_ratios(rho, 1.0, sp)
    np.divide(s, area, out=area)
    weights = np.negative(np.expm1(np.negative(rho, out=rho), out=rho), out=rho)
    weights *= area
    s.flags.writeable = weights.flags.writeable = area.flags.writeable = False
    return s, sigma[1] - sigma[0], weights, area


def _inverse_pass(vals, grid, source=None):
    """Sampled inverse of the negative Laplacian of the source sampled as vals
    on the fine grid; QuadratureError where the source is NaN, a pass
    overflows or the Richardson estimate exceeds 1e-5."""
    s, h, weights, area = grid
    if np.any(np.isnan(vals)):
        raise numerics.QuadratureError("profile returned NaN on the grid")
    # a non-finite result is raised below, so numpy's warnings in the
    # passes would only repeat it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # inner pass: running integral V of v, in closed form for power sums
        # (whose kinks fall between nodes), else Simpson, flat below the grid
        if source is not None and all(isinstance(seg, PowerSegment) for seg in source.segments):
            V = np.asarray(source.running_integral(s), float)
        else:
            V = numerics.cumulative_simpson(vals * weights, h)
            V += vals[0] * s[0]

        integrand_out = V * weights / area ** 2
        # analytic 1/r^2-type tail beyond the grid, V s / A^2 at the last node
        tail = V[-1] * s[-1] / area[-1] ** 2
        # the descending integral is summed from the top: as the difference of
        # two ascending sums it would lose as many digits as it is orders of
        # magnitude below the integral over the whole grid
        desc = numerics.cumulative_simpson(integrand_out[::-1], h)[::-1]
        Tv = tail + desc

        # Richardson-style discretization estimate: redo the descending pass on
        # every other node (an odd count: from the top one) and compare there
        desc_half = numerics.cumulative_simpson(integrand_out[::-2], 2.0 * h)[::-1]
        ref = max(abs(Tv[0]), abs(Tv[s.size // 2]))
        disc = float(np.max(np.abs(desc[::2] - desc_half)))
        disc = disc / ref if disc else 0.0  # the inverse of v = 0 is exactly 0
    if not np.all(np.isfinite(Tv)):
        raise numerics.QuadratureError("the inverse Laplacian overflowed on the grid")
    if not disc <= 1e-5:
        raise numerics.QuadratureError(
            f"grid too coarse for the inverse Laplacian (estimated error {disc:.2e}); "
            f"increase GridSpec.points")
    return sampled_profile(s, Tv, h, weights)


def inverse_laplacian(v: RadialProfile, sp: SpaceParams, grid: GridSpec) -> RadialProfile:
    """Radial inverse of the negative Laplacian in the volume coordinate.

    The descending integral of A(r)^(-2) times the running integral of v (in
    closed form where v is all power sums), by Simpson in sigma = ln(e^rho - 1)
    on the grid refined _REFINE times, summed from its top. The result, which
    satisfies -(A^2 u')' = v, is the sampled profile of every fine node;
    QuadratureError where a pass overflows or the Richardson estimate exceeds 1e-5.
    """
    fine = _fine_grid(grid, sp)
    return _inverse_pass(np.asarray(v(fine[0]), float), fine, v)


def inverse_laplacian_iterates(params: ExtremizerParams, k: int) -> list[RadialProfile]:
    """Iterated inverses of the negative Laplacian of the extremizer on the
    default grid: inverse_laplacian, then passes on the samples of the last."""
    if k < 0:
        raise ValueError("iteration order must be nonnegative")
    grid = default_grid(params)
    iterates = [inverse_laplacian(extremizer_profile(params), params.sp, grid)] if k else []
    for _ in range(k - 1):
        iterates.append(_inverse_pass(iterates[-1].segments[1].values,
                                      _fine_grid(grid, params.sp)))
    return iterates


def default_grid(params: ExtremizerParams) -> GridSpec:
    """4096 nodes from s0 * 1e-6 to 2R * 1e3; the inverse Laplacian refines
    them four times, uniform in sigma = ln(e^rho - 1)."""
    return GridSpec(params.s0 * 1e-6, 2.0 * params.R * 1e3, 4096)


@dataclass(frozen=True)
class SandwichReport:
    w_norm_p: float
    untouched_fraction_window: float


def sandwich_decomposition(params: ExtremizerParams, iterate: RadialProfile,
                           index: int) -> SandwichReport:
    """Clamp an iterate into the band between the two multiples of the
    extremizer and report the remainder norm and the fraction of nodes in
    the window [10 s0, R/10] that the clamp leaves untouched."""
    p, eps = params.p, params.eps
    n = params.sp.n
    c = (p * params.p_conj / (n - 1.0) ** 2) ** index
    segs = iterate.segments
    if len(segs) != 3 or not isinstance(segs[1], SampledSegment):
        raise ValueError("sandwich_decomposition needs an iterate from inverse_laplacian, "
                         "whose middle segment holds its fine-grid nodes and values")
    seg = segs[1]
    nodes, values = seg.nodes, seg.values
    f = extremizer_profile(params)(nodes)
    upper = c * f
    lower = (1.0 + eps) ** (-2.0 * index) * c * f
    clamped = np.clip(values, lower, upper)
    w = values - clamped
    w_norm_p = numerics.cumulative_simpson(np.abs(w) ** p * seg.weights, seg.step)[-1] ** (1.0 / p)
    in_window = (nodes >= 10.0 * params.s0) & (nodes <= params.R / 10.0)
    frac_win = float(np.mean(w[in_window] == 0.0)) if np.any(in_window) else float("nan")
    return SandwichReport(w_norm_p, frac_win)


def second_order_majorant(f: RadialProfile, sp: SpaceParams) -> RadialProfile:
    """Majorant of rearranged preimages under the Laplacian: the descending
    integral of t * f**(t) / A(t)^2 built from the running average f** of
    the rearrangement of f."""
    from . import rearrangement  # the one user here; sweeps need not load it

    fstar = rearrangement.decreasing_rearrangement(f)
    favg = rearrangement.maximal_function(fstar)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return t * favg(t) / surface_measure(t, sp) ** 2

    support = fstar.support_end()
    bks = favg.breakpoints

    def h_val(s):
        s = np.asarray(s, dtype=float)
        return numerics.integrate(lambda t, i: integrand(t), s.ravel(), np.inf, breakpoints=bks,
                                  tail_decay=2.0 if support is not None
                                  else 1.0 + (favg.tail_bound or 0.0)).reshape(s.shape)

    def h_d1(s):
        return -integrand(np.asarray(s, dtype=float))

    edges = [0.0] + sorted(b for b in bks if np.isfinite(b)) + [np.inf]
    segs = [FuncSegment(a, b, h_val, d1=h_d1) for a, b in zip(edges[:-1], edges[1:])]
    return RadialProfile(segs, tail_bound=1.0)
