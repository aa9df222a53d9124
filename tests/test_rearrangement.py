import math

import numpy as np
import pytest

from conftest import random_profile
from hpoincare.cli import _random_profile
from hpoincare.extremizers import (ExtremizerParams, averaged_extremizer_profile,
                                   extremizer_profile, inverse_laplacian,
                                   inverse_laplacian_iterates)
from hpoincare.geometry import SpaceParams
from hpoincare.numerics import DomainError, GridSpec, QuadratureError, integrate
from hpoincare.profiles import (FuncSegment, PowerSegment, RadialProfile,
                                constant_profile, indicator_profile, sampled_profile,
                                zero_tail)
from hpoincare import rearrangement as rr
from hpoincare.rearrangement import (_segment_cuts, decreasing_rearrangement,
                                     distribution_function, hardy_check,
                                     maximal_function)


def tent_profile():
    """Rises linearly to 1 at s = 1, falls back to 0 at s = 2."""
    return RadialProfile([PowerSegment(0, 1, [(1.0, 1.0)]),
                          PowerSegment(1, 2, [(2.0, 0.0), (-1.0, 1.0)]),
                          zero_tail(2.0)])


class TestDistributionFunction:
    def test_indicator(self):
        prof = indicator_profile(1.0, 3.0, height=2.0)
        assert distribution_function(prof, 1.0) == pytest.approx(2.0)
        assert distribution_function(prof, 2.5) == 0.0

    def test_tent(self):
        # each level t is exceeded on an interval of length 2(1-t)
        t = np.array([0.25, 0.5, 0.75])
        assert np.allclose(distribution_function(tent_profile(), t), 2 * (1 - t),
                           rtol=1e-9)

    def test_nonpositive_level_rejected(self):
        with pytest.raises(DomainError):
            distribution_function(tent_profile(), 0.0)

    def test_cuts_of_a_quadratic(self):
        # v = 0.5 + 2s - s^2: v' = 0 at 1, v = 0 at 1 + sqrt(1.5); |v| > t on
        # (1 - r, 1 + r) with r = sqrt(1.5 - t) (clipped to [0, 3]), and
        # -v > t beyond 1 + sqrt(1.5 + t)
        seg = PowerSegment(0, 3, [(0.5, 0.0), (2.0, 1.0), (-1.0, 2.0)])
        assert np.allclose(_segment_cuts(seg), [1.0, 1.0 + math.sqrt(1.5)],
                           rtol=0, atol=1e-14)
        t = np.array([0.3, 1.0, 1.4, 2.0])
        r = np.sqrt(np.maximum(1.5 - t, 0.0))
        want = (np.minimum(1 + r, 3) - np.maximum(1 - r, 0) + 3 - (1 + np.sqrt(1.5 + t)))
        got = distribution_function(RadialProfile([seg, zero_tail(3.0)]), t)
        assert np.allclose(got, want, rtol=0, atol=1e-13)

    def test_infinite_support_power_tail(self):
        prof = random_profile(7, compact=False)
        t = np.array([1e-3, 0.1])
        mu = distribution_function(prof, t)
        assert np.all(np.isfinite(mu)) and mu[0] > mu[1]


def exp_profile(start, end):
    """1 on [0, start), then exp(start - s) on [start, end) (a FuncSegment),
    then 0: |v| > y on a set of measure start - ln y while that is < end."""
    exp = lambda s: np.exp(start - s)
    segs = [PowerSegment(0, start, [(1.0, 0.0)])] if start else []
    segs.append(FuncSegment(start, end, exp, lambda s: -exp(s)))
    return RadialProfile(segs + ([] if np.isinf(end) else [zero_tail(end)]), tail_bound=5.0)


class TestGenericPieces:
    # pieces without a closed-form inverse: each level is solved from the
    # cell of a probe grid (finite) or of the x4 rungs (infinite)

    @pytest.mark.parametrize("start", [0.0, 1.0])
    @pytest.mark.parametrize("end", [4.0, np.inf])
    def test_func_segment_closed_form(self, start, end):
        # an infinite piece from s = 0 starts its first cell at 1e-15 of the
        # first rung; from inf * 1e-15 it read 1, 4, 16 at the first levels
        y = np.array([0.5, 0.1, 1e-3, 0.03, 1e-9])
        got = distribution_function(exp_profile(start, end), y)
        assert np.allclose(got, np.minimum(start - np.log(y), end), rtol=1e-14, atol=1e-13)

    def test_sampled_segment_closed_form(self):
        # v = 2 - ln(s) / 2 on log-uniform nodes over [1, 10], which the
        # monotone cubic reproduces to rounding; 2 below s = 1, v(10) 10/s beyond
        nodes = np.geomspace(1.0, 10.0, 33)
        prof = sampled_profile(nodes, 2.0 - 0.5 * np.log(nodes))
        end = 10.0 * (2.0 - 0.5 * math.log(10.0))
        y = np.array([1.9, 1.5, 1.0, 0.8, 0.1])
        want = np.where(y > end / 10.0, np.exp(2.0 * (2.0 - y)), end / y)
        assert np.allclose(distribution_function(prof, y), want, rtol=1e-12, atol=0)

    def test_rungs_share_calls(self, monkeypatch):
        # 1/s from s = 1 crosses 1e-9 past the 15th rung 2 * 4^14: the rungs
        # take two calls of the segment before the Illinois iteration starts
        calls = []
        prof = RadialProfile([PowerSegment(0, 1, [(1.0, 0.0)]),
                              FuncSegment(1, np.inf, lambda s: calls.append(1) or 1.0 / s,
                                          lambda s: -1.0 / s ** 2)], tail_bound=1.0)
        distribution_function(prof, 0.5)  # the monotone pieces, once per profile
        calls.clear()
        started = []
        illinois = rr.illinois
        monkeypatch.setattr(rr, "illinois", lambda *a: started.append(len(calls)) or illinois(*a))
        assert distribution_function(prof, 1e-9) == pytest.approx(1e9, rel=1e-14)
        assert len(started) == 1 and started[0] <= 2

    def test_tail_ramp_measure_calls(self, monkeypatch):
        # on the ramp of f* from 1.1 down to the floor 2e-18, f* = 2 5^1.5 s^-1.5
        # from one cell of the sampled table: at most 10 calls of mu per value
        table = decreasing_rearrangement(jump_power_tail(1.0)).segments[-1].fn
        calls = []
        measure = rr._measure_above
        monkeypatch.setattr(rr, "_measure_above", lambda v, y: calls.append(1) or measure(v, y))
        for y in (1.0, 1e-3, 1e-8, 1e-15):
            s = (2 * 5 ** 1.5 / y) ** (2 / 3)
            calls.clear()
            assert table(np.array([s]))[0] == pytest.approx(y, rel=1e-13)
            assert len(calls) <= 10


class TestInfinitePieces:
    # an infinite piece ends at the limit of its segment

    def test_constant_tail_has_infinite_superlevel_sets(self):
        assert distribution_function(constant_profile(1.0), 0.5) == np.inf
        assert distribution_function(constant_profile(1.0), 1.0) == 0.0

    def test_negative_constant_rearrangement_raises(self):
        with pytest.raises(QuadratureError, match="infinite measure"):
            decreasing_rearrangement(constant_profile(-1.0))

    def test_decaying_power_tail_unchanged(self):
        prof = RadialProfile([PowerSegment(0, 1, [(2.0, 0.0)]),
                              PowerSegment(1, np.inf, [(1.0, -0.5)])], tail_bound=0.5)
        mu = distribution_function(prof, np.array([0.5, 1.5, 3.0, 0.01]))
        assert np.array_equal(mu, [4.0, 1.0, 0.0, 1e4])
        assert decreasing_rearrangement(prof) is prof


class TestDecreasingRearrangement:
    def test_tent_closed_form(self):
        vstar = decreasing_rearrangement(tent_profile())
        t = np.linspace(0.05, 1.95, 20)
        assert np.allclose(vstar(t), 1 - t / 2, atol=1e-9)

    def test_piece_from_zero_starts_at_v0(self):
        # an affine piece rising from v(0) to v(b-) on [0, b), then a lower
        # constant: f* falls from v(b-) to v(0) on [0, b), with no plateau
        prof = random_profile(27)
        rise, step = prof.segments[:2]
        v0 = float(rise.value(np.array([0.0]))[0])
        vb = float(rise.value(np.array([rise.s_hi]))[0])
        vstar = decreasing_rearrangement(prof)
        plateaus = [seg.terms[0][0] for seg in vstar.segments
                    if isinstance(seg, PowerSegment) and not seg.is_zero()]
        assert not [c for c in plateaus if step.terms[0][0] < c < vb]
        assert vstar(np.nextafter(rise.s_hi, 0.0)) == pytest.approx(v0, rel=1e-13)

    def test_unbounded_profile_rejected(self):
        prof = RadialProfile([PowerSegment(0, 1, [(1.0, -0.5)]),
                              PowerSegment(1, 2, [(0.5, 0.0)]), zero_tail(2.0)])
        with pytest.raises(QuadratureError, match="unbounded"):
            decreasing_rearrangement(prof)

    def test_idempotent_on_nonincreasing(self):
        prof = indicator_profile(0.0, 2.0)
        assert decreasing_rearrangement(prof) is prof

    def test_equimeasurable(self):
        for seed in range(8):
            prof = random_profile(seed)
            vstar = decreasing_rearrangement(prof)
            sup = np.max(np.abs(prof(np.linspace(1e-6, 13, 4000))))
            levels = np.geomspace(sup * 1e-3, sup * 0.999, 25)
            mu_orig = distribution_function(prof, levels)
            mu_star = distribution_function(vstar, levels)
            scale = np.maximum(mu_orig, 1e-12)
            assert np.all(np.abs(mu_orig - mu_star) / scale <= 1e-7)

    def test_no_sliver_segments(self):
        # break intervals a few ulp wide (rounding noise of mu, most at
        # s = 0 below sup) join a neighbour, and f* stays equimeasurable
        for seed in range(50):
            prof = random_profile(seed)
            vstar = decreasing_rearrangement(prof)
            support = vstar.support_end()
            widths = [seg.s_hi - seg.s_lo for seg in vstar.segments[:-1]]
            assert min(widths) > 1e-12 * support, seed
            sup = float(np.max(prof(np.linspace(1e-6, 13, 2000))))
            levels = np.geomspace(sup * 1e-2, sup * 0.995, 12)
            mu = distribution_function(prof, levels)
            assert np.all(np.abs(distribution_function(vstar, levels) - mu)
                          <= 1e-8 * np.maximum(mu, 1e-8)), seed

    def test_narrow_top_step(self):
        # plateaus of width 1e-10, on top and just below a ramp: each is kept
        # as a segment of its own, however narrow against the support
        w = 1e-10
        steps = RadialProfile([PowerSegment(0, 500, [(1.0, 0.0)]),
                               PowerSegment(500, 500 + w, [(100.0, 0.0)]),
                               PowerSegment(500 + w, 1000, [(1.0, 0.0)]), zero_tail(1000.0)])
        ramp = RadialProfile([PowerSegment(0, 1, [(3.0, 0.0), (-1.0, 1.0)]),
                              PowerSegment(1, 1 + w, [(2.5, 0.0)]),
                              PowerSegment(1 + w, 2, [(1.0, 0.0)]), zero_tail(2.0)])
        # integrals of |v|^4, with the step widths as stored
        w_steps, w_ramp = (500 + w) - 500, (1 + w) - 1
        mass = {steps: 1000 - w_steps + 100.0 ** 4 * w_steps,
                ramp: (3 ** 5 - 2 ** 5) / 5 + 2.5 ** 4 * w_ramp + 1 - w_ramp}
        for prof, top in ((steps, 100.0), (ramp, 3.0)):
            vstar = decreasing_rearrangement(prof)
            levels = np.array([0.5, 1.5, 2.4, 50.0, 0.9 * top])
            mu = distribution_function(prof, levels)
            assert np.all(np.abs(distribution_function(vstar, levels) - mu) <= 1e-8 * mu)
            assert vstar(np.array([0.0]))[0] == top
            assert vstar.lp_power(4.0) == pytest.approx(mass[prof], rel=1e-10)

    def test_nonincreasing_output(self):
        vstar = decreasing_rearrangement(random_profile(3))
        t = np.linspace(1e-4, 15, 500)
        vals = vstar(t)
        assert np.all(np.diff(vals) <= 1e-10)

    def test_preserves_lp_norm(self):
        prof = random_profile(11)
        vstar = decreasing_rearrangement(prof)
        assert vstar.lp_power(2.0) == pytest.approx(prof.lp_power(2.0), rel=1e-6)

    def test_plateaus_exact(self):
        # 0.7 on [0, 2), a ramp from 0.2 to 3 on [2, 4), 1.3 on [4, 5.5):
        # f* falls from 3 to 1.3 on [0, 17/14), stays 1.3 up to 38/14, falls
        # to 0.7 at 44/14, stays 0.7 up to 72/14 and falls to 0.2 at 5.5
        prof = RadialProfile([PowerSegment(0, 2, [(0.7, 0.0)]),
                              PowerSegment(2, 4, [(-2.6, 0.0), (1.4, 1.0)]),
                              PowerSegment(4, 5.5, [(1.3, 0.0)]),
                              zero_tail(5.5)])
        vstar = decreasing_rearrangement(prof)
        assert np.all(vstar(np.linspace(17 / 14, 38 / 14, 50)[1:-1]) == 1.3)
        assert np.all(vstar(np.linspace(44 / 14, 72 / 14, 50)[1:-1]) == 0.7)
        t = np.linspace(0.0, 17 / 14, 20)[:-1]
        assert np.allclose(vstar(t), 3.0 - 1.4 * t, rtol=1e-13)
        t = np.linspace(72 / 14, 5.5, 20)[1:-1]
        assert np.allclose(vstar(t), 0.7 - 1.4 * (t - 72 / 14), rtol=1e-12)

    @pytest.mark.parametrize("compact", [True, False])
    def test_running_integral_matches_quadrature(self, compact):
        # the layer-cake primitive against adaptive quadrature of f* itself
        for seed in range(4):
            vstar = decreasing_rearrangement(random_profile(seed, compact=compact))
            for s in (0.3, 2.0, 7.5, 30.0):
                want = integrate(vstar, 0.0, s,
                                 breakpoints=[b for b in vstar.breakpoints if b < s])
                assert vstar.running_integral(s) == pytest.approx(want, rel=1e-9)


def signed_source_iterate():
    """Inverse Laplacian of 1 on [0, 1), -2 on [1, 2): from 0.0177 at s = 0
    it falls through 0 to -0.0495 near s = 1.5, then rises back towards 0."""
    v = RadialProfile([PowerSegment(0, 1, [(1.0, 0.0)]),
                       PowerSegment(1, 2, [(-2.0, 0.0)]), zero_tail(2.0)])
    return inverse_laplacian(v, SpaceParams(3), GridSpec(1e-6, 1e4, 4096))


class TestOwnRearrangement:
    """A profile is its own rearrangement when its monotone pieces show it
    >= 0 and never rising from s = 0; no caller declares it."""

    def test_signed_iterate_distribution(self):
        it = signed_source_iterate()
        seg = it.segments[1]
        x, y = seg.nodes, np.abs(seg.values)
        for t in (0.02476, 0.04456):
            # the two ends of {|it| > t}, interpolated linearly between nodes
            i = np.flatnonzero(np.diff(y > t))
            ends = x[i] + (t - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i])
            assert ends.size == 2
            assert distribution_function(it, t) == pytest.approx(ends[1] - ends[0], rel=1e-4)

    def test_signed_iterate_rearranged(self):
        it = signed_source_iterate()
        vstar = decreasing_rearrangement(it)
        assert np.all(vstar(np.geomspace(1e-6, 1e4, 200)) >= 0)
        sup = float(np.max(np.abs(it.segments[1].values)))
        levels = np.geomspace(sup * 1e-2, sup * 0.99, 10)
        mu = distribution_function(it, levels)
        assert np.all(np.abs(distribution_function(vstar, levels) - mu) <= 1e-7 * mu)

    def test_descending_steps(self):
        prof = RadialProfile([PowerSegment(0, 1, [(2.0, 0.0)]),
                              PowerSegment(1, 3, [(0.5, 0.0)]), zero_tail(3.0)])
        assert decreasing_rearrangement(prof) is prof

    def test_gap_or_sign_is_rearranged(self):
        # |v| never rises on its pieces, but v < 0, or v = 0 between them
        negative = RadialProfile([PowerSegment(0, 1, [(-1.0, 0.0)]), zero_tail(1.0)])
        gap = RadialProfile([PowerSegment(0, 1, [(1.0, 0.0)]), PowerSegment(1, 2, ()),
                             PowerSegment(2, 3, [(1.0, 0.0)]), zero_tail(3.0)])
        for prof, support in ((negative, 1.0), (gap, 2.0)):
            vstar = decreasing_rearrangement(prof)
            assert vstar is not prof
            assert vstar.support_end() == support
            assert vstar(0.5) == 1.0

    def test_rise_beyond_the_slack(self):
        prof = RadialProfile([PowerSegment(0, 1, [(1.0, 0.0)]),
                              PowerSegment(1, 2, [(1.0 + 1e-12, 0.0)]), zero_tail(2.0)])
        vstar = decreasing_rearrangement(prof)
        assert vstar is not prof
        assert vstar(0.0) == 1.0 + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_extremizer_family(self, n):
        # closed forms round up at segment joins: at n = 8, p = 6 the ramp
        # starts about 8 ulp of R^(-1/p) above the power piece, within the
        # slack of 4 ulp of the sup s0^(-1/p)
        for p in (1.2, 1.5, 2.0, 3.0, 6.0):
            for log_ratio in (10.0, 20.0, 40.0):
                params = ExtremizerParams.create(SpaceParams(n), p, 0.05, log_ratio)
                for prof in (extremizer_profile(params), averaged_extremizer_profile(params)):
                    assert decreasing_rearrangement(prof) is prof, (p, log_ratio)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 6.0])
    def test_first_iterate(self, p):
        params = ExtremizerParams.create(SpaceParams(3), p, 0.05, 10.0)
        it = inverse_laplacian_iterates(params, 1)[0]
        assert decreasing_rearrangement(it) is it


class TestMaximalFunction:
    def test_indicator_closed_form(self):
        # f* = 1 on [0,1): f** = 1 on [0,1), 1/s after
        mf = maximal_function(indicator_profile(0.0, 1.0))
        s = np.array([0.5, 1.0, 4.0])
        assert np.allclose(mf(s), [1.0, 1.0, 0.25], rtol=1e-12)

    def test_dominates_vstar(self):
        for seed in (0, 5, 9):
            vstar = decreasing_rearrangement(random_profile(seed))
            mf = maximal_function(vstar)
            t = np.geomspace(1e-3, 20, 200)
            # domination up to the bisection resolution of the rearrangement
            assert np.all(mf(t) >= vstar(t) * (1 - 1e-7))

    def test_non_integrable_head_rejected(self):
        prof = RadialProfile([PowerSegment(0, 1, [(1.0, -1.0)]), zero_tail(1.0)])
        with pytest.raises(Exception):
            maximal_function(prof)

    @pytest.mark.filterwarnings("error")
    def test_limit_at_zero(self):
        # the average over [0, s] tends to vstar(0), not 0/0
        assert maximal_function(indicator_profile(0.0, 1.0))(0.0) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_derivative_limit_at_zero(self):
        # (vstar(s) - f**(s)) / s tends to vstar'(0) / 2, not 0/0
        assert maximal_function(indicator_profile(0.0, 1.0)).derivative(0.0) == 0.0
        ramp = RadialProfile([PowerSegment(0, 1, [(2.0, 0.0), (-1.0, 1.0)]),
                              PowerSegment(1, 2, [(1.0, 0.0)]), zero_tail(2.0)])
        mf = maximal_function(ramp)
        assert mf.derivative(0.0) == -0.5
        assert mf.derivative(np.array([0.0, 1e-6])) == pytest.approx([-0.5, -0.5], rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_derivative_of_rearranged_profile_exact(self):
        # v = 2 - s on [0, 1), 0.5 + 0.25 s on [1, 3): f* falls with slope
        # -1 from 2 to 1.25 (mu = 0.75), then -1/(1 + 4) while both pieces
        # cross the level, to 1 (mu = 2), then -1/4 down to 0.5 (mu = 4).
        # The derivative is 1/mu' exactly, also at s = 0 and at the breaks
        v = RadialProfile([PowerSegment(0, 1, [(2.0, 0.0), (-1.0, 1.0)]),
                           PowerSegment(1, 3, [(0.5, 0.0), (0.25, 1.0)]), zero_tail(3.0)])
        vstar = decreasing_rearrangement(v)
        s = np.array([0.0, 1e-3, 0.5, 0.8, 1.2, 2.0, 2.9])
        assert vstar.derivative(s).tolist() == [-1.0] * 3 + [-0.2] * 2 + [-0.25] * 2
        assert maximal_function(vstar).derivative(0.0) == -0.5


def jump_power_tail(c):
    """1.1c on [0, 5), then 2c 5^1.5 s^-1.5, which jumps up at 5: integral 25.5c."""
    return RadialProfile([PowerSegment(0, 5, [(1.1 * c, 0.0)]),
                          PowerSegment(5, np.inf, [(2 * c * 5 ** 1.5, -1.5)])], tail_bound=1.5)


# ||f**||_p / (p' ||f*||_p) for jump_power_tail, whose f* and f** are closed
# forms in s (a shifted power, the plateau 1.1, the power), at 30 digits
JUMP_POWER_TAIL_RATIO = {1.5: 0.83065546902986155, 2.0: 0.84890864716971608,
                         3.0: 0.89273559569494146}


class TestHardy:
    def test_holds_on_random_profiles(self):
        for seed in range(6):
            vstar = decreasing_rearrangement(random_profile(seed))
            for p in (1.5, 2.0, 3.0):
                rep = hardy_check(vstar, p)
                assert rep.holds and rep.ratio < 1.0

    def test_zero_profile_trivial(self):
        prof = RadialProfile([zero_tail(0.0)])
        rep = hardy_check(prof, 2.0)
        assert rep.holds and rep.lhs == 0.0

    def test_p_validation(self):
        with pytest.raises(DomainError):
            hardy_check(indicator_profile(0.0, 1.0), 1.0)

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_non_finite_p_rejected(self, p):
        # NaN passed the p <= 1 check and ended as a "divergent" L^p norm
        with pytest.raises(DomainError, match="finite"):
            hardy_check(indicator_profile(0.0, 1.0), p)

    def test_lhs_matches_closed_form(self):
        # For a step function, f** = h + b/s on the k-th step of f*, with
        # h the k-th largest height and b = (mass before the step) - h *
        # (start of the step). At p = 3/2 the substitution v = s/(s + b/h),
        # w = sqrt(v) turns the integral of (h + b/s)^p into h^p (b/h) [F(w)],
        # F(w) = 2 (-1/w + 3/2 atanh(w) + w / (2 (1 - w^2))); beyond the
        # support f** = mass/s.
        p = 1.5
        prof = _random_profile(3 * 7919)
        steps = sorted(((seg.terms[0][0], seg.s_hi - seg.s_lo)
                        for seg in prof.segments if not seg.is_zero()), reverse=True)
        F = lambda w: 2.0 * (-1.0 / w + 1.5 * math.atanh(w) + 0.5 * w / (1.0 - w * w))
        (h0, length0), rest = steps[0], steps[1:]
        total, start, mass = h0 ** p * length0, length0, h0 * length0
        for h, length in rest:
            beta = mass / h - start
            w0, w1 = (math.sqrt(x / (x + beta)) for x in (start, start + length))
            total += h ** p * beta * (F(w1) - F(w0))
            start, mass = start + length, mass + h * length
        total += mass ** p * start ** (1.0 - p) / (p - 1.0)
        rep = hardy_check(decreasing_rearrangement(prof), p)
        assert rep.lhs == pytest.approx(total ** (1.0 / p), rel=1e-12)
        assert rep.lhs == pytest.approx(15.91456955317857, rel=1e-12)

    def test_power_tail_closed_form(self):
        # 2 on [0, 1), 2 s^-1.5 beyond: ||f||_3^3 = 72/7, and the running
        # average 2, then (6 - 4 s^-0.5)/s, has ||f**||_3^3 = 146.4/7
        prof = RadialProfile([PowerSegment(0, 1, [(2.0, 0.0)]),
                              PowerSegment(1, np.inf, [(2.0, -1.5)])], tail_bound=1.5)
        rep = hardy_check(decreasing_rearrangement(prof), 3.0)
        assert rep.lhs == pytest.approx((146.4 / 7) ** (1 / 3), rel=1e-9)
        assert rep.rhs == pytest.approx(1.5 * (72 / 7) ** (1 / 3), rel=1e-9)

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_ratio_independent_of_scale(self, p, c):
        # f* vanishes beyond mu(sup * 1e-18), so its primitive stops growing
        # there, and the tail of f** is summed to a floor relative to itself
        fstar = decreasing_rearrangement(jump_power_tail(c))
        assert fstar.running_integral(1e30) <= 25.5 * c
        rep = hardy_check(fstar, p)
        assert rep.holds
        assert rep.ratio == pytest.approx(JUMP_POWER_TAIL_RATIO[p], rel=0.0, abs=1e-10)

    def test_rhs_is_conjugate_multiple(self):
        vstar = indicator_profile(0.0, 1.0)
        rep = hardy_check(vstar, 2.0)
        assert rep.rhs == pytest.approx(2.0 * vstar.lp_power(2.0) ** 0.5, rel=1e-12)
