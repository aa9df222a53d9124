import math

import numpy as np
import pytest

from conftest import random_profile
from hpoincare.cli import _random_profile
from hpoincare.geometry import SpaceParams, ball_volume
from hpoincare.numerics import DomainError, integrate
from hpoincare.profiles import (PowerSegment, RadialProfile, indicator_profile,
                                zero_tail)
from hpoincare.rearrangement import (decreasing_rearrangement,
                                     distribution_function, hardy_check,
                                     maximal_function, radialize)


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

    def test_infinite_support_power_tail(self):
        prof = random_profile(7, compact=False)
        t = np.array([1e-3, 0.1])
        mu = distribution_function(prof, t)
        assert np.all(np.isfinite(mu)) and mu[0] > mu[1]


class TestDecreasingRearrangement:
    def test_tent_closed_form(self):
        vstar = decreasing_rearrangement(tent_profile())
        t = np.linspace(0.05, 1.95, 20)
        assert np.allclose(vstar(t), 1 - t / 2, atol=1e-9)

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


class TestHardy:
    def test_holds_on_random_profiles(self):
        for seed in range(6):
            vstar = decreasing_rearrangement(random_profile(seed))
            for p in (1.5, 2.0, 3.0):
                rep = hardy_check(vstar, p)
                assert rep.holds and rep.ratio < 1.0

    def test_zero_profile_trivial(self):
        prof = RadialProfile([zero_tail(0.0)], nonincreasing=True)
        rep = hardy_check(prof, 2.0)
        assert rep.holds and rep.lhs == 0.0

    def test_p_validation(self):
        with pytest.raises(DomainError):
            hardy_check(indicator_profile(0.0, 1.0), 1.0)

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

    def test_rhs_is_conjugate_multiple(self):
        vstar = indicator_profile(0.0, 1.0)
        rep = hardy_check(vstar, 2.0)
        assert rep.rhs == pytest.approx(2.0 * vstar.lp_power(2.0) ** 0.5, rel=1e-12)


class TestRadialize:
    def test_composition_with_volume_map(self):
        sp = SpaceParams(3)
        vstar = indicator_profile(0.0, 1.0)
        rad = radialize(vstar, sp)
        rho_inside = 0.9 * float(np.atleast_1d(
            ball_volume(np.array([0.3]), sp))[0]) ** 0  # any small rho
        assert rad(np.array([0.1]))[0] == 1.0
        # beyond the radius enclosing unit volume the value drops to 0
        from hpoincare.geometry import radius_for_volume
        rho_out = radius_for_volume(1.5, sp)
        assert rad(np.array([rho_out]))[0] == 0.0

    def test_equimeasurable_in_rho(self):
        # hyperbolic measure of {radialized > t} equals mu(t) by construction
        sp = SpaceParams(2)
        prof = indicator_profile(0.0, 2.0, height=3.0)
        rad = radialize(prof, sp)
        from hpoincare.geometry import radius_for_volume
        rho_edge = radius_for_volume(2.0, sp)
        assert rad(np.array([rho_edge * 0.99]))[0] == 3.0
        assert rad(np.array([rho_edge * 1.01]))[0] == 0.0
