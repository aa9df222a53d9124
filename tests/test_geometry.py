import decimal
import itertools
import math
import re

import numpy as np
import pytest

from hpoincare import geometry
from hpoincare.extremizers import ExtremizerParams, default_grid
from hpoincare.geometry import (SpaceParams, ball_volume, laplacian_volume_coord,
                                radial_laplacian_geodesic, radius_for_volume,
                                sphere_area_of_radius, surface_measure, unit_ball_volume,
                                volume_ratios)
from hpoincare.numerics import DomainError, batched_gauss, integrate
from hpoincare.profiles import PowerSegment, RadialProfile


class TestSpaceParams:
    def test_omega_values(self):
        assert SpaceParams(2).omega_n == pytest.approx(math.pi, rel=1e-15)
        assert SpaceParams(3).omega_n == pytest.approx(4 * math.pi / 3, rel=1e-15)

    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            SpaceParams(1)

    def test_unit_ball_volume_recursion(self):
        # omega_n = omega_{n-2} * 2 pi / n
        for n in range(4, 12):
            assert unit_ball_volume(n) == pytest.approx(
                unit_ball_volume(n - 2) * 2 * math.pi / n, rel=1e-13)


def _binomial_volume(rho, sp):
    """|S^(n-1)| 2^(1-n) (sum over a != 0 of c (e^(a rho) - 1) / a + c_0 rho),
    the ball volume from the expansion 2^(n-1) sinh^(n-1) r = sum c e^(a r),
    summed in 50-digit decimal."""
    n = sp.n
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        r = decimal.Decimal(float(rho))
        total = decimal.Decimal(0)
        for k in range(n):
            a, c = n - 1 - 2 * k, (-1) ** k * math.comb(n - 1, k)
            total += c * r if a == 0 else c * ((a * r).exp() - 1) / a
        return float(decimal.Decimal(sp.sphere_area) * total / 2 ** (n - 1))


class TestBallVolume:
    def test_zero(self):
        assert ball_volume(0.0, SpaceParams(3)) == 0.0

    def test_closed_form_n2(self):
        sp = SpaceParams(2)
        rho = np.linspace(0.01, 10.0, 50)
        want = 2 * math.pi * (np.cosh(rho) - 1)
        assert np.allclose(ball_volume(rho, sp), want, rtol=1e-10)

    def test_closed_form_n3(self):
        sp = SpaceParams(3)
        rho = np.linspace(0.01, 10.0, 50)
        want = math.pi * (np.sinh(2 * rho) - 2 * rho)
        assert np.allclose(ball_volume(rho, sp), want, rtol=1e-10)

    def test_against_quadrature(self):
        for n in (2, 3, 4, 5):
            sp = SpaceParams(n)
            for rho in (0.3, 1.0, 4.0):
                direct = integrate(lambda r: np.sinh(r) ** (n - 1), 0.0, rho)
                assert ball_volume(rho, sp) == pytest.approx(
                    sp.sphere_area * direct, rel=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            ball_volume(-1.0, SpaceParams(3))

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_matches_50_digit_binomial_sum(self, n):
        # just above rho = 1 the binomial terms cancel, and near the top of
        # the float range sinh^(n-1) rho is formed in binary pieces
        sp = SpaceParams(n)
        rho = np.concatenate([np.linspace(1.0, 1.6, 60), np.linspace(300.0, 700.0, 60) / (n - 1)])
        want = np.array([_binomial_volume(r, sp) for r in rho])
        assert np.max(np.abs(ball_volume(rho, sp) / want - 1.0)) <= 5e-15

    def test_strictly_increasing(self):
        sp = SpaceParams(4)
        rho = np.geomspace(1e-6, 50.0, 200)
        assert np.all(np.diff(ball_volume(rho, sp)) > 0)


class TestSinhPowerPrimitive:
    # the integral of sinh^(n-1) over [0, rho] is the q of volume_ratios at
    # s = |S^(n-1)|

    @pytest.mark.parametrize("n", range(2, 17))
    def test_series_matches_gauss_panel(self, n):
        # below rho = 1 the power series replaces a 32-point Gauss panel
        sp = SpaceParams(n)
        rho = np.geomspace(1e-8, np.nextafter(1.0, 0.0), 400)
        want = batched_gauss(lambda r: np.sinh(r) ** (n - 1), np.zeros_like(rho), rho, 32)
        got = volume_ratios(rho, sp.sphere_area, sp)[0]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_branches_meet_at_one(self, n):
        # the series just below 1 and the recurrence from 1 on
        below, at = volume_ratios(np.array([np.nextafter(1.0, 0.0), 1.0]), 1.0, SpaceParams(n))[0]
        assert abs(at / below - 1.0) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_order_of_radii_does_not_matter(self, n):
        # ascending radii on both sides of 1 take views, any other order masks
        sp = SpaceParams(n)
        rho, s = np.geomspace(1e-3, 50.0, 301), np.geomspace(1e-9, 1e300, 301)
        perm = np.random.default_rng(n).permutation(rho.size)
        for want, got in zip(volume_ratios(rho, s, sp), volume_ratios(rho[perm], s[perm], sp)):
            assert np.array_equal(got, want[perm])


class TestRadiusForVolume:
    def test_zero(self):
        assert radius_for_volume(0.0, SpaceParams(3)) == 0.0

    def test_inverts_closed_form_n2(self):
        s = 2 * math.pi * (math.cosh(1.0) - 1)
        assert radius_for_volume(s, SpaceParams(2)) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_all_dims(self):
        # the Newton stopping test itself: volume within 1e-13 relative, from
        # the bottom of the normal range to the top of the float range
        s = np.concatenate([np.geomspace(np.finfo(float).tiny, 1e-306, 201),
                            np.geomspace(1e-200, 1e200, 4001), np.geomspace(1e300, 1.7e308)])
        for n in range(2, 17):
            sp = SpaceParams(n)
            resid = np.abs(ball_volume(radius_for_volume(s, sp), sp) - s)
            assert np.all(resid <= 1e-13 * s)

    def test_newton_evaluates_only_unconverged_points(self, monkeypatch):
        # the n = 3, ln(R/s0) = 10 fine grid of inverse_laplacian; stepping
        # every point until the last converges passes it 5 times
        params = ExtremizerParams.create(SpaceParams(3), 2.0, 0.05, 10.0)
        grid = default_grid(params)
        s = np.geomspace(grid.s_min, grid.s_max, (grid.points - 1) * 4 + 1)
        passed = []

        def counting(rho, vol, sp):
            passed.append(np.size(rho))
            return volume_ratios(rho, vol, sp)

        monkeypatch.setattr(geometry, "volume_ratios", counting)
        radius_for_volume(s, params.sp)
        assert sum(passed) < 4 * s.size

    @pytest.mark.parametrize("s, n", [(5e-324, 2), (5e-324, 3), (5e-324, 8), (5e-324, 16),
                                      (1e-310, 8)])
    def test_unconverged_volume_raises(self, s, n):
        # a volume that underflows to 0 in the iteration, and a subnormal one
        # resolved to fewer digits than the 1e-13 stopping test
        with pytest.raises(DomainError, match=re.escape(repr(s))):
            radius_for_volume(np.array([1.0, s, 2.0]), SpaceParams(n))

    @pytest.mark.parametrize("s, n", list(itertools.product(
        (1e300, 1.7e308, np.finfo(float).max), (2, 3, 4, 8, 16))))
    def test_inverts_top_of_float_range(self, s, n):
        # there the volume is its leading exponential to rounding, whose
        # inverse is the asymptote ln(s (n-1) 2^(n-1) / |S^(n-1)|) / (n-1);
        # at 9 of these volumes e^((n-1) rho) overflows
        sp = SpaceParams(n)
        want = (math.log(s) + math.log((n - 1) * 2.0 ** (n - 1) / sp.sphere_area)) / (n - 1)
        assert radius_for_volume(np.array([1.0, s]), sp)[1] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("s, n", [(3.028656361143884e248, 10), (1.891741658717011e298, 11)])
    def test_inverts_past_radius_64(self, s, n):
        # at rho just above 64 the volume step between neighbouring radii is
        # (n-1) ulp(rho) = 1.3e-13 and 1.4e-13, so a volume rounded by a few
        # 1e-14 puts both radii next to each root outside the 1e-13 test
        sp = SpaceParams(n)
        want = (math.log(s) + math.log((n - 1) * 2.0 ** (n - 1) / sp.sphere_area)) / (n - 1)
        assert radius_for_volume(s, sp) == pytest.approx(want, rel=1e-14)

    def test_whole_float_range_inverts(self):
        s = np.concatenate([np.geomspace(np.finfo(float).tiny, 1e-306, 201),
                            np.geomspace(1e-300, 1e308, 20001)])
        for n in range(2, 17):
            rho = radius_for_volume(s, SpaceParams(n))
            assert np.all(np.isfinite(rho)) and np.all(np.diff(rho) > 0)

    def test_asymptotic_offset_converges(self):
        sp = SpaceParams(3)
        n = sp.n
        offs = [radius_for_volume(s, sp) - math.log(s) / (n - 1)
                for s in (1e6, 1e9)]
        # limit: -ln(n omega_n / ((n-1) 2^{n-1})) / (n-1)
        want = -math.log(sp.sphere_area / ((n - 1) * 2.0 ** (n - 1))) / (n - 1)
        # the subleading term decays like ln(s)/s, so the offset at s = 1e6
        # still carries a ~2e-5 correction
        assert offs[0] == pytest.approx(want, abs=1e-4)
        assert offs[1] == pytest.approx(want, abs=1e-7)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            radius_for_volume(-1.0, SpaceParams(3))
        # surface_measure rejects it through the volume inversion
        with pytest.raises(DomainError):
            surface_measure(-1.0, SpaceParams(3))


class TestSurfaceMeasure:
    def test_n2_closed_form(self):
        sp = SpaceParams(2)
        s = ball_volume(1.0, sp)
        assert surface_measure(s, sp) == pytest.approx(2 * math.pi * math.sinh(1.0),
                                                       rel=1e-12)

    def test_lower_bound_strict(self):
        for n in (2, 3, 5):
            sp = SpaceParams(n)
            s = np.geomspace(1e-6, 1e9, 120)
            assert np.all(surface_measure(s, sp) > (n - 1) * s)

    def test_ratio_decreasing_to_one(self):
        sp = SpaceParams(3)
        s = np.geomspace(ball_volume(1.0, sp), 1e9, 80)
        ratio = surface_measure(s, sp) / ((sp.n - 1) * s)
        assert np.all(np.diff(ratio) < 0)
        assert 1.0 < ratio[-1] < 1.01

    def test_ratio_at_1e6(self):
        sp = SpaceParams(3)
        r = surface_measure(1e6, sp) / (2 * 1e6)
        assert 1.0 < r < 1.01


class _Quadratic:
    def __call__(self, rho):
        return np.asarray(rho, dtype=float) ** 2

    def d1(self, rho):
        return 2.0 * np.asarray(rho, dtype=float)

    def d2(self, rho):
        return 2.0 * np.ones_like(np.asarray(rho, dtype=float))


class _Constant:
    def d1(self, rho):
        return np.zeros_like(np.asarray(rho, dtype=float))

    d2 = d1


class TestRadialLaplacian:
    def test_constant_harmonic(self):
        assert radial_laplacian_geodesic(_Constant(), 1.3, SpaceParams(3)) == 0.0

    def test_quadratic_closed_form(self):
        # Laplacian of rho^2 is 2 + 2(n-1) rho coth(rho)
        val = radial_laplacian_geodesic(_Quadratic(), 1.0, SpaceParams(2))
        assert val == pytest.approx(2 + 2 / math.tanh(1.0), rel=1e-12)

    def test_origin_limit(self):
        val = radial_laplacian_geodesic(_Quadratic(), 0.0, SpaceParams(3))
        assert val == pytest.approx(3 * 2.0, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            radial_laplacian_geodesic(_Quadratic(), -0.5, SpaceParams(3))


class TestLaplacianVolumeCoord:
    def test_constant_zero(self):
        v = RadialProfile([PowerSegment(0.0, np.inf, [(3.0, 0.0)])])
        assert laplacian_volume_coord(v, 2.0, SpaceParams(3)) == 0.0

    def test_linear_profile(self):
        # (A^2 v')' = (A^2)' slope = 2 A A' slope, with A' = (n-1) coth(rho)
        sp = SpaceParams(3)
        v = RadialProfile([PowerSegment(0.0, np.inf, [(0.5, 1.0)])])
        s = 4.0
        slope = (sp.n - 1) / math.tanh(radius_for_volume(s, sp))
        want = 2 * surface_measure(s, sp) * slope * 0.5
        assert laplacian_volume_coord(v, s, sp) == pytest.approx(want, rel=1e-10)

    def test_agrees_with_geodesic_form(self):
        # v(s) = u(F(s)) with u = rho^2: both forms give the same Laplacian
        sp = SpaceParams(3)
        u = _Quadratic()
        rho = np.array([0.5, 1.0, 2.5])
        s = ball_volume(rho, sp)

        class VolProfile:
            breakpoints = ()

            def derivative(self, sv):
                r = radius_for_volume(sv, sp)
                return u.d1(r) / sphere_area_of_radius(r, sp)

            def second_derivative(self, sv):
                h = 1e-5 * sv
                return (self.derivative(sv + h) - self.derivative(sv - h)) / (2 * h)

        lhs = laplacian_volume_coord(VolProfile(), s, sp)
        rhs = radial_laplacian_geodesic(u, rho, sp)
        assert np.allclose(lhs, rhs, rtol=1e-6)

    def test_breakpoint_warns(self):
        v = RadialProfile([PowerSegment(0.0, 1.0, [(1.0, 0.0)]),
                           PowerSegment(1.0, np.inf, [(1.0, -1.0)])])
        with pytest.warns(RuntimeWarning):
            laplacian_volume_coord(v, 1.0, SpaceParams(3))
