import math

import numpy as np
import pytest

from hpoincare.extremizers import (ExtremizerParams, _cumulative_simpson,
                                   area_ratio, averaged_extremizer,
                                   averaged_extremizer_profile, default_grid,
                                   extremizer_lp_mass, extremizer_profile,
                                   inverse_area_tail, inverse_area_tail_slope,
                                   inverse_laplacian,
                                   inverse_laplacian_iterates,
                                   sandwich_decomposition,
                                   second_order_majorant, select_s0)
from hpoincare.geometry import SpaceParams, laplacian_volume_coord, surface_measure
from hpoincare.numerics import GridSpec
from hpoincare.profiles import indicator_profile
from hpoincare.rearrangement import maximal_function

SP3 = SpaceParams(3)


def make_params(log_ratio=10.0, eps=0.01, p=2.0, sp=SP3):
    s0 = select_s0(sp, eps)
    return ExtremizerParams(eps=eps, s0=s0, R=s0 * math.exp(log_ratio), p=p, sp=sp)


class TestSelectS0:
    def test_ratio_bounded_above_s0(self):
        for eps in (0.01, 0.05):
            s0 = select_s0(SP3, eps)
            probe = np.geomspace(s0, s0 * 1e6, 100)
            assert np.all(area_ratio(probe, SP3) <= 1 + eps)

    def test_smaller_eps_larger_s0(self):
        assert select_s0(SP3, 0.01) > select_s0(SP3, 0.05)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            select_s0(SP3, 0.0)


class TestExtremizerProfile:
    def test_branch_values(self):
        params = make_params()
        f = extremizer_profile(params)
        s0, R, p = params.s0, params.R, params.p
        assert f(np.array([s0 / 2]))[0] == pytest.approx(s0 ** (-1 / p))
        assert f(np.array([4 * s0]))[0] == pytest.approx((4 * s0) ** (-1 / p))
        assert f(np.array([1.5 * R]))[0] == pytest.approx(0.5 * R ** (-1 / p))
        assert f(np.array([3 * R]))[0] == 0.0

    def test_continuity_at_breakpoints(self):
        params = make_params()
        f = extremizer_profile(params)
        for b in (params.s0, params.R, 2 * params.R):
            lo, hi = f(np.array([b * (1 - 1e-12)]))[0], f(np.array([b * (1 + 1e-12)]))[0]
            assert lo == pytest.approx(hi, rel=1e-9, abs=1e-15)

    def test_lp_mass_closed_form(self):
        for lr, p in ((5.0, 2.0), (12.0, 1.5), (30.0, 3.0)):
            params = make_params(lr, p=p)
            want = 1 + lr + 1 / (p + 1)
            assert extremizer_lp_mass(params) == pytest.approx(want, rel=1e-14)
            assert extremizer_profile(params).lp_power(p) == pytest.approx(
                want, rel=1e-10)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ExtremizerParams(eps=0.01, s0=10.0, R=5.0, p=2.0, sp=SP3)
        with pytest.raises(ValueError):
            ExtremizerParams(eps=0.01, s0=1.0, R=5.0, p=1.0, sp=SP3)


class TestAveragedExtremizer:
    def test_matches_running_average(self):
        params = make_params()
        f = extremizer_profile(params)
        rng = np.random.default_rng(2)
        ss = np.exp(rng.uniform(np.log(params.s0 * 1e-2),
                                np.log(params.R * 1e2), 100))
        want = f.running_integral(ss) / ss
        assert np.allclose(averaged_extremizer(params, ss), want, rtol=1e-12)

    def test_profile_matches_branches(self):
        params = make_params()
        g = averaged_extremizer_profile(params)
        ss = np.geomspace(params.s0 * 1e-3, params.R * 1e3, 200)
        assert np.allclose(g(ss), averaged_extremizer(params, ss), rtol=1e-13)

    def test_matches_maximal_function(self):
        params = make_params()
        mf = maximal_function(extremizer_profile(params))
        ss = np.geomspace(params.s0 * 0.1, params.R * 10, 60)
        assert np.allclose(mf(ss), averaged_extremizer(params, ss), rtol=1e-12)

    def test_domain(self):
        with pytest.raises(Exception):
            averaged_extremizer(make_params(), np.array([0.0]))


class TestInverseAreaTail:
    def test_decreasing_positive(self):
        s = np.geomspace(0.1, 100.0, 12)
        phi = inverse_area_tail(s, 2.0, SP3)
        assert np.all(phi > 0) and np.all(np.diff(phi) < 0)

    def test_derivative_identity(self):
        s = np.array([0.5, 3.0, 40.0])
        h = 1e-5 * s
        fd = (inverse_area_tail(s + h, 2.0, SP3)
              - inverse_area_tail(s - h, 2.0, SP3)) / (2 * h)
        assert np.allclose(fd, inverse_area_tail_slope(s, 2.0, SP3), rtol=1e-7)

    def test_pointwise_bound(self):
        # (-phi'(s))^((p-1)/p) * s < 1/(n-1)
        p = 2.0
        s = np.geomspace(0.1, 1e6, 40)
        lhs = (-inverse_area_tail_slope(s, p, SP3)) ** ((p - 1) / p) * s
        assert np.all(lhs < 1.0 / (SP3.n - 1))

    def test_p_validation(self):
        with pytest.raises(Exception):
            inverse_area_tail(1.0, 1.0, SP3)


class TestInverseLaplacian:
    def test_inverts_on_interior_nodes(self):
        params = make_params(10.0, eps=0.05)
        f = extremizer_profile(params)
        v1 = inverse_laplacian(f, SP3, default_grid(params))
        nodes = v1.segments[1].nodes
        mask = np.ones(len(nodes), bool)
        mask[:8] = mask[-8:] = False
        for kink in (params.s0, params.R, 2 * params.R):
            mask &= np.abs(np.log(nodes / kink)) > 0.05
        mask &= nodes <= 1.9 * params.R
        lap = -laplacian_volume_coord(v1, nodes[mask], SP3)
        truth = f(nodes[mask])
        scale = np.maximum(truth, np.max(truth) * 1e-6)
        assert np.max(np.abs(lap - truth) / scale) <= 1e-4

    def test_source_recorded(self):
        params = make_params(8.0, eps=0.05)
        f = extremizer_profile(params)
        v1 = inverse_laplacian(f, SP3, default_grid(params))
        assert v1.source is f

    def test_coarse_grid_rejected(self):
        params = make_params(10.0, eps=0.05)
        f = extremizer_profile(params)
        with pytest.raises(Exception):
            inverse_laplacian(f, SP3, GridSpec(params.s0 * 1e-6,
                                               2 * params.R * 1e3, 40), refine=1)

    def test_iterates_count_and_chain(self):
        params = make_params(8.0, eps=0.05)
        its = inverse_laplacian_iterates(params, 2)
        assert len(its) == 2
        assert its[1].source is its[0]

    def test_nonnegative_decreasing(self):
        params = make_params(8.0, eps=0.05)
        v1 = inverse_laplacian_iterates(params, 1)[0]
        ss = np.geomspace(params.s0 * 1e-3, params.R * 100, 300)
        vals = v1(ss)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= np.abs(vals[:-1]) * 1e-6)


class TestSandwich:
    def test_mostly_unclamped_in_window(self):
        params = make_params(40.0, eps=0.05)
        it = inverse_laplacian_iterates(params, 1)[0]
        rep = sandwich_decomposition(params, it, 1)
        assert rep.untouched_fraction_window >= 0.95
        assert rep.w_norm_p < 5.0

    def test_remainder_bounded_in_r(self):
        reps = []
        for lr in (20.0, 30.0):
            params = make_params(lr, eps=0.05)
            it = inverse_laplacian_iterates(params, 1)[0]
            reps.append(sandwich_decomposition(params, it, 1))
        assert reps[1].w_norm_p <= 1.5 * reps[0].w_norm_p


class TestSecondOrderMajorant:
    def test_positive_decreasing(self):
        h = second_order_majorant(indicator_profile(0.0, 1.0), SP3, 2.0)
        ss = np.geomspace(0.05, 50.0, 40)
        vals = h(ss)
        assert np.all(vals > 0) and np.all(np.diff(vals) < 0)

    def test_derivative_is_negative_integrand(self):
        prof = indicator_profile(0.0, 1.0)
        h = second_order_majorant(prof, SP3, 2.0)
        mf = maximal_function(prof)
        s = np.array([0.3, 2.0])
        want = -s * mf(s) / surface_measure(s, SP3) ** 2
        assert np.allclose(h.derivative(s), want, rtol=1e-10)


@pytest.mark.parametrize("n", [6, 7])
def test_cumulative_simpson_exact_for_quadratics(n):
    h = 0.3
    s = h * np.arange(n)
    for k in range(3):
        got = _cumulative_simpson(s ** k, h)
        assert np.allclose(got, s ** (k + 1) / (k + 1), rtol=0.0, atol=1e-14)
