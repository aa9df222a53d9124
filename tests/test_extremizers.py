import math

import numpy as np
import pytest

from hpoincare.extremizers import (ExtremizerParams, area_ratio,
                                   averaged_extremizer_profile, default_grid,
                                   extremizer_lp_mass, extremizer_profile,
                                   inverse_laplacian,
                                   inverse_laplacian_iterates,
                                   sandwich_decomposition,
                                   second_order_majorant, select_s0)
from hpoincare import extremizers, geometry
from hpoincare.geometry import (SpaceParams, laplacian_volume_coord, radius_for_volume,
                                surface_measure)
from hpoincare.numerics import (DomainError, GridSpec, QuadratureError, cumulative_simpson,
                                integrate)
from hpoincare.profiles import (PowerSegment, RadialProfile, constant_profile,
                                indicator_profile, sampled_profile, zero_tail)
from hpoincare.rearrangement import decreasing_rearrangement, maximal_function
from hpoincare.variational import PoincareParams, lp_norm_volume, rayleigh_quotient

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
        # the area ratio of n = 2 rounds to 1 at s = 1e21
        with pytest.raises(ValueError, match="1 \\+ eps"):
            select_s0(SpaceParams(2), 1e-90)

    @pytest.mark.parametrize("n", [11, 16])
    def test_large_n_extends_the_grid(self, n):
        # no node up to 1e9 certifies eps = 0.01 for n >= 11: the grid goes on
        # at the same node ratio
        sp = SpaceParams(n)
        s0 = select_s0(sp, 0.01)
        assert s0 > 1e9
        probe = np.geomspace(s0, s0 * 1e12, 100)
        assert np.all(area_ratio(probe, sp) <= 1.01)
        ratio = (1e12) ** (1 / 599)
        k = math.log(s0 / 1e-3) / math.log(ratio)
        assert abs(k - round(k)) < 1e-6
        assert area_ratio(s0 / ratio, sp) > 1.01

    def test_grid_ends_before_1e150(self):
        # the area ratio of n = 16 is still 1 + 1.6e-13 at s = 1e93; a
        # failed call is not memoized, so every call raises
        for _ in range(2):
            with pytest.raises(ValueError, match="probe grid too short"):
                select_s0(SpaceParams(16), 1e-13)

    def test_second_call_is_memoized(self, monkeypatch):
        select_s0.cache_clear()
        passed = count_primitive_points(monkeypatch)
        first = select_s0(SpaceParams(8), 0.05)
        assert sum(passed) > 0
        passed.clear()
        assert select_s0(SpaceParams(8), 0.05) is first
        assert passed == []


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
        with pytest.raises(ValueError, match="support end 2R must be finite"):
            ExtremizerParams(eps=0.01, s0=1.0, R=1e308, p=2.0, sp=SP3)

    @pytest.mark.parametrize("log_ratio", [705.0, 800.0])
    def test_create_rejects_overflowing_support(self, log_ratio):
        # 2R overflows at 705; e^L alone at 800
        with pytest.raises(DomainError, match=rf"log ratio {log_ratio}: the support end 2R .* "
                                              r"overflows"):
            ExtremizerParams.create(SP3, 2.0, 0.05, log_ratio)


class TestAveragedExtremizer:
    def test_matches_running_average(self):
        params = make_params()
        f = extremizer_profile(params)
        rng = np.random.default_rng(2)
        ss = np.exp(rng.uniform(np.log(params.s0 * 1e-2),
                                np.log(params.R * 1e2), 100))
        want = f.running_integral(ss) / ss
        assert np.allclose(averaged_extremizer_profile(params)(ss), want, rtol=1e-12)

    def test_matches_maximal_function(self):
        params = make_params()
        mf = maximal_function(extremizer_profile(params))
        ss = np.geomspace(params.s0 * 0.1, params.R * 10, 60)
        assert np.allclose(mf(ss), averaged_extremizer_profile(params)(ss), rtol=1e-12)


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

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_matches_quadrature_at_wide_support(self, p):
        # u(s) = integral over [s, inf) of V(r) / A(r)^2, with V the running
        # integral r * (running average) of the extremizer. The reference
        # integrand is divided by its value at s, so that no absolute floor
        # of the quadrature cuts it short where it is tiny
        params = make_params(55.0, eps=0.05, p=p)
        it = inverse_laplacian_iterates(params, 1)[0]
        nodes, values = it.segments[1].nodes, it.segments[1].values
        idx = np.unique(np.searchsorted(
            nodes, np.geomspace(params.s0, 20.0 * params.R, 20)).clip(0, len(nodes) - 1))
        s = nodes[idx]
        avg = averaged_extremizer_profile(params)

        def g(r):
            return r * avg(r) / surface_measure(r, SP3) ** 2

        gs = g(s)
        want = gs * integrate(lambda r, i: g(r) / gs[i], s, np.inf,
                              breakpoints=(params.s0, params.R, 2.0 * params.R),
                              tail_decay=2.0)
        assert values[idx] == pytest.approx(want, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("n, p, log_ratio, k", [
        (3, 3.0, 10.0, 1), (3, 2.0, 10.0, 1), (3, 1.2, 55.0, 1), (8, 1.5, 57.0, 2),
        (2, 6.0, 30.0, 2), (16, 6.0, 60.0, 2), (2, 1.2, 40.0, 1), (8, 3.0, 20.0, 2)])
    def test_quotients_match_a_finer_grid(self, n, p, log_ratio, k, monkeypatch):
        # the m = 2k quotient on the default grid against 8 times as many
        # steps between the same ends; the log-uniform grid was up to 1.1e-7 off
        ext = ExtremizerParams.create(SpaceParams(n), p, 0.05, log_ratio)
        params = PoincareParams(n, 2 * k, p)
        coarse = rayleigh_quotient(params, ext)
        monkeypatch.setattr(extremizers, "default_grid", finer_grid)
        assert coarse == pytest.approx(rayleigh_quotient(params, ext), rel=1e-9, abs=0.0)

    def test_coarse_grid_rejected(self):
        params = make_params(10.0, eps=0.05)
        f = extremizer_profile(params)
        with pytest.raises(Exception):
            inverse_laplacian(f, SP3, GridSpec(params.s0 * 1e-6,
                                               2 * params.R * 1e3, 40))

    def test_overflow_raises(self):
        # the passes overflow to inf; a NaN Richardson estimate must not pass
        # the accuracy guard
        params = ExtremizerParams.create(SP3, 2.0, 0.05, 10.0)
        with pytest.raises(QuadratureError, match="overflowed"):
            inverse_laplacian(indicator_profile(0.0, params.R, 1e300), SP3,
                              default_grid(params))

    def test_zero_source(self):
        params = ExtremizerParams.create(SP3, 2.0, 0.05, 10.0)
        it = inverse_laplacian(constant_profile(0.0), SP3, default_grid(params))
        assert not np.any(it.segments[1].values)

    def test_iterates_count_and_chain(self):
        params = make_params(8.0, eps=0.05)
        its = inverse_laplacian_iterates(params, 2)
        assert len(its) == 2

    def test_iterate_holds_every_fine_node(self):
        params = make_params(8.0, eps=0.05)
        grid = default_grid(params)
        seg = inverse_laplacian_iterates(params, 1)[0].segments[1]
        assert len(seg.nodes) == len(seg.values) == (grid.points - 1) * 4 + 1

    def test_lp_norm_builds_no_interpolant(self):
        # the mass of an m = 2 iterate comes from its samples alone
        params = make_params(20.0, eps=0.05)
        it = inverse_laplacian_iterates(params, 1)[0]
        assert lp_norm_volume(it, 2.0) > 0.0
        assert "_interp" not in vars(it.segments[1])

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


    @pytest.mark.parametrize("log_ratio", [20.0, 40.0])
    def test_remainder_norm_matches_a_finer_grid(self, log_ratio):
        # the norm integrates on the iterate's own nodes and weights, in
        # sigma: against the iterate of an 8 times finer grid, resampled on
        # log-uniform nodes, whose norm integrates in ln s. With weights s and
        # a step in ln s on sigma nodes it reads 21 % high. Simpson across the
        # kinks of the clamp, which fall between nodes, leaves the default
        # grid 1.3e-6 (L = 40) to 3.5e-6 (L = 20) from the finer one
        params = make_params(log_ratio, eps=0.05)
        f = extremizer_profile(params)
        norm = sandwich_decomposition(params, inverse_laplacian(f, SP3, default_grid(params)),
                                      1).w_norm_p
        finer = inverse_laplacian(f, SP3, finer_grid(params))
        nodes = np.geomspace(*finer.segments[1].nodes[[0, -1]], finer.segments[1].nodes.size)
        ref = sandwich_decomposition(params, sampled_profile(nodes, finer(nodes)), 1).w_norm_p
        assert norm == pytest.approx(ref, rel=1e-5, abs=0.0)

    def test_needs_inverse_laplacian_result(self):
        params = make_params(20.0, eps=0.05)
        with pytest.raises(ValueError, match="inverse_laplacian"):
            sandwich_decomposition(params, extremizer_profile(params), 1)


class TestSecondOrderMajorant:
    def test_positive_decreasing(self):
        h = second_order_majorant(indicator_profile(0.0, 1.0), SP3)
        ss = np.geomspace(0.05, 50.0, 40)
        vals = h(ss)
        assert np.all(vals > 0) and np.all(np.diff(vals) < 0)

    def test_batched_matches_per_abscissa(self):
        prof = indicator_profile(0.0, 1.0)
        h = second_order_majorant(prof, SP3)
        mf = maximal_function(prof)
        integrand = lambda t: t * mf(t) / surface_measure(t, SP3) ** 2
        ss = np.geomspace(0.05, 50.0, 40)
        want = [integrate(integrand, x, np.inf, breakpoints=[b for b in mf.breakpoints if b > x],
                          tail_decay=2.0) for x in ss]
        assert h(ss) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_derivative_is_negative_integrand(self):
        prof = indicator_profile(0.0, 1.0)
        h = second_order_majorant(prof, SP3)
        mf = maximal_function(prof)
        s = np.array([0.3, 2.0])
        want = -s * mf(s) / surface_measure(s, SP3) ** 2
        assert np.allclose(h.derivative(s), want, rtol=1e-10)

    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("p", [1.2, 2.0])
    @pytest.mark.parametrize("log_ratio", [20.0, 40.0])
    def test_equals_first_iterate(self, n, p, log_ratio):
        # Talenti: for a source >= 0 that never rises, the majorant is the
        # inverse Laplacian itself; what is left is the grid's inner-pass error
        params = ExtremizerParams.create(SpaceParams(n), p, 0.05, log_ratio)
        s0, R = params.s0, params.R
        s = np.array([10.0 * s0, R / 10.0, R / 2.0, 1.9 * R, 3.0 * R, 12.5 * R])
        h = second_order_majorant(extremizer_profile(params), params.sp)
        it = inverse_laplacian_iterates(params, 1)[0]
        assert h(s) == pytest.approx(it(s), rel=1e-5, abs=0.0)

    def test_bounds_rearranged_inverse_of_signed_source(self):
        # |u|* <= majorant for the source 1 on [0, 1), -2 on [1, 2)
        f = RadialProfile([PowerSegment(0.0, 1.0, [(1.0, 0.0)]),
                           PowerSegment(1.0, 2.0, [(-2.0, 0.0)]), zero_tail(2.0)])
        ustar = decreasing_rearrangement(inverse_laplacian(f, SP3, GridSpec(1e-6, 2e3, 4096)))
        s = np.geomspace(1e-3, 1e2, 60)
        assert np.all(ustar(s) <= second_order_majorant(f, SP3)(s))


def count_primitive_points(monkeypatch):
    """Points passed to the volume kernel geometry.volume_ratios from now
    on, at its binding in geometry and in extremizers."""
    passed = []
    kernel = geometry.volume_ratios

    def counting(rho, s, sp):
        passed.append(np.size(rho))
        return kernel(rho, s, sp)

    monkeypatch.setattr(geometry, "volume_ratios", counting)
    monkeypatch.setattr(extremizers, "volume_ratios", counting)
    return passed


def finer_grid(params, factor=8):
    """default_grid with factor times as many steps between the same ends."""
    grid = default_grid(params)
    return GridSpec(grid.s_min, grid.s_max, (grid.points - 1) * factor + 1)


class TestFineGrid:
    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    @pytest.mark.parametrize("log_ratio", [10.0, 40.0, 60.0])
    @pytest.mark.parametrize("eps", [0.01, 0.05])
    def test_radii_meet_the_volume_check(self, n, log_ratio, eps):
        # the two inverted ends meet the 1e-13 volume test; every node
        # between comes forward with its sphere area and its weight ds/dsigma
        sp = SpaceParams(n)
        try:
            params = ExtremizerParams.create(sp, 2.0, eps, log_ratio)
        except ValueError:
            pytest.skip("select_s0 finds no s0 at this eps")
        grid = default_grid(params)
        s, h, weights, area = extremizers._fine_grid(grid, sp)
        assert s.size == (grid.points - 1) * 4 + 1 and np.all(np.diff(s) > 0)
        assert abs(s[0] - grid.s_min) <= 1e-13 * grid.s_min
        assert abs(s[-1] - grid.s_max) <= 1e-13 * grid.s_max
        assert area[::409] == pytest.approx(surface_measure(s[::409], sp), rel=1e-12, abs=0.0)
        assert cumulative_simpson(weights, h)[-1] == pytest.approx(s[-1] - s[0], rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("log_ratio", [10.0, 57.0])
    def test_nodes_take_one_evaluation(self, n, log_ratio, monkeypatch):
        # one kernel call over the fine nodes; only the two ends are
        # inverted, by Newton from the cold seeds
        sp = SpaceParams(n)
        grid = default_grid(ExtremizerParams.create(sp, 2.0, 0.05, log_ratio))
        extremizers._fine_grid.cache_clear()
        passed = count_primitive_points(monkeypatch)
        s = extremizers._fine_grid(grid, sp)[0]
        assert passed.count(s.size) == 1
        assert sum(passed) - s.size <= 2 * 5

    def test_iterates_invert_one_grid(self, monkeypatch):
        # the second iterate reads the first one's grid and node values: one
        # two-volume inversion and one kernel call over the nodes in all
        params = make_params(10.0, eps=0.05)
        inversions = []
        monkeypatch.setattr(extremizers, "radius_for_volume", lambda s, sp: (
            inversions.append(np.size(s)) or radius_for_volume(s, sp)))
        passed = count_primitive_points(monkeypatch)
        extremizers._fine_grid.cache_clear()  # a grid kept from before is built already
        assert len(inverse_laplacian_iterates(params, 2)) == 2
        assert inversions == [2]
        nodes = (default_grid(params).points - 1) * 4 + 1
        assert [k for k in passed if k > 2] == [nodes]

    def test_first_pass_calls_inverse_laplacian(self, monkeypatch):
        # a wrapper on the module's name (the per-layer tracing of bench/)
        # sees every chain, and only its first pass
        calls = []
        monkeypatch.setattr(extremizers, "inverse_laplacian",
                            lambda *args: calls.append(args) or inverse_laplacian(*args))
        assert len(inverse_laplacian_iterates(make_params(10.0, eps=0.05), 3)) == 3
        assert len(calls) == 1

    def test_inverse_laplacian_is_the_first_iterate(self):
        params = make_params(10.0, eps=0.05)
        first, second = inverse_laplacian_iterates(params, 2)
        grid = default_grid(params)
        alone = inverse_laplacian(extremizer_profile(params), SP3, grid)
        assert np.array_equal(alone.segments[1].values, first.segments[1].values)
        # from a grid of its own the pass evaluates the first iterate's
        # interpolant at its nodes, which returns the samples to rounding
        again = inverse_laplacian(first, SP3, grid)
        assert again.segments[1].values == pytest.approx(second.segments[1].values,
                                                         rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [3, 6, 7])
def test_cumulative_simpson_exact_for_quadratics(n):
    h = 0.3
    s = h * np.arange(n)
    if n % 2 == 0 or n < 5:
        # every grid the package integrates on has an odd node count, and
        # the cubic fill of node 1 reads four samples
        with pytest.raises(ValueError, match="odd number of samples"):
            cumulative_simpson(s, h)
        return
    for k in range(4):
        got = cumulative_simpson(s ** k, h)
        assert np.allclose(got, s ** (k + 1) / (k + 1), rtol=0.0, atol=1e-14)
