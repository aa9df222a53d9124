import math

import numpy as np
import pytest

from hpoincare.extremizers import ExtremizerParams, inverse_laplacian_iterates
from hpoincare.geometry import SpaceParams
from hpoincare.numerics import QuadratureError, integrate
from hpoincare.profiles import (FuncSegment, PowerSegment, RadialProfile,
                                SampledSegment, _fd_log_derivatives, _Pchip,
                                constant_profile, indicator_profile,
                                sampled_profile, zero_tail)


def _assert_middle_deferred(prof, p):
    """The middle segment of a sampled profile defers its L^p mass, and
    lp_power takes the adaptive path for it."""
    head, mid, tail = prof.segments
    assert mid.lp_mass(p) is None
    want = (head.lp_mass(p) + tail.lp_mass(p)
            + prof.segment_integral(mid, lambda s: np.abs(mid.value(s)) ** p, p))
    assert prof.lp_power(p) == want


class TestSegments:
    def test_power_derivatives(self):
        seg = PowerSegment(1, 10, [(3.0, 2.0)])
        s = np.array([2.0, 5.0])
        assert np.allclose(seg.deriv(s), 6.0 * s)
        assert np.allclose(seg.deriv2(s), 6.0)

    def test_power_primitive_log_case(self):
        seg = PowerSegment(1, 100, [(2.0, -1.0)])
        assert seg.primitive_from_lo(np.array([math.e]))[0] == pytest.approx(2.0, rel=1e-14)

    def test_lp_mass_narrow_segment_far_from_zero(self):
        # rounded to a float, the ratio lo / hi = 1 - 2e-13 keeps only about
        # four digits of the relative width 2e-13
        hi = 500 + 1e-10
        mass = PowerSegment(500, hi, [(100, 0)]).lp_mass(4)
        assert mass == pytest.approx(1e8 * (hi - 500), rel=1e-12)

    def test_sampled_matches_smooth_function(self):
        nodes = np.geomspace(0.1, 100.0, 400)
        seg = SampledSegment(nodes, 1.0 / (1.0 + nodes))
        s = np.geomspace(0.2, 50.0, 31)
        assert np.allclose(seg.value(s), 1 / (1 + s), rtol=1e-6)
        assert np.allclose(seg.deriv(s), -1 / (1 + s) ** 2, rtol=1e-4)

    def test_generic_primitive_matches_per_abscissa(self):
        # one batched quadrature over the abscissae; those at or left of
        # s_lo integrate nothing
        seg = FuncSegment(0.5, 40.0, lambda s: np.exp(-s) * np.sqrt(s),
                          lambda s: np.exp(-s) * (0.5 / np.sqrt(s) - np.sqrt(s)))
        s = np.array([[0.2, 0.5, 0.7], [3.0, 25.0, 40.0]])
        want = [[integrate(seg.value, 0.5, x) if x > 0.5 else 0.0 for x in row] for row in s]
        got = seg.primitive_from_lo(s)
        assert got.shape == s.shape
        assert got == pytest.approx(np.array(want), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("p", [1.2, 2.0, 6.0])
    def test_sampled_lp_mass_matches_per_interval_g8(self, n, p):
        # composite Simpson on the samples of the first and second
        # inverse-Laplacian iterates, against the 8-point Gauss rule on each
        # cubic piece of the same segments' interpolants
        params = ExtremizerParams.create(SpaceParams(n), p, 0.05, 40.0)
        x, w = np.polynomial.legendre.leggauss(8)
        for it in inverse_laplacian_iterates(params, 2):
            seg = it.segments[1]
            h = np.diff(seg._t)[:, None]
            u = h * 0.5 * (x + 1.0)
            v = seg._interp(seg._t[:-1, None] + u)
            want = float(np.sum(np.abs(v) ** p * np.exp(seg._t[:-1, None] + u) * 0.5 * h * w))
            got = seg.lp_mass(p)
            assert got is not None
            assert got == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_sampled_lp_mass_defers_on_sign_change(self):
        # |v|^p has a kink where the data change sign: lp_mass defers, and
        # lp_power takes the adaptive path for that segment. 201 nodes suit
        # Simpson and its half-grid check, so only the sign defers
        nodes = np.geomspace(0.1, 100.0, 201)
        _assert_middle_deferred(sampled_profile(nodes, np.cos(np.log(nodes))), 1.5)

    def test_sampled_lp_mass_defers_on_node_count(self):
        # 200 nodes: no odd count for Simpson, so the adaptive path; 5
        # nodes: 1 mod 4, but the half-grid check would have only three
        for count in (200, 5):
            nodes = np.geomspace(0.1, 100.0, count)
            _assert_middle_deferred(sampled_profile(nodes, 1.0 / (1.0 + nodes)), 1.5)

    def test_sampled_lp_mass_defers_on_infinite_sample(self):
        # the Simpson check fails on a non-finite sum, and the adaptive path
        # raises on the non-finite integrand instead of returning it
        nodes = np.geomspace(0.1, 100.0, 201)
        values = 1.0 / (1.0 + nodes)
        values[100] = np.inf
        prof = sampled_profile(nodes, values)
        assert prof.segments[1].lp_mass(2.0) is None
        with pytest.raises(QuadratureError):
            prof.lp_power(2.0)

    @pytest.mark.parametrize("count", [1, 399, 401])
    def test_sampled_values_one_per_node(self, count):
        # a single value would broadcast silently through lp_mass
        with pytest.raises(ValueError, match="one value per node"):
            SampledSegment(np.geomspace(0.1, 100.0, 400), np.ones(count))

    def test_sampled_derivatives_built_lazily(self):
        nodes = np.geomspace(0.1, 100.0, 400)
        values = 1.0 / (1.0 + nodes)
        seg = SampledSegment(nodes, values)
        assert "_log_derivs" not in vars(seg)
        # the interpolants an eager constructor would build
        t = np.log(nodes)
        w1, w2 = (_Pchip(t, w) for w in _fd_log_derivatives(values, t[1] - t[0]))
        s = np.geomspace(0.15, 90.0, 37)
        ts = np.log(s)
        assert np.array_equal(seg.deriv(s), w1(ts) / s)
        assert np.array_equal(seg.deriv2(s), (w2(ts) - w1(ts)) / s ** 2)
        built = vars(seg)["_log_derivs"]
        seg.deriv2(s)
        assert vars(seg)["_log_derivs"] is built

    def test_fd_log_derivatives_on_four_samples(self):
        # the fewest a sampled segment holds: both interior points take the
        # central differences, the ends one-sided ones
        w, h = np.array([1.0, 3.0, 4.0, 9.0]), 0.5
        w1, w2 = _fd_log_derivatives(w, h)
        assert np.array_equal(w1[1:3], (w[2:] - w[:2]) / (2 * h))
        assert np.array_equal(w2[1:3], (w[2:] - 2 * w[1:3] + w[:2]) / (h * h))
        assert np.array_equal(w1[[0, 3]], [(w[1] - w[0]) / h, (w[3] - w[2]) / h])
        assert np.array_equal(w2[[0, 3]], w2[[1, 2]])

    def test_segment_interval_validation(self):
        with pytest.raises(ValueError):
            PowerSegment(2.0, 1.0, ())


class TestRadialProfile:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            RadialProfile([PowerSegment(0, 1, ()), PowerSegment(2, np.inf, ())])
        with pytest.raises(ValueError):
            RadialProfile([PowerSegment(0, 1, ())])
        with pytest.raises(ValueError):
            RadialProfile([PowerSegment(1, np.inf, ())])

    def test_dispatch_across_segments(self):
        prof = indicator_profile(1.0, 2.0, height=3.0)
        s = np.array([0.5, 1.5, 2.5])
        assert np.allclose(prof(s), [0.0, 3.0, 0.0])

    def test_dispatch_unsorted_and_scalar(self):
        prof = RadialProfile([PowerSegment(0, 1, [(1.0, 0.0)]),
                              PowerSegment(1, 4, [(1.0, -0.5)]),
                              PowerSegment(4, 9, [(2.0, 1.0)]),
                              zero_tail(9.0)])
        s = np.array([5.0, 0.3, 10.0, 2.0, 0.7, 4.0, 8.0, 1.0, 3.0])
        got = prof(s)
        assert np.array_equal(got, [prof(float(x)) for x in s])
        assert np.array_equal(got, [10.0, 1.0, 0.0, 2.0 ** -0.5, 1.0, 8.0, 16.0, 1.0,
                                    3.0 ** -0.5])
        assert np.array_equal(prof(s.reshape(3, 3)), got.reshape(3, 3))
        assert isinstance(prof(2.0), float) and prof(2.0) == 2.0 ** -0.5

    def test_running_integral_indicator(self):
        prof = indicator_profile(1.0, 2.0, height=3.0)
        s = np.array([0.5, 1.5, 2.0, 10.0])
        assert np.allclose(prof.running_integral(s), [0.0, 1.5, 3.0, 3.0])

    def test_running_integral_matches_quadrature(self):
        prof = RadialProfile([PowerSegment(0, 1, [(1.0, 0.0)]),
                              PowerSegment(1, 4, [(1.0, -0.5)]),
                              zero_tail(4.0)])
        # integral over [0, 3]: 1 + 2(sqrt(3)-1)
        assert prof.running_integral(np.array([3.0]))[0] == pytest.approx(
            1 + 2 * (math.sqrt(3) - 1), rel=1e-12)

    def test_running_integral_sampled(self):
        # flat head 1/1.1 on [0, 0.1), then the interpolant of 1/(1 + s)
        nodes = np.geomspace(0.1, 100.0, 400)
        prof = sampled_profile(nodes, 1.0 / (1.0 + nodes))
        assert prof.running_integral(50.0) == pytest.approx(
            0.1 / 1.1 + math.log(51 / 1.1), rel=1e-8)

    def test_lp_power_closed_forms(self):
        # plateau + power + tail: the log-divergent exponent case
        prof = RadialProfile([PowerSegment(0, 1, [(1.0, 0.0)]),
                              PowerSegment(1, math.e ** 5, [(1.0, -0.5)]),
                              zero_tail(math.e ** 5)])
        assert prof.lp_power(2.0) == pytest.approx(1.0 + 5.0, rel=1e-12)

    def test_lp_power_huge_supports_no_overflow(self):
        A = math.exp(600.0)
        prof = RadialProfile([PowerSegment(0, 1, [(1.0, 0.0)]),
                              PowerSegment(1, A, [(1.0, -1.0 / 3.0)]),
                              zero_tail(A)])
        assert prof.lp_power(3.0) == pytest.approx(601.0, rel=1e-12)

    def test_lp_power_two_term_tail(self):
        # generic quadrature branch: integral of (c1/s + c2/s^2)^2 over [1, inf)
        c1, c2 = 1.7, -0.8
        prof = RadialProfile([PowerSegment(0, 1, ()),
                              PowerSegment(1, np.inf, [(c1, -1.0), (c2, -2.0)])],
                             tail_bound=1.0)
        assert prof.lp_power(2.0) == pytest.approx(c1 ** 2 + c1 * c2 + c2 ** 2 / 3,
                                                   rel=1e-9)

    def test_lp_power_divergent_tail_raises(self):
        prof = RadialProfile([PowerSegment(0, 1, [(1.0, 0.0)]),
                              PowerSegment(1, np.inf, [(1.0, -0.5)])])
        with pytest.raises(QuadratureError):
            prof.lp_power(2.0)

    def test_support_end(self):
        assert indicator_profile(0.0, 2.0).support_end() == 2.0
        assert constant_profile(1.0).support_end() is None

    def test_sampled_profile_structure(self):
        nodes = np.geomspace(1.0, 100.0, 64)
        prof = sampled_profile(nodes, 1.0 / nodes)
        assert prof(np.array([0.5]))[0] == pytest.approx(1.0, rel=1e-8)  # flat head
        assert prof(np.array([1000.0]))[0] == pytest.approx(1e-3, rel=1e-6)  # 1/s tail
        assert prof.tail_bound == 1.0

    def test_breakpoints(self):
        prof = indicator_profile(1.0, 2.0)
        assert prof.breakpoints == (1.0, 2.0)


class TestPchip:
    @staticmethod
    def _cases():
        rng = np.random.default_rng(5)
        t = np.log(np.geomspace(1e-3, 1e4, 40))
        yield t, np.cumsum(rng.uniform(0.0, 1.0, t.size))  # monotone
        yield t, rng.normal(size=t.size)  # sign changes of the secants
        x = np.sort(rng.uniform(-3.0, 3.0, 25))
        y = rng.normal(size=x.size)
        y[5:9] = y[5]  # a flat run
        yield x, y
        yield np.array([0.0, 1.0, 3.0]), np.array([2.0, -1.0, 4.0])
        # end slope 4 from the three-point rule, clamped to three secants
        yield np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, -4.0, -3.0])

    def test_matches_scipy(self):
        # a scipy that is installed but fails to import skips the test too
        interpolate = pytest.importorskip("scipy.interpolate", exc_type=ImportError)
        for x, y in self._cases():
            # inside the grid, and beyond it where the end cubics extrapolate
            q = np.concatenate([x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 1001)])
            want = interpolate.PchipInterpolator(x, y, extrapolate=True)(q)
            assert np.all(np.abs(_Pchip(x, y)(q) - want) <= 1e-15 * np.abs(want))

    def test_monotone_data_no_overshoot(self):
        # a staircase with steep and flat steps: each interval stays within
        # its two samples and the interpolant never decreases
        x = np.arange(10.0)
        y = np.array([0.0, 0.0, 0.1, 5.0, 5.0, 5.2, 9.0, 9.0, 9.0, 12.0])
        f = _Pchip(x, y)
        for i in range(9):
            vals = f(np.linspace(x[i], x[i + 1], 201))
            assert np.all(vals >= y[i]) and np.all(vals <= y[i + 1])
            assert np.all(np.diff(vals) >= 0.0)

    def test_zero_slope_at_extremum(self):
        x = np.array([0.0, 1.0, 2.5, 3.0, 4.0])
        y = np.array([0.0, 2.0, 3.0, 1.0, 0.5])
        f = _Pchip(x, y)
        h = 1e-6
        assert abs(f(2.5 + h) - 3.0) < 1e-10 and abs(f(2.5 - h) - 3.0) < 1e-10
        assert np.all(f(np.linspace(1.0, 3.0, 401)) <= 3.0)
