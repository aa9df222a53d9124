import numpy as np
import pytest

from hpoincare.numerics import (BracketError, GridSpec, QuadratureConfig,
                                QuadratureError, batched_gauss, integrate,
                                invert_monotone, log_grid)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda s: np.ones_like(s), 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_power_tail(self):
        val = integrate(lambda s: s ** -2.0, 1.0, np.inf, tail_decay=2.0)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_quadratic(self):
        val = integrate(lambda s: (1 - s) ** 2, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_wide_log_span(self):
        val = integrate(lambda s: 1.0 / s, 1.0, np.exp(100.0))
        assert val == pytest.approx(100.0, rel=1e-10)

    def test_breakpoints_kink(self):
        f = lambda s: np.abs(s - 0.5)
        val = integrate(f, 0.0, 1.0, breakpoints=[0.5])
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_open_panels_of_a_level_share_one_call(self):
        sizes = []

        def f(s):
            sizes.append(np.size(s))
            return np.cos(s)

        val = integrate(f, 0.0, 1.0, breakpoints=[0.2, 0.4, 0.6, 0.8])
        assert val == pytest.approx(np.sin(1.0), rel=1e-14)
        assert sizes == [5 * 21]

    def test_tail_needs_small_last_chunk(self):
        # (s-2)^2/s^4 <= s^-2 vanishes at the first truncation point s = 2,
        # where the majorant alone would stop; the integral over [1, inf) is 1/3
        val = integrate(lambda s: (s - 2.0) ** 2 / s ** 4, 1.0, np.inf, tail_decay=2.0)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_semi_infinite_requires_decay(self):
        with pytest.raises(ValueError):
            integrate(lambda s: s ** -2.0, 1.0, np.inf)

    def test_nan_reported(self):
        with pytest.raises(QuadratureError, match="NaN"):
            integrate(lambda s: np.where(s > 0.5, np.nan, 1.0), 0.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_infinite_value_reported(self):
        with pytest.raises(QuadratureError, match="returned -inf at") as exc:
            integrate(lambda s: np.where(s > 0.5, -np.inf, 1.0), 0.0, 1.0)
        assert float(str(exc.value).rsplit(" ", 1)[1]) > 0.5

    def test_nonconvergence_carries_estimate(self):
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=0.0, max_subdivisions=2)
        rng = np.random.default_rng(0)
        bumpy = lambda s: np.sin(1.0 / (s + 1e-4)) ** 2
        with pytest.raises(QuadratureError) as exc:
            integrate(bumpy, 0.0, 1.0, cfg)
        assert exc.value.estimate is not None
        assert exc.value.error_bound is not None

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda s: s, 1.0, 1.0)


class TestInvertMonotone:
    def test_identity(self):
        assert invert_monotone(lambda x: x, 3.0, (0.0, 10.0)) == pytest.approx(3.0)

    def test_cubic(self):
        x = invert_monotone(lambda x: x ** 3, 8.0, (0.0, 10.0))
        assert x == pytest.approx(2.0, rel=1e-12)

    def test_outside_bracket(self):
        with pytest.raises(BracketError):
            invert_monotone(lambda x: x, 20.0, (0.0, 10.0))

    def test_bad_bracket(self):
        with pytest.raises(BracketError):
            invert_monotone(lambda x: x, 1.0, (5.0, 1.0))


class TestGrids:
    def test_log_grid_ratio_constant(self):
        g = log_grid(GridSpec(1e-3, 1e6, 100))
        ratios = g[1:] / g[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert g[0] == pytest.approx(1e-3) and g[-1] == pytest.approx(1e6)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, points=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)


def test_batched_gauss_matches_closed_form():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([1.0, 3.0, 10.0])
    got = batched_gauss(lambda s: s ** 2, a, b)
    want = (b ** 3 - a ** 3) / 3.0
    assert np.allclose(got, want, rtol=1e-13)


def test_kronrod_table_exact_through_its_degree():
    from hpoincare.numerics import _W21, _X21
    for k in range(32):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(_W21[:, 0] @ _X21 ** k - exact) < 1e-14  # K21: degree 31
        if k < 20:
            assert abs(_W21[:, 1] @ _X21 ** k - exact) < 1e-14  # G10: degree 19
