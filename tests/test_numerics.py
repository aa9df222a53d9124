import numpy as np
import pytest

from hpoincare.numerics import (GridSpec, QuadratureError, batched_gauss, illinois,
                                integrate)


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
        # batched: the 5 + 4 + 2 initial panels of three problems, one call
        sizes.clear()
        vals = integrate(lambda s, i: f(s), [0.0, 0.3, 2.0], [1.0, 1.0, 3.0],
                         breakpoints=[0.2, 0.4, 0.6, 0.8, 2.5])
        assert vals == pytest.approx(np.sin([1.0, 1.0, 3.0]) - np.sin([0.0, 0.3, 2.0]),
                                     rel=1e-14)
        assert sizes == [11 * 21]

    def test_tail_needs_small_last_chunk(self):
        # (s-2)^2/s^4 <= s^-2 vanishes at the first truncation point s = 2,
        # where the majorant alone would stop; the integral over [1, inf) is 1/3
        val = integrate(lambda s: (s - 2.0) ** 2 / s ** 4, 1.0, np.inf, tail_decay=2.0)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_growing_tail_named(self):
        # the chunk masses of s on [1, inf) grow by 64 per chunk until the
        # total overflows: the failure is reported as missing decay
        with pytest.raises(QuadratureError, match="does not decay like s\\^-2") as exc:
            integrate(lambda s: s, 1.0, np.inf, tail_decay=2.0)
        assert exc.value.estimate > 0

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
        # some 3e4 oscillations crowded next to 0 exhaust the split budget
        # (with the offset 1e-4, a tenth as many, the integral converges)
        bumpy = lambda s: np.sin(1.0 / (s + 1e-5)) ** 2
        with pytest.raises(QuadratureError, match="did not converge") as exc:
            integrate(bumpy, 0.0, 1.0)
        assert exc.value.estimate is not None
        assert exc.value.error_bound is not None

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda s: s, 1.0, 1.0)

    def test_scalar_integrand_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            integrate(lambda s: 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="f\\(s, i\\)"):
            integrate(lambda s, i: np.ones(3), [0.0, 1.0], 2.0)


class TestBatchedIntegrate:
    # three finite problems that use different subsets of the shared
    # breakpoints (the third spans a factor 1e8 and runs partly in ln s) and
    # three semi-infinite ones that start below, above and between the cuts
    A = np.array([0.0, 1.0, 1e-6, 0.1, 4.0, 0.25])
    B = np.array([4.0, 6.0, 1e2, np.inf, np.inf, np.inf])
    BREAKS = (0.5, 3.0, 20.0)

    @staticmethod
    def family(s, i):
        c = 0.5 + 0.25 * np.asarray(i)
        return np.exp(-c * s) * (1.0 + np.abs(s - 3.0)) + np.sqrt(s) / (1.0 + s ** 3)

    def test_matches_scalar_calls(self):
        got = integrate(self.family, self.A, self.B, breakpoints=self.BREAKS, tail_decay=2.0)
        want = [integrate(lambda s, i=i: self.family(s, i), a, b, breakpoints=self.BREAKS,
                          tail_decay=2.0) for i, (a, b) in enumerate(zip(self.A, self.B))]
        assert got.shape == (6,)
        assert got.tolist() == want

    def test_result_independent_of_batch(self):
        # problem 0 shares its levels with 1 to 5 others whose panel counts
        # differ from its own and from each other, and reads the same bits
        alone = integrate(lambda s: self.family(s, 0), self.A[0], self.B[0],
                          breakpoints=self.BREAKS, tail_decay=2.0)
        for k in range(2, 7):
            got = integrate(self.family, self.A[:k], self.B[:k], breakpoints=self.BREAKS,
                            tail_decay=2.0)
            assert got[0] == alone, k

    def test_problem_index_passed(self):
        seen = set()

        def f(s, i):
            assert i.shape == s.shape
            seen.update(i.tolist())
            return self.family(s, i)

        integrate(f, self.A, self.B, breakpoints=self.BREAKS, tail_decay=2.0)
        assert seen == set(range(6))

    def test_scalar_end_broadcasts(self):
        got = integrate(lambda s, i: s ** -2.0, np.array([1.0, 2.0, 4.0]), np.inf,
                        tail_decay=2.0)
        assert got == pytest.approx([1.0, 0.5, 0.25], rel=1e-10)

    def test_non_decaying_member_named(self):
        # members 0 and 2 converge in a few chunks; member 1 grows like s
        # until its total overflows
        members = []

        def f(s, i):
            members.append(set(i.tolist()))
            return np.where(i == 1, s, s ** -2.0)

        with pytest.raises(QuadratureError,
                           match="^problem 1: integrand does not decay like s\\^-2") as exc:
            integrate(f, np.ones(3), np.inf, tail_decay=2.0)
        assert exc.value.estimate > 0
        assert members[0] == {0, 1, 2} and members[-1] == {1}

    def test_nan_member_named(self):
        with pytest.raises(QuadratureError, match="^problem 2: integrand returned NaN"):
            integrate(lambda s, i: np.where(i == 2, np.nan, s), 0.0, np.ones(3))


def test_illinois_vectorized():
    # cube roots of several targets in one call, each to the resolution
    # of the bracket [0, 2]: 4 ulp of 2
    c = np.array([0.001, 0.5, 2.0, 7.9])
    x = illinois(lambda x, i: x ** 3 - c[i], 0.0, 2.0, -c, 8.0 - c, 0.0)
    assert np.all(np.abs(x - np.cbrt(c)) <= 4 * np.spacing(2.0))


class TestGrids:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0)
        # two points leave the inverse Laplacian's half grid three samples,
        # too few for its Simpson rule
        for points in (1, 2):
            with pytest.raises(ValueError, match="three grid points"):
                GridSpec(1.0, 2.0, points=points)


def test_batched_gauss_matches_closed_form():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([1.0, 3.0, 10.0])
    got = batched_gauss(lambda s: s ** 2, a, b)
    want = (b ** 3 - a ** 3) / 3.0
    assert np.allclose(got, want, rtol=1e-13)


def test_kronrod_gauss_rows_independent_of_row_count():
    # a BLAS product (fj @ weights) rounds a row differently with the number
    # of rows it is multiplied with; the contraction must not
    from hpoincare.numerics import _kronrod_gauss
    rng = np.random.default_rng(0)
    fj = rng.standard_normal((64, 21)) * rng.uniform(0.1, 1e3, (64, 1))
    full = _kronrod_gauss(fj)
    assert full.shape == (64, 2)
    for n in range(1, 65):
        assert np.array_equal(_kronrod_gauss(fj[:n]), full[:n]), n


def test_kronrod_table_exact_through_its_degree():
    from hpoincare.numerics import _W21, _X21
    for k in range(32):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(_W21[0] @ _X21 ** k - exact) < 1e-14  # K21: degree 31
        if k < 20:
            assert abs(_W21[1] @ _X21 ** k - exact) < 1e-14  # G10: degree 19
