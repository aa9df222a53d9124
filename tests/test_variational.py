import math

import numpy as np
import pytest

from hpoincare import variational
from hpoincare.extremizers import (ExtremizerParams, extremizer_profile, select_s0,
                                   support_radius)
from hpoincare.geometry import SpaceParams, surface_measure
from hpoincare.numerics import DomainError, QuadratureError, integrate
from hpoincare.variational import (ExpRadial, PoincareParams,
                                   check_inequality,
                                   grad_norm_geodesic, grad_norm_volume,
                                   gradient_laplacian_constant,
                                   laplacian_norm_geodesic, lp_norm_geodesic,
                                   lp_norm_volume, rayleigh_quotient,
                                   sharp_constant, sharpness_sweep)
from hpoincare.variational import TestFunction as RadialTestFunction


class TestSharpConstant:
    def test_p2_closed_form(self):
        for n in range(2, 7):
            for m in range(1, 5):
                want = (2.0 / (n - 1)) ** m
                assert sharp_constant(n, m, 2.0) == pytest.approx(want, rel=1e-14)

    def test_even_branch(self):
        # m = 2: p p' / (n-1)^2
        assert sharp_constant(4, 2, 3.0) == pytest.approx(3.0 * 1.5 / 9.0, rel=1e-14)

    def test_odd_branch(self):
        assert sharp_constant(4, 1, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert sharp_constant(3, 3, 2.0) == pytest.approx(0.5 * (2.0 / 2.0) ** 2 * 2,
                                                          rel=1e-12)

    def test_composition_identity(self):
        # C(n,m,p) = C(n,l,p) * C(n,m-l,p) whenever at most one factor is odd
        # (two odd orders would each spend the single first-order factor)
        for n in (2, 3, 5):
            for p in (1.5, 2.0, 3.0):
                for m in (2, 3, 4):
                    for l in range(1, m):
                        if l % 2 == 1 and (m - l) % 2 == 1:
                            continue
                        assert sharp_constant(n, m, p) == pytest.approx(
                            sharp_constant(n, l, p) * sharp_constant(n, m - l, p),
                            rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            sharp_constant(1, 1, 2.0)
        with pytest.raises(DomainError):
            sharp_constant(3, 0, 2.0)
        with pytest.raises(DomainError):
            sharp_constant(3, 1, 1.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_p_rejected(self, p):
        # NaN fails no comparison, and p = inf made C = inf or NaN
        with pytest.raises(DomainError, match="finite"):
            sharp_constant(3, 1, p)
        with pytest.raises(DomainError, match="finite"):
            sharp_constant(3, 2, p)
        with pytest.raises(DomainError, match="finite"):
            gradient_laplacian_constant(3, p)
        with pytest.raises(DomainError, match="finite"):
            PoincareParams(3, 1, p)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_n_and_m_rejected(self, x):
        # int() of them raised OverflowError (inf) or a bare ValueError (NaN)
        with pytest.raises(DomainError, match="dimension"):
            sharp_constant(x, 1, 2.0)
        with pytest.raises(DomainError, match="order"):
            sharp_constant(3, x, 2.0)

    def test_reexported_from_their_home(self):
        from hpoincare import constants, numerics

        assert sharp_constant is constants.sharp_constant
        assert gradient_laplacian_constant is constants.gradient_laplacian_constant
        assert numerics.DomainError is DomainError is constants.DomainError
        assert numerics.QuadratureError is QuadratureError is constants.QuadratureError


class TestGradientLaplacianConstant:
    def test_values(self):
        assert gradient_laplacian_constant(3, 2.0) == pytest.approx(1.0)
        assert gradient_laplacian_constant(2, 3.0) == pytest.approx(3.0)
        assert gradient_laplacian_constant(2, 1.5) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            gradient_laplacian_constant(1, 2.0)
        with pytest.raises(DomainError):
            gradient_laplacian_constant(3, 1.0)

    def test_one_sided_constant_is_violated_for_small_p(self):
        # for p < 2 the quotient ||grad u||_p / ||Delta u||_p of
        # u = (1 + a rho) e^{-a rho} exceeds p/(n-1) and stays below
        # the dual-exponent bound p'/(n-1)
        n, p = 2, 1.5
        sp = SpaceParams(n)
        u = RadialTestFunction([1.0, 0.8], alpha=0.8)
        ratio = (grad_norm_geodesic(u, sp, p)
                 / laplacian_norm_geodesic(u, sp, p))
        assert ratio > p / (n - 1)
        assert ratio < gradient_laplacian_constant(n, p)

    def test_bound_holds_near_critical_decay(self):
        # decay rates just above (n-1)/p push the quotient toward the
        # bound from below; the slowly decaying integrands exercise the
        # log-domain sphere-area weights
        for n, p, alphas in [(2, 1.5, (0.68, 0.8)), (3, 1.5, (1.35, 1.5)),
                             (2, 1.25, (0.82, 1.1)), (3, 3.0, (0.7, 2.1)),
                             (4, 1.5, (2.05, 3.05))]:
            sp = SpaceParams(n)
            bound = gradient_laplacian_constant(n, p)
            for a in alphas:
                u = RadialTestFunction([1.0, a], alpha=a)
                ratio = (grad_norm_geodesic(u, sp, p)
                         / laplacian_norm_geodesic(u, sp, p))
                assert 0 < ratio < bound


class TestRadialTestFunction:
    def test_smoothness_constraint_enforced(self):
        with pytest.raises(ValueError):
            RadialTestFunction([1.0, 5.0], alpha=1.0)

    def test_derivatives_match_fd(self):
        u = RadialTestFunction.random(3, 2.0, seed=4)
        rho = np.array([0.3, 1.0, 2.7])
        h = 1e-6
        fd1 = (u(rho + h) - u(rho - h)) / (2 * h)
        fd2 = (u(rho + h) - 2 * u(rho) + u(rho - h)) / h ** 2
        assert np.allclose(u.d1(rho), fd1, rtol=1e-7)
        assert np.allclose(u.d2(rho), fd2, rtol=1e-3)

    def test_origin_derivative_vanishes(self):
        for seed in range(5):
            u = RadialTestFunction.random(4, 1.5, seed=seed)
            assert abs(u.d1(np.array([0.0]))[0]) < 1e-12

    def test_log_domain_derivatives_match_oracle(self):
        # gradient and Laplacian objects against d1 and the generic radial
        # Laplacian, including its limit n u''(0) at the origin
        from hpoincare.geometry import radial_laplacian_geodesic
        u = RadialTestFunction.random(4, 1.5, seed=11)
        sp = SpaceParams(4)
        rho = np.array([0.0, 1e-3, 0.4, 2.0, 9.0])
        assert np.allclose(u.gradient()(rho), u.d1(rho), rtol=1e-14, atol=0.0)
        assert np.allclose(u.laplacian(4)(rho), radial_laplacian_geodesic(u, rho, sp),
                           rtol=1e-12, atol=0.0)

    def test_random_is_deterministic(self):
        a = RadialTestFunction.random(3, 2.0, seed=9)
        b = RadialTestFunction.random(3, 2.0, seed=9)
        assert np.array_equal(a.coeffs, b.coeffs) and a.alpha == b.alpha


class TestNormsGeodesic:
    def test_lp_norm_exponential_closed_form(self):
        # n = 2: |u|^2 area = e^{-2 a rho} 2 pi sinh(rho);
        # integral = 2 pi * (1/(2a-1) - 1/(2a+1)) / 2
        sp = SpaceParams(2)
        a = 2.0

        class PureExp:
            def __call__(self, rho):
                return np.exp(-a * np.asarray(rho, dtype=float))

        want = 2 * math.pi * 0.5 * (1 / (2 * a - 1) - 1 / (2 * a + 1))
        got = lp_norm_geodesic(PureExp(), sp, 2.0) ** 2
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    @pytest.mark.parametrize("p", [1.2, 2.0, 20.0])
    @pytest.mark.parametrize("q", [5.0, 50.0, 215.0, 1000.0, 2000.0])
    def test_exponential_beta_oracle(self, n, p, q):
        # u = e^(-alpha rho) with q = p alpha - k, k = n - 1: x = e^(-2 rho)
        # turns |S^k| e^(-p alpha rho) sinh^k rho into a Beta integral,
        # ||u||_p^p = |S^k| B(q/2, k + 1) / 2^(k+1); at large q the mass lies
        # near the origin, far below the first panel's magnitude elsewhere
        k = n - 1
        log_sphere = math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)
        want = (log_sphere + math.lgamma(0.5 * q) + math.lgamma(k + 1.0)
                - math.lgamma(0.5 * q + k + 1.0) - (k + 1) * math.log(2.0))
        got = math.log(lp_norm_geodesic(ExpRadial([1.0], (q + k) / p), SpaceParams(n), p) ** p)
        assert abs(got - want) <= 1e-10

    def test_grad_norm_positive(self):
        u = RadialTestFunction.random(3, 2.0, seed=1)
        assert grad_norm_geodesic(u, SpaceParams(3), 2.0) > 0

    def test_laplacian_norm_finite(self):
        u = RadialTestFunction.random(3, 2.0, seed=2)
        assert np.isfinite(laplacian_norm_geodesic(u, SpaceParams(3), 2.0))

    @staticmethod
    def _n3_p2_mass(poly, alpha):
        """Integral over hyperbolic 3-space of (poly(rho) e^{-alpha rho})^2:
        4 pi sinh^2 rho = pi (e^{2 rho} - 2 + e^{-2 rho}) and
        integral of rho^k e^{-c rho} over [0, inf) = k! / c^(k+1)."""
        total = 0.0
        for k, ck in enumerate((poly * poly).coef):
            total += ck * math.factorial(k) * sum(
                w / c ** (k + 1) for w, c in ((1.0, 2 * alpha - 2), (-2.0, 2 * alpha),
                                               (1.0, 2 * alpha + 2)))
        return math.pi * total

    def test_lp_and_grad_norm_closed_form(self):
        sp = SpaceParams(3)
        for seed in range(4):
            u = RadialTestFunction.random(3, 2.0, seed=seed)
            p1 = u.poly.deriv() - u.alpha * u.poly
            assert lp_norm_geodesic(u, sp, 2.0) ** 2 == pytest.approx(
                self._n3_p2_mass(u.poly, u.alpha), rel=1e-9)
            assert grad_norm_geodesic(u, sp, 2.0) ** 2 == pytest.approx(
                self._n3_p2_mass(p1, u.alpha), rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_non_integrable_test_function_raises(self):
        # alpha = 1 is below the integrability bound (n-1)/p: at n = 3 the
        # p = 2 integrand grows like rho^2, at p = 1.5 it overflows
        u = RadialTestFunction([1, 1], alpha=1)
        with pytest.raises(QuadratureError):
            lp_norm_geodesic(u, SpaceParams(3), 2.0)
        with pytest.raises(QuadratureError, match="integrand returned inf"):
            lp_norm_geodesic(u, SpaceParams(3), 1.5)

    def test_non_integrable_p2_names_missing_decay(self):
        # at p = 2 the integrand stays finite and grows like rho^2: the
        # error names the growing tail chunks along with the split budget
        u = RadialTestFunction([1, 1], alpha=1)
        with pytest.raises(QuadratureError, match="does not decay"):
            lp_norm_geodesic(u, SpaceParams(3), 2.0)

    def test_late_peak_near_threshold(self):
        # alpha just above (n - 1)/p: the L^2 integrand ~ rho^2 e^(-0.001 rho)
        # peaks near rho = 2000, its tail chunks grow three times in a row,
        # and the integral still converges
        u = RadialTestFunction([1, 1.0005], alpha=1.0005)
        rep = check_inequality(u, PoincareParams(3, 1, 2))
        assert np.isfinite(rep.lhs) and rep.holds


class TestNormsVolume:
    def test_lp_volume_matches_geodesic(self):
        # indicator of the ball of unit volume has L^p norm 1 in both coordinates
        from hpoincare.profiles import indicator_profile
        prof = indicator_profile(0.0, 1.0)
        assert lp_norm_volume(prof, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_grad_norm_volume_extremizer_bound(self):
        # gradient mass of the extremizer stays within the sharpness bound:
        # ||grad||_p^p <= (1+eps)^p (n-1)^p (ln(R/s0)/p^p + (2^{p+1}-1)/(p+1))
        sp = SpaceParams(3)
        eps, lr, p = 0.01, 30.0, 2.0
        s0 = select_s0(sp, eps)
        ext = ExtremizerParams(eps=eps, s0=s0, R=s0 * math.exp(lr), p=p, sp=sp)
        g = grad_norm_volume(ext)
        n1 = sp.n - 1.0
        bound = (1 + eps) ** p * n1 ** p * (lr / p ** p
                                            + (2 ** (p + 1) - 1) / (p + 1))
        assert g ** p <= bound
        assert g ** p >= n1 ** p * lr / p ** p  # plateau-free lower bound

    def test_grad_norm_volume_closed_form(self):
        # n = 2: A(s)^2 = s^2 + 4 pi s exactly, so at p = 2 the power piece
        # s^(-1/2) on [s0, R] gives (L + 4 pi (1/s0 - 1/R)) / 4 and the ramp
        # R^(-1/2) (2 - s/R) on [R, 2R] gives 7/3 + 6 pi/R
        sp = SpaceParams(2)
        s0 = select_s0(sp, 0.01)
        for lr in (10.0, 50.0, 200.0, 450.0, 480.0, 600.0, 700.0):
            R = s0 * math.exp(lr)
            want = (lr + 4 * math.pi * (1 / s0 - 1 / R)) / 4 + 7 / 3 + 6 * math.pi / R
            got = grad_norm_volume(ExtremizerParams(eps=0.01, s0=s0, R=R, p=2.0, sp=sp)) ** 2
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    @pytest.mark.parametrize("p", [1.2, 2.0, 6.0, 20.0])
    def test_grad_norm_volume_matches_segment_integrals(self, n, p):
        # the scaled form against the integrals of (A |v'|)^p in s over the
        # two sloped segments of the extremizer
        sp = SpaceParams(n)
        s0 = select_s0(sp, 0.01)
        for lr in (10.0, 50.0, 200.0):
            ext = ExtremizerParams(eps=0.01, s0=s0, R=s0 * math.exp(lr), p=p, sp=sp)
            mass = sum(integrate(lambda s, seg=seg: (surface_measure(s, sp)
                                                     * np.abs(seg.deriv(s))) ** p,
                                 seg.s_lo, seg.s_hi)
                       for seg in extremizer_profile(ext).segments[1:3])
            assert grad_norm_volume(ext) == pytest.approx(mass ** (1.0 / p), rel=1e-12)


class TestInequality:
    def test_random_family_holds(self):
        for n in (2, 3):
            for p in (1.5, 2.0):
                for m in (1, 2):
                    params = PoincareParams(n, m, p)
                    for seed in range(5):
                        u = RadialTestFunction.random(n, p, seed=seed)
                        rep = check_inequality(u, params)
                        assert rep.holds and rep.margin > 0

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("p", [1.2, 2.0, 6.0])
    @pytest.mark.parametrize("m", [1, 2])
    def test_one_quadrature_matches_separate_norms(self, n, p, m):
        sp = SpaceParams(n)
        u = RadialTestFunction.random(n, p, seed=7 * n + m)
        rep = check_inequality(u, PoincareParams(n, m, p))
        dnorm = (grad_norm_geodesic if m == 1 else laplacian_norm_geodesic)(u, sp, p)
        assert rep.lhs == lp_norm_geodesic(u, sp, p)
        assert rep.rhs == sharp_constant(n, m, p) * dnorm

    @pytest.mark.parametrize("d", [1e-2, 1e-3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_holds_near_integrability_threshold(self, d, m):
        # alpha = 1/20 + d at n = 2, p = 20: the gradient's L^p density is
        # below 1e-14 out to rho = 40 and peaks near rho = 1/d, so its tail
        # may stop only relative to the mass found so far
        a = 1.0 / 20.0 + d
        rep = check_inequality(RadialTestFunction([1.0, a], a), PoincareParams(2, m, 20.0))
        assert rep.holds and rep.ratio < 1.0

    def test_m_cap(self):
        with pytest.raises(DomainError):
            check_inequality(RadialTestFunction.random(3, 2.0, seed=0),
                             PoincareParams(3, 3, 2.0))


class TestSharpness:
    def test_m1_quotient_close_to_constant(self):
        sp = SpaceParams(3)
        s0 = select_s0(sp, 0.01)
        ext = ExtremizerParams(eps=0.01, s0=s0, R=s0 * math.exp(100.0), p=2.0, sp=sp)
        q = rayleigh_quotient(PoincareParams(3, 1, 2.0), ext)
        assert 0.9 < q < 1.0

    def test_m1_quotient_lower_bound_formula(self):
        # (quotient/C)^p >= (L + 4/3) / ((1+eps)^p (L + 7 p^p / 3)) for p = 2,
        # from the closed-form numerator and the gradient upper bound
        sp = SpaceParams(3)
        eps, p = 0.01, 2.0
        s0 = select_s0(sp, eps)
        c = sharp_constant(3, 1, p)
        for lr in (20.0, 60.0):
            ext = ExtremizerParams(eps=eps, s0=s0, R=s0 * math.exp(lr), p=p, sp=sp)
            q = rayleigh_quotient(PoincareParams(3, 1, p), ext)
            floor = (lr + 4 / 3) / ((1 + eps) ** p * (lr + 7 * p ** p / 3))
            assert (q / c) ** p >= floor

    def test_sweep_monotone_m1(self):
        res = sharpness_sweep(3, 1, 2.0, log_ratios=(25.0, 50.0, 100.0))
        qs = [pt.quotient for pt in res.points]
        assert qs[0] < qs[1] < qs[2] < res.constant
        assert res.extrapolated <= res.constant * 1.02

    def test_sweep_m1_past_subnormal_ramp(self):
        # at ln(R/s0) = 480 the ramp slope R^(-1-1/p) is subnormal; the
        # scaled gradient norm never forms it
        res = sharpness_sweep(3, 1, 2.0, log_ratios=(400.0, 450.0, 480.0, 600.0, 700.0))
        qs = [pt.quotient for pt in res.points]
        assert qs[0] < qs[1] < qs[2] < qs[3] < qs[4] < res.constant

    @pytest.mark.parametrize("p", [1.2, 2.0, 6.0])
    @pytest.mark.parametrize("n, top", [(3, 701), (8, 692), (16, 680)])
    def test_sweep_m1_to_float_range(self, n, top, p):
        # top is the largest integer L whose support end 2R = 2 s0 e^L is
        # finite; the sphere area near 2R, about (n-1) 2R, is past the float
        # range there, and the volume kernel never forms it
        s0 = select_s0(SpaceParams(n), 0.01)
        support_radius(s0, top)
        with pytest.raises(DomainError):
            support_radius(s0, top + 1)
        res = sharpness_sweep(n, 1, p, log_ratios=(top - 200.0, top - 20.0, float(top)))
        qs = [pt.quotient for pt in res.points]
        assert 0.0 < qs[0] < qs[1] < qs[2] < res.constant

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_widest_m2_sweep_within_split_budget(self, n):
        # the L^p mass of the sampled iterate at ln(R/s0) = 58 takes the
        # per-interval Gauss rule; its adaptive fallback needs some 2,500
        # panel splits, close to the budget numerics.MAX_SPLITS of 4000
        res = sharpness_sweep(n, 2, 2.0, log_ratios=(58.0,))
        assert 0.0 < res.points[0].quotient < res.constant

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_sweep_monotone_m3(self, n, p):
        # odd m >= 3: the first inverse-Laplacian iterate over the gradient
        # norm of the base profile
        res = sharpness_sweep(n, 3, p, log_ratios=(10.0, 20.0, 40.0))
        qs = [pt.quotient for pt in res.points]
        assert 0.0 < qs[0] < qs[1] < qs[2] < res.constant

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("p", [1.2, 1.5])
    def test_sweep_rises_for_p_below_2(self, n, m, p):
        # |u|^p s of an iterate is nearly flat in ln s for p < 2, so mass far
        # above R counts; there the inverse Laplacian's descending integral
        # must keep its digits
        res = sharpness_sweep(n, m, p, log_ratios=(10.0, 20.0, 40.0, 55.0))
        qs = [pt.quotient for pt in res.points]
        assert 0.0 < qs[0] < qs[1] < qs[2] < qs[3] < res.constant

    @pytest.mark.parametrize("n", [11, 16])
    @pytest.mark.parametrize("p", [1.2, 2.0, 6.0])
    def test_sweep_m1_large_n(self, n, p):
        # s0 past the first probe grid's 1e9
        res = sharpness_sweep(n, 1, p)
        qs = [pt.quotient for pt in res.points]
        assert res.s0 > 1e9
        assert 0.0 < qs[0] < qs[1] < qs[2] < res.constant

    def test_sweep_s0_chosen_once(self):
        res = sharpness_sweep(3, 2, 2.0, log_ratios=(10.0, 20.0))
        assert res.s0 == select_s0(SpaceParams(3), 0.05)
        ext = ExtremizerParams.create(SpaceParams(3), 2.0, 0.05, 20.0)
        assert res.points[1].quotient == rayleigh_quotient(PoincareParams(3, 2, 2.0), ext)

    def test_sweep_cap_for_higher_order(self):
        with pytest.raises(DomainError):
            sharpness_sweep(3, 2, 2.0, log_ratios=(80.0,))

    @pytest.mark.parametrize("m, log_ratios", [(1, ()), (2, ()), (2, (10.0, 20.0, 80.0))])
    def test_sweep_log_ratios_checked_before_any_work(self, monkeypatch, m, log_ratios):
        # the whole sequence is checked before s0 is chosen or any quotient
        # computed
        def work(*args, **kwargs):
            raise AssertionError("sweep did work before checking its log ratios")

        monkeypatch.setattr(variational.extremizers, "select_s0", work)
        monkeypatch.setattr(variational, "rayleigh_quotient", work)
        with pytest.raises(DomainError):
            sharpness_sweep(3, m, 2.0, log_ratios=log_ratios)

    @pytest.mark.parametrize("m, log_ratio, match", [
        (1, 800.0, r"log ratio 800\.0: the support end 2R .* overflows"),
        (1, 705.0, r"log ratio 705\.0: the support end 2R .* overflows"),
        (2, math.nan, "log ratio nan is not finite")], ids=["m1-800", "m1-705", "m2-nan"])
    def test_sweep_names_log_ratio_beyond_floats(self, monkeypatch, m, log_ratio, match):
        # raised for the second entry before the first one's quotient
        def work(*args, **kwargs):
            raise AssertionError("sweep computed a quotient before checking its log ratios")

        monkeypatch.setattr(variational, "rayleigh_quotient", work)
        with pytest.raises(DomainError, match=match):
            sharpness_sweep(3, m, 2.0, log_ratios=(10.0, log_ratio))

    def test_sweep_default_eps(self):
        assert sharpness_sweep(3, 1, 2.0, log_ratios=(10.0,)).eps == 0.01
        assert sharpness_sweep(3, 2, 2.0, log_ratios=(10.0,)).eps == 0.05
