"""Acceptance gate: eleven criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; each test
prints `[PASS] criterion-N: ...` (or FAIL with the offending numbers) and
asserts the same condition.
"""

import math

import numpy as np
import pytest

from conftest import random_profile
from hpoincare.extremizers import (ExtremizerParams, averaged_extremizer_profile,
                                   extremizer_profile,
                                   inverse_laplacian_iterates,
                                   sandwich_decomposition, select_s0)
from hpoincare.geometry import (SpaceParams, ball_volume,
                                laplacian_volume_coord, radius_for_volume)
from hpoincare.numerics import integrate
from hpoincare.profiles import PowerSegment, RadialProfile, zero_tail
from hpoincare.rearrangement import (decreasing_rearrangement,
                                     distribution_function, hardy_check,
                                     maximal_function)
from hpoincare.variational import (PoincareParams, check_inequality,
                                   rayleigh_quotient, sharp_constant)
from hpoincare.variational import TestFunction as RadialTestFunction

SP3 = SpaceParams(3)

# quotients observed across the sharpness/property suites, consumed by
# criterion 11 (pytest runs the tests of this file in definition order)
OBSERVED_QUOTIENT_FRACTIONS = []


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion-{num}: {detail}")
    assert ok, f"criterion-{num}: {detail}"


def test_criterion_1_constant_reduction():
    worst = 0.0
    for n in range(2, 7):
        for m in range(1, 5):
            want = (2.0 / (n - 1)) ** m
            got = sharp_constant(n, m, 2.0)
            worst = max(worst, abs(got - want) / want)
    _report(1, worst <= 1e-14,
            f"C(n,m,2) vs (2/(n-1))^m worst rel err {worst:.2e} (tol 1e-14)")


def test_criterion_2_geometry_round_trip():
    worst_ratio = 0.0
    for n in range(2, 6):
        sp = SpaceParams(n)
        s = np.geomspace(1e-3, 1e6, 60)
        resid = np.abs(ball_volume(radius_for_volume(s, sp), sp) - s)
        worst_ratio = max(worst_ratio,
                          float(np.max(resid / np.maximum(1e-10 * s, 1e-14))))
    rho = np.linspace(0.05, 8.0, 30)
    e2 = np.max(np.abs(ball_volume(rho, SpaceParams(2))
                       - 2 * np.pi * (np.cosh(rho) - 1))
                / ball_volume(rho, SpaceParams(2)))
    e3 = np.max(np.abs(ball_volume(rho, SP3) - np.pi * (np.sinh(2 * rho) - 2 * rho))
                / ball_volume(rho, SP3))
    closed = float(max(e2, e3))
    ok = worst_ratio <= 1.0 and closed <= 1e-10
    _report(2, ok, f"round-trip residual ratio {worst_ratio:.2e} (<=1), "
                   f"closed-form volume rel err {closed:.2e} (tol 1e-10)")


def test_criterion_3_key_inequality():
    strict_ok = True
    for n in (2, 3, 4, 5):
        sp = SpaceParams(n)
        s = np.geomspace(1e-6, 1e9, 150)
        from hpoincare.geometry import surface_measure
        strict_ok &= bool(np.all(surface_measure(s, sp) > (n - 1) * s))
    probe_ok = True
    details = []
    for n, eps in ((3, 0.01), (3, 0.05), (4, 0.05)):
        sp = SpaceParams(n)
        s0 = select_s0(sp, eps)
        probe = np.geomspace(s0, s0 * 1e8, 100)
        from hpoincare.extremizers import area_ratio
        worst = float(np.max(area_ratio(probe, sp)))
        probe_ok &= worst <= 1 + eps
        details.append(f"n={n},eps={eps}: max ratio {worst:.6f}")
    _report(3, strict_ok and probe_ok,
            "A(s) > (n-1)s strict; " + "; ".join(details))


def test_criterion_4_rearrangement_suite():
    worst_equi = 0.0
    hardy_all = True
    dominance_all = True
    for seed in range(50):
        prof = random_profile(seed)
        vstar = decreasing_rearrangement(prof)
        sup = float(np.max(prof(np.linspace(1e-6, 13, 2000))))
        levels = np.geomspace(sup * 1e-2, sup * 0.995, 12)
        mu_o = distribution_function(prof, levels)
        mu_s = distribution_function(vstar, levels)
        worst_equi = max(worst_equi, float(np.max(
            np.abs(mu_o - mu_s) / np.maximum(mu_o, 1e-8))))
        t = np.geomspace(1e-3, 14, 60)
        dominance_all &= bool(np.all(
            maximal_function(vstar)(t) >= vstar(t) * (1 - 1e-7)))
        p = (1.5, 2.0, 3.0)[seed % 3]
        hardy_all &= hardy_check(vstar, p).holds
    # power-law family approaches the Hardy constant under widening truncation
    attain_ok = True
    attained = {}
    for p in (1.5, 2.0, 3.0):
        ratios = []
        for L in (50.0, 200.0, 600.0):
            prof = RadialProfile([PowerSegment(0, 1, [(1.0, 0.0)]),
                                  PowerSegment(1, math.exp(L), [(1.0, -1 / p)]),
                                  zero_tail(math.exp(L))],
                                 tail_bound=np.inf)
            ratios.append(hardy_check(prof, p).ratio)
        attain_ok &= ratios[0] < ratios[1] < ratios[2] and ratios[2] >= 0.99
        attained[p] = ratios[2]
    ok = worst_equi <= 1e-8 and hardy_all and dominance_all and attain_ok
    _report(4, ok, f"50 profiles: equimeasurability worst rel err "
                   f"{worst_equi:.2e} (tol 1e-8), f**>=f* {dominance_all}, "
                   f"Hardy holds {hardy_all}, attainment {attained}")


def test_criterion_5_running_average_oracle():
    params = ExtremizerParams(eps=0.01, s0=select_s0(SP3, 0.01),
                              R=select_s0(SP3, 0.01) * math.exp(12.0), p=2.0,
                              sp=SP3)
    f = extremizer_profile(params)
    rng = np.random.default_rng(5)
    ss = np.exp(rng.uniform(np.log(params.s0 * 1e-3),
                            np.log(params.R * 1e3), 198))
    ss = np.concatenate([ss, [params.s0, params.R]])
    want = np.where(ss > 0, f.running_integral(ss) / ss, 0.0)
    got = averaged_extremizer_profile(params)(ss)
    worst = float(np.max(np.abs(got - want) / want))
    # tail mass beyond R stays essentially constant as R grows
    masses = []
    for mult in (1.0, 10.0, 100.0):
        pm = ExtremizerParams(eps=0.01, s0=params.s0, R=params.R * mult,
                              p=2.0, sp=SP3)
        g = averaged_extremizer_profile(pm)
        bulk = integrate(lambda s: g(s) ** 2, pm.R, 2 * pm.R)
        coef = g(np.array([3 * pm.R]))[0] * 3 * pm.R
        masses.append(bulk + coef ** 2 / (2 * pm.R))
    growth = max(masses[i + 1] / masses[i] for i in range(2))
    ok = worst <= 1e-10 and growth <= 1.05
    _report(5, ok, f"200 abscissae incl. breakpoints: worst rel err {worst:.2e} "
                   f"(tol 1e-10); tail-mass growth factor {growth:.4f} (<=1.05)")


def test_criterion_6_t_inversion():
    params = ExtremizerParams(eps=0.05, s0=select_s0(SP3, 0.05),
                              R=select_s0(SP3, 0.05) * math.exp(10.0), p=2.0,
                              sp=SP3)
    f = extremizer_profile(params)
    v1 = inverse_laplacian_iterates(params, 1)[0]
    nodes = v1.segments[1].nodes
    mask = np.ones(len(nodes), bool)
    mask[:8] = mask[-8:] = False
    for kink in (params.s0, params.R, 2 * params.R):
        mask &= np.abs(np.log(nodes / kink)) > 0.05
    mask &= nodes <= 1.9 * params.R
    lap = -laplacian_volume_coord(v1, nodes[mask], SP3)
    truth = f(nodes[mask])
    worst = float(np.max(np.abs(lap - truth)
                         / np.maximum(truth, np.max(truth) * 1e-6)))
    _report(6, worst <= 1e-4,
            f"-(A^2 u')' vs source on {int(mask.sum())} interior nodes of the "
            f"{len(nodes)}-node fine grid: worst rel err {worst:.2e} (tol 1e-4)")


def test_criterion_7_inequality_property_suite():
    worst_fraction = 0.0
    failures = 0
    checks = 0
    for n in (2, 3, 4):
        for p in (1.5, 2.0, 3.0):
            for m in (1, 2):
                params = PoincareParams(n, m, p)
                for i in range(50):
                    u = RadialTestFunction.random(n, p, seed=97 * n + 13 * m
                                                  + int(10 * p) + 1009 * i)
                    rep = check_inequality(u, params)
                    checks += 1
                    if not (rep.lhs <= rep.rhs * (1 + 1e-8) and rep.margin > 0):
                        failures += 1
                    worst_fraction = max(worst_fraction, rep.ratio)
                    OBSERVED_QUOTIENT_FRACTIONS.append(rep.ratio)
    # corollary: gradient norm vs Laplacian norm with the dual-exponent
    # constant max(p, p')/(n-1); the one-sided p/(n-1) fails for p < 2
    from hpoincare.variational import (grad_norm_geodesic,
                                       gradient_laplacian_constant,
                                       laplacian_norm_geodesic)
    for n in (2, 3, 4):
        for p in (1.5, 2.0, 3.0):
            c1 = gradient_laplacian_constant(n, p)
            for i in range(10):
                u = RadialTestFunction.random(n, p, seed=55000 + 17 * n
                                              + int(10 * p) + 101 * i)
                sp = SpaceParams(n)
                lhs = grad_norm_geodesic(u, sp, p)
                rhs = c1 * laplacian_norm_geodesic(u, sp, p)
                checks += 1
                if not lhs <= rhs * (1 + 1e-8):
                    failures += 1
                OBSERVED_QUOTIENT_FRACTIONS.append(lhs / rhs)
    _report(7, failures == 0,
            f"{checks} random-test-function checks, {failures} failures, "
            f"max observed lhs/rhs {worst_fraction:.6f}")


def test_criterion_8_sharpness_m1():
    c = sharp_constant(3, 1, 2.0)
    s0 = select_s0(SP3, 0.01)
    fractions = []
    for lr in (50.0, 100.0, 200.0):
        ext = ExtremizerParams(eps=0.01, s0=s0, R=s0 * math.exp(lr), p=2.0,
                               sp=SP3)
        q = rayleigh_quotient(PoincareParams(3, 1, 2.0), ext)
        fractions.append(q / c)
        OBSERVED_QUOTIENT_FRACTIONS.append(q / c)
    ok = fractions[0] < fractions[1] < fractions[2] and fractions[2] >= 0.95
    _report(8, ok, "quotient/C at ln(R/s0)=50,100,200: "
                   + ", ".join(f"{f:.4f}" for f in fractions)
                   + " (strictly increasing, final >= 0.95)")


def test_criterion_9_sharpness_m2():
    c = sharp_constant(3, 2, 2.0)
    s0 = select_s0(SP3, 0.05)
    fractions = []
    for lr in (10.0, 20.0, 40.0):
        ext = ExtremizerParams(eps=0.05, s0=s0, R=s0 * math.exp(lr), p=2.0,
                               sp=SP3)
        q = rayleigh_quotient(PoincareParams(3, 2, 2.0), ext)
        fractions.append(q / c)
        OBSERVED_QUOTIENT_FRACTIONS.append(q / c)
    ok = fractions[0] < fractions[1] < fractions[2] and fractions[2] >= 0.85
    _report(9, ok, "quotient/C at ln(R/s0)=10,20,40: "
                   + ", ".join(f"{f:.4f}" for f in fractions)
                   + " (strictly increasing, final >= 0.85)")


def test_criterion_10_sandwich():
    s0 = select_s0(SP3, 0.05)
    reports = []
    for lr in (30.0, 40.0):
        ext = ExtremizerParams(eps=0.05, s0=s0, R=s0 * math.exp(lr), p=2.0,
                               sp=SP3)
        it = inverse_laplacian_iterates(ext, 1)[0]
        reports.append(sandwich_decomposition(ext, it, 1))
    frac = reports[1].untouched_fraction_window
    growth = reports[1].w_norm_p / reports[0].w_norm_p
    ok = frac >= 0.95 and growth <= 1.5
    _report(10, ok, f"window fraction unclamped {frac:.4f} (>=0.95); remainder "
                    f"norm growth x{growth:.4f} over R -> R*e^10 (<=1.5)")


def test_criterion_11_non_attainment():
    assert OBSERVED_QUOTIENT_FRACTIONS, "suites 7-9 must run first"
    worst = max(OBSERVED_QUOTIENT_FRACTIONS)
    _report(11, worst < 1.0,
            f"max quotient/C over {len(OBSERVED_QUOTIENT_FRACTIONS)} quotients "
            f"from suites 7-9: {worst:.6f} (< 1 required)")
