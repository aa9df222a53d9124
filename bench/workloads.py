"""Seeded inputs, operations and per-op checks for the benchmark workloads.

Each workload is a class with

* ``cycle(seed)``: the fixed, seeded list of op specs the timed phase runs
  through in order, in whole passes;
* ``warmup()``: one op spec, independent of the seed, run untimed in set-up;
* ``run(spec)``: executes one op (timed by the caller) and returns
  ``(ok, detail, extra)``; ``ok`` is False when a per-op check is not met.

Specs are plain tuples of numbers; every program object (test function,
profile, extremizer) is built inside the op, so caches attached to those
objects never carry over from one op to the next or from one repeat of the
cycle to the next. The checks compare against references computed here,
not by the package under test.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np


def paper_constant(n, m, p):
    """C(n, m, p) from the paper's closed form, recomputed independently."""
    pc = p / (p - 1.0)
    k, odd = divmod(m, 2)
    c = (p * pc / (n - 1.0) ** 2) ** k
    return c * p / (n - 1.0) if odd else c


def _close(a, b, rel):
    return abs(a - b) <= rel * abs(b)


# --------------------------------------------------------------------------
# inequality: check_inequality / gradient-Laplacian bound on test functions

class Inequality:
    name = "inequality"
    # traced functions this workload must reach (checked by selftest.py)
    TRACED_CALLS = ("numerics.integrate", "geometry.log_sphere_area_of_radius",
                    "variational.check_inequality", "variational.lp_norm_geodesic",
                    "variational.grad_norm_geodesic", "variational.laplacian_norm_geodesic")
    DIMS = (2, 3, 4, 8)
    EXPONENTS = (1.2, 1.5, 2.0, 3.0, 6.0)
    # test functions per (kind, n, p): op cost varies several-fold with the
    # drawn coefficients and decay rate, and a pass over four draws of each
    # moves less from seed to seed than a pass over one
    DRAWS = 4

    def __init__(self, hp):
        self.variational = hp.variational
        self.SpaceParams = hp.SpaceParams

    def cycle(self, seed):
        rng = np.random.default_rng([seed, 1])
        specs = []
        for _ in range(self.DRAWS):
            for p in self.EXPONENTS:
                for n in self.DIMS:
                    for kind in ("m1", "m2", "grad-lap"):
                        specs.append((kind, n, p, int(rng.integers(2 ** 31))))
        return specs

    def warmup(self):
        return ("m2", 3, 2.0, 12345)

    def run(self, spec):
        kind, n, p, tf_seed = spec
        var = self.variational
        u = var.TestFunction.random(n, p, seed=tf_seed)
        if kind == "grad-lap":
            k = max(p, p / (p - 1.0)) / (n - 1.0)
            sp = self.SpaceParams(n)
            lhs = var.grad_norm_geodesic(u, sp, p)
            rhs = var.gradient_laplacian_constant(n, p) * var.laplacian_norm_geodesic(u, sp, p)
            ok = (_close(var.gradient_laplacian_constant(n, p), k, 1e-14)
                  and math.isfinite(lhs) and 0.0 < lhs < rhs)
            return ok, f"grad/lap lhs={lhs!r} rhs={rhs!r}", {}
        m = 1 if kind == "m1" else 2
        rep = var.check_inequality(u, var.PoincareParams(n, m, p))
        ok = (_close(rep.constant, paper_constant(n, m, p), 1e-14)
              and rep.holds and rep.margin > 0 and 0.0 < rep.lhs / rep.rhs < 1.0)
        return ok, f"lhs={rep.lhs!r} rhs={rep.rhs!r} margin={rep.margin!r}", {}


# --------------------------------------------------------------------------
# sharpness: sharpness_sweep over n 2-8, m 1-4, p 1.2-6

class Sharpness:
    name = "sharpness"
    TRACED_CALLS = ("numerics.integrate", "geometry.radius_for_volume",
                    "geometry.surface_measure", "profiles.RadialProfile.__call__",
                    "profiles.RadialProfile.lp_power", "extremizers.select_s0",
                    "extremizers.inverse_laplacian", "extremizers.inverse_laplacian_iterates",
                    "variational.lp_norm_volume", "variational.grad_norm_volume",
                    "variational.rayleigh_quotient", "variational.sharpness_sweep")
    DIMS = (2, 3, 8)
    ORDERS = (1, 2, 3, 4)
    EXPONENTS = (1.2, 1.5, 2.0, 3.0, 6.0)
    # ranges of the three ascending ln(R/s0) values of a sweep. For m >= 2
    # the last one lies in [54, 60], where the quotients for p < 2 are known
    # not to be converged: there every such sweep fails its check, whatever
    # the seed. Below about 51 some p = 1.5 sweeps pass and some fail with
    # the draw, so the failed count would move from seed to seed.
    LOG_RATIO_RANGES = {1: ((10.0, 20.0), (25.0, 40.0), (50.0, 80.0)),
                        2: ((8.0, 14.0), (16.0, 30.0), (54.0, 60.0))}

    def __init__(self, hp):
        self.variational = hp.variational

    def cycle(self, seed):
        rng = np.random.default_rng([seed, 2])
        specs = []
        for n in self.DIMS:
            for m in self.ORDERS:
                for p in self.EXPONENTS:
                    ranges = self.LOG_RATIO_RANGES[min(m, 2)]
                    lrs = tuple(float(rng.uniform(lo, hi)) for lo, hi in ranges)
                    specs.append((n, m, p, lrs))
        return specs

    def warmup(self):
        return (3, 2, 2.0, (10.0, 20.0, 40.0))

    @staticmethod
    def known_defect(spec):
        """Known defect (listed in ROADMAP.md): m >= 2 sweeps with p < 2 are
        not converged at wide supports, so their quotients need not increase."""
        _, m, p, _ = spec
        return m >= 2 and p < 2.0

    def run(self, spec):
        n, m, p, lrs = spec
        res = self.variational.sharpness_sweep(n, m, p, log_ratios=lrs)
        c = paper_constant(n, m, p)
        q = [pt.quotient for pt in res.points]
        ok = (len(q) == len(lrs) and all(math.isfinite(x) and 0.0 < x < c for x in q)
              and all(a < b for a, b in zip(q, q[1:])))
        return ok, f"quotient/C={[x / c for x in q]}", {"sharp_fraction": q[-1] / c}


# --------------------------------------------------------------------------
# rearrangement: rearrange, distribution functions, maximal function, Hardy

class Rearrangement:
    name = "rearrangement"
    TRACED_CALLS = ("numerics.batched_gauss", "profiles.RadialProfile.__call__",
                    "profiles.RadialProfile.running_integral", "profiles.RadialProfile.lp_power",
                    "rearrangement.decreasing_rearrangement",
                    "rearrangement.distribution_function", "rearrangement.maximal_function",
                    "rearrangement.hardy_check")
    # The cycle is stratified. Each position is a template: Hardy exponent,
    # breakpoints, and per piece its shape and end values; a "power-tail"
    # template ends in c * s^-1.5 with the given value at its start. The
    # seed maps breakpoints and values through random increasing maps, so
    # the order of all values (rising or falling pieces, which levels
    # interleave) is the template's. Op cost depends mostly on that order,
    # so it moves little from seed to seed. The length of the support and
    # the spacing of the values matter too, so the seed moves breakpoints by
    # a few per cent only (a 0.7-1.4 scale moved the cost of a pass by a
    # third) and bends values by at most 10 %. Piecewise-constant profiles
    # skip most of the inversion work. Hardy at p = 1.5 runs on compact
    # profiles only: on a c * s^-1.5 tail it takes 6-7 s, a third of a run.
    POSITIONS = (
        (1.5, (0, 6), (("affine", 2.4, 0.5),), None),
        (2.0, (0, 4, 9), (("constant", 0.8, 0.8), ("constant", 2.1, 2.1)), None),
        (3.0, (0, 5), (("constant", 1.1, 1.1),), 2.0),
        (3.0, (0, 3, 7), (("constant", 2.0, 2.0), ("affine", 0.8, 2.6)), None),
        (1.5, (0, 5, 8), (("constant", 2.6, 2.6), ("constant", 1.2, 1.2)), None),
        (2.0, (0, 3, 8), (("affine", 0.5, 1.9), ("power", 1.9, 0.4)), None),
        (3.0, (0, 4), (("affine", 2.2, 0.9),), 1.4),
        (3.0, (0, 2, 5, 9), (("constant", 1.2, 1.2), ("constant", 2.7, 2.7),
                             ("constant", 0.6, 0.6)), None),
        (1.5, (0, 2, 6), (("constant", 1.5, 1.5), ("power", 0.6, 2.4)), None),
        (2.0, (0, 4), (("constant", 1.6, 1.6),), 0.7),
        (1.5, (0, 7), (("affine", 0.4, 2.8),), None),
        (2.0, (0, 1.5, 6), (("constant", 2.9, 2.9), ("power", 2.0, 0.3)), None),
    )
    # An op takes three of the profiles above through the chain, grouped so
    # that the four ops of a pass cost about the same (each 21-28 % of a
    # pass in runs over seeds 1-10). With one profile per op, op cost ranged
    # 0.4-2.5 s and the median of a pass's 12 latencies jumped between cost
    # clusters from run to run.
    GROUPS = ((0, 2, 5), (1, 4, 9), (3, 7, 11), (6, 8, 10))
    LEVELS = 12
    DELTA = 1e-6  # relative offset of the f* probes around mu(t)

    def __init__(self, hp):
        self.rearr = hp.rearrangement
        from hpoincare.profiles import PowerSegment, RadialProfile, zero_tail
        self.PowerSegment, self.RadialProfile, self.zero_tail = (
            PowerSegment, RadialProfile, zero_tail)

    def cycle(self, seed):
        rng = np.random.default_rng([seed, 3])
        profiles = [self._draw(rng, pos) for pos in self.POSITIONS]
        return [tuple(profiles[i] for i in group) for group in self.GROUPS]

    def warmup(self):
        return (self._draw(None, (2.0, (0, 3), (("constant", 1.0, 1.0),), None)),)

    @staticmethod
    def _draw(rng, template):
        """Spec (pieces, tail, hardy_p) from a template. A piece is
        (a, b, c0, c1, e), the positive value c0 + c1 * s^e on [a, b) through
        the piece's two end values; tail is (E, c) for c * s^-1.5 on
        [E, inf), or None for a compact profile. rng None keeps the
        template's own numbers."""
        hardy_p, edges, shapes, tail_value = template
        scale, bend, vscale, vbend = (1.0, 1.0, 1.0, 1.0) if rng is None else (
            rng.uniform(0.95, 1.05), rng.uniform(0.95, 1.05),
            rng.uniform(0.5, 2.0), rng.uniform(0.9, 1.1))
        span = edges[-1]
        xs = [scale * span * (e / span) ** bend for e in edges]
        val = lambda v: float(vscale * v ** vbend)
        pieces = []
        for a, b, (shape, va, vb) in zip(xs[:-1], xs[1:], shapes):
            va, vb = val(va), val(vb)
            if shape == "constant":
                pieces.append((a, b, va, 0.0, 0.0))
            elif shape == "power":
                e = math.log(vb / va) / math.log(b / a)
                pieces.append((a, b, 0.0, va / a ** e, e))
            else:
                slope = (vb - va) / (b - a)
                pieces.append((a, b, va - slope * a, slope, 1.0))
        tail = None if tail_value is None else (xs[-1], val(tail_value) * xs[-1] ** 1.5)
        return (tuple(pieces), tail, hardy_p)

    def _profile(self, spec):
        pieces, tail, _ = spec
        segs = []
        for a, b, c0, c1, e in pieces:
            terms = [(c0, 0.0)] if c1 == 0.0 else (
                [(c1, e)] if c0 == 0.0 else [(c0, 0.0), (c1, e)])
            segs.append(self.PowerSegment(a, b, terms))
        if tail is None:
            segs.append(self.zero_tail(pieces[-1][1]))
            return self.RadialProfile(segs, tail_bound=np.inf)
        segs.append(self.PowerSegment(tail[0], np.inf, [(tail[1], -1.5)]))
        return self.RadialProfile(segs, tail_bound=1.5)

    @staticmethod
    def reference_measure(spec, t):
        """|{s : v(s) > t}| in closed form from the spec (every piece is
        positive and monotone)."""
        pieces, tail, _ = spec
        total = 0.0
        for a, b, c0, c1, e in pieces:
            if c1 == 0.0 or e == 0.0:
                total += (b - a) if c0 + c1 > t else 0.0
                continue
            # affine (e = 1): c0 + c1 s > t; power (c0 = 0, c1 > 0): s^e > t / c1
            r = (t - c0) / c1
            if e == 1.0:
                x, rising = r, c1 > 0
            else:
                x, rising = r ** (1.0 / e), e > 0
            lo, hi = (max(a, x), b) if rising else (a, min(b, x))
            total += max(0.0, hi - lo)
        if tail is not None:
            e_last, c = tail
            total += max(0.0, (c / t) ** (2.0 / 3.0) - e_last)
        return total

    @staticmethod
    def sup(spec):
        pieces, tail, _ = spec
        ends = []
        for a, b, c0, c1, e in pieces:
            for s in (a, b):
                ends.append(c0 + (c1 * s ** e if c1 != 0.0 else 0.0))
        if tail is not None:
            ends.append(tail[1] * tail[0] ** -1.5)
        return max(ends)

    def run(self, group):
        results = [self._run_profile(spec) for spec in group]
        return all(ok for ok, _ in results), "; ".join(d for _, d in results), {}

    def _run_profile(self, spec):
        rr = self.rearr
        prof = self._profile(spec)
        vstar = rr.decreasing_rearrangement(prof)
        sup = self.sup(spec)
        levels = np.geomspace(sup * 1e-2, sup * 0.995, self.LEVELS)
        mu_o = rr.distribution_function(prof, levels)
        mu_s = rr.distribution_function(vstar, levels)
        equi = float(np.max(np.abs(mu_o - mu_s) / np.maximum(mu_o, 1e-8)))
        # f* probed just left and right of the independently computed mu(t)
        mu_ref = np.array([self.reference_measure(spec, t) for t in levels])
        live = mu_ref > 0
        left = vstar(mu_ref[live] * (1 - self.DELTA))
        right = vstar(mu_ref[live] * (1 + self.DELTA))
        probe_ok = bool(np.all(left > levels[live]) and np.all(levels[live] >= right))
        s = np.geomspace(1e-3, 14.0, 60)
        favg = rr.maximal_function(vstar)(s)
        dominance = bool(np.all(favg >= vstar(s) * (1 - 1e-7)))
        hardy = rr.hardy_check(vstar, spec[2])
        ok = (equi <= 1e-8 and probe_ok and dominance and hardy.holds
              and 0.0 < hardy.lhs < hardy.rhs)
        return ok, (f"equi={equi:.2e} probes={probe_ok} f**>=f*={dominance} "
                    f"hardy ratio={hardy.ratio!r}")


# --------------------------------------------------------------------------
# cli: one fresh `python -m hpoincare.cli` process per op

class Cli:
    name = "cli"
    TRACED_CALLS = ()  # ops run in other processes; the probe covers this layer
    DISTINCT = 8  # distinct argvs per cycle; each repeats within a run
    WARMUP = ("constant", "--n", "3", "--m", "2", "--p", "2.0")

    def __init__(self, hp):
        self.first_stdout = {}

    def cycle(self, seed):
        rng = np.random.default_rng([seed, 4])
        exps = (1.2, 1.5, 2.0, 3.0, 6.0)
        specs = []
        for _ in range(self.DISTINCT // 4):
            n = int(rng.integers(2, 9))
            p = float(exps[int(rng.integers(5))])
            m = int(rng.integers(1, 5))
            specs.append(("constant", "--n", str(n), "--m", str(m), "--p", repr(p)))
            specs.append(("verify-inequality", "--n", str(n), "--m",
                          str(int(rng.integers(1, 3))), "--p", repr(p), "--count", "2",
                          "--seed", str(int(rng.integers(1, 10 ** 6))), "--format", "json"))
            lr = float(rng.uniform(8.0, 15.0))
            specs.append(("sharpness-sweep", "--n", str(n), "--m", "1", "--p", repr(p),
                          "--log-ratios", f"{lr:.3f},{2 * lr:.3f}", "--format", "json"))
            specs.append(("hardy-demo", "--p", repr(p), "--count", "1",
                          "--seed", str(int(rng.integers(1, 10 ** 6))), "--format", "json"))
        return specs

    def warmup(self):
        return self.WARMUP

    def run(self, spec):
        proc = subprocess.run([sys.executable, "-m", "hpoincare.cli", *spec],
                              capture_output=True, timeout=120)
        out = proc.stdout
        if proc.returncode != 0:
            return False, f"exit {proc.returncode}: {proc.stderr[-300:]!r}", {}
        first = self.first_stdout.setdefault(spec, out)
        if out != first:
            return False, "stdout differs from an earlier run of the same argv", {}
        return self._check_output(spec, out.decode())

    @staticmethod
    def _check_output(spec, text):
        args = dict(zip(spec[1::2], spec[2::2]))
        p = float(args["--p"])
        if spec[0] == "constant":
            n, m = int(args["--n"]), int(args["--m"])
            value = float(text.split("=", 1)[1].split()[0])
            ok = _close(value, paper_constant(n, m, p), 1e-13)
            return ok, f"C={value!r}", {}
        rows = json.loads(text)["rows"]
        if spec[0] == "sharpness-sweep":
            c = paper_constant(int(args["--n"]), 1, p)
            q = [r["quotient"] for r in rows[:-1]]
            ok = all(0.0 < x < c for x in q) and all(a < b for a, b in zip(q, q[1:]))
            return ok, f"quotients={q}", {}
        ok = bool(rows) and all(r["holds"] and r["lhs"] < r["rhs"] for r in rows)
        return ok, f"{len(rows)} rows hold={ok}", {}


WORKLOADS = {w.name: w for w in (Inequality, Sharpness, Rearrangement, Cli)}
