"""Command-line front end.

Subcommands: constant, verify-inequality, sharpness-sweep, hardy-demo,
selfcheck. Output formats, for all but selfcheck: table (default), csv,
json. Exit status: 0 if all checks passed, 1 if a mathematical check
failed or a computation did not converge, 2 on usage errors: an argument
outside its domain (p must be finite and exceed 1, verify-inequality needs
--count >= 1 and hardy-demo --count >= 0) or an output file that cannot be
opened. --output is opened once the subcommand has returned: a usage error
leaves an existing file untouched.

Each subcommand imports the modules it runs inside its own function, so a
process loads only those: `constant` needs the standard library alone and
starts without numpy, and `hardy-demo` loads neither the geometry nor the
extremizers.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .constants import DomainError, QuadratureError, sharp_constant

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17e" % x
    return str(x)


def _emit(columns, rows, fmt, out, config=None):
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(x) for x in row) + "\n")
    elif fmt == "json":
        payload = {
            "config": config or {},
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        json.dump(payload, out, indent=2, default=_fmt)
        out.write("\n")
    else:
        widths = [max(len(c), 24) for c in columns]
        out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)) + "\n")
        for row in rows:
            out.write("  ".join(_fmt(x).ljust(w) for x, w in zip(row, widths)) + "\n")


def cmd_constant(args, out):
    c = sharp_constant(args.n, args.m, args.p)
    pc = args.p / (args.p - 1.0)
    branch = "even" if args.m % 2 == 0 else "odd"
    if args.format == "table":
        out.write(f"C({args.n},{args.m},{args.p:g}) = {c:.15g}   "
                  f"(branch: {branch}, p' = {pc:.15g})\n")
    else:
        _emit(["n", "m", "p", "p_conjugate", "constant", "branch"],
              [(args.n, args.m, args.p, pc, c, branch)], args.format, out,
              config={"n": args.n, "m": args.m, "p": args.p})
    return EXIT_OK


def cmd_verify_inequality(args, out):
    from . import variational

    if args.m > 2:
        raise DomainError("the random test-function family supports m <= 2")
    if args.count < 1:
        raise DomainError(f"--count must be at least 1, not {args.count}")
    params = variational.PoincareParams(args.n, args.m, args.p)
    rows = []
    failures = 0
    for i in range(args.count):
        fid = f"tf-{args.seed}-{i}"
        try:
            u = variational.TestFunction.random(args.n, args.p,
                                                seed=args.seed * 100003 + i)
            rep = variational.check_inequality(u, params)
            rows.append((fid, rep.lhs, rep.rhs, rep.margin, rep.holds))
            if not rep.holds:
                failures += 1
        except Exception as exc:  # flagged row; the run continues
            rows.append((fid, float("nan"), float("nan"), float("nan"), False))
            failures += 1
            print(f"row {fid}: {exc}", file=sys.stderr)
    _emit(["function-id", "lhs", "rhs", "margin", "holds"], rows, args.format, out,
          config={"n": args.n, "m": args.m, "p": args.p, "count": args.count,
                  "seed": args.seed})
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _parse_log_range(spec):
    """Comma list '10,20,40' or range 'start:stop:count' of ln(R/s0)."""
    import numpy as np

    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError("log-range must be start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1 or stop < start:
            raise DomainError("log-range needs stop >= start and count >= 1")
        return list(np.linspace(start, stop, count))
    vals = [float(x) for x in spec.split(",") if x.strip()]
    if not vals:
        raise DomainError("empty R specification")
    return vals


def cmd_sharpness_sweep(args, out):
    from . import extremizers, variational

    log_ratios = _parse_log_range(args.log_ratios)
    res = variational.sharpness_sweep(args.n, args.m, args.p, eps=args.eps,
                                      log_ratios=log_ratios)
    rows = []
    for pt in res.points:
        rows.append((extremizers.support_radius(res.s0, pt.log_ratio), pt.log_ratio,
                     pt.quotient, pt.fraction_of_sharp))
    rows.append(("extrapolated", "", res.extrapolated,
                 res.extrapolated / res.constant))
    _emit(["R", "ln(R/s0)", "quotient", "quotient_over_C"], rows, args.format, out,
          config={"n": args.n, "m": args.m, "p": args.p, "eps": res.eps,
                  "log_ratios": log_ratios})
    return EXIT_OK


def _random_profile(seed):
    """Seeded random piecewise-constant decreasing-or-not positive profile."""
    import numpy as np

    from .profiles import PowerSegment, RadialProfile, zero_tail

    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 10.0, k))])
    heights = rng.uniform(0.1, 3.0, k)
    segs = []
    for (a, b), h in zip(zip(edges[:-1], edges[1:]), heights):
        segs.append(PowerSegment(a, b, [(float(h), 0.0)]))
    segs.append(zero_tail(edges[-1]))
    return RadialProfile(segs, tail_bound=np.inf)


def cmd_hardy_demo(args, out):
    from . import rearrangement
    from .profiles import indicator_profile

    if args.count < 0:
        raise DomainError(f"--count must be at least 0, not {args.count}")
    rows = []
    failures = 0
    profiles = [("indicator", indicator_profile(0.0, 1.0))]
    for i in range(args.count):
        profiles.append((f"rand-{args.seed}-{i}",
                         _random_profile(args.seed * 7919 + i)))
    for pid, prof in profiles:
        vstar = rearrangement.decreasing_rearrangement(prof)
        rep = rearrangement.hardy_check(vstar, args.p)
        rows.append((pid, rep.lhs, rep.rhs, rep.ratio, rep.holds))
        if not rep.holds:
            failures += 1
    _emit(["profile-id", "lhs", "rhs", "ratio", "holds"], rows, args.format, out,
          config={"p": args.p, "count": args.count, "seed": args.seed})
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _selfcheck_suites():
    """Yield (suite name, callable returning (ok, detail))."""
    import numpy as np

    from . import extremizers, rearrangement
    from .geometry import SpaceParams, ball_volume, laplacian_volume_coord, radius_for_volume

    sp3 = SpaceParams(3)

    def suite_roundtrip():
        worst = 0.0
        for n in (2, 3, 4, 5, 6):
            spn = SpaceParams(n)
            s = np.geomspace(1e-3, 1e6, 200)
            resid = np.abs(ball_volume(radius_for_volume(s, spn), spn) - s)
            worst = max(worst, float(np.max(resid / np.maximum(1e-10 * s, 1e-14))))
        return worst <= 1.0, f"worst residual ratio {worst:.3e} (<= 1 required)"

    def suite_volumes():
        rho = np.linspace(0.1, 5.0, 40)
        v2 = ball_volume(rho, SpaceParams(2))
        e2 = np.max(np.abs(v2 - 2 * np.pi * (np.cosh(rho) - 1)) / v2)
        v3 = ball_volume(rho, sp3)
        e3 = np.max(np.abs(v3 - np.pi * (np.sinh(2 * rho) - 2 * rho)) / v3)
        worst = float(max(e2, e3))
        return worst <= 1e-10, f"closed-form volume rel err {worst:.3e} (<= 1e-10)"

    def suite_hardy():
        worst = 0.0
        for i in range(10):
            prof = _random_profile(1000 + i)
            rep = rearrangement.hardy_check(
                rearrangement.decreasing_rearrangement(prof), 2.0)
            if not rep.holds:
                return False, f"Hardy failed on seeded profile {i}"
            worst = max(worst, rep.ratio)
        return True, f"10 profiles, max ratio {worst:.6f} (< 1 required)"

    def suite_g_oracle():
        params = extremizers.ExtremizerParams.create(sp3, 2.0, 0.01, 20.0)
        f = extremizers.extremizer_profile(params)
        mf = rearrangement.maximal_function(f)
        ss = np.geomspace(params.s0 * 1e-2, params.R * 1e2, 120)
        explicit = extremizers.averaged_extremizer_profile(params)(ss)
        err = float(np.max(np.abs(mf(ss) - explicit) / explicit))
        return err <= 1e-10, f"running average vs closed form rel err {err:.3e}"

    def suite_t_inversion():
        params = extremizers.ExtremizerParams.create(sp3, 2.0, 0.05, 30.0)
        v1 = extremizers.inverse_laplacian_iterates(params, 1)[0]
        f = extremizers.extremizer_profile(params)
        nodes = v1.segments[1].nodes
        mask = np.ones(len(nodes), bool)
        mask[:8] = mask[-8:] = False
        for kink in (params.s0, params.R, 2 * params.R):
            mask &= np.abs(np.log(nodes / kink)) > 0.05
        mask &= nodes <= 1.9 * params.R
        lap = -laplacian_volume_coord(v1, nodes[mask], sp3)
        truth = f(nodes[mask])
        err = float(np.max(np.abs(lap - truth)
                           / np.maximum(truth, np.max(truth) * 1e-6)))
        return err <= 1e-4, f"T-inversion rel err {err:.3e} (<= 1e-4)"

    def suite_sandwich():
        params = extremizers.ExtremizerParams.create(sp3, 2.0, 0.05, 40.0)
        it = extremizers.inverse_laplacian_iterates(params, 1)[0]
        rep = extremizers.sandwich_decomposition(params, it, 1)
        ok = rep.untouched_fraction_window >= 0.95
        return ok, (f"window fraction inside band {rep.untouched_fraction_window:.4f}"
                    f" (>= 0.95), remainder norm {rep.w_norm_p:.4f}")

    return [("round-trip", suite_roundtrip), ("closed-form-volumes", suite_volumes),
            ("hardy", suite_hardy), ("g-average-oracle", suite_g_oracle),
            ("t-inversion", suite_t_inversion), ("sandwich", suite_sandwich)]


def cmd_selfcheck(args, out):
    from .numerics import MAX_SPLITS, REL_TOL

    out.write(f"tolerances: rel_tol={REL_TOL:g} max_subdivisions={MAX_SPLITS}\n")
    failures = 0
    for name, fn in _selfcheck_suites():
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"error: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        out.write(f"[{status}] {name}: {detail}\n")
    out.write(("all suites passed\n") if failures == 0 else
              (f"{failures} suite(s) failed\n"))
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hpoincare",
        description="Sharp higher-order Poincare inequalities on hyperbolic "
                    "space: constants, verification, and sharpness sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, nm=True, seed=False):
        if nm:
            p.add_argument("--n", type=int, default=3, help="dimension (>= 2)")
            p.add_argument("--m", type=int, default=1, help="derivative order (>= 1)")
        p.add_argument("--p", type=float, default=2.0, help="integrability exponent (> 1)")
        p.add_argument("--format", choices=("csv", "json", "table"), default="table")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=1)

    pc = sub.add_parser("constant", help="print the sharp constant C(n,m,p)")
    common(pc)
    pc.set_defaults(func=cmd_constant)

    pv = sub.add_parser("verify-inequality",
                        help="evaluate both sides on random test functions")
    common(pv, seed=True)
    pv.add_argument("--count", type=int, default=50)
    pv.set_defaults(func=cmd_verify_inequality)

    ps = sub.add_parser("sharpness-sweep",
                        help="Rayleigh quotients of the extremizing family")
    common(ps)
    ps.add_argument("--eps", type=float, default=None,
                    help="area-ratio slack (default 0.01 for m=1, 0.05 for m>=2)")
    ps.add_argument("--log-ratios", default="10,20,40", dest="log_ratios",
                    help="ln(R/s0) values: comma list or start:stop:count")
    ps.set_defaults(func=cmd_sharpness_sweep)

    ph = sub.add_parser("hardy-demo",
                        help="Hardy inequality on rearranged random profiles")
    common(ph, nm=False, seed=True)
    ph.add_argument("--count", type=int, default=10)
    ph.set_defaults(func=cmd_hardy_demo)

    pk = sub.add_parser("selfcheck", help="run the full invariant suite")
    pk.add_argument("--output", default=None, help="output path (default stdout)")
    pk.set_defaults(func=cmd_selfcheck)
    return ap


def _open_output(path):
    """The output file, LF line ends, UTF-8; a path that cannot be opened
    is a usage error."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot open the output file: {exc}") from None


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if not args.output:
            return args.func(args, sys.stdout)
        buf = io.StringIO()
        code = args.func(args, buf)
        with _open_output(args.output) as fh:
            fh.write(buf.getvalue())
        return code
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
