import io
import json
import math
import os
import subprocess
import sys

import pytest

import hpoincare
from hpoincare import extremizers, geometry, variational
from hpoincare.cli import main
from hpoincare.numerics import MAX_SPLITS, REL_TOL, QuadratureError


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestConstant:
    def test_table(self, capsys):
        code, out, _ = run_cli(["constant", "--n", "3", "--m", "2", "--p", "2"], capsys)
        assert code == 0 and "C(3,2,2) = 1" in out and "even" in out

    def test_odd_branch_value(self, capsys):
        code, out, _ = run_cli(["constant", "--n", "4", "--m", "1", "--p", "2"], capsys)
        assert code == 0 and "0.666666666666667" in out and "odd" in out

    def test_usage_error_on_bad_p(self, capsys):
        code, _, err = run_cli(["constant", "--n", "3", "--m", "1", "--p", "1"], capsys)
        assert code == 2 and "error" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["constant", "--format", "json"], capsys)
        payload = json.loads(out)
        assert code == 0 and payload["rows"][0]["branch"] == "odd"

    @pytest.mark.parametrize("argv", [
        ["constant", "--p", "nan"],
        ["constant", "--p", "inf"],
        ["verify-inequality", "--p", "inf", "--count", "1"],
        ["sharpness-sweep", "--p", "nan", "--log-ratios", "10"],
    ])
    def test_non_finite_p_usage_error(self, argv, capsys):
        # each printed a NaN or infinite constant, a holding check, or a
        # quadrature failure
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and err.startswith("error: exponent p must be finite")


class TestVerifyInequality:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run_cli(["verify-inequality", "--count", "3",
                                "--format", "csv"], capsys)
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "function-id,lhs,rhs,margin,holds"
        assert len(lines) == 4 and all(l.endswith(",true") for l in lines[1:])

    def test_empty_count(self, capsys):
        # no test function checked is a usage error, not a pass
        for count in ("0", "-3"):
            code, out, err = run_cli(["verify-inequality", "--count", count,
                                      "--format", "csv"], capsys)
            assert code == 2 and out == "" and err.startswith("error: --count")

    def test_deterministic_bytes(self, capsys):
        args = ["verify-inequality", "--count", "5", "--seed", "7", "--format", "csv"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_m_cap_usage_error(self, capsys):
        code, _, err = run_cli(["verify-inequality", "--m", "3"], capsys)
        assert code == 2


class TestSharpnessSweep:
    def test_csv_schema_and_trend(self, capsys):
        code, out, _ = run_cli(["sharpness-sweep", "--m", "1",
                                "--log-ratios", "25,50", "--format", "csv"], capsys)
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "R,ln(R/s0),quotient,quotient_over_C"
        assert lines[-1].startswith("extrapolated,")
        q = [float(l.split(",")[2]) for l in lines[1:3]]
        assert q[0] < q[1]

    def test_empty_spec_usage_error(self, capsys):
        code, _, _ = run_cli(["sharpness-sweep", "--log-ratios", ""], capsys)
        assert code == 2

    def test_cap_named_for_high_order(self, capsys):
        code, _, err = run_cli(["sharpness-sweep", "--m", "2",
                                "--log-ratios", "80"], capsys)
        assert code == 2 and "cap" in err

    def test_support_end_overflow_is_usage_error(self, capsys):
        code, out, err = run_cli(["sharpness-sweep", "--m", "1",
                                  "--log-ratios", "800"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: log ratio 800.0: the support end")

    def test_quadrature_failure_reported_without_traceback(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise QuadratureError("quadrature did not converge within 4000 panel splits")

        monkeypatch.setattr(variational, "sharpness_sweep", failing)
        code, out, err = run_cli(["sharpness-sweep", "--m", "1"], capsys)
        assert code == 1 and out == ""
        assert err == "error: quadrature did not converge within 4000 panel splits\n"

    def test_m1_sweep_past_subnormal_ramp(self, capsys):
        # the ramp slope R^(-1-1/p) is subnormal at ln(R/s0) = 500
        code, _, err = run_cli(["sharpness-sweep", "--m", "1", "--log-ratios", "500"], capsys)
        assert code == 0 and err == ""

    def test_radius_is_the_one_the_sweep_used(self, capsys):
        # R = s0 e^L as support_radius builds it; numpy's exp differs by
        # 1 ulp at L = 25
        code, out, _ = run_cli(["sharpness-sweep", "--n", "3", "--m", "1", "--p", "2",
                                "--log-ratios", "25", "--format", "json"], capsys)
        assert code == 0
        s0 = extremizers.select_s0(geometry.SpaceParams(3), 0.01)
        assert json.loads(out)["rows"][0]["R"] == s0 * math.exp(25.0)

    def test_range_spec(self, capsys):
        code, out, _ = run_cli(["sharpness-sweep", "--m", "1", "--format", "csv",
                                "--log-ratios", "10:20:2"], capsys)
        assert code == 0 and len(out.strip().split("\n")) == 4


class TestHardyDemo:
    def test_all_hold(self, capsys):
        code, out, _ = run_cli(["hardy-demo", "--count", "3", "--format", "csv"],
                               capsys)
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "profile-id,lhs,rhs,ratio,holds"
        assert all(l.endswith(",true") for l in lines[1:])

    def test_zero_count_checks_the_indicator(self, capsys):
        code, out, _ = run_cli(["hardy-demo", "--count", "0", "--format", "csv"], capsys)
        assert code == 0 and out.strip().split("\n")[1].startswith("indicator,")

    @pytest.mark.parametrize("argv, message", [
        (["--p", "nan"], "error: the Hardy inequality check needs a finite p"),
        (["--count", "-1"], "error: --count must be at least 0"),
    ])
    def test_usage_errors(self, argv, message, capsys):
        # NaN p was reported as a divergent norm (exit 1), and a negative
        # count ran the indicator alone
        code, out, err = run_cli(["hardy-demo", *argv], capsys)
        assert code == 2 and out == "" and err.startswith(message)


class TestSelfcheck:
    def test_clean_pass(self, capsys):
        code, out, _ = run_cli(["selfcheck"], capsys)
        assert code == 0
        assert "all suites passed" in out
        # the quadrature's two settings, and no other tolerance
        assert out.splitlines()[0] == (f"tolerances: rel_tol={REL_TOL:g} "
                                       f"max_subdivisions={MAX_SPLITS}")

    def test_fault_injection_fails_volume_suite(self, capsys, monkeypatch):
        # a unit-ball volume 1% off must fail the closed-form volume suite
        ubv = geometry.unit_ball_volume
        monkeypatch.setattr(geometry, "unit_ball_volume", lambda n: 1.01 * ubv(n))
        code, out, _ = run_cli(["selfcheck"], capsys)
        assert code == 1
        assert "[FAIL] closed-form-volumes" in out


@pytest.mark.parametrize("argv", [
    ["constant", "--seed", "1"],
    ["sharpness-sweep", "--seed", "1"],
    ["hardy-demo", "--n", "3"],
    ["selfcheck", "--format", "json"],
    ["selfcheck", "--seed", "1"],
    ["selfcheck", "--corrupt-omega"],
])
def test_option_the_subcommand_does_not_read_is_usage_error(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and "unrecognized arguments" in err


class TestOutputFile:
    def test_writes_lf_utf8(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code = main(["constant", "--format", "csv", "--output", str(path)])
        data = path.read_bytes()
        assert code == 0 and b"\r" not in data and data.endswith(b"\n")

    def test_unopenable_path_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(["constant", "--output", str(path)], capsys)
        assert code == 2 and out == "" and err.startswith("error: cannot open the output file")
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv", [["hardy-demo", "--count", "-1"],
                                      ["constant", "--p", "nan"],
                                      ["sharpness-sweep", "--log-ratios", ","]])
    def test_usage_error_leaves_file_untouched(self, argv, tmp_path, capsys):
        # the file was opened, and so truncated, before the arguments were checked
        path = tmp_path / "keep.txt"
        path.write_bytes(b"kept\n")
        code, out, err = run_cli([*argv, "--output", str(path)], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert path.read_bytes() == b"kept\n"


_NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import hpoincare.cli as cli
from hpoincare import profiles

built = []
init = profiles.SampledSegment.__init__

def counting_init(self, *args):
    built.append(1)
    init(self, *args)

profiles.SampledSegment.__init__ = counting_init
codes = [cli.main(["constant", "--n", "3", "--m", "2", "--p", "2"]),
         cli.main(["sharpness-sweep", "--n", "3", "--m", "2", "--p", "2",
                   "--log-ratios", "10", "--format", "csv"])]
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"codes": codes, "sampled": len(built), "scipy": loaded}))
"""


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import hpoincare.cli as cli
sys.exit(cli.main(["constant", "--n", "3", "--m", "2", "--p", "2"]))
"""

_FOOTPRINT = """
import contextlib, io, json, sys
import hpoincare.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.split(".")[0] == "hpoincare")}))
"""

_BASE = ["hpoincare", "hpoincare.cli", "hpoincare.constants"]
_NUMERICAL = ["hpoincare.extremizers", "hpoincare.geometry", "hpoincare.numerics",
              "hpoincare.profiles", "hpoincare.variational"]


def _python(*args):
    """Run this interpreter on args with the package's source on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hpoincare.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))


class TestStartUp:
    def test_runs_without_scipy(self):
        # the constant and an m = 2 sweep, whose inverse-Laplacian iterates
        # are sampled profiles, in a process where scipy cannot be imported
        proc = _python("-c", _NO_SCIPY)
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        assert rec["codes"] == [0, 0]
        assert rec["sampled"] > 0
        assert rec["scipy"] == []

    def test_constant_runs_without_numpy(self):
        proc = _python("-c", _NO_NUMPY)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("C(3,2,2) = 1")

    @pytest.mark.parametrize("argv, modules", [
        (["constant"], _BASE),
        (["hardy-demo", "--count", "1"],
         _BASE + ["hpoincare.numerics", "hpoincare.profiles", "hpoincare.rearrangement"]),
        (["sharpness-sweep", "--log-ratios", "10"], _BASE + _NUMERICAL),
        (["verify-inequality", "--count", "1"], _BASE + _NUMERICAL),
    ])
    def test_subcommand_loads_only_its_modules(self, argv, modules):
        proc = _python("-c", _FOOTPRINT, *argv)
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout)
        assert rec["code"] == 0
        assert rec["modules"] == sorted(modules)
        assert rec["numpy"] == (argv[0] != "constant")

    def test_run_as_module_without_warnings(self):
        # runpy warns when the package's own import has already loaded the
        # module it is asked to run
        proc = _python("-W", "error", "-m", "hpoincare.cli", "constant")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
