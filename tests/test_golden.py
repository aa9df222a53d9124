"""Golden outputs of the command-line tool, run in-process.

Each case pins the stdout of one command. Text fields must match exactly;
numbers must agree to 1e-9 relative, which leaves room for the rounding of
other numpy builds but not for a change of method. A change that moves
these numbers on purpose updates them here and says so.
"""

import math
import re

import pytest

from hpoincare.cli import main

GOLDEN = {
    "constant": (
        "constant --n 3 --m 2 --p 2",
        "C(3,2,2) = 1   (branch: even, p' = 2)\n"),
    "verify_inequality_m1": (
        "verify-inequality --n 3 --m 1 --p 2 --count 20 --seed 1 --format csv",
        "function-id,lhs,rhs,margin,holds\n"
        "tf-1-0,1.60629369939607458e+00,2.56426166032745062e+00,9.57967960931376039e-01,true\n"
        "tf-1-1,3.82789913865149467e+00,4.85376827490637108e+00,1.02586913625487641e+00,true\n"
        "tf-1-2,1.25667297406675282e+00,1.52703776393874358e+00,2.70364789871990752e-01,true\n"
        "tf-1-3,2.17366673069159955e+00,2.32673927329504737e+00,1.53072542603447825e-01,true\n"
        "tf-1-4,1.76448901270282867e+01,1.83458906410390270e+01,7.01000514010740261e-01,true\n"
        "tf-1-5,1.53937777843115065e+00,2.67503983143175939e+00,1.13566205300060874e+00,true\n"
        "tf-1-6,7.75829136781163076e+00,8.27710555966274342e+00,5.18814191851112660e-01,true\n"
        "tf-1-7,5.27179871870757832e+00,6.28913985648443319e+00,1.01734113777685486e+00,true\n"
        "tf-1-8,8.27303124315491800e+00,8.99971394436772698e+00,7.26682701212808979e-01,true\n"
        "tf-1-9,1.91574551303534824e+00,2.23126295237430261e+00,3.15517439338954375e-01,true\n"
        "tf-1-10,4.29049776052727427e+00,5.17637297550149356e+00,8.85875214974219283e-01,true\n"
        "tf-1-11,7.90132949475344049e+00,8.18431150226386883e+00,2.82982007510428346e-01,true\n"
        "tf-1-12,4.11733336668516259e+00,4.37395274092016884e+00,2.56619374235006248e-01,true\n"
        "tf-1-13,4.31079833376635913e-01,6.83362467677602670e-01,2.52282634300966757e-01,true\n"
        "tf-1-14,1.01810785050735908e+00,1.28370779312334027e+00,2.65599942615981188e-01,true\n"
        "tf-1-15,5.38705333215824744e+00,6.16980795139640570e+00,7.82754619238158256e-01,true\n"
        "tf-1-16,9.60816388202033078e-01,1.46284170640069400e+00,5.02025318198660919e-01,true\n"
        "tf-1-17,3.39974058919109456e+00,3.78164059424641907e+00,3.81900005055324510e-01,true\n"
        "tf-1-18,4.63717927818532782e+00,4.95163510067912682e+00,3.14455822493798998e-01,true\n"
        "tf-1-19,3.08449301821275634e+00,3.61438967190088212e+00,5.29896653688125774e-01,true\n"),
    "sharpness_sweep_m1": (
        "sharpness-sweep --n 3 --m 1 --p 2 --log-ratios 25,50,100 --format csv",
        "R,ln(R/s0),quotient,quotient_over_C\n"
        "1.40554963857485422e+14,2.50000000000000000e+01,8.75486463889944555e-01,8.75486463889944555e-01\n"
        "1.01206460239281452e+25,5.00000000000000000e+01,9.29964038854974695e-01,9.29964038854974695e-01\n"
        "5.24725693931330298e+46,1.00000000000000000e+02,9.62618424182815291e-01,9.62618424182815291e-01\n"
        "extrapolated,,9.95272809510655887e-01,9.95272809510655887e-01\n"),
    "sharpness_sweep_m2_p3": (
        "sharpness-sweep --n 3 --m 2 --p 3 --log-ratios 10,20,40 --format csv",
        "R,ln(R/s0),quotient,quotient_over_C\n"
        "5.91552416850603092e+06,1.00000000000000000e+01,9.58781826040622676e-01,8.52250512036109020e-01\n"
        "1.30298090755950531e+11,2.00000000000000000e+01,1.04043343884844197e+00,9.24829723420837357e-01\n"
        "6.32160986631333315e+19,4.00000000000000000e+01,1.08302875458188153e+00,9.62692226295005837e-01\n"
        "extrapolated,,1.12562407031532108e+00,1.00055472916917432e+00\n"),
    "hardy_demo_p15": (
        "hardy-demo --p 1.5 --count 4 --seed 3 --format csv",
        "profile-id,lhs,rhs,ratio,holds\n"
        "indicator,2.08008382305190409e+00,3.00000000000000000e+00,6.93361274350634660e-01,true\n"
        "rand-3-0,1.59145695531785663e+01,2.10973618776275629e+01,7.54339317185196312e-01,true\n"
        "rand-3-1,1.94886359511286109e+01,2.62814494114855144e+01,7.41535812808394423e-01,true\n"
        "rand-3-2,1.56209976498535674e+01,2.21372419094687984e+01,7.05643354928148114e-01,true\n"
        "rand-3-3,2.02530327399561507e+01,2.83493889338541543e+01,7.14408087850192386e-01,true\n"),
}

# separators are compared as text, the fields between them as numbers when
# both parse as floats
_SEPARATOR = re.compile(r"([,\s]+)")


def _as_float(field):
    try:
        return float(field)
    except ValueError:
        return None


def _fields_match(got, want):
    a, b = _as_float(got), _as_float(want)
    if a is None or b is None:
        return got == want
    return math.isclose(a, b, rel_tol=1e-9) or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, capsys):
    command, want = GOLDEN[name]
    assert main(command.split()) == 0
    got = capsys.readouterr().out
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), got
    for got_line, want_line in zip(got_lines, want_lines):
        got_fields, want_fields = _SEPARATOR.split(got_line), _SEPARATOR.split(want_line)
        assert len(got_fields) == len(want_fields), (got_line, want_line)
        assert all(_fields_match(g, w) for g, w in zip(got_fields, want_fields)), (
            got_line, want_line)
