import re
from pathlib import Path

import hpoincare


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert hpoincare.__version__ == match.group(1)


def test_all_names_resolve():
    names = hpoincare.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(hpoincare, n)] == []
    namespace = {}
    exec("from hpoincare import *", namespace)
    assert set(names) <= set(namespace)
