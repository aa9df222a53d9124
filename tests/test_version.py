import ast
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


def _unused_imports(tree):
    """Module-level imports whose names the module never reads; names
    listed in __all__ count as read, and __future__ imports are skipped."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    package = Path(hpoincare.__file__).resolve().parent
    unused = {path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
