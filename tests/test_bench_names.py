"""The benchmark traces package functions by name: every name it lists must
still exist, so renaming or deleting a traced function fails here too."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(qual):
    """Whether "module.name" or "module.Class.method" names a callable in
    hpoincare."""
    mod, *attrs = qual.split(".")
    obj = importlib.import_module(f"hpoincare.{mod}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_traced_names_resolve():
    tracing, workloads = _load("tracing"), _load("workloads")
    names = set(tracing.TRACED)
    for work in workloads.WORKLOADS.values():
        names.update(work.TRACED_CALLS)
    assert sorted(qual for qual in names if not _resolves(qual)) == []
