"""Per-layer tracing installed from the benchmark, not from the package.

`Tracer.enable` replaces each traced function with a timing wrapper at
every binding site: the defining module, every other ``hpoincare`` module
that imported the name (``from .geometry import surface_measure``), and the
package namespace. Methods are replaced on their class. Spans are kept in
memory as ``[function, start, end, parent span, op, failed]`` and written
out once, after the run.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# layer: traced functions (module-level names or Class.method)
LAYERS = {
    "numerics": ("integrate", "batched_gauss"),
    "geometry": ("radius_for_volume", "surface_measure", "ball_volume",
                 "log_sphere_area_of_radius"),
    "profiles": ("RadialProfile.__call__", "RadialProfile.running_integral",
                 "RadialProfile.lp_power"),
    "rearrangement": ("decreasing_rearrangement", "distribution_function",
                      "maximal_function", "hardy_check"),
    "extremizers": ("select_s0", "inverse_laplacian", "inverse_laplacian_iterates"),
    "variational": ("check_inequality", "lp_norm_geodesic", "grad_norm_geodesic",
                    "laplacian_norm_geodesic", "lp_norm_volume", "grad_norm_volume",
                    "rayleigh_quotient", "sharpness_sweep"),
}
TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# size counters: work done per call, from the call's arguments
SIZES = {
    "geometry.radius_for_volume": ("points", lambda a, k: int(np.size(_arg(a, k, 0, "s")))),
    "rearrangement.distribution_function": (
        "levels", lambda a, k: int(np.size(_arg(a, k, 1, "t")))),
    "extremizers.inverse_laplacian": (
        "grid_points", lambda a, k: _arg(a, k, 2, "grid").points),
}

OP = "op"


class Tracer:
    """Finds the binding sites when created; `enable` installs the wrappers
    and `disable` restores the original functions."""

    def __init__(self):
        self.names = [OP, *TRACED]
        self.spans = []  # [name index, start, end, parent span, op, failed]
        self.sizes = {key: 0 for key in SIZES}
        self._stack = []
        self._op = -1
        self._bindings = []  # (owner, attribute, original, wrapper)
        self._op_span = self._wrap(0, OP, lambda fn, *args: fn(*args))
        self.missing = self._bind()

    def _bind(self):
        """Build a wrapper for every traced function and list its binding
        sites. Returns the names that no longer exist in the package
        (reported, not fatal)."""
        missing = []
        pkg = [m for name, m in sys.modules.items()
               if m is not None and (name == "hpoincare" or name.startswith("hpoincare."))]
        for idx, qual in enumerate(TRACED, start=1):
            mod_name, _, attr = qual.partition(".")
            home = sys.modules.get(f"hpoincare.{mod_name}")
            owner_name, _, method = attr.partition(".")
            if method:
                cls = getattr(home, owner_name, None)
                original = cls.__dict__.get(method) if cls is not None else None
                sites = [(cls, method)]
            else:
                original = getattr(home, attr, None)
                sites = [(mod, name) for mod in pkg for name, value in vars(mod).items()
                         if value is original]
            if original is None:
                missing.append(qual)
                continue
            wrapper = self._wrap(idx, qual, original)
            self._bindings += [(owner, name, original, wrapper) for owner, name in sites]
        return missing

    def enable(self):
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def disable(self):
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def _wrap(self, idx, qual, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        size = SIZES.get(qual, (None, None))[1]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [idx, clock(), 0.0, stack[-1] if stack else -1, self._op, 0]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if size is not None:
                    sizes[qual] += size(args, kwargs)

        return wrapper

    def run_op(self, op_index, fn, *args):
        """Run one op as a root span (name OP); returns fn's result."""
        self._op = op_index
        return self._op_span(fn, *args)

    def summary(self):
        """Per-function calls, self seconds and failed calls, plus the size
        counters and the total duration of op spans."""
        n = len(self.names)
        calls, failed, self_s = [0] * n, [0] * n, [0.0] * n
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _, _, fail) in enumerate(self.spans):
            calls[name] += 1
            failed[name] += fail
            self_s[name] += (end - start) - child_s[i]
        out = {}
        for i, qual in enumerate(self.names[1:], start=1):
            out[f"{qual}.calls"] = calls[i]
            out[f"{qual}.self_s"] = self_s[i]
            out[f"{qual}.failed"] = failed[i]
        for qual, (label, _) in SIZES.items():
            out[f"{qual}.{label}"] = int(self.sizes[qual])
        op_time = sum(end - start for name, start, end, *_ in self.spans if name == 0)
        return out, op_time

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op,failed\n")
            for i, (name, start, end, parent, op, fail) in enumerate(self.spans):
                fh.write(f"{i},{self.names[name]},{start:.9f},{end:.9f},"
                         f"{parent},{op},{fail}\n")
