"""One workload in one fresh, single-threaded interpreter.

Started by run.py; prints a single JSON line on stdout. Set-up (imports,
seeded input generation, one untimed warm-up op) ends at the ``ready``
timestamp, taken on the monotonic clock that run.py also reads, so run.py
can time set-up from the moment it launched this process. With
``--setup-only`` the process exits right there.

The timed phase is a closed loop with one caller: the next op starts when
the previous one has returned and been checked. It runs whole passes over
the seeded cycle, in order, so every run times the same mix of ops: after
each pass it starts another only if that pass, taking as long as the last
one, would end by ``--seconds``. The phase always holds at least one pass
and, once a pass takes less than ``--seconds``, ends by ``--seconds``.

With ``--trace`` every op runs twice in a row, once with the per-layer
wrappers installed and once without, in alternating order, so the tracing
overhead is measured on the same ops under the same machine conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
MAX_REPORTED_FAILURES = 5


class Runner:
    """Runs and checks the ops of one workload."""

    def __init__(self, work):
        self.work = work
        self.known = getattr(work, "known_defect", lambda spec: False)
        self.reported = 0

    def op(self, spec, index, tracer=None):
        """One op; returns (latency_s, ok, known_defect, extra). A raising op
        is a failed op, and the run goes on."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ok, detail, extra = self.work.run(spec)
            else:
                ok, detail, extra = tracer.run_op(index, self.work.run, spec)
        except Exception as exc:
            ok, detail, extra = False, f"{type(exc).__name__}: {exc}", {}
        latency = time.perf_counter() - t0
        if not ok and self.reported < MAX_REPORTED_FAILURES:
            self.reported += 1
            print(f"[{self.work.name}] op {index} failed: {spec!r}: {detail}",
                  file=sys.stderr)
        return latency, bool(ok), bool(self.known(spec)), extra

    @staticmethod
    def _passes(seconds, run_pass):
        """Call run_pass() for whole passes (see the module docstring);
        returns the seconds each pass took."""
        elapsed, passes = 0.0, []
        while True:
            t0 = time.perf_counter()
            run_pass()
            passes.append(time.perf_counter() - t0)
            elapsed += passes[-1]
            if elapsed + passes[-1] > seconds:
                return passes

    def timed(self, cycle, seconds):
        """Whole passes over the cycle; returns (records, pass_s). A record
        is (position in the cycle, latency_s, ok, known_defect, extra)."""
        records = []

        def run_pass():
            for pos, spec in enumerate(cycle):
                records.append((pos, *self.op(spec, len(records))))

        return records, self._passes(seconds, run_pass)

    def paired(self, cycle, seconds, tracer):
        """Like `timed`, but each op runs untraced and traced, in alternating
        order; returns the two record lists."""
        plain, traced = [], []

        def run_pass():
            for pos, spec in enumerate(cycle):
                i = len(plain)
                for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                    if not with_trace:
                        plain.append((pos, *self.op(spec, i)))
                        continue
                    tracer.enable()
                    try:
                        traced.append((pos, *self.op(spec, i, tracer)))
                    finally:
                        tracer.disable()

        self._passes(seconds, run_pass)
        return plain, traced


def _probe(argv):
    """Fresh-process CLI start-up split for one argv (see probe.py)."""
    launched = time.monotonic()
    proc = subprocess.run([sys.executable, PROBE, *argv],
                          capture_output=True, timeout=120, check=True)
    rec = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return rec["start"] - launched, rec["import_s"], rec["main_s"]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="CSV file for the traced spans")
    args = ap.parse_args(argv)

    import hpoincare
    import numpy
    import scipy

    from workloads import WORKLOADS, Cli

    work = WORKLOADS[args.workload](hpoincare)
    cycle = work.cycle(args.seed)
    ok, detail, _ = work.run(work.warmup())
    if not ok:
        print(f"[{work.name}] warm-up op failed: {detail}", file=sys.stderr)
    ready = time.monotonic()
    result = {"ready": ready, "warmup_ok": bool(ok)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    runner = Runner(work)
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    if not args.trace:
        result["records"], result["pass_s"] = runner.timed(cycle, args.seconds)
    else:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced = runner.paired(cycle, args.seconds, tracer)
        layers, op_time = tracer.summary()
        # one argv per subcommand on cli; elsewhere the start-up cost alone
        probes = cycle[:4] if work.name == "cli" else [Cli.WARMUP]
        splits = [_probe(list(a)) for a in probes]
        for j, key in enumerate(("cli.interpreter_s", "cli.import_s", "cli.main_s")):
            layers[key] = statistics.median(s[j] for s in splits)
        result.update(records=plain, traced_records=traced, layers=layers,
                      op_time_s=op_time, missing=tracer.missing, spans=len(tracer.spans))
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
