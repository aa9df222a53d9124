"""Benchmark entry point for hpoincare.

Usage (from the repository root):

    python3 bench/run.py --workload {inequality,sharpness,rearrangement,cli}
                         --seed N --seconds S --trace {0,1}

Runs the workload in a fresh single-threaded child interpreter (child.py)
with BLAS/OpenMP threads set to 1, one workload at a time, and checks every
op's result. With ``--trace 0`` it reports the end-to-end metrics; set-up is
timed in this child and in SETUP_SAMPLES - 1 further set-up-only children,
and the median is reported. With ``--trace 1`` it reports the per-layer
metrics of a traced run (tracing.py) and the tracing overhead.

Human-readable lines come first on stdout, then the machine record, and the
last line is one JSON object {"correct", "attempted", "failed", "metrics"}.
A results file with every op latency (and, when traced, a CSV of all spans)
is written to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every child must have ended by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# end-to-end metrics in the final JSON line of an untraced run: name -> unit
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline):
    """Run child.py to completion; returns (launch time, parsed JSON line)."""
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args} did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    try:
        return launched, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"child {args} printed no result") from None


def tail_latency(latencies):
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, samples), or None below 20 samples."""
    n = len(latencies)
    if n < 20:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n, n


def op_counts(records):
    """(attempted, failed, unexpected failures), counted over the distinct
    ops of the cycle: a repeat of an op in a later pass is another timing
    sample of the same op, and the op has failed if any of its runs failed.
    So the counts depend on the seed alone, not on how many passes the
    machine's speed allowed."""
    ok, known = {}, {}
    for pos, _, op_ok, op_known, _ in records:
        ok[pos] = ok.get(pos, True) and op_ok
        known[pos] = op_known
    failed = [pos for pos, op_ok in ok.items() if not op_ok]
    return len(ok), len(failed), sum(1 for pos in failed if not known[pos])


def end_to_end(child, setups):
    """The JSON metrics and the printed extras of an untraced run."""
    records, passes = child["records"], child["pass_s"]
    latencies = [r[1] for r in records]
    attempted, failed, _ = op_counts(records)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(records) / len(passes) / statistics.median(passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
    }
    extra = {"failed_frac": failed / attempted}
    tail = tail_latency(latencies)
    if tail is not None:
        extra["op_tail_ms"] = 1e3 * tail[0]
        extra["op_tail_pct"] = tail[1]
        extra["op_tail_samples"] = tail[2]
    fractions = [r[4]["sharp_fraction"] for r in records if "sharp_fraction" in r[4]]
    if fractions:
        extra["sharp_fraction_mean"] = statistics.fmean(fractions)
    return metrics, extra


def per_layer(child):
    """Per-layer metrics of a traced run, plus the tracing overhead measured
    on the same ops run without and with the wrappers."""
    layers = dict(child["layers"])
    plain = sum(r[1] for r in child["records"])
    traced = sum(r[1] for r in child["traced_records"])
    ops = len(child["traced_records"])
    layers["trace.untraced_ops_per_s"] = ops / plain
    layers["trace.ops_per_s"] = ops / traced
    layers["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    layers["trace.op_coverage"] = child["op_time_s"] / traced
    return layers


LAYER_UNITS = {"trace.untraced_ops_per_s": "1/s", "trace.ops_per_s": "1/s",
               "trace.overhead_pct": "%", "trace.op_coverage": "fraction"}


def layer_unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def machine(versions):
    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), **versions}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
        info["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu_model"] = platform.processor()
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    info["caches"] = caches
    info["commit"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True)
        if proc.returncode == 0:
            info["commit"] = proc.stdout.decode().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "hpoincare").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns the result record (see main)."""
    if not (SRC / "hpoincare" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        spans = OUT / f"{stem}-spans.csv"
        _, child = run_child(common + ["--trace", "--spans", str(spans)], deadline)
        records = child["records"] + child["traced_records"]
        metrics = per_layer(child)
        units = {name: layer_unit(name) for name in metrics}
        extra = {"missing": child["missing"], "spans": child["spans"]}
    else:
        launched, child = run_child(common, deadline)
        setups = [child["ready"] - launched]
        for _ in range(SETUP_SAMPLES - 1):
            launched, setup = run_child(common + ["--setup-only"], deadline)
            setups.append(setup["ready"] - launched)
        records = child["records"]
        metrics, extra = end_to_end(child, setups)
        units = dict(END_TO_END)
        extra["setup_samples_s"] = setups
    attempted, failed, unexpected = op_counts(records)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "correct": unexpected == 0, "attempted": attempted, "failed": failed,
        "known_defect_failures": failed - unexpected,
        "metrics": metrics, "units": units, "extra": extra,
        "machine": machine(child["versions"]),
        "latencies_s": [r[1] for r in records],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def report(result):
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed ({result['known_defect_failures']} in the "
          f"known-defect class), correct={result['correct']}")
    rows = [(k, v, result["units"][k]) for k, v in result["metrics"].items()]
    if not result["trace"]:
        extra = result["extra"]
        rows.append(("failed_frac", extra["failed_frac"], "fraction"))
        if "op_tail_ms" in extra:
            rows.append((f"op_tail_ms (p{extra['op_tail_pct']:.1f} of "
                         f"{extra['op_tail_samples']} ops)", extra["op_tail_ms"], "ms"))
        else:
            rows.append(("op_tail_ms (omitted: fewer than 20 ops)", float("nan"), "ms"))
        if "sharp_fraction_mean" in extra:
            rows.append(("sharp_fraction_mean", extra["sharp_fraction_mean"], "fraction"))
    for name, value, unit in rows:
        print(f"  {name:<48} {value:>14.6g} {unit}")
    if result["trace"] and result["extra"]["missing"]:
        print("  not found in the package (reported as 0): "
              + ", ".join(result["extra"]["missing"]))
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": result["units"][k]}
                                  for k, v in result["metrics"].items()}}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
