"""Benchmark of the maxoid command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fan-k5 --seed 1 --seconds 20 --trace 0

It imports the package from src/, makes the workload's inputs from the seed,
and drives `maxoid.cli.run` in-process, one invocation at a time (one closed-
loop client, one process, no threads).  Passes over the inputs repeat until
the next one would end after --seconds.  Every output is checked.  With
--trace 0 it reports the end-to-end metrics, timed in reference seconds by
hostspeed.ReferenceClock so that the host's speed swings cancel out; with
--trace 1 it times one
untraced pass, then one pass with every public package function wrapped in a
span, and reports per-layer metrics.  The last line of stdout is one JSON
object; see perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from hostspeed import ReferenceClock
from tracing import Tracer, layer_metrics, nearest_rank
from workloads import WORKLOADS, CheckFailed

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUPS = 15  # set-up repetitions per run; setup_s is their median
PASS_DEADLINE = 120.0  # s; no pass starts after this, whatever --seconds says


def fresh_import():
    """Import the package anew, so each set-up pays the full import."""
    for name in [k for k in sys.modules if k == "maxoid" or k.startswith("maxoid.")]:
        del sys.modules[name]
    return importlib.import_module("maxoid.cli")


def invoke(cli, argv, now):
    """(seconds by the clock `now`, exit code, stdout) of one in-process CLI
    call; an exception escaping the CLI is a failed call, its traceback the
    output."""
    buf = io.StringIO()
    start = now()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
    except Exception:
        code, buf = None, io.StringIO(traceback.format_exc())
    return now() - start, code, buf.getvalue()


class Gate:
    """Correctness gate.  The first output of each invocation of the pass is
    checked; a later pass must give byte-identical output."""

    def __init__(self):
        self.outputs: dict = {}
        self.failures: dict = {}
        self.failed = 0

    def judge(self, item, inv, code, out) -> None:
        message = None
        if code != 0:
            message = f"exit code {code}: {out.strip()[-300:]}"
        elif item not in self.outputs:
            self.outputs[item] = out
            try:
                inv.check(out)
            except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                message = f"{type(exc).__name__}: {exc}"
        elif out != self.outputs[item]:
            message = "output differs from the first pass"
        else:
            message = self.failures.get(item)
        if message is not None:
            self.failures.setdefault(item, message)
            self.failed += 1


def run_passes(cli, invocations, seconds, gate, now=time.perf_counter, tracer=None,
               max_passes=None):
    """Time passes by the clock `now` until the next would end after
    `seconds` of wall time; returns the pass times and the latency of every
    invocation.  Checks run between passes, outside the timed region."""
    pass_times, latencies, walls = [], [], []
    start = time.perf_counter()
    while True:
        results = []
        t0, w0 = now(), time.perf_counter()
        for item, inv in enumerate(invocations):
            if tracer is not None:
                tracer.item = item
            results.append(invoke(cli, inv.argv, now))
        pass_times.append(now() - t0)
        walls.append(time.perf_counter() - w0)
        for item, (inv, (dt, code, out)) in enumerate(zip(invocations, results)):
            latencies.append(dt)
            gate.judge(item, inv, code, out)
        elapsed = time.perf_counter() - start
        if max_passes is not None and len(pass_times) >= max_passes:
            break
        if elapsed + statistics.median(walls) > seconds or elapsed > PASS_DEADLINE:
            break
    return pass_times, latencies, walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maxoid", "cli.py")):
        print(f"no maxoid sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # a census cache directory would serve stored results instead of computing
    os.environ.pop("MAXOID_CACHE_DIR", None)

    workload = WORKLOADS[args.workload]
    inputs = os.path.join(OUT, f"inputs-{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    # per-layer times are plain wall time: the clock's handler would run
    # inside traced spans
    clock = None if args.trace else ReferenceClock()
    now = time.perf_counter if clock is None else clock.now
    try:
        oracle = workload.oracle() if workload.oracle else None
        if clock is not None:
            clock.start()
        setup_times = []
        for _ in range(SETUPS):
            t0 = now()
            cli = fresh_import()
            invocations = workload.make(args.seed, oracle, inputs)
            setup_times.append(now() - t0)

        gate = Gate()
        if args.trace:
            plain, _, _ = run_passes(cli, invocations, args.seconds, gate, max_passes=1)
            tracer = Tracer()
            tracer.install()
            try:
                traced, latencies, _ = run_passes(cli, invocations, args.seconds, gate,
                                                  tracer=tracer, max_passes=1)
            finally:
                tracer.uninstall()
            attempted = 2 * len(latencies)
            metrics = layer_metrics(tracer)
            metrics["trace.spans"] = len(tracer)
            metrics["trace.overhead_s"] = traced[0] - plain[0]
            trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.tsv.gz")
            tracer.write(trace_path)
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
            print(f"untraced pass {plain[0]:.3f} s, traced pass {traced[0]:.3f} s")
        else:
            pass_times, latencies, walls = run_passes(cli, invocations, args.seconds, gate,
                                                      now=now)
            attempted = len(latencies)
            if not workload.per_query:
                latencies = pass_times
            metrics = {
                "wall_s": statistics.median(pass_times),
                "latency_p50_ms": nearest_rank(latencies, 50) * 1e3,
                "latency_p90_ms": nearest_rank(latencies, 90) * 1e3,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            print(f"{len(pass_times)} passes of {len(invocations)} invocations; "
                  f"pass times {[round(t, 3) for t in pass_times]} reference s, "
                  f"{[round(t, 3) for t in walls]} wall s")
            print(f"host speed {statistics.median(clock.factors):.3f} reference s per "
                  f"wall s (median of {len(clock.factors)} samples, "
                  f"{min(clock.factors):.3f} to {max(clock.factors):.3f})")
    finally:
        if clock is not None:
            clock.stop()
        shutil.rmtree(inputs, ignore_errors=True)

    for item, message in sorted(gate.failures.items()):
        print(f"FAILED invocation {item} ({' '.join(invocations[item].argv)}): {message}")
    if args.workload == "census-5g":
        print("census-5g has no seeded input: the seed changes nothing")
    units = {"_s": "s", "_ms": "ms", "_mb": "MB", "ratio": "ratio"}
    report = {}
    for name, value in metrics.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        report[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {gate.failed / attempted:.6g} ratio ({gate.failed} of {attempted})")
    print(json.dumps({"correct": gate.failed == 0, "attempted": attempted,
                      "failed": gate.failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
