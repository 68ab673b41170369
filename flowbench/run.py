"""Flow benchmark entry point.

    python3 flowbench/run.py --workload resolve --seed 1 --seconds 30 --trace 0

One client in a closed loop issues one corpus item at a time and whole
corpus passes are timed until ``--seconds`` of item time and at least
:data:`MIN_SAMPLES` items have accumulated.  Each output is checked
outside the timed call.  Item times are reported at the reference host
speed: a fixed probe of interpreter work timed before every item measures
how fast the shared host runs around each item (see
:func:`host_normalised`).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
:mod:`flowbench.trace` with ``--trace 1``.  See ``flowbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "flowbench", "out")

#: Fewest timed items: the 90th percentile then has 10 samples beyond it.
MIN_SAMPLES = 100

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 5

#: Time of :func:`host_probe` at the reference host speed (seconds).
PROBE_REFERENCE_S = 0.0012

#: Probes on either side of an item that measure the host speed around it.
PROBE_WINDOW = 5

#: End-to-end metrics in print order: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("items_per_s", "1/s"),
    ("ok_share", "fraction"),
    ("peak_rss_mb", "MB"),
]


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``
    from it; exit non-zero when the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("flowbench: no program sources under %s" % SRC)
    # measure the program as shipped: no tracing, no injected faults
    for var in ("REPRO_TRACE", "REPRO_FAULTS"):
        os.environ.pop(var, None)
    sys.path[:0] = [SRC, ROOT]
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("flowbench: imported repro from %s, not %s"
                         % (repro.__file__, SRC))


def setup(workload: str, seed: int):
    """Build the corpus and run the untimed warm-up item."""
    from flowbench import corpus, flow

    items = corpus.build(workload, seed)
    flow.execute(corpus.warmup_item(workload, items))
    return items


def measure_setup(workload: str, seed: int, runs: int = SETUP_RUNS) -> float:
    """Median time from a fresh interpreter to the first timed item, at
    the reference host speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(runs):
        slowdown = statistics.mean(host_probe() for _ in range(PROBE_WINDOW)) / PROBE_REFERENCE_S
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip()
            times.append((time.perf_counter() - start) / slowdown)
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                raise
        if ready != "ready" or child.returncode != 0:
            raise RuntimeError("set-up run failed (exit %s)" % child.returncode)
    return statistics.median(times)


def host_probe() -> float:
    """Time a fixed piece of interpreter work (dict updates, sorting,
    tuples): how fast the host runs Python right now."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(3000):
        key = (i * 7919) % 257
        counts[key] = counts.get(key, 0) + 1
        if i % 50 == 0:
            tuple(sorted(counts))
    return time.perf_counter() - start


def run_passes(items, checker, execute, seconds=None, passes=None,
               min_samples=0, pause=contextlib.nullcontext):
    """Time whole corpus passes; check each output outside the clock.

    Stops after ``passes`` passes, or once ``seconds`` of item time and
    ``min_samples`` items are reached.  Returns the per-item latencies
    and the :func:`host_probe` time taken just before each item, in
    seconds.
    """
    latencies, probes = [], []
    done = 0
    while True:
        for item in items:
            probes.append(host_probe())
            start = time.perf_counter()
            try:
                result, error = execute(item), None
            except Exception as exc:  # classified by the checker
                result, error = None, exc
            latencies.append(time.perf_counter() - start)
            with pause():
                checker.check(item, result, error)
        done += 1
        if passes is not None:
            if done >= passes:
                return latencies, probes
        elif sum(latencies) >= seconds and len(latencies) >= min_samples:
            return latencies, probes


def host_normalised(latencies, probes):
    """Latencies scaled to the reference host speed.

    On a shared machine the speed at which the host runs Python drifts by
    tens of percent over seconds to minutes.  Each item's latency is
    divided by the host's slowdown around it: the mean probe time over
    the :data:`PROBE_WINDOW` items on either side, relative to
    :data:`PROBE_REFERENCE_S`.
    """
    scaled = []
    for k, latency in enumerate(latencies):
        around = probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1]
        scaled.append(latency * PROBE_REFERENCE_S / statistics.mean(around))
    return scaled


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: no interpolation across items."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for (workers)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(workload: str, seed: int, seconds: float):
    """The untraced run: every end-to-end metric."""
    from flowbench import flow

    items = setup(workload, seed)
    checker = flow.Checker()
    measured, probes = run_passes(items, checker, flow.execute, seconds=seconds,
                                  min_samples=MIN_SAMPLES)
    rss = peak_rss_mb()
    latencies = host_normalised(measured, probes)
    values = {
        "setup_s": measure_setup(workload, seed),
        "latency_p50_ms": percentile(latencies, 0.5) * 1000.0,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000.0,
        "items_per_s": len(latencies) / sum(latencies),
        "ok_share": checker.counts["ok"] / checker.attempted,
        "peak_rss_mb": rss,
    }
    beyond = len(latencies) - math.ceil(0.9 * len(latencies))
    print("%s seed %d: %d items in %d passes of %d, %d beyond p90; %s; "
          "host speed %.2f of reference"
          % (workload, seed, len(latencies), len(latencies) // len(items),
             len(items), beyond,
             ", ".join("%s %d" % kv for kv in checker.counts.items()),
             PROBE_REFERENCE_S / statistics.mean(probes)))
    return checker, values, END_TO_END


def traced(workload: str, seed: int, seconds: float):
    """The traced run: every per-layer metric, spans written to OUT_DIR."""
    from flowbench import flow
    from flowbench.trace import ITEM, LAYER_METRICS, Tracer

    items = setup(workload, seed)
    checker = flow.Checker()
    tracer = Tracer()
    traced_item = tracer.wrap(ITEM, flow.execute)
    plain, timed = [], []
    passes = 0
    # untraced and traced passes alternate, each going first in turn, until
    # the untraced half has used its share of the time
    while passes == 0 or sum(plain) < seconds / 2.0:
        for tracing in ((False, True) if passes % 2 == 0 else (True, False)):
            if tracing:
                with tracer:
                    timed += run_passes(items, checker, traced_item, passes=1,
                                        pause=tracer.paused)[0]
            else:
                plain += run_passes(items, checker, flow.execute, passes=1)[0]
        passes += 1
    overhead = (sum(timed) / sum(plain) - 1.0) * 100.0
    # the checker saw both phases: halve its quality tallies
    values = tracer.metrics(passes, overhead, checker.literals / 2.0,
                            checker.csc_signals / 2.0)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl" % (workload, seed))
    tracer.write(path)
    print("%s seed %d: %d traced passes of %d items, spans in %s"
          % (workload, seed, passes, len(items), os.path.relpath(path, ROOT)))
    print("\n".join(tracer.table()))
    return checker, values, LAYER_METRICS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    import_program()
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    run = traced if args.trace else end_to_end
    checker, values, names = run(args.workload, args.seed, args.seconds)
    for detail in checker.failures:
        print("FAILED " + detail, file=sys.stderr)
    print(json.dumps({
        "correct": checker.counts["failed"] == 0,
        "attempted": checker.attempted,
        "failed": checker.counts["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
