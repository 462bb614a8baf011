"""Benchmark harness for the qlefschetz engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Runs one workload (see workloads.py) in this single-threaded process, as a
closed loop with one client: each pass, and each job within a pass, starts
when the previous one has finished.  Every pass is preceded by a fresh
set-up: the engine is imported again and the inputs are generated again.
Passes repeat until the next one would end after ``--seconds``; at least one
pass always runs.  Every pass's outputs are checked after its timer stops.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` some untraced passes are followed by
one traced pass and the JSON carries the per-layer metrics, while the spans
themselves are written to ``perfbench/_work/``.  The lines before it are a
human-readable summary.  The exit code is 0 only when every operation
attempted succeeded and passed its checks.

``--size smoke`` runs the same workloads at toy sizes; the benchmark's own
tests use it.

Every time is reported in reference-host seconds (see clock.py): the host's
speed is measured around and during each set-up and each job, and the raw
times are scaled by it.  The raw times and the speed samples are written
to ``perfbench/_work/samples_*``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

from clock import Clock
from tracer import FACTORIZATIONS, PACKAGE, Tracer
from workloads import WORKLOADS, size_counts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
MODULES = ("cli", "fock", "gw", "mirror", "ring", "series", "twist", "verify")
# setup_s is the median of SETUPS_PER_PASS set-ups before every pass.  One
# import-and-generate takes tens of milliseconds; spreading the samples over
# the whole run keeps one slow moment of the host from deciding the figure.
SETUPS_PER_PASS = 3
# At least this many later samples must lie beyond the reported tail.
TAIL_BEYOND = 10


def import_engine():
    """Import the engine afresh from ``src/`` and return the package."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    for module in MODULES:
        importlib.import_module(f"{PACKAGE}.{module}")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, PACKAGE):
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    return package


class Record:
    """What one run did; times in reference-host seconds unless named raw."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.latencies: dict[str, list[float]] = {}
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.clocks: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []


def _setup_once(workload, seed: int, workdir: str):
    q = import_engine()
    return q, workload.setup(q, seed, workdir)


def set_up(workload, seed: int, workdir: str, record: Record):
    """Import the engine and build the inputs SETUPS_PER_PASS times; keep the last."""
    clock = Clock()
    for _ in range(SETUPS_PER_PASS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        q, inputs = clock.time("setup", _setup_once, workload, seed, workdir)
    record.setups.extend(seconds for _, seconds in clock.jobs())
    record.clocks.append(clock.to_json_dict())
    return q, inputs


def one_pass(workload, q, inputs, record: Record, tracer: Tracer | None = None):
    """Run and check one pass; return its outputs (None if the pass raised)."""
    clock = Clock(sample=tracer is None)  # the spans keep their own time
    gc.collect()  # every pass starts from the same collector state
    try:
        if tracer is not None:
            tracer.active = True
        try:
            outputs = workload.run_pass(q, inputs, clock)
        finally:
            if tracer is not None:
                tracer.active = False
    except Exception as exc:  # the engine raised: one failed operation
        record.attempted += 1
        record.failures.append(f"{workload.name}: {type(exc).__name__}: {exc}")
        return None
    finally:
        record.clocks.append(clock.to_json_dict())
    jobs = clock.jobs()
    record.walls.append(sum(seconds for _, seconds in jobs))
    record.raw_walls.append(sum(seconds for _, seconds in clock.raw))
    for key, seconds in jobs:
        record.latencies.setdefault(key, []).append(seconds)
    record.attempted += len(jobs)
    try:
        problems = workload.check(q, inputs, outputs)
    except Exception as exc:  # a check that cannot run fails every job of the pass
        problems = {key: f"check raised {type(exc).__name__}: {exc}" for key, _ in jobs}
    record.failures.extend(f"{key}: {why}" for key, why in problems.items())
    return outputs


def run_for(seconds: float, workload, seed: int, workdir: str, record: Record) -> None:
    """Set up and run passes until the next, if as long as the last, would end late."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        q, inputs = set_up(workload, seed, workdir, record)
        one_pass(workload, q, inputs, record)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def job_latencies(latencies: dict[str, list[float]]) -> tuple[float, float, float, int, int]:
    """(p50 s, tail s, tail percentile, distinct jobs, repeats of each).

    A job's latency is its median time over the passes of the run, so that
    every run has one sample per distinct job whatever its pass count.  The
    tail is the highest percentile with at least TAIL_BEYOND samples above it;
    with fewer distinct jobs than that it is the slowest one.
    """
    per_job = sorted(statistics.median(v) for v in latencies.values())
    n = len(per_job)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    repeats = min(len(v) for v in latencies.values())
    return statistics.median(per_job), per_job[k], 100.0 * (k + 1) / n, n, repeats


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(record: Record) -> tuple[dict, str]:
    p50, tail, pct, n, repeats = job_latencies(record.latencies)
    metrics = {
        "setup_s": metric(statistics.median(record.setups), "s"),
        "wall_s": metric(statistics.median(record.walls), "s"),
        "job_p50_ms": metric(p50 * 1e3, "ms"),
        "job_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    note = (
        f"job_tail_ms is p{pct:.1f} of {n} distinct jobs, each the median of "
        f"{repeats}+ timings; wall_s is the median of {len(record.walls)} passes "
        f"(raw median {statistics.median(record.raw_walls):.4g} s); setup_s is the "
        f"median of {len(record.setups)} set-ups"
    )
    return metrics, note


def per_layer(workload, inputs, outputs, tracer: Tracer, untraced: list[float], traced: float) -> dict:
    metrics = {}
    for nid, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = metric(tracer.calls[nid], "count")
        metrics[f"{name}.self_s"] = metric(tracer.self_ns[nid] / 1e9, "s")
    factorizations = sum(tracer.calls[tracer.names.index(f)] for f in FACTORIZATIONS)
    muls = tracer.calls_under("series.ZSeries.mul", FACTORIZATIONS)
    metrics["mirror.zseries_mul_per_factorization"] = metric(
        muls / factorizations if factorizations else 0.0, "ratio"
    )
    terms = bits = 0
    if outputs is not None:
        for doc in workload.documents(inputs, outputs):
            t, b = size_counts(doc)
            terms, bits = terms + t, max(bits, b)
    metrics["series.terms_out"] = metric(terms, "count")
    metrics["series.coeff_bits_max"] = metric(bits, "bits")
    metrics["trace.spans"] = metric(tracer.span_count, "count")
    metrics["trace.wall_s"] = metric(traced, "s")
    metrics["trace.overhead_s"] = metric(traced - min(untraced), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qlefschetz benchmark harness")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: engine source {os.path.join(SRC, PACKAGE)} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload](args.size)
    workdir = os.path.join(WORK, f"run_{os.getpid()}")
    record = Record()
    try:
        if args.trace:
            run_for(args.seconds / 2, workload, args.seed, workdir, record)
            untraced = list(record.raw_walls)
            q, inputs = set_up(workload, args.seed, workdir, record)
            tracer = Tracer()
            tracer.install()
            try:
                outputs = one_pass(workload, q, inputs, record, tracer)
            finally:
                tracer.restore()
            traced = record.raw_walls[-1] if outputs is not None else 0.0
            metrics = per_layer(workload, inputs, outputs, tracer, untraced, traced)
            stem = os.path.join(WORK, f"trace_{args.workload}")
            tracer.write(stem)
            note = f"spans written to {os.path.relpath(stem, ROOT)}.spans"
        else:
            run_for(args.seconds, workload, args.seed, workdir, record)
            metrics, note = end_to_end(record) if record.walls else ({}, "no pass completed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = os.path.join(WORK, f"samples_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(samples, "w", encoding="utf-8") as fh:
        json.dump({
            "setup_s": record.setups,
            "pass_s": record.walls,
            "job_s": record.latencies,
            "clocks": record.clocks,
        }, fh)

    failed = len(record.failures)
    for failure in record.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"passes={len(record.walls)}")
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {failed / record.attempted:.6g} ({failed} of {record.attempted} operations)")
    print(f"  ({note})")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
