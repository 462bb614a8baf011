"""Time the factorization pipeline of several checkouts at the sizes of the north star.

Each run is one fresh ``python3`` process with a checkout's ``src/`` first on
its path; it runs the library pipeline ``j_reduced`` -> ``i_function`` ->
factorization at least ``REPEATS`` times, and on until the runs add up to
``MIN_MEASURED_S``, and reports the best wall time and the number of runs,
so no size or checkout sees another's caches and a row of a few milliseconds
is the best of a hundred runs or more.  Every size is run in ``ROUNDS``
rounds of one run per checkout, and the checkout that runs first moves by
one place each round, so slow drift of a shared host hits every checkout
alike.  A size whose first round reads a best time under ``SHORT_S`` for
some checkout runs ``SHORT_ROUND_FACTOR`` times as many rounds, since a
row of a few milliseconds moves with the host's load.  The pipelines are
the non-equivariant quintic through ``small_mirror`` and the equivariant
quintic (``lambda_floor`` 2) through ``birkhoff``, the two factorizations
of the benchmark harness, at sizes the harness does not run; the
equivariant O(3) + O(2) on P^3 (``lambda_floor`` 2) through ``birkhoff``,
whose degrees each need several frame corrections
(sum l_i > n), where the quintic's need one; and ``s_matrix`` of P^9 (the
``compute`` config (10, [1], D) of that task), ``j_reduced`` ->
``s_matrix``.  From D = 5 on, each quintic run's first five instanton
numbers are checked against the literature (Candelas, de la Ossa, Green and
Parkes), and each S-matrix must pass its unitarity check; a run that
disagrees, fails or outlives ``TIMEOUT_S`` makes the checkout's row ``ok``
false.

    python3 tools/size_sweep.py parent=../parent change=. --out sizes.json

Each checkout is given as LABEL=DIR; sizes run smallest first.  The JSON
records the host, each checkout's line count of ``src/`` (and its commit,
when it is a git checkout), and one row per (pipeline, D) with its number
of rounds and every checkout's median and quartiles over the rounds of its
best times, in seconds, its fastest run over all rounds (``best_s``), the
times themselves and the run counts behind them in round order, and the
number of rounds in which it read lower than the first checkout.  On a
shared host whose load comes in modes that outlast a process, the medians
follow the rounds that hit the slow mode, while ``best_s`` reads each
checkout at its least disturbed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from bench_pairs import git_state

ROUNDS = 7
SHORT_S = 0.01
SHORT_ROUND_FACTOR = 3
REPEATS = 3
MIN_MEASURED_S = 0.5
TIMEOUT_S = 1800
SIZES = {
    "quintic_small_mirror": (12, 20, 30, 60, 100),
    "equivariant_birkhoff": (5, 7, 9, 15, 20),
    "p3_o3_o2_birkhoff": (3, 5, 7, 9),
    "s_matrix": (10, 20, 30),
}
QUINTIC_COUNTS = [2875, 609250, 317206375, 242467530000, 229305888887625]

# Runs inside the checkout's interpreter; argv: pipeline, D, repeats, minimum measured seconds.
CHILD = """
import json, sys, time
from qlefschetz import gw, mirror, ring, twist
pipeline, D, repeats, min_s = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
n, floor, degrees, factor = {
    "quintic_small_mirror": (5, None, (5,), mirror.small_mirror),
    "equivariant_birkhoff": (5, 2, (5,), mirror.birkhoff),
    "p3_o3_o2_birkhoff": (4, 2, (3, 2), mirror.birkhoff),
    "s_matrix": (10, None, (1,), None),
}[pipeline]
desc = None if floor is None else ring.RingDescriptor(n=n, lambda_floor=floor)
bundle = ring.BundleSpec(degrees, equivariant=desc is not None)
best, measured, runs, unitary = float("inf"), 0.0, 0, None
while runs < repeats or measured < min_s:
    start = time.perf_counter()
    if factor is None:
        _, unitary, _ = gw.s_matrix(gw.j_reduced(n, D), n, D)
    else:
        M = factor(twist.i_function(gw.j_reduced(n, D, desc=desc), bundle), bundle=bundle)
    elapsed = time.perf_counter() - start
    best, measured, runs = min(best, elapsed), measured + elapsed, runs + 1
counts = mirror.extract_instantons(M, 5) if pipeline == "quintic_small_mirror" and D >= 5 else None
print(json.dumps({"best_s": best, "runs": runs, "counts": counts, "unitary": unitary}))
"""


def src_lines(checkout: str) -> int:
    total = 0
    for root, dirs, files in os.walk(os.path.join(checkout, "src")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += fh.read().count("\n")
    return total


def time_size(checkout: str, pipeline: str, D: int) -> dict:
    """One fresh process: the best of its pipeline runs, their count, and whether its counts hold."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, pipeline, str(D), str(REPEATS), str(MIN_MEASURED_S)],
            cwd=checkout, env=env, capture_output=True, text=True, timeout=TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"best_s": None, "ok": False, "error": f"timed out after {TIMEOUT_S} s"}
    if proc.returncode:
        return {"best_s": None, "ok": False, "error": proc.stderr.strip().splitlines()[-1]}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    counts, unitary = out.pop("counts"), out.pop("unitary")
    out["ok"] = (counts is None or counts == QUINTIC_COUNTS) and unitary is not False
    if counts is not None:
        out["counts_checked"] = len(counts)
    return out


def summary(runs: list[dict]) -> dict:
    """Median, quartiles and minimum of the best times of a checkout's rounds; ok when every run was."""
    times = [run["best_s"] for run in runs]
    out = {"ok": all(run["ok"] for run in runs)}
    if None not in times:
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        out.update(median_s=median, q1_s=q1, q3_s=q3, best_s=min(times))
    out["runs_s"] = times
    out["repeats"] = [run.get("runs") for run in runs]
    errors = [run["error"] for run in runs if "error" in run]
    if errors:
        out["error"] = errors[0]
    if "counts_checked" in runs[0]:
        out["counts_checked"] = runs[0]["counts_checked"]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="LABEL=DIR")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    checkouts = {}
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not sep:
            ap.error(f"expected LABEL=DIR, got {item!r}")
        checkouts[label] = os.path.abspath(path)

    rows = []
    labels = list(checkouts)
    for pipeline, sizes in SIZES.items():
        for D in sizes:
            runs: dict[str, list] = {label: [] for label in labels}
            rounds, r = ROUNDS, 0
            while r < rounds:
                for label in labels[r % len(labels):] + labels[:r % len(labels)]:
                    run = time_size(checkouts[label], pipeline, D)
                    runs[label].append(run)
                    print(f"{pipeline} D={D} round {r} {label}: {run}", file=sys.stderr, flush=True)
                if r == 0 and any((run[0]["best_s"] or SHORT_S) < SHORT_S for run in runs.values()):
                    rounds *= SHORT_ROUND_FACTOR
                r += 1
            row = {"pipeline": pipeline, "D": D, "rounds": rounds}
            for label in labels:
                row[label] = summary(runs[label])
            for label in labels[1:]:
                # a round's runs share the host's load, so the count is steadier than the medians
                row[label][f"rounds_lower_than_{labels[0]}"] = sum(
                    None not in (a["best_s"], b["best_s"]) and b["best_s"] < a["best_s"]
                    for a, b in zip(runs[labels[0]], runs[label])
                )
            rows.append(row)

    report = {
        "tool": "tools/size_sweep.py",
        "rounds": ROUNDS,
        "short_s": SHORT_S,
        "short_round_factor": SHORT_ROUND_FACTOR,
        "repeats": REPEATS,
        "min_measured_s": MIN_MEASURED_S,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "checkouts": {
            label: {**git_state(path, ("src",)), "src_lines": src_lines(path)}
            for label, path in checkouts.items()
        },
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
