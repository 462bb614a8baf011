"""Record a benchmark comparison of two checkouts as a committed BENCH_*.json row.

Runs the benchmark harness ``perfbench/run.py`` of each checkout in
alternated pairs, one run at a time: pair i runs both sides with seed
``--seed + i``, the parent first in even pairs and the change first in odd
ones, so slow drift of the host hits both sides alike.  Each run's last
stdout line is the harness's JSON summary.  For every end-to-end metric the
file records the median and quartiles of each side and the number of pairs
in which the change read lower, and next to ``peak_rss_mb`` the number of
passes of every run, since the peak grows with the passes that fit into
``--seconds``.  It also records, for each checkout, the
commit it is at (``git rev-parse HEAD``) and whether its code differs from
that commit, both left out for a checkout that is not a git checkout (an
exported tree); a sha256 over the files the harness runs (``src/``,
``perfbench/`` and ``configs/``), which ties the file to the tree it measured
even when the change is not committed yet; the line count of the ``.py``
files in ``src/``; and the best of ``COMPILE_ROUNDS`` ``compile()`` timings
of those files, the two checkouts timed in turn (most of the harness's
``setup_s`` is this compile).  Only the timing is left out of the check that the checkouts did
not change while they were measured.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload equivariant_birkhoff --pairs 10 --seconds 25 --out BENCH_11.json

Several ``--workload`` options may be given; a workload already in ``--out``
is replaced and the others are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

METRICS = ("setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb")
RUN_DIRS = ("src", "perfbench", "configs")
SKIP_DIRS = {"__pycache__", "_work", ".pytest_cache", ".hypothesis"}
COMPILE_ROUNDS = 50


def source_digest(checkout: str) -> str:
    """sha256 over the relative path and bytes of every file in RUN_DIRS, in path order."""
    paths = []
    for top in RUN_DIRS:
        for root, dirs, files in os.walk(os.path.join(checkout, top)):
            dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
            paths += [os.path.join(root, name) for name in files]
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: os.path.relpath(p, checkout)):
        h.update(os.path.relpath(path, checkout).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def src_sources(checkout: str) -> list[tuple[str, str]]:
    """(path, text) of every .py file under the checkout's src/, in path order."""
    paths = []
    for root, dirs, files in os.walk(os.path.join(checkout, "src")):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        paths += [os.path.join(root, name) for name in files if name.endswith(".py")]
    out = []
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            out.append((path, fh.read()))
    return out


def compile_seconds(checkouts: dict[str, str]) -> dict[str, float]:
    """Best of COMPILE_ROUNDS timings of compile() over each checkout's src/ files, in turn."""
    sources = {side: src_sources(path) for side, path in checkouts.items()}
    best = {side: float("inf") for side in checkouts}
    for _ in range(COMPILE_ROUNDS):
        for side, files in sources.items():
            start = time.perf_counter()
            for path, text in files:
                compile(text, path, "exec", dont_inherit=True)
            best[side] = min(best[side], time.perf_counter() - start)
    return best


def git_state(checkout: str, dirs) -> dict:
    """The commit of a git checkout and whether its dirs differ from it; empty for an export.

    A checkout counts as git when it has a ``.git`` entry, a directory or, in a
    worktree, a file.
    """
    if not os.path.exists(os.path.join(checkout, ".git")):
        return {}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
        ).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain", "--", *dirs))}


def describe(checkout: str) -> dict:
    """The git state of a checkout's run files (``git_state``), their digest and src/ lines."""
    return {
        **git_state(checkout, RUN_DIRS),
        "source_sha256": source_digest(checkout),
        "src_lines": sum(text.count("\n") for _, text in src_sources(checkout)),
    }


def run_harness(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One harness run in a checkout: its final JSON line, with its pass count as ``passes``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output from the harness\n{proc.stderr}")
    out = json.loads(lines[-1])
    # the summary line "workload=... passes=N" precedes the metrics
    out["passes"] = next(
        int(field.split("=", 1)[1])
        for line in lines if line.startswith("workload=")
        for field in line.split() if field.startswith("passes=")
    )
    return out


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(workload: str, parent: str, change: str, pairs: int, seed: int, seconds: int) -> dict:
    checkouts = {"parent": describe(parent), "change": describe(change)}
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_harness(parent if side == "parent" else change, workload, seed + i, seconds)
            runs[side].append(out)
            print(f"{workload} pair {i + 1}/{pairs} {side}: "
                  f"wall_s={out['metrics'].get('wall_s', {}).get('value')}", file=sys.stderr)
    if checkouts != {"parent": describe(parent), "change": describe(change)}:
        raise RuntimeError(f"{workload}: a checkout changed while it was measured")
    for side, seconds_best in compile_seconds({"parent": parent, "change": change}).items():
        checkouts[side]["src_compile_s"] = seconds_best
    metrics = {}
    for name in METRICS:
        base = [r["metrics"][name]["value"] for r in runs["parent"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        metrics[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "parent": summary(base),
            "change": summary(new),
            "change_lower_pairs": sum(b > c for b, c in zip(base, new)),
        }
    metrics["peak_rss_mb"]["passes"] = {side: [r["passes"] for r in runs[side]] for side in runs}
    return {
        "workload": workload,
        "checkouts": checkouts,
        "seeds": list(range(seed, seed + pairs)),
        "seconds": seconds,
        "pairs": pairs,
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": sum(r["failed"] for side in runs.values() for r in side),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")

    doc = {"rows": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    rows = {row["workload"]: row for row in doc["rows"]}
    for workload in args.workload:
        rows[workload] = compare(
            workload, args.parent, args.change, args.pairs, args.seed, args.seconds
        )
    doc = {
        "recorder": "tools/bench_pairs.py",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "rows": [rows[name] for name in sorted(rows)],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
