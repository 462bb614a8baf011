"""Regenerate expected_sha256.json from the engine in ``src/``.

    python3 perfbench/record_expected.py

The stored hashes pin the canonical output of every workload that produces
one, at both sizes, so that the benchmark fails when ``compute`` output
changes.  Run this only for a change whose purpose is to alter that output,
and say so.  After writing, every workload's checks are run against the new
file; a failing job or identity check is reported and exits with code 1.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from clock import Clock
from workloads import EXPECTED_PATH, WORKLOADS, canonical

SIZES = ("full", "smoke")


def run_once(workload, q, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs = workload.setup(q, 0, workdir)
    return inputs, workload.run_pass(q, inputs, Clock(sample=False))


def main() -> int:
    sys.path.insert(0, run.SRC)
    q = run.import_engine()
    workdir = os.path.join(run.WORK, f"record_{os.getpid()}")
    try:
        expected: dict[str, dict[str, str]] = {}
        for size in SIZES:
            for name, cls in WORKLOADS.items():
                workload = cls(size)
                hashes = workload.output_hashes(*run_once(workload, q, workdir))
                if hashes:
                    expected.setdefault(name, {}).update(hashes)
        with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
            fh.write(canonical(expected))
        for size in SIZES:
            for name, cls in WORKLOADS.items():
                workload = cls(size)
                problems = workload.check(q, *run_once(workload, q, workdir))
                if problems:
                    print(f"{name} ({size}):", json.dumps(problems, indent=1), file=sys.stderr)
                    return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"wrote {os.path.relpath(EXPECTED_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
