"""Mutation trial: run pytest selections against one-line mutants of ``src/`` and print the matrix.

A mutant is a (file, old text, new text) triple under ``src/qlefschetz``.
For each mutant the tool copies ``src/`` to a temporary directory, replaces
the old text there, and runs every selection with ``PYTHONPATH`` pointing at
the copy; ``src/`` itself is never written.  A mutant whose old text does not
occur exactly once in its file is refused.  Each selection is first run on an
unmutated copy and must pass there.  A selection is one shell-quoted string
of pytest arguments: a file, several files, ``file::test``.  It catches a
mutant when its run fails (``-x``, so a run stops at its first failure).
Two runs go at a time, and each finished run is logged to stderr.
Runs use the ``mutants`` hypothesis profile of ``tests/conftest.py``:
derandomized, no shrinking, no example database.  Subprocesses that build
their own import path from the checkout (the ``perfbench`` harness) do not
see the mutant.

    python3 tools/mutants.py tests/test_qseries_kernel.py "tests/test_acceptance.py tests/test_mirror.py"
    python3 tools/mutants.py --only 2 --only 9 tests/test_fused_products.py

It prints one row per mutant, one column per selection, and ``caught`` or
``missed`` in each cell.
"""

from __future__ import annotations

import argparse
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # pytest runs at a time

MUTANTS = {
    "1": ("ring.py", "if j >= room:", "if j > room:"),
    "2": ("ring.py", "out |= (theirs if self._trunc >> i & 1 else other._trunc) << i",
          "out |= (other._slots() if self._trunc >> i & 1 else other._trunc) << i"),
    "4": ("ring.py", "trunc[p] = trunc.get(p, 0) | 1 << k", "trunc[p] = trunc.get(p, 0) | 1 << p"),
    "5": ("series.py", "if mask and (at is not None or not parts):", "if mask and at is not None:"),
    "6a": ("series.py", "c * f * (i + 1) ** (j - 1)", "c * f * (i + 1) ** j"),
    "6b": ("series.py", "trunc |= power._trunc << 1", "trunc |= power._trunc"),
    "7a": ("ring.py", "for (i, a, b), c in self._nums.items() if i + 1 < span}",
           "for (i, a, b), c in self._nums.items() if i < span}"),
    "7b": ("ring.py", "nums[key] = get(key, 0) + c * d", "nums[key] = get(key, 0) + c"),
    "8": ("mirror.py", "if d not in pending:", "if _sweep or d not in pending:"),
    "9": ("ring.py", "out |= (theirs if self._trunc >> i & 1 else other._trunc) << i",
          "out |= (theirs if self._trunc >> i & 1 else 0) << i"),
    "10": ("series.py", "if power.is_zero() and not power.truncated:", "if power.is_zero():"),
    "11a": ("ring.py", "            right = y._nums.items() if type(y) is LambdaScalar else y._by_slot()\n"
                       "            for (i, a1, b1), c1 in x._nums.items():\n                c1 *= f\n",
            "            right = [(k, c * f) for k, c in (y._nums.items() if type(y) is LambdaScalar"
            " else y._by_slot())]\n            for (i, a1, b1), c1 in x._nums.items():\n"),
    "11b": ("ring.py", "out._trunc, out._order = trunc, None", "out._trunc, out._order = trunc, sorted(nums.items())"),
    "12": ("series.py", "for e, a, _ in value._nums if e == d} or {p + k}:",
           "for e, a, _ in value._nums if e == d} or ():"),
    "13": ("series.py", "                        el._den, el._trunc) for w, el in row.items()}",
           "                        el._den, el._trunc * any(keep(w - k[0] - k[1]) for k in el._nums))"
           " for w, el in row.items()}"),
}

DESCRIPTIONS = {
    "1": "`j >= room` bound of `_Terms._times`",
    "2": "flagged-slot branch of `_Terms._spread` (a flagged zero slot of the other factor not reached)",
    "4": "`1 << k` flag bit mapping of `ring._transposed`",
    "5": "`at is not None or not parts` rule of `_regroup`",
    "6a": "`(i + 1) ** (j - 1)` factor of `lagrange_sum`",
    "6b": "`<< 1` flag shift of `lagrange_sum`",
    "7a": "slot shift of `_times_t_plus`",
    "7b": "`+ c * d` term of `_times_t_plus`",
    "8": "sweep stop of `_eliminate`",
    "9": "unflagged-slot branch of `_Terms._spread` (the other factor's flags not taken)",
    "10": "exact-zero stop of `QSeries.powers`",
    "11a": "inner factor scaled in `_Terms._times` (same values, more products)",
    "11b": "stale cached order: `_by_slot` kept from the numerators before `_make` reduces them",
    "12": "lam^0 flag of a flagged degree without terms in `series.lifted`",
    "13": "flag of a class with no term in its half, `series.project`",
}


def mutated_copy(tmp: Path, name: str | None) -> Path:
    """A copy of src/ under tmp with mutant name applied (None: unmutated)."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if name is not None:
        filename, old, new = MUTANTS[name]
        path = src / "qlefschetz" / filename
        text = path.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"mutant {name}: old text occurs {count} times in {filename}")
        path.write_text(text.replace(old, new), encoding="utf-8")
    return src


def fails(src: Path, selection: str) -> bool:
    """Whether the pytest run of selection against the package in src fails; logged to stderr."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutants", *shlex.split(selection)]
    failed = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode != 0
    print(f"{src.parent.name}: {selection}: {'fails' if failed else 'passes'}", file=sys.stderr, flush=True)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("selections", nargs="+", help="pytest arguments, one quoted string each")
    parser.add_argument("--only", action="append", choices=sorted(MUTANTS), help="run these mutants")
    args = parser.parse_args(argv)
    names = args.only or list(MUTANTS)
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {name: mutated_copy(Path(tmp) / (name or "clean"), name) for name in [None, *names]}
        with ThreadPoolExecutor(JOBS) as pool:
            clean = list(pool.map(lambda s: fails(srcs[None], s), args.selections))
            broken = [s for s, failed in zip(args.selections, clean) if failed]
            if broken:
                raise SystemExit(f"fails without a mutant: {broken}")
            cells = list(pool.map(lambda job: fails(srcs[job[0]], job[1]),
                                  [(name, s) for name in names for s in args.selections]))
    width = len(args.selections)
    print("| mutant | " + " | ".join(args.selections) + " |")
    print("|---" * (width + 1) + "|")
    for i, name in enumerate(names):
        row = ["caught" if hit else "missed" for hit in cells[i * width:(i + 1) * width]]
        print(f"| {name}: {DESCRIPTIONS[name]} | " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
