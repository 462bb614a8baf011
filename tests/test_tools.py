"""The tools under ``tools/``: the measuring tools on a checkout that is not a
git checkout, and the mutants of the mutation trial.

``tools/bench_pairs.py`` and ``tools/size_sweep.py`` share one git-state
helper, which records no commit for an exported tree (no ``.git`` entry)
instead of ending the run in a failed ``git`` call.  Each mutant of
``tools/mutants.py`` names text that occurs exactly once in its file, so
code that moves cannot switch a mutant off unseen.
"""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
import mutants  # noqa: E402
import size_sweep  # noqa: E402


def test_an_exported_tree_is_described_without_a_git_state(tmp_path):
    for top in bench_pairs.RUN_DIRS:
        shutil.copytree(ROOT / top, tmp_path / top,
                        ignore=shutil.ignore_patterns(*bench_pairs.SKIP_DIRS))
    got = bench_pairs.describe(str(tmp_path))
    assert set(got) == {"source_sha256", "src_lines"}
    assert got["source_sha256"] == bench_pairs.source_digest(str(ROOT))
    assert got["src_lines"] == size_sweep.src_lines(str(ROOT)) > 0
    assert size_sweep.git_state is bench_pairs.git_state
    assert bench_pairs.git_state(str(tmp_path), ("src",)) == {}


def test_each_mutant_names_text_that_occurs_once_in_its_file():
    package = ROOT / "src" / "qlefschetz"
    counts = {
        name: (package / filename).read_text(encoding="utf-8").count(old)
        for name, (filename, old, new) in mutants.MUTANTS.items()
        if old != new
    }
    assert counts == {name: 1 for name in mutants.MUTANTS}
    assert mutants.DESCRIPTIONS.keys() == mutants.MUTANTS.keys()
