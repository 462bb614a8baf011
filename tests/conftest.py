"""The hypothesis profiles of the suite.

``qlefschetz``, the default: no per-example deadline, since the tests run on
shared machines whose speed varies too much for a fixed time limit per
example, and failing examples are printed with a reproduction blob.
``mutants``, for ``tools/mutants.py``: the same, derandomized, without
shrinking and without the example database, so a mutation trial is
repeatable and a caught mutant ends its run soon.
"""

from hypothesis import Phase, settings

settings.register_profile("qlefschetz", deadline=None, print_blob=True)
settings.register_profile(
    "mutants", deadline=None, derandomize=True, database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
settings.load_profile("qlefschetz")
