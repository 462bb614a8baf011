"""One hypothesis profile for the whole suite.

No per-example deadline: the tests run on shared machines whose speed varies
too much for a fixed time limit per example.  Failing examples are printed
with a reproduction blob.
"""

from hypothesis import settings

settings.register_profile("qlefschetz", deadline=None, print_blob=True)
settings.load_profile("qlefschetz")
