"""One Hypothesis profile for the whole suite: every run draws the same
examples, keeps no example database and sets no per-example deadline.
Each `@settings` names only its `max_examples`."""

from hypothesis import settings

settings.register_profile("modquant", derandomize=True, database=None, deadline=None)
settings.load_profile("modquant")
