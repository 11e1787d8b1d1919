"""Hypothesis profiles. HYPOTHESIS_PROFILE=ci selects the one CI runs: the same
examples on every run, and a failure prints the blob that reproduces it."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
