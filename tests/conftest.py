"""Shared test settings: with CI set, hypothesis runs the fixed ``ci``
profile, the same examples on every run and no per-example deadline."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
