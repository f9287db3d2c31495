"""Hypothesis profiles of the property tests, picked by ``HYPOTHESIS_PROFILE``.

- ``tier1`` (the default): derandomized, so every run draws the same 60
  examples a test;
- ``fuzz``: 600 fresh examples a test, and a failure prints the blob that
  replays it (``@reproduce_failure``).

    HYPOTHESIS_PROFILE=fuzz python -m pytest -q tests/test_properties.py
"""

from __future__ import annotations

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None, max_examples=60)
settings.register_profile(
    "fuzz", derandomize=False, deadline=None, database=None, max_examples=600, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
