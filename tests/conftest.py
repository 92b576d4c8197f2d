"""Hypothesis profiles: ``--hypothesis-profile=ci`` runs the solver equivalence test on 2000 examples.

Tests that fix their own ``max_examples`` keep it under either profile.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, deadline=None)
