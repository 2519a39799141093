"""Hypothesis profiles.

``pytest --hypothesis-profile=ci`` derandomizes every property test, so a
failure in a CI log reproduces from that log; plain runs keep exploring new
examples.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
