"""Every hypothesis test draws the same examples on every run: one profile
with derandomize=True, loaded before the test modules; each test keeps its
own max_examples."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
