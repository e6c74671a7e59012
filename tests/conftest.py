"""Suite-wide test settings.

Hypothesis draws the same examples on every run, so a property test that
passes once passes every time.  ``--hypothesis-profile=default`` on the
pytest command line restores random exploration.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
