"""Test-session settings: Hypothesis runs derandomized and keeps no example
database, so every run draws the same examples, and what it caches goes to a
temporary directory removed at exit instead of ``.hypothesis/``."""

import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves without it
    pass
else:
    _HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_HOME.name)
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")
