"""Test-session setup: Hypothesis keeps its files in a temporary directory
that is removed at exit, so a test run writes nothing into the checkout."""

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
