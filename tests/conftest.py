"""Session hooks of the test suite."""
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = []


def pytest_configure(config):
    """Hypothesis caches the constants it reads from local source files in
    its home directory, `.hypothesis/` under the working directory unless
    set, and its pytest plugin fills that cache while collecting; keep it
    in a temporary directory, so a test run leaves no files behind."""
    _HYPOTHESIS_HOME.append(tempfile.TemporaryDirectory(prefix="hypothesis-"))
    set_hypothesis_home_dir(_HYPOTHESIS_HOME[-1].name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    _HYPOTHESIS_HOME.pop().cleanup()
