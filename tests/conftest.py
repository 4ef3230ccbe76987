"""Suite-wide setup: Hypothesis keeps its example database and caches in a
temporary directory (removed at exit), not under the checkout."""

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
