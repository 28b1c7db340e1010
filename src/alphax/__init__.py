"""alphax: extremal alpha-index search over minimally connected graph classes."""

import os

# No matrix here exceeds 64x64, so BLAS worker threads only cost start-up CPU;
# set before numpy is first imported, and a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"  # the one version source: pyproject and reports read it
