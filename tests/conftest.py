import os

# One BLAS thread per test process, set before numpy is first imported: a
# multithreaded BLAS that waits on a core another process holds slows the
# whole suite.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240817))
