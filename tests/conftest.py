import os

# One BLAS thread unless the environment says otherwise: the suite's many
# small dense LU and eig calls run about 2.5 times slower with OpenBLAS's
# default threads on a 2-core machine.  Set before numpy is first imported,
# which is when OpenBLAS reads these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from qri import example1, full_eig, wave2d  # noqa: E402
from qri.linalg import LUSolver  # noqa: E402


@pytest.fixture(scope="session")
def p_example1():
    return example1()


@pytest.fixture(scope="session")
def oracle_example1(p_example1):
    return full_eig(p_example1, 0.9)


@pytest.fixture(scope="session")
def p_wave2d6():
    return wave2d(6)


@pytest.fixture(scope="session")
def p_wave2d4():
    return wave2d(4)


@pytest.fixture(scope="session")
def oracle_wave2d4_probe(p_wave2d4):
    # generic probe shift, far from the spectrum, for spectrum discovery
    return full_eig(p_wave2d4, 0.1234 + 0.4321j)


def rand_complex(rng, n):
    return rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def lu_builds(monkeypatch):
    """The shapes of the LUSolvers built while the test runs, in order."""
    shapes = []
    init = LUSolver.__init__

    def counted(self, A, *args, **kwargs):
        shapes.append(A.shape)
        init(self, A, *args, **kwargs)

    monkeypatch.setattr(LUSolver, "__init__", counted)
    return shapes
