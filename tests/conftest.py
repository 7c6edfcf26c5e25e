import _ctypes

import numpy as np
import pytest
from hypothesis import settings

from cknlab import spectral
from cknlab.grids import RadialGrid
from cknlab.params import derive_params

# Every property draws the same examples on every run, so a tier-1 pass is
# reproducible; `--hypothesis-profile=explore` draws fresh ones to keep
# searching for counterexamples.  Loaded here, before any test module builds
# its @settings, which inherit from the loaded profile.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")

# Admissible triples exercised throughout: Sobolev cases, a d=2 pair, and
# fractional intrinsic dimensions.
FIVE_TRIPLES = [
    (0.0, 0.0, 3),
    (-0.5, 0.0, 3),
    (0.0, 0.0, 4),
    (-0.3, 0.2, 2),
    (0.1, 0.3, 5),
]

SWEEP_TRIPLES = [(0.0, 0.0, 3), (-0.5, 0.0, 3), (-0.3, 0.2, 2)]


@pytest.fixture(scope="session")
def ps_n6():
    """(a, b, d) = (-1/2, 0, 3): n = 6, alpha = 1/2, symmetric."""
    return derive_params(-0.5, 0.0, 3)


@pytest.fixture(scope="session")
def ps_sobolev3():
    return derive_params(0.0, 0.0, 3)


@pytest.fixture(scope="session")
def ps_d2():
    """(a, b, d) = (-0.3, 0.2, 2): n = 4, alpha = 0.3, symmetric."""
    return derive_params(-0.3, 0.2, 2)


@pytest.fixture(scope="session")
def grid_default():
    return RadialGrid(1e-3, 1e3, 2048)


@pytest.fixture(scope="session")
def grid_small():
    return RadialGrid(1e-2, 1e2, 512)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240601)


@pytest.fixture(params=["missing file", "no symbol"])
def without_lapack(request, monkeypatch, tmp_path):
    """A numpy whose linalg links no scipy_dstebz_64_: the searched path is a file
    that does not exist, or a shared object without the symbol (Python's _ctypes)."""
    if request.param == "missing file":
        host = str(tmp_path / "absent.so")
    elif getattr(_ctypes, "__file__", None) is None:
        pytest.skip("_ctypes is built into this interpreter")
    else:
        host = _ctypes.__file__
    monkeypatch.setattr(spectral, "_LAPACK_HOST", host)
    spectral._dstebz.cache_clear()   # a lookup made before the patch would serve the test
    yield host
    spectral._dstebz.cache_clear()
