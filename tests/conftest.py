import sys

import numpy as np
import pytest

from ncorlicz import SplitMix64, _linalg, make_algebra
from ncorlicz.sampling import rand_element, rand_functional, rand_hermitian


@pytest.fixture
def m2():
    return make_algebra([2], [1.0])


@pytest.fixture
def m3():
    return make_algebra([3], [1.0])


@pytest.fixture
def m2m1():
    return make_algebra([2, 1], [1.0, 2.0])


@pytest.fixture
def m2m3():
    return make_algebra([2, 3], [1.0, 0.5])


@pytest.fixture
def rng():
    return SplitMix64(20240811)


@pytest.fixture
def sample_element(rng):
    def draw(algebra, hermitian=False):
        return rand_hermitian(rng, algebra) if hermitian else rand_element(rng, algebra)
    return draw


@pytest.fixture
def sample_functional(rng):
    def draw(algebra, ranks=None):
        return rand_functional(rng, algebra, ranks)
    return draw


def svd_singular_values(x):
    """LAPACK oracle: all singular values of an element with their weights."""
    out = []
    for c, b in zip(x.algebra.weights, x.blocks):
        for s in np.linalg.svd(b, compute_uv=False):
            out.append((float(s), c))
    out.sort(key=lambda p: -p[0])
    return out


@pytest.fixture
def count_eigh(monkeypatch):
    """Shapes of the blocks passed to ``_linalg.hermitian_eigh``, one entry per call.

    Every binding of the solver in an ``ncorlicz`` module is patched, so calls
    through a from-import are counted too.
    """
    calls = []
    original = _linalg.hermitian_eigh

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "ncorlicz" or name.startswith("ncorlicz.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls
