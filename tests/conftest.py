import sys

import numpy as np
import pytest

from ncorlicz import SplitMix64, make_algebra
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
def count_calls(monkeypatch):
    """``count_calls(fn)`` patches every binding of ``fn`` in an ``ncorlicz``
    module or in a class defined there, and returns a list that gets the
    positional arguments of each later call.

    Calls through a from-import or through a method (``Element.__init__``)
    are counted too.
    """
    def install(original):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ncorlicz" or name.startswith("ncorlicz.")):
                continue
            owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)
                              and v.__module__.startswith("ncorlicz")]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        monkeypatch.setattr(owner, attr, counted)
        return calls

    return install


@pytest.fixture
def factored_blocks(count_calls):
    """``factored_blocks()`` lists the blocks factored for singular values
    since the fixture was set up, by either kernel, as (kernel, block) pairs
    with kernel "scalar" (``singular_values``) or "stack" (one pair per block
    of a ``singular_values_stack`` call)."""
    from ncorlicz import _linalg
    scalar = count_calls(_linalg.singular_values)
    stacked = count_calls(_linalg.singular_values_stack)

    def factored():
        return [("scalar", args[0]) for args in scalar] + \
            [("stack", b) for args in stacked for b in args[0]]

    return factored
