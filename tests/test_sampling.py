"""The seeded sampler: every draw is pinned bit for bit.

The suite, the laws and the benchmark inputs are all drawn through
``ncorlicz.sampling``, so a change that moves one bit of one draw changes
every seeded result downstream.
"""

import hashlib
import platform

import numpy as np
import pytest

from ncorlicz import ValidationError, make_algebra
from ncorlicz.sampling import (SplitMix64, rand_core_element, rand_element, rand_functional,
                               rand_isomorphism, rand_matrix, rand_unitary_matrix)

_GAMMA = 0x9E3779B97F4A7C15  # the stream's increment
_PINNED_SEEDS = (0, 1, 7, 20240811, 2 ** 64 - 1)
_PINNED_ALGEBRAS = (([6, 2], [1.0, 0.5]), ([2, 3], [1.0, 0.5]), ([1], [1.0]))


def _pinned_draws(digest, seed, dims, weights):
    """Feed ``digest`` the draws of one seeded stream on one algebra.  Single
    ``uniform``, ``randint`` and ``normal`` calls sit between the element draws,
    so some draws start with a Box-Muller spare pending and some without."""
    alg = make_algebra(dims, weights)
    rng = SplitMix64(seed)

    def put(*arrays):
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())

    put([rng.normal()])
    for d in dims:
        put(rand_matrix(rng, d), rand_matrix(rng, d, 1e-3))
    put([rng.uniform()])
    put(*rand_element(rng, alg).blocks)
    put([rng.normal()])
    put(*rand_element(rng, alg, 2.5).blocks)
    put([rng.randint(5), rng.normal(), rng.normal()])
    for d in dims:
        put(rand_unitary_matrix(rng, d))
    put([rng.normal()])
    put(*rand_functional(rng, alg).densities)
    put(*rand_functional(rng, alg, [max(d - 1, 0) for d in dims]).densities)
    for positive in (False, True):
        put([rng.normal()])
        core = rand_core_element(rng, alg, pieces=3, positive=positive)
        for x, iv in core.pieces:
            put(*x.blocks)
            digest.update(f"[{iv.a}, {iv.b})".encode())
    iso = rand_isomorphism(rng, alg)
    put(iso.permutation, *iso.unitaries)
    digest.update(f"{rng.state} {rng.normal()} {rng.uniform()}".encode())


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or platform.libc_ver()[0] != "glibc",
                    reason="Box-Muller calls the C library's log, sin and cos; the digest "
                           "was taken with glibc on x86-64")
def test_draws_are_pinned():
    # Any change to the sampler that moves one bit of one draw, or the state
    # it leaves, changes this digest.
    digest = hashlib.sha256()
    for seed in _PINNED_SEEDS:
        for dims, weights in _PINNED_ALGEBRAS:
            _pinned_draws(digest, seed, dims, weights)
    assert digest.hexdigest() == "04abcef1ab6028e236a1f6d42e0709c1dc29bcbb6efb9cffe313b6b1a2e3a8e4"


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1, (2 ** 64 - 3 * _GAMMA) % 2 ** 64])
@pytest.mark.parametrize("pending", [False, True])
def test_batch_equals_the_scalar_stream(seed, pending):
    # From the last two seeds the counter wraps past 2^64 within the first
    # few outputs.  With ``pending`` one normal() call first leaves a spare.
    for count in range(10):
        batch, scalar = SplitMix64(seed), SplitMix64(seed)
        if pending:
            assert batch.normal() == scalar.normal()
        got = batch.normals(count)
        want = np.array([scalar.normal() for _ in range(count)], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert got.tobytes() == want.tobytes()
        assert batch.state == scalar.state
        assert [batch.normal(), batch.normal(), batch.uniform()] == \
            [scalar.normal(), scalar.normal(), scalar.uniform()]


def test_negative_batch_is_rejected():
    with pytest.raises(ValidationError, match="count >= 0"):
        SplitMix64(0).normals(-1)


def test_entries_are_normal_pairs_in_row_major_order():
    # Block by block, each entry is (re, im) = two consecutive normals.
    alg = make_algebra([2, 3], [1.0, 0.5])
    batch, scalar = SplitMix64(3), SplitMix64(3)
    batch.normal(), scalar.normal()  # start with a spare pending
    got = [rand_matrix(batch, 2, 0.5), *rand_element(batch, alg).blocks]
    for b, scale in zip(got, (0.5, 1.0, 1.0)):
        n = b.shape[0]
        want = [[complex(scalar.normal(), scalar.normal()) for _ in range(n)] for _ in range(n)]
        assert b.tobytes() == (scale * np.array(want, dtype=np.complex128)).tobytes()
    assert batch.state == scalar.state and batch.normal() == scalar.normal()
