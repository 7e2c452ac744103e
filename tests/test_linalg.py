"""Range safety and accuracy of the Jacobi kernels (ROADMAP defects D1-D3).

numpy.linalg appears only as the oracle.  The test configuration turns every
RuntimeWarning into an error, so these tests also show that no overflow
warning escapes the kernels or the polar routines.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncorlicz import (Element, JumpFunction, PowerFunction, ValidationError, absolute,
                      fk_integral, luxemburg_norm, make_algebra, operator_norm, polar_decompose)
from ncorlicz._linalg import RANK_RTOL, hermitian_eigh, singular_values
from ncorlicz.sampling import rand_matrix, rand_unitary_matrix
from ncorlicz.trace_orlicz import singular_value_measures

HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


class TestGradedSingularValues:
    """D . H with H the 4x4 Hadamard matrix has singular values exactly 2|d|."""

    D = (1.0, 1e-3, 1e-10, 2e-11)

    def test_kernel_keeps_relative_accuracy(self):
        got = singular_values(np.diag(self.D) @ HADAMARD)
        want = 2.0 * np.array(self.D)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_measures_keep_every_value_above_rank_cut(self):
        alg = make_algebra([4], [1.0])
        data = singular_value_measures(Element(alg, [np.diag(self.D) @ HADAMARD]))
        assert [m for _, m in data] == [1.0] * 4
        np.testing.assert_allclose([v for v, _ in data], 2.0 * np.array(self.D),
                                   rtol=1e-13, atol=0.0)

    def test_value_below_rank_cut_is_dropped(self):
        alg = make_algebra([4], [1.0])
        d = (1.0, 1e-3, 1e-10, 0.25 * RANK_RTOL)
        data = singular_value_measures(Element(alg, [np.diag(d) @ HADAMARD]))
        assert len(data) == 3
        np.testing.assert_allclose([v for v, _ in data], 2.0 * np.array(d[:3]),
                                   rtol=1e-13, atol=0.0)


def test_tiny_element_has_positive_norm():
    alg = make_algebra([2], [1.0])
    x = Element(alg, [1e-170 * np.eye(2)])
    norm = luxemburg_norm(PowerFunction(2), x)
    assert norm > 0.0
    assert norm == pytest.approx(math.sqrt(2.0) * 1e-170, rel=1e-11)


@pytest.mark.parametrize("s", [1e80, 1e160])
def test_linf_norm_at_large_scale(s):
    alg = make_algebra([2], [1.0])
    x = Element(alg, [s * np.array([[1.0, 2.0], [0.0, 1.0]])])
    assert luxemburg_norm(JumpFunction(1.0), x) == pytest.approx((1.0 + math.sqrt(2.0)) * s,
                                                                 rel=1e-12)


@pytest.mark.parametrize("k, size", [(500, 1e6), (-500, 1e-12)])
def test_eigh_scales_exactly_by_powers_of_two(k, size):
    # At 2^500 * 1e6 the squared Frobenius norm overflows, at 2^-500 * 1e-12
    # it underflows to zero: both need the prescale.
    h = size * np.array([[2.0, 1.0 - 1.0j, 0.5], [1.0 + 1.0j, -1.0, 0.25j], [0.5, -0.25j, 3.0]])
    vals, vecs = hermitian_eigh(math.ldexp(1.0, k) * h)
    want = np.sort(np.linalg.eigvalsh(h))[::-1]
    np.testing.assert_allclose(np.ldexp(vals, -k), want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_blocks_are_rejected(bad):
    one = np.array([[bad]])
    two = np.array([[1.0, bad], [bad, 1.0]])
    for block in (one, two):
        with pytest.raises(ValidationError):
            singular_values(block)
        with pytest.raises(ValidationError):
            hermitian_eigh(block)
    alg = make_algebra([2], [1.0])
    with pytest.raises(ValidationError):
        singular_value_measures(Element(alg, [two]))


def test_values_beyond_binary64_are_rejected():
    block = np.full((2, 2), 1.5e308)
    with pytest.raises(ValidationError, match="beyond the binary64 range"):
        singular_values(block)
    with pytest.raises(ValidationError, match="beyond the binary64 range"):
        hermitian_eigh(block)
    # |x| has the entry sqrt(2) * 1.5e308 and ||x|| the same value.
    x = Element(make_algebra([2], [1.0]), [1.5e308 * np.array([[1.0, 0.0], [1.0, 0.0]])])
    for f in (absolute, polar_decompose, operator_norm):
        with pytest.raises(ValidationError, match="beyond the binary64 range"):
            f(x)


def test_kernel_matches_lapack_on_random_blocks(rng):
    from ncorlicz.sampling import rand_element
    alg = make_algebra([1, 2, 3, 6], [1.0, 1.0, 1.0, 1.0])
    for _ in range(10):
        for block in rand_element(rng, alg).blocks:
            np.testing.assert_allclose(singular_values(block),
                                       np.linalg.svd(block, compute_uv=False), rtol=1e-12)


# Entries are 0 or at least 2^-20 in magnitude, so 2^-500 times them stays normal
# and the scaling is exact.
_part = st.one_of(st.just(0.0), st.integers(-2**20, 2**20).map(lambda i: math.ldexp(i, -20)))


@st.composite
def _blocks(draw):
    n = draw(st.integers(1, 6))
    parts = draw(st.lists(_part, min_size=2 * n * n, max_size=2 * n * n))
    return (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(n, n)


@settings(max_examples=60, deadline=None)
@given(_blocks(), st.integers(-500, 500))
def test_singular_values_commute_with_powers_of_two(a, k):
    scaled = np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
    assert np.array_equal(singular_values(scaled), np.ldexp(singular_values(a), k))


def _eigh_test_blocks(rng, n):
    """Random Hermitian, positive, rank-deficient and degenerate n x n blocks."""
    g = rand_matrix(rng, n)
    half = g[:, :n // 2]
    u = rand_unitary_matrix(rng, n)
    degenerate = np.array([2.0 if k % 3 == 2 else 1.0 for k in range(n)])
    return {"hermitian": g + g.conj().T, "positive": g @ g.conj().T,
            "rank-deficient": half @ half.conj().T,
            "degenerate": (u * degenerate) @ u.conj().T}


@pytest.mark.parametrize("n", range(1, 9))
def test_eigh_matches_lapack(rng, n):
    for kind, h in _eigh_test_blocks(rng, n).items():
        h = 0.5 * (h + h.conj().T)
        scale = max(np.linalg.norm(h), 1e-300)
        vals, vecs = hermitian_eigh(h)
        assert vals.dtype == np.float64 and vecs.dtype == np.complex128, kind
        assert vecs.shape == (n, n) and np.all(np.diff(vals) <= 0.0), kind
        want = np.linalg.eigvalsh(h)[::-1]
        assert np.max(np.abs(vals - want)) <= 1e-12 * scale, kind
        assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h) <= 1e-12 * scale, kind
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-12, kind


def test_eigh_is_deterministic(rng):
    for h in _eigh_test_blocks(rng, 6).values():
        (v1, w1), (v2, w2) = hermitian_eigh(h), hermitian_eigh(h)
        assert v1.tobytes() == v2.tobytes() and w1.tobytes() == w2.tobytes()


@settings(max_examples=60, deadline=None)
@given(_blocks(), st.integers(-500, 500))
def test_eigh_commutes_with_powers_of_two(a, k):
    h = a + a.conj().T  # exact: the parts are multiples of 2^-20 below 2^21
    scaled = np.ldexp(h.real, k) + 1j * np.ldexp(h.imag, k)
    vals, vecs = hermitian_eigh(h)
    svals, svecs = hermitian_eigh(scaled)
    assert np.array_equal(svals, np.ldexp(vals, k))
    assert np.array_equal(svecs, vecs)


@pytest.mark.parametrize("s", [1e160, 1e-160])
def test_polar_routines_at_extreme_scales(s):
    # x* x over- or underflows at these scales; LAPACK's SVD is the oracle.
    alg = make_algebra([2, 1], [1.0, 2.0])
    x = Element(alg, [s * np.array([[1.0, 2.0], [0.0, 1.0]]), s * np.array([[3.0j]])])
    v, a = polar_decompose(x)
    tops = []
    for b, got_abs, got_abs2, got_v in zip(x.blocks, absolute(x).blocks, a.blocks, v.blocks):
        u, sv, vh = np.linalg.svd(b)
        want_abs = (vh.conj().T * sv) @ vh
        np.testing.assert_allclose(got_abs, want_abs, rtol=0.0, atol=1e-12 * sv[0])
        np.testing.assert_allclose(got_abs2, want_abs, rtol=0.0, atol=1e-12 * sv[0])
        np.testing.assert_allclose(got_v, u @ vh, rtol=0.0, atol=1e-12)
        tops.append(sv[0])
    assert operator_norm(x) == pytest.approx(max(tops), rel=1e-12)
    want_trace = sum(c * np.sum(np.linalg.svd(b, compute_uv=False))
                     for c, b in zip(alg.weights, x.blocks))
    assert fk_integral(PowerFunction(1.0), x) == pytest.approx(want_trace, rel=1e-12)


def test_fk_integral_is_infinite_beyond_binary64():
    alg = make_algebra([2], [1.0])
    x = Element(alg, [1e160 * np.array([[1.0, 2.0], [0.0, 1.0]])])
    assert fk_integral(PowerFunction(2.0), x) == math.inf
