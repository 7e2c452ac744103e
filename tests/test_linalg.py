"""Range safety and accuracy of the Jacobi kernels (ROADMAP defects D1-D3).

numpy.linalg appears only as the oracle.  The test configuration turns every
RuntimeWarning into an error, so these tests also show that no overflow
warning escapes the kernels or the polar routines.
"""

import hashlib
import math
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncorlicz import (ConvergenceError, Element, JumpFunction, PowerFunction, ValidationError,
                      _linalg, absolute, fk_integral, luxemburg_norm, make_algebra,
                      operator_norm, polar_decompose)
from ncorlicz._linalg import (HERMITIAN_RTOL, POSITIVITY_RTOL, RANK_RTOL, certifies_positive,
                              hermitian_eigh, is_positive_semidefinite, singular_values,
                              singular_values_stack)
from ncorlicz.algebra import block_singular_values
from ncorlicz.sampling import SplitMix64, rand_matrix, rand_unitary_matrix
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

    def test_only_a_value_below_the_kernel_floor_is_dropped(self):
        # The distribution keeps a value below the spectral rank cut; only one
        # below the kernels' rounding floor, 64 d 2^-52 of the largest, goes.
        alg = make_algebra([4], [1.0])
        d = (1.0, 1e-3, 1e-10, 0.25 * RANK_RTOL)
        data = singular_value_measures(Element(alg, [np.diag(d) @ HADAMARD]))
        assert [m for _, m in data] == [1.0] * 4
        np.testing.assert_allclose([v for v, _ in data], 2.0 * np.array(d),
                                   rtol=1e-13, atol=0.0)
        d = (1.0, 1e-3, 1e-10, 1e-17)
        data = singular_value_measures(Element(alg, [np.diag(d) @ HADAMARD]))
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


def test_eigh_of_subnormal_blocks():
    # 2^-(e+1) with e from a subnormal norm would overflow; the prescale stops at 2^1020.
    for v in (-2e-318, 5e-324):
        assert hermitian_eigh(np.array([[v]]))[0].tolist() == [v]
    vals, _ = hermitian_eigh(np.array([[3e-320, 1e-320], [1e-320, 3e-320]]))
    assert vals.tolist() == [4e-320, 2e-320]
    assert not certifies_positive([np.array([[-2e-318]])])[0]
    assert Element(make_algebra([1], [1.0]), [[[1e-320]]]).is_positive()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_blocks_are_rejected(bad):
    one = np.array([[bad]])
    two = np.array([[1.0, bad], [bad, 1.0]])
    for block in (one, two):
        with pytest.raises(ValidationError):
            singular_values(block)
        with pytest.raises(ValidationError):
            hermitian_eigh(block)
        with pytest.raises(ValidationError):
            certifies_positive([block])
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


def test_entries_of_modulus_beyond_binary64():
    # Both parts are finite but the modulus is not, so abs() of the Python
    # complex overflows: the norm is +inf and the prescale takes over.
    x = Element(make_algebra([1], [1.0]), [[[1.5e308 + 1.5e308j]]])
    assert x.frobenius_norm() == math.inf
    assert not x.is_hermitian()
    assert not x.is_positive()
    off = 1e308 + 1e308j
    block = np.array([[0.0, off], [off.conjugate(), 0.0]])
    assert _linalg.frobenius(block) == math.inf
    vals, vecs = hermitian_eigh(block)
    np.testing.assert_allclose(vals, [math.sqrt(2.0) * 1e308, -math.sqrt(2.0) * 1e308],
                               rtol=1e-15)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-15)
    y = Element(make_algebra([2], [1.0]), [block])
    assert y.is_hermitian() and not y.is_positive()
    with pytest.raises(ValidationError, match="eigenvalues beyond the binary64 range"):
        hermitian_eigh(1.5 * block)


def test_kernel_matches_lapack_on_random_blocks(rng):
    from ncorlicz.sampling import rand_element
    alg = make_algebra([1, 2, 3, 6], [1.0, 1.0, 1.0, 1.0])
    for _ in range(10):
        for block in rand_element(rng, alg).blocks:
            np.testing.assert_allclose(singular_values(block),
                                       np.linalg.svd(block, compute_uv=False), rtol=1e-12)


@pytest.mark.parametrize("cosines", [(1 - 1e-8, 1 - 1e-14), (1 - 5e-9, 1 - 2e-16)])
def test_kernel_keeps_accuracy_when_rotations_cancel_norms(cosines):
    # Upper bidiagonal with columns 0, 1 and 2, 3 at the given cosines (1, eta)
    # against (1, 0) up to scale, then graded columns: orthogonalizing a pair
    # shrinks one norm by cancellation, where the updated norm is replaced by
    # an explicit one.  LAPACK leaves a bidiagonal block as it is and gets
    # every value to high relative accuracy; the kernel sees the block with
    # its rows and columns permuted and its columns multiplied by phases,
    # all exact.
    eta = [math.sqrt(1 / c ** 2 - 1) for c in cosines]
    b = np.diag([1.0, eta[0], 1e-3, 1e-3 * eta[1], 1e-6, 1e-9]).astype(complex)
    for k, f in enumerate([1.0, 1e-12, 1e-3, 1e-8, 1e-6]):
        b[k, k + 1] = f
    want = np.linalg.svd(b, compute_uv=False)
    a = b[[3, 0, 5, 1, 4, 2]][:, [2, 5, 0, 3, 1, 4]] * np.array([1, 1j, -1, -1j, 1, 1j])
    np.testing.assert_allclose(singular_values(a), want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(singular_values_stack(np.array([a, b]))[0], want,
                               rtol=1e-12, atol=0.0)


# Entries are 0 or at least 2^-20 in magnitude, so 2^-500 times them stays normal
# and the scaling is exact.
_part = st.one_of(st.just(0.0), st.integers(-2**20, 2**20).map(lambda i: math.ldexp(i, -20)))


def _square(n):
    return st.lists(_part, min_size=2 * n * n, max_size=2 * n * n).map(
        lambda parts: (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(n, n))


def _blocks():
    return st.integers(1, 6).flatmap(_square)


@settings(max_examples=60, deadline=None)
@given(_blocks(), st.integers(-500, 500))
def test_singular_values_commute_with_powers_of_two(a, k):
    scaled = np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
    assert np.array_equal(singular_values(scaled), np.ldexp(singular_values(a), k))


def _svd_test_blocks(rng, n):
    """Random, rank-deficient, zero, graded, subnormal and huge n x n blocks."""
    g = rand_matrix(rng, n)
    half = rand_matrix(rng, n)[:, :n // 2] @ rand_matrix(rng, n)[:n // 2]
    u, v = rand_unitary_matrix(rng, n), rand_unitary_matrix(rng, n)
    graded = (u * [10.0 ** (-3 * k) for k in range(n)]) @ v
    return {"random": g, "rank-deficient": half, "zero": np.zeros((n, n), complex),
            "graded": graded, "subnormal": np.ldexp(g.real, -1040) + 1j * np.ldexp(g.imag, -1040),
            "huge": 1e300 * g}


@pytest.mark.parametrize("n", range(1, 7))
def test_svd_matches_the_values_kernel_and_reconstructs_each_block(rng, n):
    for kind, b in _svd_test_blocks(rng, n).items():
        w, s, v, e = _linalg.svd(b)
        assert np.array_equal(np.ldexp(s, e), singular_values(b)), kind
        assert np.linalg.norm(v.conj().T @ v - np.eye(n), 2) <= 1e-14, kind
        u = w[:, s > 0] / s[s > 0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1]), 2) <= 1e-14, kind
        # 2^-e b = w v*, compared at the kernel's scale, where no entry is subnormal.
        assert np.linalg.norm(w @ v.conj().T - _linalg._ldexp_matrix(b, -e)) <= 1e-14 * s[0], kind


class TestStackKernel:
    """``singular_values_stack`` factors many blocks of one size at once."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_lapack_and_the_scalar_kernel(self, rng, n):
        kinds = {**_svd_test_blocks(rng, n), **{f"random{k}": rand_matrix(rng, n)
                                                for k in range(8)}}
        got = singular_values_stack(np.array(list(kinds.values())))
        assert got.shape == (len(kinds), n) and got.dtype == np.float64
        tiny = 2.0 ** -1074  # results round to this grid below 2^-1022
        for (kind, b), vals in zip(kinds.items(), got):
            # LAPACK sees the subnormal block scaled up, exactly.
            up = 1040 if kind == "subnormal" else 0
            want = np.ldexp(np.linalg.svd(np.ldexp(b.real, up) + 1j * np.ldexp(b.imag, up),
                                          compute_uv=False), -up)
            tol = 1e-14 * want[0] + tiny
            assert np.all(np.diff(vals) <= 0.0), kind
            assert np.max(np.abs(vals - want), initial=0.0) <= tol, kind
            assert np.max(np.abs(vals - singular_values(b)), initial=0.0) <= tol, kind

    @pytest.mark.parametrize("d, e", [((1.0, 1e-3, 1e-10, 2e-11), 0),
                                      ((1.0, 2.0 ** -4, 2.0 ** -8, 2.0 ** -12), -1030)])
    def test_graded_values_keep_relative_accuracy(self, d, e):
        # D . H has singular values exactly 2|d|; at e = -1030 every entry and
        # value is subnormal, with at least 30 significant bits.
        stack = np.array([np.ldexp(np.diag(d[::s]) @ HADAMARD, e) for s in (1, -1)])
        want = np.ldexp(2.0 * np.array(d), e)
        np.testing.assert_allclose(singular_values_stack(stack), [want, want],
                                   rtol=1e-13 if e == 0 else 2.0 ** -28, atol=0.0)

    @pytest.mark.parametrize("d, e", [((1.0, 1e-3, 1e-10, 2e-11), 0),
                                      ((1.0, 2.0 ** -4, 2.0 ** -8, 2.0 ** -12), -1030)])
    def test_graded_complex_values_keep_relative_accuracy(self, d, e):
        # Multiplying the columns of D . H by phases keeps the values 2|d|, and
        # makes every entry non-real, so each rotation carries a complex phase.
        phases = np.exp(1j * np.array([0.3, 1.9, -2.4, 4.0]))
        blocks = [np.diag(d[::s]) @ HADAMARD * phases for s in (1, -1)]
        stack = np.array([np.ldexp(b.real, e) + 1j * np.ldexp(b.imag, e) for b in blocks])
        want = np.ldexp(2.0 * np.array(d), e)
        np.testing.assert_allclose(singular_values_stack(stack), [want, want],
                                   rtol=1e-13 if e == 0 else 2.0 ** -28, atol=0.0)

    def test_each_block_is_independent_of_the_stack(self, rng):
        # Elementwise numpy loops may take vector or tail paths by length, so
        # every height from 1 to 17 is tried at both ends of an 18-block stack.
        for n in (1, 2, 3, 4, 5, 6):
            blocks = [b for _ in range(3) for b in _svd_test_blocks(rng, n).values()]
            alone = [singular_values_stack(b[None])[0].tobytes() for b in blocks]
            whole = singular_values_stack(np.array(blocks))
            assert [v.tobytes() for v in whole] == alone, n
            for m in range(1, 18):
                for part in (slice(None, m), slice(-m, None)):
                    got = singular_values_stack(np.array(blocks[part]))
                    assert [v.tobytes() for v in got] == alone[part], (n, m, part)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.tuples(_square(n), st.integers(-500, 500)), min_size=1, max_size=6)))
    def test_values_commute_with_powers_of_two(self, items):
        blocks = [a for a, _ in items]
        ks = [k for _, k in items] + [-500, 500]
        blocks.append(blocks[0])
        blocks.append(blocks[0])
        scaled = [np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k) for a, k in zip(blocks, ks)]
        want = np.ldexp(singular_values_stack(np.array(blocks)), np.array(ks)[:, None])
        assert np.array_equal(singular_values_stack(np.array(scaled)), want)

    def test_sweep_cap_raises_convergence_error(self, rng, monkeypatch):
        monkeypatch.setattr(_linalg, "MAX_SWEEPS", 2)
        g = rand_matrix(rng, 6)
        with pytest.raises(ConvergenceError, match="in 2 sweeps"):
            singular_values_stack(np.array([np.eye(6), g]))
        with pytest.raises(ConvergenceError, match="in 2 sweeps"):
            singular_values(g)
        # Orthogonal columns need no sweep that rotates.
        d = np.diag([3.0, 1.0, 2.0, 0.0, 5.0, 4.0])
        assert singular_values_stack(np.array([d, np.eye(6)]))[0].tolist() == [5, 4, 3, 2, 1, 0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_blocks_are_rejected(self, bad):
        stack = np.array([np.eye(2), [[1.0, bad], [0.0, 1.0]]], dtype=complex)
        with pytest.raises(ValidationError, match="non-finite"):
            singular_values_stack(stack)

    def test_values_beyond_binary64_are_rejected(self):
        stack = np.array([np.eye(2), np.full((2, 2), 1.5e308)])
        with pytest.raises(ValidationError, match="beyond the binary64 range"):
            singular_values_stack(stack)


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


def test_kron_is_bit_identical_to_numpy(rng):
    for p in range(1, 7):
        for q in (1, 3, p, 7 - p):
            a, b = rand_matrix(rng, p), rand_matrix(rng, q)
            for left, right in ((a, b), (a.real, b), (np.eye(p), b.T), (a.real, b.real)):
                got = _linalg.kron(left, right)
                assert got.dtype == np.kron(left, right).dtype
                assert np.array_equal(got, np.kron(left, right))


def test_eigh_is_deterministic(rng):
    for h in _eigh_test_blocks(rng, 6).values():
        (v1, w1), (v2, w2) = hermitian_eigh(h), hermitian_eigh(h)
        assert v1.tobytes() == v2.tobytes() and w1.tobytes() == w2.tobytes()


_PINNED_EXPONENTS = (0, 300, -300, 600, -600, -1000, -1060, 1000, 1020)


def _pinned_blocks():
    """432 seeded blocks for ``test_eigh_bits_are_pinned``: n = 1..6 cycling
    fastest, then Hermitian, positive (g g*), graded (D h D with D = diag(2^-12j))
    and degenerate (I + v v*, or I + v v* + w w* on the second half) blocks,
    each scaled by 2^k for k in ``_PINNED_EXPONENTS``; every 61st block gets a
    NaN.  Entries come from SplitMix64 uniforms and Python arithmetic, so the
    inputs do not depend on numpy's generators or BLAS."""
    rng = SplitMix64(25)
    out = []
    for b in range(432):
        n, kind = 1 + b % 6, (b // 6) % 4
        k = _PINNED_EXPONENTS[(b // 24) % len(_PINNED_EXPONENTS)]
        g = [[complex(2.0 * rng.uniform() - 1.0, 2.0 * rng.uniform() - 1.0)
              for _ in range(n)] for _ in range(n)]
        herm = [[g[i][j] + g[j][i].conjugate() for j in range(n)] for i in range(n)]
        if kind == 0:
            h = herm
        elif kind == 1:
            h = [[sum(x * y.conjugate() for x, y in zip(g[i], g[j])) for j in range(n)]
                 for i in range(n)]
        elif kind == 2:
            h = [[math.ldexp(1.0, -12 * (i + j)) * herm[i][j] for j in range(n)]
                 for i in range(n)]
        else:
            vs = g[:1] if b < 216 else g[:2]
            h = [[float(i == j) + sum(v[i] * v[j].conjugate() for v in vs) for j in range(n)]
                 for i in range(n)]
        a = np.array(h, dtype=np.complex128)
        a = np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
        if b % 61 == 60:
            a[0, n - 1] = math.nan
        out.append(a)
    return out


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or platform.libc_ver()[0] != "glibc",
                    reason="abs() of a complex calls the C library's hypot; the digest "
                           "was taken with glibc on x86-64")
def test_eigh_bits_are_pinned():
    # Any change to the eigensolver that moves one bit of an eigenvalue or an
    # eigenvector, or the text of an error, changes this digest.  Rewrites
    # that keep every operation and its order keep it.
    digest, raised = hashlib.sha256(), 0
    for a in _pinned_blocks():
        try:
            vals, vecs = hermitian_eigh(a)
        except (ValidationError, ConvergenceError) as exc:
            raised += 1
            digest.update(f"{type(exc).__name__}: {exc}".encode())
        else:
            digest.update(vals.tobytes() + vecs.tobytes())
    assert raised == 7  # the NaN blocks
    assert digest.hexdigest() == "158f6703340267f37b09ffddf0b17b283eebc47c4bdc0b460e2adb12713da949"


def _eigh_outcome(a, **kwargs):
    try:
        return hermitian_eigh(a, **kwargs)
    except (ValidationError, ConvergenceError) as exc:
        return type(exc), str(exc)


def test_values_only_eigh_matches_the_full_solve():
    # Both paths run in one process, so the comparison needs no platform skip.
    raised = 0
    for a in _pinned_blocks():
        full, bare = _eigh_outcome(a), _eigh_outcome(a, vectors=False)
        if isinstance(full[0], type):
            raised += 1
            assert bare == full
        else:
            assert bare[0].tobytes() == full[0].tobytes()
            assert bare[1] is None
    assert raised == 7


def _pinned_stacks():
    """Seeded stacks for ``test_stack_bits_are_pinned``: 19 blocks of 6x6, 19 of
    2x2 and 12 of 3x3, then 19 of 6x6 with column k scaled by 2^-6k (down to
    about 1e-9) and 19 of 6x6 of rank 3 (the last three columns are half the
    first three).  Entries come from SplitMix64 uniforms and Python arithmetic,
    so the inputs do not depend on numpy's generators or BLAS."""
    rng = SplitMix64(34)

    def stack(m, n):
        return np.array([[[complex(2.0 * rng.uniform() - 1.0, 2.0 * rng.uniform() - 1.0)
                           for _ in range(n)] for _ in range(n)] for _ in range(m)])

    graded = stack(19, 6) * np.array([math.ldexp(1.0, -6 * k) for k in range(6)])
    deficient = stack(19, 6)
    deficient[..., 3:] = 0.5 * deficient[..., :3]
    return [stack(19, 6), stack(19, 2), stack(12, 3), graded, deficient]


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or platform.libc_ver()[0] != "glibc",
                    reason="abs() of a complex calls the C library's hypot; the digest "
                           "was taken with glibc on x86-64")
def test_stack_bits_are_pinned(monkeypatch):
    # Any change to the stacked kernel that moves one bit of a value changes
    # this digest; the blocks are above the stacking crossover, which the
    # norm digests' small pieces stay below.  The kernel norms all columns
    # once at the start and once at the end; a further call is the
    # cancellation guard, which must run here.
    col_norms, shapes = _linalg._col_norms, []

    def spy(cols):
        shapes.append(cols.shape)
        return col_norms(cols)

    monkeypatch.setattr(_linalg, "_col_norms", spy)
    digest, guarded = hashlib.sha256(), 0
    for stack in _pinned_stacks():
        shapes.clear()
        digest.update(singular_values_stack(stack).tobytes())
        guarded += len(shapes) > 2
    assert guarded
    assert digest.hexdigest() == "5d5005c33f16d3f42eb2881ea5dfc537bc3ae3966ee0ad8a3e79cdbfceef6159"


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
    for b, got_abs, got_abs2, got_v, got_sv in zip(x.blocks, absolute(x).blocks, a.blocks,
                                                   v.blocks, block_singular_values(x)):
        u, sv, vh = np.linalg.svd(b)
        want_abs = (vh.conj().T * sv) @ vh
        np.testing.assert_allclose(got_abs, want_abs, rtol=0.0, atol=1e-12 * sv[0])
        np.testing.assert_allclose(got_abs2, want_abs, rtol=0.0, atol=1e-12 * sv[0])
        np.testing.assert_allclose(got_v, u @ vh, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got_sv, sv, rtol=1e-12)
        tops.append(sv[0])
    assert operator_norm(x) == pytest.approx(max(tops), rel=1e-12)
    want_trace = sum(c * np.sum(np.linalg.svd(b, compute_uv=False))
                     for c, b in zip(alg.weights, x.blocks))
    assert fk_integral(PowerFunction(1.0), x) == pytest.approx(want_trace, rel=1e-12)


def _concatenated_prescale_exponent(blocks):
    """The prescale exponent formed from all blocks concatenated into one array:
    that of their largest real or imaginary part, 0 while it is at most 450."""
    parts = np.concatenate([np.ravel(b).astype(complex).view(np.float64) for b in blocks])
    e = math.frexp(float(np.max(np.abs(parts), initial=0.0)))[1]
    return e if abs(e) > 450 else 0


def _prescale_cases():
    rng = SplitMix64(7)
    m = [rand_matrix(rng, d) for d in (2, 3, 1, 2)]
    real, imag = np.array([[3.0, -8.0], [0.5, 1.0]]), np.array([[1.0j, -6.0j], [0.0, 2.0j]])
    return {
        "random": [m[0], m[1]],
        "subnormal": [5e-324 * m[0], 1e-310 * m[1]],
        "1e300": [1e300 * m[0], 1e300 * m[1]],
        "1e-300": [1e-300 * m[0], 1e-300 * m[1]],
        "mixed": [1e300 * m[0], 1e-300 * m[1], m[2]],
        "mixed-small": [1e-200 * m[0], 1e-140 * m[3]],
        "real-largest": [real + 1e-3 * imag],
        "imag-largest": [imag + 1e-3 * real],
        "top-of-range": [np.array([[np.finfo(float).max, -np.finfo(float).max * 1j]])],
        "zero": [np.zeros((2, 2), dtype=complex), np.zeros((1, 1), dtype=complex)],
    }


@pytest.mark.parametrize("case", sorted(_prescale_cases()))
def test_prescale_exponent_matches_the_concatenated_formula(case):
    blocks = _prescale_cases()[case]
    scaled, e = _linalg.pow2_prescale(blocks)
    assert e == _concatenated_prescale_exponent(blocks)
    for b, s in zip(blocks, scaled):
        assert s is b if e == 0 else np.array_equal(s, _linalg._ldexp_matrix(b, -e))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                 complex(0, -math.inf)])
@pytest.mark.parametrize("where", [0, 1])
def test_prescale_rejects_non_finite_entries(bad, where):
    blocks = [np.eye(2, dtype=complex), np.ones((3, 3), dtype=complex)]
    blocks[where] = blocks[where].copy()
    blocks[where][-1, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        _linalg.pow2_prescale(blocks)


def test_fk_integral_is_infinite_beyond_binary64():
    alg = make_algebra([2], [1.0])
    x = Element(alg, [1e160 * np.array([[1.0, 2.0], [0.0, 1.0]])])
    assert fk_integral(PowerFunction(2.0), x) == math.inf


def _eigvalsh_positive(b) -> bool:
    """Oracle: is_positive_semidefinite of numpy's eigenvalues of (b + b*) / 2,
    taken on b scaled exactly to a largest part in [1/2, 1)."""
    e = math.frexp(float(np.max(np.abs(b.view(np.float64)), initial=0.0)))[1]
    w = np.ldexp(b.real, -e) + 1j * np.ldexp(b.imag, -e)
    return is_positive_semidefinite(np.linalg.eigvalsh((w + w.conj().T) / 2)[::-1])


def _hermitian_within(b, rtol) -> bool:
    e = math.frexp(float(np.max(np.abs(b.view(np.float64)), initial=0.0)))[1]
    w = np.ldexp(b.real, -e) + 1j * np.ldexp(b.imag, -e)
    return np.linalg.norm(w - w.conj().T) <= rtol * np.linalg.norm(w)


def _with_anti_hermitian(h, s, rel):
    """h + t s, with s anti-Hermitian and t such that ||a - a*|| = rel ||a||."""
    hn, sn = np.linalg.norm(h), np.linalg.norm(s)
    return h + (rel * hn / (sn * math.sqrt(4.0 - rel * rel))) * s


def _mixed_blocks(rng, n):
    """Blocks of size n of every kind the certificate must tell apart."""
    def hermitian(b):  # exactly, so that scaling into the subnormals keeps it so
        return (b + b.conj().T) / 2

    g = rand_matrix(rng, n)
    gram = hermitian(g @ g.conj().T)
    low = g[:, :max(n - 1, 1)]
    deficient = hermitian(low @ low.conj().T)
    u = rand_unitary_matrix(rng, n)
    graded = hermitian((u * np.geomspace(1.0, 1e-13, n)) @ u.conj().T)
    skew = rand_matrix(rng, n)
    skew = skew - skew.conj().T
    blocks = [gram, deficient, graded, -gram, g, g + g.conj().T, np.zeros((n, n)),
              gram - 1e-9 * np.linalg.norm(gram) * np.eye(n),
              _with_anti_hermitian(gram, skew, 0.9 * HERMITIAN_RTOL),
              _with_anti_hermitian(gram, skew, 1.1 * HERMITIAN_RTOL)]
    for scale in (1e300, 1e-300, 1e-310, 2e-320):
        blocks += [scale * gram, scale * deficient, -scale * gram]
    return [np.asarray(b, dtype=np.complex128) for b in blocks]


class TestPositivityCertificate:
    """``certifies_positive`` may decline a Hermitian positive block, but a
    block it accepts is Hermitian within HERMITIAN_RTOL and passes the
    eigenvalue test of ``is_positive_semidefinite``."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32), st.floats(0.0, 3.0),
           st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), st.integers(-500, 500))
    def test_accepted_blocks_pass_the_eigen_test(self, n, seed, f, rest, k):
        # Eigenvalues 1, rest..., -f * POSITIVITY_RTOL (only the last for n = 1),
        # so the smallest sits at -f * POSITIVITY_RTOL * max|lambda| for n >= 2.
        low = -f * POSITIVITY_RTOL
        vals = ([1.0] + rest[:n - 2] + [low]) if n > 1 else [low]
        u = rand_unitary_matrix(SplitMix64(seed), n)
        b = (u * vals) @ u.conj().T
        a = np.ldexp(b.real, k) + 1j * np.ldexp(b.imag, k)
        if certifies_positive([a])[0]:
            assert _eigvalsh_positive(a)
        if n > 1 and f > 1.01:
            assert not certifies_positive([a])[0]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stack_verdicts_are_those_of_each_block_alone(self, n):
        blocks = _mixed_blocks(SplitMix64(100 + n), n)
        alone = [bool(certifies_positive([b])[0]) for b in blocks]
        assert True in alone and False in alone
        assert certifies_positive(np.stack(blocks)).tolist() == alone
        order = np.argsort([hash(b.tobytes()) for b in blocks])
        stacked = certifies_positive(np.stack([blocks[i] for i in order])).tolist()
        assert stacked == [alone[i] for i in order]
        assert certifies_positive(np.stack(blocks[3:5])).tolist() == alone[3:5]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_accepted_blocks_pass_the_oracle(self, n):
        rng = SplitMix64(200 + n)
        blocks = [b for _ in range(5) for b in _mixed_blocks(rng, n)]
        verdicts = certifies_positive(np.stack(blocks)).tolist()
        for b, ok in zip(blocks, verdicts):
            if ok:
                assert _eigvalsh_positive(b)
                assert _hermitian_within(b, HERMITIAN_RTOL)
        # Positive blocks that are Hermitian to rounding are certified at every scale.
        kinds = len(blocks) // 5
        for i in (0, 8, 10, 13, 16, 19):
            assert all(verdicts[i::kinds]), i

    @pytest.mark.parametrize("n", range(2, 7))
    def test_anti_hermitian_part_beyond_the_tolerance_is_declined(self, n):
        rng = SplitMix64(300 + n)
        alg = make_algebra([n], [1.0])
        for _ in range(10):
            g = rand_matrix(rng, n)
            skew = rand_matrix(rng, n)
            skew = skew - skew.conj().T
            for rel, ok in ((0.9, True), (1.1, False)):
                a = _with_anti_hermitian(g @ g.conj().T, skew, rel * HERMITIAN_RTOL)
                assert bool(certifies_positive([a])[0]) is ok
                assert Element(alg, [a]).is_hermitian() is ok

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_blocks_and_projections(self, n):
        assert certifies_positive([np.zeros((n, n))])[0]
        u = rand_unitary_matrix(SplitMix64(n), n)
        for rank in range(1, n + 1):
            p = u[:, :rank] @ u[:, :rank].conj().T
            for k in (-1000, 0, 1000):
                assert certifies_positive([np.ldexp(p.real, k) + 1j * np.ldexp(p.imag, k)])[0]
            assert not certifies_positive([-p])[0]
            assert rank == n or not certifies_positive([p - 1e-9 * (np.eye(n) - p)])[0]

    def test_gram_matrices_are_certified(self, rng):
        for n in range(1, 7):
            g = rand_matrix(rng, n)
            assert certifies_positive([g @ g.conj().T])[0]
            assert not certifies_positive([g + g.conj().T - 10.0 * np.eye(n)])[0]

    def test_non_finite_block_in_a_stack_is_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="non-finite"):
                certifies_positive(np.stack([np.eye(2), np.array([[1.0, bad], [bad, 1.0]])]))


class TestAboveFloor:
    """``above_floor`` counts the singular values that the distribution keeps."""

    def test_computed_zeros_stay_below_the_floor(self):
        # 30 blocks of every rank r < d for d = 2..8: both one-sided kernels
        # leave the d - r computed zeros below the floor and keep the r others.
        rng = SplitMix64(31)
        for d in range(2, 9):
            for r in range(d):
                blocks = [rand_matrix(rng, d)[:, :r] @ rand_matrix(rng, d)[:r, :]
                          for _ in range(30)]
                for s in [singular_values(b) for b in blocks] + list(
                        singular_values_stack(np.array(blocks))):
                    assert _linalg.above_floor(s) == r, (d, r, s)

    def test_floor_edges(self):
        floor = math.ldexp(64 * 3, -52)
        assert _linalg.above_floor([]) == 0
        assert _linalg.above_floor([0.0, 0.0]) == 0
        assert _linalg.above_floor(np.array([1.0, floor, 0.0])) == 1
        assert _linalg.above_floor([1.0, math.nextafter(floor, 1.0), 0.0]) == 2
        assert _linalg.above_floor([2.0 ** -1070, 2.0 ** -1074]) == 2
