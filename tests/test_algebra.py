import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncorlicz import (CoreElement, Element, Functional, PowerFunction, StandardForm,
                      ValidationError, _linalg, absolute, canonical_trace, core_rearrangement,
                      eigen_spectrum, embed, functional_polar, interval, luxemburg_norm,
                      make_algebra, operator_norm, polar_decompose, power_on_support,
                      rearrangement, reduce_to_support, spectral_calculus, support_projection,
                      trace)
from ncorlicz._linalg import (POSITIVITY_RTOL, RANK_RTOL, hermitian_eigh,
                              is_positive_semidefinite, levels, singular_values)
from ncorlicz.algebra import (HERMITIAN_RTOL, block_eigh, block_lines,
                              block_singular_values, certified_positive, fill_singular_values,
                              in_range, negative_block)
from ncorlicz.sampling import (SplitMix64, rand_element, rand_functional, rand_matrix,
                               rand_unitary_element, rand_unitary_matrix)


def test_make_algebra_examples():
    a = make_algebra([2], [1])
    assert trace(a.identity()) == 2
    b = make_algebra([2, 1], [1, 2])
    assert trace(b.identity()) == 4
    c = make_algebra([3, 3], [0.5, 0.5])
    # oracle: elementwise trace sum
    want = sum(w * d for w, d in zip(c.weights, c.block_dims))
    assert trace(c.identity()).real == pytest.approx(want) == pytest.approx(3.0)


@pytest.mark.parametrize("dims,weights", [([], []), ([2], [1, 2]), ([0], [1]),
                                          ([2], [0.0]), ([2], [-1.0]), ([2], [math.inf])])
def test_make_algebra_rejects(dims, weights):
    with pytest.raises(ValidationError):
        make_algebra(dims, weights)


def test_element_shape_mismatch(m2m1):
    with pytest.raises(ValidationError):
        Element(m2m1, [np.eye(2), np.eye(2)])
    with pytest.raises(ValidationError):
        Element(m2m1, [np.eye(2)])


def test_trace_cyclic_and_unitary(m2m3, rng):
    for _ in range(20):
        x = rand_element(rng, m2m3)
        y = rand_element(rng, m2m3)
        bound = 1e-12 * x.frobenius_norm() * y.frobenius_norm()
        assert abs(trace(x * y) - trace(y * x)) <= bound
        u = rand_unitary_element(rng, m2m3)
        assert abs(trace(u * x * u.adjoint()) - trace(x)) <= 1e-12 * x.frobenius_norm()


def test_trace_faithful(m2m3, rng):
    x = rand_element(rng, m2m3)
    lhs = trace(x.adjoint() * x).real
    rhs = sum(c * np.sum(np.abs(b) ** 2) for c, b in zip(m2m3.weights, x.blocks))
    assert lhs == pytest.approx(rhs, rel=1e-13)
    assert lhs > 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=16, max_size=16),
       st.lists(st.floats(-5, 5), min_size=16, max_size=16))
def test_adjoint_antimultiplicative(re, im):
    alg = make_algebra([2], [1.0])
    x = Element(alg, [np.array(re[:4]).reshape(2, 2) + 1j * np.array(im[:4]).reshape(2, 2)])
    y = Element(alg, [np.array(re[4:8]).reshape(2, 2) + 1j * np.array(im[4:8]).reshape(2, 2)])
    assert ((x * y).adjoint() - y.adjoint() * x.adjoint()).frobenius_norm() <= 1e-12
    assert (x.adjoint().adjoint() - x).frobenius_norm() == 0.0


def test_spectral_calculus_examples(m2):
    x = Element(m2, [np.diag([1.0, 4.0])])
    root = spectral_calculus(x, math.sqrt)
    assert np.allclose(root.blocks[0], np.diag([1.0, 2.0]))
    # A cluster at the top of binary64 keeps its value: no mean overflows.
    top = Element(m2, [np.diag([1.7e308, 1.7e308])])
    assert np.array_equal(spectral_calculus(top, lambda t: t / 2).blocks[0], 0.85e308 * np.eye(2))


def test_spectral_identity_and_square(m2m3, rng):
    for _ in range(10):
        x = rand_element(rng, m2m3)
        h = 0.5 * (x + x.adjoint())
        ident = spectral_calculus(h, lambda t: t)
        assert (ident - h).frobenius_norm() <= 1e-10 * max(h.frobenius_norm(), 1e-300)
        sq = spectral_calculus(h, lambda t: t * t)
        assert (sq - h * h).frobenius_norm() <= 1e-10 * max(h.frobenius_norm() ** 2, 1e-300)


def test_spectral_calculus_rejections(m2, rng):
    nonherm = Element(m2, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValidationError):
        spectral_calculus(nonherm, lambda t: t)
    x = Element(m2, [np.diag([0.0, 2.0])])
    with pytest.raises(ValidationError, match="0"):
        spectral_calculus(x, lambda t: 1.0 / t)


def test_spectrum_invariants(m2m3, rng):
    x = rand_element(rng, m2m3)
    h = 0.5 * (x + x.adjoint())
    spec = eigen_spectrum(h)
    scale = max(h.frobenius_norm(), 1e-300)
    assert (spec.reconstruct() - h).frobenius_norm() <= 1e-10 * scale
    total = m2m3.zero()
    for line in spec.lines:
        p = line.projection
        assert (p * p - p).frobenius_norm() <= 1e-10
        assert p.is_hermitian()
        total = total + p
    assert (total - m2m3.identity()).frobenius_norm() <= 1e-10
    # clustering: exact degeneracy is merged
    merged = eigen_spectrum(Element(m2m3, [np.diag([2.0, 2.0]), np.zeros((3, 3))]))
    mults = [l.multiplicity for l in merged.lines if l.block == 0]
    assert mults == [2]
    # ... into its weighted mean, which cannot overflow at the top of binary64
    top = eigen_spectrum(Element(m2m3, [np.diag([1.7e308, 1.7e308]), np.zeros((3, 3))]))
    assert [(l.value, l.multiplicity) for l in top.lines if l.block == 0] == [(1.7e308, 2)]


def test_polar_examples(m2):
    x = Element(m2, [np.diag([-2.0, 3.0])])
    v, a = polar_decompose(x)
    assert np.allclose(v.blocks[0], np.diag([-1.0, 1.0]))
    assert np.allclose(a.blocks[0], np.diag([2.0, 3.0]))
    z = m2.zero()
    v0, a0 = polar_decompose(z)
    assert v0.is_zero() and a0.is_zero()


def test_polar_random(m3, rng):
    for _ in range(10):
        x = rand_element(rng, m3)
        v, a = polar_decompose(x)
        # oracle: singular values from LAPACK
        sv = np.sort(np.linalg.svd(x.blocks[0], compute_uv=False))[::-1]
        ev = sorted((line.value for line in eigen_spectrum(a).lines
                     for _ in range(line.multiplicity)), reverse=True)
        assert np.allclose(ev, sv, atol=1e-10 * max(sv[0], 1.0))
        assert (v * a - x).frobenius_norm() <= 1e-10 * max(x.frobenius_norm(), 1e-300)
        supp = support_projection(a)
        assert (v.adjoint() * v - supp).frobenius_norm() <= 1e-9


def test_polar_uniqueness_trivial_kernel(m3, rng):
    x = rand_element(rng, m3) + 4.0 * m3.identity()
    v, a = polar_decompose(x)
    assert (v.adjoint() * v - m3.identity()).frobenius_norm() <= 1e-9
    assert (v - x * power_on_support(a, -1.0)).frobenius_norm() <= 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
def test_absolute_is_the_modulus_of_polar_decompose(m2m3, rng, scale):
    # At 1e+-160, x* x would leave the binary64 range; both work on the
    # kernel's prescaled values.  The second singular value of a rank-one
    # block is a rounding error below the rank cut, 0 in both.
    rank_one = Element(m2m3, [scale * np.outer(rand_matrix(rng, d)[0], rand_matrix(rng, d)[1])
                              for d in m2m3.block_dims])
    for x in [rank_one] + [rand_element(rng, m2m3, scale) for _ in range(6)]:
        got, want = absolute(x).blocks, polar_decompose(x)[1].blocks
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_absolute_keeps_a_singular_value_below_the_rank_cut(m2):
    # 2e-6 lies below sqrt(RANK_RTOL), where the rank cut of x* x would drop
    # it, but far above RANK_RTOL, the cut on the singular values themselves,
    # so |x| and polar's support keep it.
    x = Element(m2, [np.diag([1.0, 2e-6]).astype(complex)])
    assert 2e-6 ** 2 <= RANK_RTOL
    v, a = polar_decompose(x)
    assert np.array_equal(absolute(x).blocks[0], x.blocks[0])
    assert np.array_equal(a.blocks[0], x.blocks[0])
    assert np.array_equal(v.blocks[0], np.eye(2))


@pytest.mark.parametrize("s", [1e-7, 1e-9, 1e-10])
def test_polar_decompose_of_a_graded_element(m3, s):
    # x = U diag(1, 0.5, s) W*: x* x would carry s**2 = 1e-14 ... 1e-20, near or
    # below its rounding error of about 1e-16, so a root of x* x loses s and v's
    # unitarity; the SVD of x keeps s to high relative accuracy.  LAPACK's SVD
    # is the oracle only.
    rng = SplitMix64(0)
    u, w = rand_unitary_matrix(rng, 3), rand_unitary_matrix(rng, 3)
    x = Element(m3, [(u * [1.0, 0.5, s]) @ w.conj().T])
    v, a = polar_decompose(x)
    vb = v.blocks[0]
    assert np.linalg.norm(vb.conj().T @ vb - np.eye(3), 2) <= 1e-12
    assert (v * a - x).frobenius_norm() <= 1e-14
    _, sv, wh = np.linalg.svd(x.blocks[0])
    assert np.linalg.norm(a.blocks[0] - (wh.conj().T * sv) @ wh) <= 1e-14 * sv[0]


def test_absolute_and_polar_make_no_eigendecomposition(m2m3, rng, count_calls):
    x = rand_element(rng, m2m3)
    calls = count_calls(_linalg.hermitian_eigh)
    absolute(x)
    polar_decompose(x)
    assert calls == []


def test_functions_are_evaluated_at_each_computed_eigenvalue(m2):
    # 1 + 5e-10 and 1 lie within CLUSTER_RTOL of each other; evaluated at
    # their mean, t -> t and t^-1 were off by 2.5e-10.
    x = Element(m2, [np.diag([1.0 + 5e-10, 1.0])])
    ulp = math.ulp(1.0)
    assert np.abs(spectral_calculus(x, lambda t: t).blocks[0] - x.blocks[0]).max() <= 4 * ulp
    inverse = power_on_support(x, -1.0) * x
    assert np.abs(inverse.blocks[0] - np.eye(2)).max() <= 4 * ulp


@pytest.mark.parametrize("gap", [1e-12, 1e-11, 1e-10, 1e-9, 1e-8])
def test_spectral_calculus_of_a_near_degenerate_spectrum_reproduces_the_element(m3, gap):
    # f(x) = V f(L) V* at the computed eigenvalues is as accurate as the
    # eigendecomposition (Higham, Functions of Matrices, 2008, ch. 4): t -> t
    # gives back x within the decomposition's own residual, which the
    # eigensolver's stop bounds by JACOBI_REL_OFF.  A merge of the near-equal
    # eigenvalues moved each by up to half the gap.
    rng = SplitMix64(7)
    for _ in range(20):
        u = rand_unitary_matrix(rng, 3)
        b = (u * [1.0 + gap, 1.0, -0.5]) @ u.conj().T
        x = Element(m3, [(b + b.conj().T) / 2])
        vals, vecs = hermitian_eigh(x.blocks[0])
        norm = x.frobenius_norm()
        residual = np.linalg.norm((vecs * vals) @ vecs.conj().T - x.blocks[0])
        err = (spectral_calculus(x, lambda t: t) - x).frobenius_norm()
        assert err <= residual + 8 * math.ulp(norm)
        assert err <= _linalg.JACOBI_REL_OFF * norm


def test_absolute_keeps_every_singular_value(m2):
    # 9e-12 lies below the rank cut RANK_RTOL = 1e-11; |x| keeps it, so it
    # has the distribution of x, while its support and polar factor do not.
    x = Element(m2, [np.diag([1.0, 9e-12])])
    tau_abs = 1.000000000009
    assert luxemburg_norm(PowerFunction(1), absolute(x)) == pytest.approx(tau_abs, rel=1e-15)
    assert Functional(m2, [np.diag([1.0, -9e-12])]).norm() == pytest.approx(tau_abs, rel=1e-15)
    assert rearrangement(absolute(x)).matches(rearrangement(x))
    v, a = polar_decompose(x)
    assert np.array_equal(v.blocks[0], np.diag([1.0, 0.0]))
    assert np.array_equal(support_projection(a).blocks[0], (v.adjoint() * v).blocks[0])


@pytest.mark.parametrize("s", [1e-8, 9e-12, 1e-13])
def test_absolute_of_a_graded_element_has_its_distribution(s):
    # Columns graded down to s, orthogonal from the start, so the one-sided
    # kernel rotates none and |x| = diag(column norms) holds exactly.
    alg = make_algebra([3, 2], [1.0, 0.5])
    rng = SplitMix64(0)
    for _ in range(10):
        x = Element(alg, [rand_unitary_matrix(rng, 3) * [1.0, 0.5, s],
                          rand_unitary_matrix(rng, 2) * [2.0, s]])
        assert rearrangement(absolute(x)).matches(rearrangement(x))
    core = CoreElement(alg, [(x, interval(0, 1)), (2.0 * x, interval(1, "inf"))])
    assert core_rearrangement(core.absolute()).matches(core_rearrangement(core))


def test_power_beyond_binary64_range_is_a_validation_error(m2):
    x = Element(m2, [np.diag([1e-310, 4e-310]).astype(complex)])
    with pytest.raises(ValidationError, match=r"eigenvalue 4e-310 to the power \(-1\+0j\)"):
        power_on_support(x, -1.0)
    y = Element(m2, [np.diag([1e200, 4e200]).astype(complex)])
    with pytest.raises(ValidationError, match=r"to the power \(2\+0j\)"):
        power_on_support(y, 2.0)
    # Powers that binary64 represents are still formed.
    assert np.allclose(np.diag(power_on_support(x, -0.5).blocks[0]), [1e155, 5e154], rtol=1e-12)
    assert np.allclose(np.diag(power_on_support(y, 1.5).blocks[0]), [1e300, 8e300], rtol=1e-12)
    top = Element(m2, [np.diag([1.7e308, 1.7e308])])
    assert np.allclose(power_on_support(top, 0.5).blocks[0], math.sqrt(1.7e308) * np.eye(2),
                       rtol=1e-12, atol=0.0)


def test_support_projection(m2):
    x = Element(m2, [np.diag([0.0, 5.0])])
    p = support_projection(x)
    assert np.allclose(p.blocks[0], np.diag([0.0, 1.0]))
    faithful = Functional(m2, [np.diag([0.4, 0.6])])
    assert support_projection(faithful).allclose(m2.identity(), 1e-12)
    rank1 = np.array([[0.5, 0.5], [0.5, 0.5]])
    p1 = support_projection(Functional(m2, [rank1]))
    assert (p1 - Element(m2, [rank1 / 0.5 * 0.5])).frobenius_norm() <= 1e-10
    with pytest.raises(ValidationError):
        support_projection(Element(m2, [np.diag([-1.0, 1.0])]))


def test_functional_polar(m2, m3, rng):
    phi = Functional(m2, [np.diag([0.25, 0.75])])
    v, absphi = functional_polar(phi)
    assert v.allclose(support_projection(phi), 1e-10)
    assert absphi.density_element().allclose(phi.density_element(), 1e-12)
    t = Functional(m2, [np.diag([-1.0, 2.0])])
    v, a = functional_polar(t)
    assert np.allclose(a.densities[0], np.diag([1.0, 2.0]))
    assert np.allclose(v.blocks[0], np.diag([-1.0, 1.0]))
    # random non-Hermitian density: basis identity phi(x) = |phi|(x v)
    for _ in range(5):
        dens = rand_element(rng, m3)
        phi = Functional(m3, list(dens.blocks))
        v, ab = functional_polar(phi)
        assert ab.is_positive()
        assert abs(ab.norm() - phi.norm()) <= 1e-10 * max(phi.norm(), 1e-300)
        for _, _, _, e in m3.matrix_units():
            assert abs(phi(e) - ab(e * v)) <= 1e-10 * max(1.0, phi.norm())


def test_reduce_to_support(m2, m3, rng):
    faithful = Functional(m2, [np.diag([0.4, 0.6])])
    red = reduce_to_support(faithful)
    assert red.algebra.block_dims == (2,)
    assert red.functional.is_faithful()
    rank1 = reduce_to_support(Functional(m2, [np.diag([1.0, 0.0])]))
    assert rank1.algebra.block_dims == (1,)
    assert rank1.functional.is_faithful()
    # rank-2 corner of M3, rotated basis
    u = rand_unitary_element(rng, m3).blocks[0]
    rho = u @ np.diag([0.9, 0.4, 0.0]) @ u.conj().T
    red = reduce_to_support(Functional(m3, [rho]))
    assert red.algebra.block_dims == (2,)
    assert red.functional.is_faithful()
    # compress is evaluation-compatible on corner elements
    p = support_projection(Functional(m3, [rho]))
    x = rand_element(rng, m3)
    corner = p * x * p
    phi = Functional(m3, [rho])
    assert phi(corner) == pytest.approx(
        complex(red.functional(red.compress(corner))), abs=1e-10)
    with pytest.raises(ValidationError):
        reduce_to_support(Functional(m2, [np.zeros((2, 2))]))


def test_positivity_closure_and_operator_norm(m2m3, rng):
    for _ in range(10):
        x = rand_element(rng, m2m3)
        h = x.adjoint() * x
        low = min(line.value for line in eigen_spectrum(0.5 * (h + h.adjoint())).lines)
        assert low >= -1e-12 * x.frobenius_norm() ** 2
        ref = max(np.linalg.norm(b, ord=2) for b in x.blocks)
        assert operator_norm(x) == pytest.approx(ref, rel=1e-11)


def test_immutability(m2):
    x = Element(m2, [np.eye(2)])
    with pytest.raises((ValueError, AttributeError)):
        x.blocks[0][0, 0] = 5.0
    with pytest.raises(AttributeError):
        x.algebra = None


@pytest.mark.parametrize("factor, positive", [(0.5, True), (0.9, True), (1.1, False),
                                               (2.0, False)])
def test_positivity_checks_agree_at_the_tolerance(factor, positive):
    # The smallest eigenvalue sits at -factor * POSITIVITY_RTOL of the largest.
    # The Cholesky certificate covers eigenvalues down to -POSITIVITY_RTOL
    # ||x||_F / sqrt(3), about -0.65 POSITIVITY_RTOL here: at 0.9 and 1.1 it
    # declines and the eigenvalues decide.
    alg = make_algebra([3], [1.0])
    u = rand_unitary_matrix(SplitMix64(7), 3)
    b = (u * [1.0, 0.5, -factor * POSITIVITY_RTOL]) @ u.conj().T
    x = Element(alg, [0.5 * (b + b.conj().T)])
    verdicts = [Functional(alg, x.blocks).is_positive(), StandardForm(alg).in_cone(x)]
    for check in (support_projection, lambda y: canonical_trace(embed(y))):
        try:
            check(x)
            verdicts.append(True)
        except ValidationError:
            verdicts.append(False)
    assert verdicts == [positive] * 4


def _positivity_case(case):
    """An Element of M_6 + M_2 of one kind that the positivity checks tell apart."""
    alg = make_algebra([6, 2], [1.0, 0.5])
    rng = SplitMix64(10)
    g = rand_element(rng, alg)
    if case == "certified":
        return g.adjoint() * g
    if case == "edge":
        # Positive, with its smallest eigenvalue at -0.9 POSITIVITY_RTOL of the
        # largest: the certificate covers about -0.4 POSITIVITY_RTOL here.
        u = rand_unitary_matrix(rng, 6)
        b = (u * [1.0, 0.1, 0.1, 0.1, 0.1, -0.9 * POSITIVITY_RTOL]) @ u.conj().T
        return Element(alg, [(b + b.conj().T) / 2, np.eye(2)])
    if case == "negative":
        return Element(alg, [np.eye(6), np.diag([1.0, -1.0])])
    return g  # not Hermitian


@pytest.mark.parametrize("case, certified, positive", [
    ("certified", True, True), ("edge", False, True), ("negative", False, False),
    ("non-hermitian", False, False)])
def test_positivity_verdicts_with_and_without_eigen_data(case, certified, positive):
    x = _positivity_case(case)
    assert certified_positive([x]) == [certified]
    # The eigenvalue test on the eigen data of each block, the oracle of
    # negative_block; for a non-Hermitian x the data are those of (x + x*) / 2.
    eig = block_eigh(_positivity_case(case))
    want = next(((i, float(vals[-1])) for i, (vals, _) in enumerate(eig)
                 if not is_positive_semidefinite(vals)), None)
    assert (want is None) == (case in ("certified", "edge"))
    for stored in (False, True):
        y, z = _positivity_case(case), _positivity_case(case)
        if stored:
            block_eigh(y)
            block_eigh(z)
        assert y.is_positive() is positive
        assert negative_block(z) == want
    if case == "negative":
        assert want == (1, -1.0)
    elif case == "non-hermitian":
        h = [(b + b.conj().T) / 2 for b in x.blocks]
        assert want[1] == pytest.approx(np.linalg.eigvalsh(h[want[0]])[0], rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_entries_are_rejected(m2m1, bad):
    block = np.eye(2, dtype=np.complex128)
    block[0, 1] = bad
    with pytest.raises(ValidationError, match="block 0 has non-finite entries"):
        Element(m2m1, [block, [[1.0]]])
    with pytest.raises(ValidationError, match="block 1 has non-finite entries"):
        Functional(m2m1, [np.eye(2), [[bad]]])


def _fresh_power(block, z):
    """block^z on its support, computed from a fresh factorisation of the block."""
    vals, vecs = hermitian_eigh(block)
    out = np.zeros_like(block)
    for group, rep in zip(*levels(vals)[:2]):
        if rep > RANK_RTOL * max(float(vals[0]), 0.0):
            cols = vecs[:, group]
            out += np.exp(complex(z) * math.log(rep)) * (cols @ cols.conj().T)
    return out


def test_values_only_block_eigh_reads_the_memo_and_stores_nothing(m2m3, rng):
    rho = rand_functional(rng, m2m3, [2, 3]).density_element()
    bare = block_eigh(rho, vectors=False)
    assert rho._eigh is None
    for (vals, vecs), block in zip(bare, rho.blocks):
        assert vecs is None and vals.tobytes() == hermitian_eigh(block)[0].tobytes()
    memo = block_eigh(rho)
    assert block_eigh(rho, vectors=False) is memo


def test_memoized_eigen_data_is_bit_identical_to_a_fresh_factorisation(m2m3, rng):
    for ranks in ([2, 3], [1, 2], [2, 1]):
        rho = rand_functional(rng, m2m3, ranks).density_element()
        memo = block_eigh(rho)
        assert block_eigh(rho) is memo
        for (vals, vecs), block in zip(memo, rho.blocks):
            fresh_vals, fresh_vecs = hermitian_eigh(block)
            assert np.array_equal(vals, fresh_vals) and np.array_equal(vecs, fresh_vecs)
            assert not (vals.flags.writeable or vecs.flags.writeable)
        lines = block_lines(rho)
        assert block_lines(rho) is lines
        assert not any(proj.flags.writeable for _, block in lines for _, proj in block)
        for z in (0.5, -1.0, 0.0, 0.7j, 0.25 - 1.5j):
            first, again = power_on_support(rho, z), power_on_support(rho, z)
            # Without a kernel the spectral calculus takes the same lines.
            calc = (spectral_calculus(rho, lambda t: np.exp(complex(z) * math.log(t)))
                    if ranks == [2, 3] else first)
            for got, repeat, via_calc, block in zip(first.blocks, again.blocks, calc.blocks,
                                                    rho.blocks):
                want = _fresh_power(block, z)
                assert np.array_equal(got, want) and np.array_equal(repeat, want)
                assert np.array_equal(via_calc, want)
        for _ in range(2):
            for got, block in zip(support_projection(rho).blocks, rho.blocks):
                assert np.array_equal(got, _fresh_power(block, 0.0))


def _hermitian_case(rel):
    """An element of [2, 3] with ||x - x*||_F = rel ||x||_F exactly in real arithmetic."""
    rng = SplitMix64(17)
    alg = make_algebra([2, 3], [1.0, 0.5])
    h = [0.5 * (b + b.conj().T) for b in (rand_matrix(rng, 2), rand_matrix(rng, 3))]
    s = [0.5 * (b - b.conj().T) for b in (rand_matrix(rng, 2), rand_matrix(rng, 3))]
    # x = h + t s with h Hermitian, s skew: ||x - x*|| = 2t ||s||, ||x||^2 = ||h||^2 + t^2 ||s||^2.
    nh, ns = math.hypot(*map(np.linalg.norm, h)), math.hypot(*map(np.linalg.norm, s))
    t = rel * nh / (ns * math.sqrt(4.0 - rel * rel))
    return Element(alg, [a + t * b for a, b in zip(h, s)])


@pytest.mark.parametrize("rel, hermitian", [(0.0, True), (0.9 * HERMITIAN_RTOL, True),
                                             (1.1 * HERMITIAN_RTOL, False)])
def test_hermitian_verdict_is_stored_once(count_calls, rel, hermitian):
    x = _hermitian_case(rel)
    dev = math.hypot(*(np.linalg.norm(b - b.conj().T) for b in x.blocks))
    fresh = dev <= HERMITIAN_RTOL * math.hypot(*map(np.linalg.norm, x.blocks))
    assert x.is_hermitian() is fresh is hermitian
    norms = count_calls(_linalg.frobenius)
    assert x.is_hermitian() is hermitian
    assert norms == []
    # The memo is sound because the blocks it was decided on cannot change.
    with pytest.raises(ValueError):
        x.blocks[0][0, 1] = 0.0


def test_hermitian_verdict_at_the_top_of_binary64(m2):
    # x - x* overflows here; the verdict is taken on x / 2^1024 instead.
    x = Element(m2, [[[1e308, 1e308], [-1e308, 1e308]]])
    assert not x.is_hermitian()
    assert not Element(m2, x.blocks).is_positive()
    with pytest.raises(ValidationError, match=r"Hermitian element \(\|\|x - x\*\|\| = "
                                              r"1\.573e\+00 \* 2\^1024\)"):
        eigen_spectrum(x)
    y = Element(m2, [np.diag([1e308, 1e308])])
    assert y.is_hermitian()
    assert [line.value for line in eigen_spectrum(y).lines] == [1e308]


@pytest.mark.parametrize("k", [-1050, -1036, 1000])
def test_hermitian_verdict_is_that_of_the_element_scaled_into_range(k):
    # Near 2^-1040 the product HERMITIAN_RTOL ||x|| and the entries of x - x*
    # round in the subnormal range; the verdict is the one taken at 2^0, where
    # scaling the blocks back by 2^-k is exact.  Deciding on the subnormal
    # values called 2^-1036 x Hermitian at rel = 1.3 HERMITIAN_RTOL.
    for rel in np.linspace(0.5, 1.5, 21) * HERMITIAN_RTOL:
        x = _hermitian_case(rel)
        y = Element(x.algebra, [np.ldexp(b.real, k) + 1j * np.ldexp(b.imag, k)
                                for b in x.blocks])
        up = [np.ldexp(b.real, -k) + 1j * np.ldexp(b.imag, -k) for b in y.blocks]
        dev = math.hypot(*(np.linalg.norm(b - b.conj().T) for b in up))
        assert y.is_hermitian() is (dev <= HERMITIAN_RTOL * math.hypot(*map(np.linalg.norm, up)))


def test_trace_beyond_binary64_is_a_validation_error(m2, m2m3, rng):
    for x in (Element(m2, [np.diag([1e308, 1e308])]),
              Element(make_algebra([2], [4.0]), [np.diag([1e308, 0.0])]),
              Element(m2, [np.diag([1e308j, 1e308j])])):
        with pytest.raises(ValidationError, match="trace is beyond the binary64 range"):
            trace(x)
    assert trace(Element(m2, [np.diag([1e308, -1e308])])) == 0.0
    for _ in range(5):
        x = rand_element(rng, m2m3)
        want = complex(sum(c * np.trace(b) for c, b in zip(m2m3.weights, x.blocks)))
        assert trace(x) == want


def test_functional_value_beyond_binary64_is_a_validation_error(m2, m2m3, rng):
    # The products 1e200 * 1e200 overflow inside the matmul; numpy's warnings
    # are errors under the test configuration, so none may escape either.
    phi = Functional(m2, [np.diag([1e200, 1e200])])
    with pytest.raises(ValidationError, match="functional is beyond the binary64 range"):
        phi(Element(m2, [np.diag([1e200, 1e200])]))
    for _ in range(5):
        phi, x = rand_functional(rng, m2m3), rand_element(rng, m2m3)
        want = complex(sum(c * np.trace(r @ b)
                           for c, r, b in zip(m2m3.weights, phi.densities, x.blocks)))
        assert phi(x) == want


def test_fill_singular_values_groups_blocks_by_size(m2m3, rng, factored_blocks):
    els = [rand_element(rng, m2m3) for _ in range(7)]
    memo = block_singular_values(els[0])
    fill_singular_values(els + els[1:3])
    assert els[0]._svals is memo
    # Six 2x2 blocks reach the even crossover, six 3x3 blocks not the odd one.
    kinds = Counter((kernel, b.shape) for kernel, b in factored_blocks())
    assert kinds == {("scalar", (2, 2)): 1, ("scalar", (3, 3)): 7, ("stack", (2, 2)): 6}
    for x in els:
        for vals, b in zip(x._svals, x.blocks):
            assert not vals.flags.writeable
            want = singular_values(b)
            assert np.max(np.abs(vals - want)) <= 1e-14 * want[0]


def _in_range_cases():
    alg = make_algebra([2, 3], [1.0, 0.5])
    x = rand_element(SplitMix64(31), alg)
    for base in (x, x + x.adjoint()):
        for k in (0, 447, 448, 449, 450, 451, 452, -447, -448, -449, -450, -451, -452, -1060):
            yield Element(alg, [np.ldexp(b.real, k) + 1j * np.ldexp(b.imag, k)
                                for b in base.blocks])
    yield alg.zero()
    yield Element(alg, [np.zeros((2, 2)), math.ldexp(1.0, -1074) * np.eye(3)])
    yield Element(alg, [[[1.0, 2.0 ** 460], [-2.0 ** 460, 1.0]], np.eye(3)])  # (x + x*) / 2 = 1


@pytest.mark.parametrize("memo", [None, "singular values", "eigen data"])
def test_in_range_is_the_prescale_bit_for_bit(memo):
    # Every result, e included, is that of pow2_prescale, with or without a
    # memo, at the edges of its range [2^-451, 2^450) too.
    for x in _in_range_cases():
        if memo == "singular values":
            block_singular_values(x)
        elif memo == "eigen data":
            x.is_hermitian()
            block_eigh(x)
        y, e = in_range(x)
        blocks, want = _linalg.pow2_prescale(x.blocks)
        assert e == want and (y is x) == (e == 0)
        assert [b.tobytes() for b in y.blocks] == [b.tobytes() for b in blocks]


def test_in_range_reads_the_memo(count_calls):
    alg = make_algebra([2, 3], [1.0, 0.5])
    x = rand_element(SplitMix64(31), alg)
    h = x + x.adjoint()
    block_singular_values(x)
    assert h.is_hermitian() and block_eigh(h)
    prescaled = count_calls(_linalg.pow2_prescale)
    assert in_range(x) == (x, 0) and in_range(h) == (h, 0)
    assert prescaled == []
