import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncorlicz import (Element, Functional, StandardForm, ValidationError, absolute,
                      canonical_trace, eigen_spectrum, embed, functional_polar, make_algebra,
                      operator_norm, polar_decompose, power_on_support, reduce_to_support,
                      spectral_calculus, support_projection, trace)
from ncorlicz._linalg import POSITIVITY_RTOL
from ncorlicz.sampling import SplitMix64, rand_element, rand_unitary_element, rand_unitary_matrix


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


@pytest.mark.parametrize("factor, positive", [(0.5, True), (2.0, False)])
def test_positivity_checks_agree_at_the_tolerance(factor, positive):
    # The smallest eigenvalue sits at -factor * POSITIVITY_RTOL of the largest.
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
