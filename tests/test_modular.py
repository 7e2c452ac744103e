import hashlib
import math
import platform

import numpy as np
import pytest

from ncorlicz import (Element, Functional, ValidationError, _linalg, connes_cocycle, gns,
                      make_algebra, modular_flow, radon_nikodym_sqrt, reduce_to_support,
                      relative_modular, standard_form, support_projection, trace)
from ncorlicz.sampling import (SplitMix64, rand_element, rand_faithful_functional,
                               rand_functional, rand_positive, rand_unitary_element)


def faithful(rng, algebra):
    return rand_functional(rng, algebra)


def class_span(omega):
    """numpy.linalg oracle: the projector onto the span of the classes
    e_jk rho^(1/2) of the matrix units, and the ranks of the density blocks.

    Each block is first scaled by an exact power of two, which moves neither
    its eigenvectors nor that span, so LAPACK sees normal numbers at every
    density scale.
    """
    projectors, ranks = [], []
    for rho in omega.densities:
        k = -math.frexp(np.max(np.abs(rho)))[1]
        vals, vecs = np.linalg.eigh(np.ldexp(rho.real, k) + 1j * np.ldexp(rho.imag, k))
        keep = vals > 1e-11 * vals.max()
        root = (vecs[:, keep] * np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
        classes = np.kron(np.eye(len(rho)), root)  # row (j, k): e_jk rho^(1/2), row-major
        _, svals, vh = np.linalg.svd(classes)
        span = vh[svals > 1e-8 * svals[0]]
        projectors.append(span.T @ span.conj())
        ranks.append(int(keep.sum()))
    size = sum(len(p) for p in projectors)
    out, pos = np.zeros((size, size), dtype=complex), 0
    for p in projectors:
        out[pos:pos + len(p), pos:pos + len(p)] = p
        pos += len(p)
    return out, ranks


class TestGNS:
    def test_faithful_state_m2_dimension(self, m2, rng):
        assert gns(faithful(rng, m2)).dimension == 4

    @pytest.mark.parametrize("ranks", [None, [1, 2]], ids=["faithful", "rank-deficient"])
    @pytest.mark.parametrize("s", [1.0, 1e300, 1e-300, 1e-310, 1e-318])
    def test_basis_spans_the_classes_at_every_density_scale(self, m2m3, ranks, s):
        phi = rand_functional(SplitMix64(0), m2m3, ranks)
        omega = Functional(m2m3, [s * r for r in phi.densities])
        data = gns(omega)
        projector, rank = class_span(omega)
        assert data.dimension == sum(d * r for d, r in zip(m2m3.block_dims, rank))
        assert data.basis.shape == (13, data.dimension)
        err = np.max(np.abs(data.basis.conj().T @ data.basis - np.eye(data.dimension)))
        assert err <= 1e-14, err
        assert np.max(np.abs(data.basis @ data.basis.conj().T - projector)) <= 1e-12

    @pytest.mark.parametrize("ranks", [None, [2, 1]], ids=["faithful", "rank-deficient"])
    def test_embed(self, m2m3, ranks):
        rng = SplitMix64(8)
        omega = rand_functional(rng, m2m3, ranks)
        data = gns(omega)
        x, y, a = (rand_element(rng, m2m3) for _ in range(3))
        assert abs(np.vdot(data.embed(y), data.embed(x)) - omega(y.adjoint() * x)) <= 1e-13
        assert np.max(np.abs(data.embed(m2m3.identity()) - data.cyclic_vector)) <= 1e-15
        assert np.max(np.abs(data.represent(a) @ data.embed(x) - data.embed(a * x))) <= 1e-13

    def test_rank_one_dimension(self, m2):
        # density diag(1,0): Gram rank oracle
        omega = Functional(m2, [np.diag([1.0, 0.0])])
        data = gns(omega)
        assert data.dimension == 2
        assert np.linalg.matrix_rank(data.gram, tol=1e-10) == 2

    def test_dimension_law(self, m2m3, rng):
        for _ in range(10):
            ranks = [rng.randint(d) + 1 for d in m2m3.block_dims]
            omega = rand_functional(rng, m2m3, ranks)
            want = sum(d * r for d, r in zip(m2m3.block_dims, ranks))
            assert gns(omega).dimension == want

    def test_state_identity_on_units(self, m2, rng):
        omega = faithful(rng, m2)
        data = gns(omega)
        for _, _, _, e in m2.matrix_units():
            got = np.vdot(data.cyclic_vector, data.represent(e) @ data.cyclic_vector)
            assert abs(omega(e) - got) <= 1e-10

    def test_representation_is_star_homomorphism(self, m2m1, rng):
        data = gns(faithful(rng, m2m1))
        units = [e for _, _, _, e in m2m1.matrix_units()]
        for a in units[:3]:
            for b in units:
                assert np.allclose(data.represent(a) @ data.represent(b),
                                   data.represent(a * b), atol=1e-10)
            assert np.allclose(data.represent(a).conj().T,
                               data.represent(a.adjoint()), atol=1e-10)
        assert np.allclose(data.represent(m2m1.identity()),
                           np.eye(data.dimension), atol=1e-10)

    def test_cyclicity(self, m2m1, rng):
        omega = rand_functional(rng, m2m1, ranks=[1, 1])
        data = gns(omega)
        orbit = np.column_stack([data.represent(e) @ data.cyclic_vector
                                 for _, _, _, e in m2m1.matrix_units()])
        assert np.linalg.matrix_rank(orbit, tol=1e-8) == data.dimension

    def test_zero_rejected(self, m2):
        with pytest.raises(ValidationError):
            gns(Functional(m2, [np.zeros((2, 2))]))


# A cluster of two eigenvalues near RANK_RTOL times the largest, one on each
# side of the cut: its mean falls below the cut in the first density and above
# it in the second, and every support question must answer with that one rank.
@pytest.mark.parametrize("pair, rank", [((1 + 2e-10, 1 - 6e-10), 1),
                                        ((1 + 6e-10, 1 - 2e-10), 3)])
def test_support_gns_corner_and_faithfulness_share_one_rank(m3, pair, rank):
    phi = Functional(m3, [np.diag([1.0, *(1e-11 * a for a in pair)])])
    assert trace(support_projection(phi)).real == pytest.approx(rank, abs=1e-12)
    assert gns(phi).dimension == 3 * rank
    assert reduce_to_support(phi).algebra.block_dims == (rank,)
    assert phi.is_faithful() == (rank == 3)
    x = Element(m3, [np.diag([1.0, 2.0, 3.0])])
    if rank == 3:
        assert modular_flow(phi, 0.5, x).allclose(x, 1e-12)
    else:
        with pytest.raises(ValidationError, match="needs a faithful functional"):
            modular_flow(phi, 0.5, x)


class TestStandardForm:
    def test_vector_representative(self, m2m3, rng):
        sf = standard_form(m2m3)
        phi = faithful(rng, m2m3)
        xi = sf.vector_representative(phi)
        for _, _, _, e in m2m3.matrix_units():
            assert abs(phi(e) - sf.inner(xi, e * xi)) <= 1e-10
        assert sf.in_cone(xi)
        assert (sf.conjugation(xi) - xi).frobenius_norm() <= 1e-12

    def test_cone_self_polarity_samples(self, m2, rng):
        sf = standard_form(m2)
        cone = [rand_positive(rng, m2) for _ in range(8)]
        for a in cone:
            for b in cone:
                assert sf.inner(a, b).real >= -1e-12
        # a Hermitian element with a negative part pairs negatively with the cone
        bad = Element(m2, [np.diag([-1.0, 0.5])])
        assert not sf.in_cone(bad)
        witness = Element(m2, [np.diag([1.0, 0.0])])
        assert sf.inner(bad, witness).real < 0

    def test_conjugation_involutive(self, m2, rng):
        sf = standard_form(m2)
        x = rand_element(rng, m2)
        assert (sf.conjugation(sf.conjugation(x)) - x).frobenius_norm() == 0.0

    def test_order_preservation_commuting(self, m2m3, rng):
        sf = standard_form(m2m3)
        u = rand_unitary_element(rng, m2m3)
        lo = [np.diag([0.1 + rng.uniform() for _ in range(d)]).astype(complex)
              for d in m2m3.block_dims]
        hi = [b + np.diag([rng.uniform() for _ in range(d)]).astype(complex)
              for b, d in zip(lo, m2m3.block_dims)]
        phi = Functional(m2m3, (u * Element(m2m3, lo) * u.adjoint()).blocks)
        psi = Functional(m2m3, (u * Element(m2m3, hi) * u.adjoint()).blocks)
        diff = sf.vector_representative(psi) - sf.vector_representative(phi)
        for _ in range(6):
            zeta = rand_positive(rng, m2m3)
            assert sf.inner(diff, zeta).real >= -1e-10


class TestRelativeModular:
    def test_trace_state_gives_identity(self, m2):
        tr = Functional(m2, [0.5 * np.eye(2)])
        assert np.allclose(relative_modular(tr, tr).matrix(), np.eye(4), atol=1e-12)

    def test_matrix_unit_eigenvalues(self, m2):
        a, b, c, d = 0.3, 0.7, 0.2, 0.8
        delta = relative_modular(Functional(m2, [np.diag([a, b])]),
                                 Functional(m2, [np.diag([c, d])]))
        # oracle: the dense 4x4 action matrix has eigenvalues rho_phi_j / rho_omega_k
        m = delta.matrix()
        got = np.sort(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
        assert np.allclose(got, np.sort([a / c, a / d, b / c, b / d]), atol=1e-12)

    def test_fixed_point(self, m2m3, rng):
        phi = faithful(rng, m2m3)
        sf = standard_form(m2m3)
        xi = sf.vector_representative(phi)
        delta = relative_modular(phi, phi)
        assert (delta.apply(xi) - xi).frobenius_norm() <= 1e-10

    def test_positive_on_support(self, m3, rng):
        phi = rand_functional(rng, m3, ranks=[2])
        omega = rand_functional(rng, m3, ranks=[2])
        m = relative_modular(phi, omega).matrix()
        vals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        assert vals.min() >= -1e-10


    def test_unrepresentable_pseudo_inverse_is_a_validation_error(self, m2m3):
        # rho_omega^-1 of a density near 1e-310 is beyond the binary64 range.
        rng = SplitMix64(0)
        phi, omega = (Functional(m2m3, [1e-310 * d for d in
                                        rand_faithful_functional(rng, m2m3).densities])
                      for _ in range(2))
        with pytest.raises(ValidationError, match=r"to the power \(-1\+0j\)"):
            relative_modular(phi, omega)


class TestModularFlow:
    def test_t_zero(self, m3, rng):
        phi = faithful(rng, m3)
        x = rand_element(rng, m3)
        assert modular_flow(phi, 0.0, x).allclose(x, 1e-12)

    def test_trace_state_trivial_flow(self, m2, rng):
        tr = Functional(m2, [0.5 * np.eye(2)])
        x = rand_element(rng, m2)
        assert modular_flow(tr, 3.7, x).allclose(x, 1e-12)

    def test_phase_oracle(self, m2):
        p, q = 0.3, 0.7
        phi = Functional(m2, [np.diag([p, q])])
        x = Element(m2, [np.array([[0.0, 1.0], [0.0, 0.0]])])
        out = modular_flow(phi, 1.3, x)
        assert out.blocks[0][0, 1] == pytest.approx(np.exp(1.3j * math.log(p / q)), abs=1e-12)

    def test_phase_of_a_near_degenerate_density(self, m2):
        # 1 + 9e-10 and 1 lie within CLUSTER_RTOL of each other; at their mean
        # the flow fixed e_12, whose phase at t = 1e6 is 9.0e-4 rad.
        phi = Functional(m2, [np.diag([1.0 + 9e-10, 1.0])])
        x = Element(m2, [np.array([[0.0, 1.0], [0.0, 0.0]])])
        want = np.exp(1e6j * math.log1p(9e-10))
        assert abs(modular_flow(phi, 1e6, x).blocks[0][0, 1] - want) <= 1e-9

    def test_automorphism_and_group_law(self, m3, rng):
        phi = faithful(rng, m3)
        x, y = rand_element(rng, m3), rand_element(rng, m3)
        s, t = 0.6, -1.1
        lhs = modular_flow(phi, s, modular_flow(phi, t, x))
        assert (lhs - modular_flow(phi, s + t, x)).frobenius_norm() <= 1e-10
        prod = modular_flow(phi, s, x * y)
        assert (prod - modular_flow(phi, s, x) * modular_flow(phi, s, y)).frobenius_norm() <= 1e-10
        adj = modular_flow(phi, s, x.adjoint())
        assert (adj - modular_flow(phi, s, x).adjoint()).frobenius_norm() <= 1e-10

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_exponent_is_named(self, m2, t):
        # At t = 1e308, t log 0.1 overflows although t is finite.
        phi = Functional(m2, [np.diag([0.1, 0.9])])
        with pytest.raises(ValidationError, match=r"eigenvalue .* to the power .*not finite"):
            modular_flow(phi, t, Element(m2, [np.eye(2)]))

    def test_non_faithful_rejected(self, m2):
        phi = Functional(m2, [np.diag([1.0, 0.0])])
        with pytest.raises(ValidationError, match="reduce"):
            modular_flow(phi, 1.0, Element(m2, [np.eye(2)]))

    # The phase t log(0.3) is rounded to about |t log 0.3| 2^-52 rad, which
    # passes 2^-20 rad once |t| > 3.6e9; at t = 1e15 sigma_t would miss the
    # group law by 0.16.
    @pytest.mark.parametrize("t, refused", [(1e3, False), (1e12, True), (1e15, True),
                                            (1e16, True), (-1e16, True)])
    def test_phase_without_correct_digits_is_refused(self, m2, t, refused):
        phi = Functional(m2, [np.diag([0.3, 0.7])])
        x = Element(m2, [np.array([[0.0, 1.0], [0.0, 0.0]])])
        if refused:
            with pytest.raises(ValidationError, match=r"to the power .*j has a phase whose "
                                                      r"rounding bound .* exceeds 9.54e-07 rad"):
                modular_flow(phi, t, x)
        else:
            law = modular_flow(phi, t, x) - modular_flow(phi, t / 3, modular_flow(phi, 2 * t / 3, x))
            assert law.frobenius_norm() <= 1e-12


class TestConnesCocycle:
    def test_t_zero_identity(self, m3, rng):
        phi, omega = faithful(rng, m3), faithful(rng, m3)
        assert connes_cocycle(phi, omega, 0.0).allclose(m3.identity(), 1e-12)

    def test_commuting_diagonal_closed_form(self, m2):
        a, b, c, d = 0.4, 0.6, 0.25, 0.75
        u = connes_cocycle(Functional(m2, [np.diag([a, b])]),
                           Functional(m2, [np.diag([c, d])]), 0.9)
        want = np.diag([np.exp(0.9j * math.log(a / c)), np.exp(0.9j * math.log(b / d))])
        assert np.allclose(u.blocks[0], want, atol=1e-12)

    def test_phase_of_a_near_degenerate_density(self, m2):
        # Evaluated at the mean of 1 + 9e-10 and 1, the phase at t = 1e6 was
        # 4.5e-4 rad where 9.0e-4 is right.
        phi, tau = Functional(m2, [np.diag([1.0 + 9e-10, 1.0])]), Functional(m2, [np.eye(2)])
        want = np.exp(1e6j * math.log1p(9e-10))
        assert abs(connes_cocycle(phi, tau, 1e6).blocks[0][0, 0] - want) <= 1e-9

    def test_chain_rule(self, m3, rng):
        for _ in range(10):
            f1, f2, f3 = (faithful(rng, m3) for _ in range(3))
            t = 4.0 * rng.uniform() - 2.0
            lhs = connes_cocycle(f1, f3, t)
            rhs = connes_cocycle(f1, f2, t) * connes_cocycle(f2, f3, t)
            assert (lhs - rhs).frobenius_norm() <= 1e-10

    def test_unitarity(self, m3, rng):
        u = connes_cocycle(faithful(rng, m3), faithful(rng, m3), 1.23)
        assert (u.adjoint() * u - m3.identity()).frobenius_norm() <= 1e-10

    def test_partial_isometry_for_nonfaithful_phi(self, m2, rng):
        phi = Functional(m2, [np.diag([1.0, 0.0])])
        omega = faithful(rng, m2)
        u = connes_cocycle(phi, omega, 0.0)
        p = support_projection(phi)
        assert (u * u.adjoint() - p).frobenius_norm() <= 1e-10

    def test_psi_independence(self, m3, rng):
        sf = standard_form(m3)
        units = [e for _, _, _, e in m3.matrix_units()]
        for _ in range(5):
            f1, f2, psi = (faithful(rng, m3) for _ in range(3))
            t = 4.0 * rng.uniform() - 2.0
            m = relative_modular(f1, psi).matrix(1j * t) @ \
                relative_modular(f2, psi).matrix(-1j * t)
            u12 = connes_cocycle(f1, f2, t)
            lm = np.column_stack([np.array([sf.inner(v, u12 * w) for v in units])
                                  for w in units])
            assert np.max(np.abs(m - lm)) <= 1e-9

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_exponent_is_named(self, m2, t):
        phi, omega = Functional(m2, [np.diag([0.1, 0.9])]), Functional(m2, [0.5 * np.eye(2)])
        with pytest.raises(ValidationError, match=r"eigenvalue .* to the power .*not finite"):
            connes_cocycle(phi, omega, t)

    @pytest.mark.parametrize("t, refused", [(1e3, False), (1e12, True), (1e15, True),
                                            (1e16, True)])
    def test_phase_without_correct_digits_is_refused(self, m2, t, refused):
        phi, omega = Functional(m2, [np.diag([0.3, 0.7])]), Functional(m2, [0.5 * np.eye(2)])
        if refused:
            with pytest.raises(ValidationError, match="rounding bound"):
                connes_cocycle(phi, omega, t)
        else:
            want = np.diag(np.exp(1j * t * np.log([0.6, 1.4])))
            assert np.max(np.abs(connes_cocycle(phi, omega, t).blocks[0] - want)) <= 1e-12

    def test_nonfaithful_omega_rejected(self, m2, rng):
        with pytest.raises(ValidationError):
            connes_cocycle(faithful(rng, m2), Functional(m2, [np.diag([1.0, 0.0])]), 1.0)


class TestRadonNikodym:
    def test_equal_faithful_gives_support(self, m3, rng):
        phi = faithful(rng, m3)
        h = radon_nikodym_sqrt(phi, phi)
        assert h.allclose(m3.identity(), 1e-10)

    def test_diagonal_closed_form(self, m2):
        h = radon_nikodym_sqrt(Functional(m2, [np.diag([0.25, 0.75])]),
                               Functional(m2, [np.diag([0.5, 0.5])]))
        assert np.allclose(np.diag(h.blocks[0]),
                           [1.0 / math.sqrt(2.0), math.sqrt(1.5)], atol=1e-12)

    def test_boundary_condition_random(self, m3, rng):
        worst = 0.0
        for _ in range(50):
            psi, phi = faithful(rng, m3), faithful(rng, m3)
            h = radon_nikodym_sqrt(psi, phi)
            for _, _, _, e in m3.matrix_units():
                worst = max(worst, abs(psi(e) - phi(h.adjoint() * e * h)))
        assert worst <= 1e-9

    def test_support_violation_names_eigenvector(self, m2, rng):
        psi = faithful(rng, m2)
        phi = Functional(m2, [np.diag([1.0, 0.0])])
        with pytest.raises(ValidationError, match="eigenvector"):
            radon_nikodym_sqrt(psi, phi)

    def test_dominated_nonfaithful_pair(self, m2):
        psi = Functional(m2, [np.diag([0.5, 0.0])])
        phi = Functional(m2, [np.diag([2.0, 0.0])])
        h = radon_nikodym_sqrt(psi, phi)
        for _, _, _, e in m2.matrix_units():
            assert abs(psi(e) - phi(h.adjoint() * e * h)) <= 1e-10

    @pytest.mark.parametrize("s", [1.0, 1e-300, 1e-305, 1e-310, 1e-318])
    def test_support_violation_at_every_scale(self, m2, s):
        phi = Functional(m2, [s * np.diag([1.0, 0.0])])
        psi = Functional(m2, [s * 0.5 * np.eye(2)])
        with pytest.raises(ValidationError, match="support violation"):
            radon_nikodym_sqrt(psi, phi)

    def test_dominated_pair_at_subnormal_scale(self, m2m3):
        s = 1e-310
        rng = SplitMix64(0)
        psi, phi = (Functional(m2m3, [s * d for d in rand_faithful_functional(rng, m2m3).densities])
                    for _ in range(2))
        h = radon_nikodym_sqrt(psi, phi)
        for _, _, _, e in m2m3.matrix_units():
            assert abs(psi(e) - phi(h.adjoint() * e * h)) <= 1e-11 * s


MODULAR_OPS = {
    "relative_modular": lambda phi, omega, x: relative_modular(phi, omega),
    "connes_cocycle": lambda phi, omega, x: connes_cocycle(phi, omega, 0.7),
    "radon_nikodym_sqrt": lambda phi, omega, x: radon_nikodym_sqrt(phi, omega),
    "modular_flow": lambda phi, omega, x: modular_flow(phi, 0.7, x),
    "matrix_half": lambda phi, omega, x: relative_modular(phi, omega).matrix(0.5),
}


def _count_during(count_calls, kernel, name, algebra):
    rng = SplitMix64(11)
    phi, omega, x = faithful(rng, algebra), faithful(rng, algebra), rand_element(rng, algebra)
    calls = count_calls(kernel)
    MODULAR_OPS[name](phi, omega, x)
    return len(calls)


# Each density of the two-block algebra [2, 3] needs two block factorisations;
# every check and power of one call reads them from the density's memo.
@pytest.mark.parametrize("op, limit", [("relative_modular", 4), ("connes_cocycle", 4),
                                       ("radon_nikodym_sqrt", 4), ("modular_flow", 2),
                                       ("matrix_half", 4)],
                         ids=list(MODULAR_OPS))
def test_each_density_is_factored_once(m2m3, count_calls, op, limit):
    assert _count_during(count_calls, _linalg.hermitian_eigh, op, m2m3) <= limit


def test_each_density_is_clustered_once(m2m3, count_calls):
    rng = SplitMix64(19)
    phi, psi, omega = (faithful(rng, m2m3) for _ in range(3))
    x = rand_element(rng, m2m3)
    clustered = count_calls(_linalg.levels)
    relative_modular(phi, omega).matrix()
    for t in (-1.3, 0.4, 1.9):
        connes_cocycle(phi, omega, t)
    gns(phi)
    radon_nikodym_sqrt(psi, phi)
    modular_flow(omega, 0.4, x)
    assert len(clustered) <= 6


# Their positivity checks factor the densities, whose eigen data the powers
# read next, so they never also run the Cholesky certificate.
@pytest.mark.parametrize("op", list(MODULAR_OPS))
def test_modular_path_never_certifies(m2m3, count_calls, op):
    assert _count_during(count_calls, _linalg.certifies_positive, op, m2m3) == 0


class TestClosedFormsAgainstProbing:
    """The Kronecker forms of ``matrix``, ``gns`` and ``represent`` against the
    matrix-unit probing they replaced, on the weighted algebra [2, 3]."""

    @pytest.mark.parametrize("z", [1.0, 0.5, 0.7j])
    def test_matrix(self, m2m3, z):
        rng = SplitMix64(3)
        op = relative_modular(rand_functional(rng, m2m3, [1, 2]), faithful(rng, m2m3))
        sf = standard_form(m2m3)
        units = [e / math.sqrt(m2m3.weights[i]) for i, _, _, e in m2m3.matrix_units()]
        image = op.apply if z == 1.0 else (lambda xi: op.power_apply(z, xi))
        oracle = np.array([[sf.inner(u, image(v)) for v in units] for u in units])
        assert np.max(np.abs(op.matrix(z) - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    def test_gram(self, m2m3):
        omega = rand_functional(SplitMix64(5), m2m3, [1, 2])
        units = [e for _, _, _, e in m2m3.matrix_units()]
        oracle = np.array([[omega(ea.adjoint() * eb) for eb in units] for ea in units])
        assert np.array_equal(gns(omega).gram, oracle)

    def test_represent(self, m2m3):
        rng = SplitMix64(7)
        data = gns(rand_functional(rng, m2m3, [2, 1]))
        x = rand_element(rng, m2m3)
        cols = []
        for vec in data.basis.T:
            out, pos = [], 0
            for d, xb in zip(m2m3.block_dims, x.blocks):
                out.append((xb @ vec[pos:pos + d * d].reshape(d, d)).ravel())
                pos += d * d
            cols.append(data.basis.conj().T @ np.concatenate(out))
        oracle = np.column_stack(cols)
        assert np.max(np.abs(data.represent(x) - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def test_gns_reads_the_density_eigen_data(m2m3, count_calls):
    # After is_positive the density's eigenvectors are memoized: gns factors
    # nothing and builds no Element; the cyclic vector comes from the root blocks.
    factored = count_calls(_linalg.hermitian_eigh)
    built = count_calls(Element.__init__)
    for ranks in (None, [2, 1]):
        omega = rand_functional(SplitMix64(17), m2m3, ranks)
        assert omega.is_positive()
        before = len(factored), len(built)
        gns(omega)
        assert (len(factored) - before[0], len(built) - before[1]) == (0, 0)


@pytest.mark.parametrize("op", [
    lambda phi, omega: relative_modular(phi, omega).matrix(),
    lambda phi, omega: gns(phi),
], ids=["matrix", "gns"])
def test_standard_form_matrices_build_few_elements(m2m3, count_calls, op):
    rng = SplitMix64(13)
    phi, omega = faithful(rng, m2m3), faithful(rng, m2m3)
    built = count_calls(Element.__init__)
    op(phi, omega)
    assert len(built) <= 10


def _pinned_modular_calls():
    """(name, thunk) for the routines that compose spectral powers, on
    seeded functionals of three algebras, faithful and rank-deficient phi,
    densities scaled across the binary64 range and four flow times."""
    calls = []
    for k, (dims, weights) in enumerate([([2, 3], [1.0, 0.5]), ([1, 4], [2.0, 0.25]),
                                         ([3, 3], [1.0, 3.0])]):
        alg = make_algebra(dims, weights)
        for deficient in (False, True):
            ranks = [d - 1 if d > 1 else 1 for d in dims] if deficient else None
            rng = SplitMix64(100 + 2 * k + deficient)
            base_phi = rand_functional(rng, alg, ranks)
            base_omega = rand_faithful_functional(rng, alg)
            base_psi = rand_functional(rng, alg)
            x = rand_element(rng, alg)
            for s in (1.0, 1e-300, 1e300, 1e-160):
                phi, omega, psi = (Functional(alg, [s * b for b in f.densities])
                                   for f in (base_phi, base_omega, base_psi))
                # same support as phi, so the root exists
                below = Functional(alg, [s * (b @ b) for b in base_phi.densities])
                calls += [
                    ("rn", lambda a=below, b=phi: radon_nikodym_sqrt(a, b)),
                    ("rn", lambda a=phi, b=omega: radon_nikodym_sqrt(a, b)),
                    ("rn", lambda a=psi, b=phi: radon_nikodym_sqrt(a, b)),
                    ("apply", lambda a=phi, b=omega, x=x: relative_modular(a, b).apply(x)),
                    ("apply", lambda a=omega, b=phi, x=x: relative_modular(a, b).apply(x)),
                ]
                for t in (0.0, 0.37, -1.9, 25.0):
                    calls += [
                        ("cocycle", lambda t=t, a=phi, b=omega: connes_cocycle(a, b, t)),
                        ("cocycle", lambda t=t, a=omega, b=phi: connes_cocycle(a, b, t)),
                        ("cocycle", lambda t=t, a=psi, b=omega: connes_cocycle(a, b, t)),
                        ("flow", lambda t=t, a=phi, x=x: modular_flow(a, t, x)),
                        ("flow", lambda t=t, a=omega, x=x: modular_flow(a, t, x)),
                    ] + [("power_apply", lambda z=z, a=phi, b=omega, x=x:
                          relative_modular(a, b).power_apply(z, x))
                         for z in (t, complex(0.0, t), complex(0.5, t), 2.0 - t)]
                    calls.append(("matrix", lambda t=t, a=phi, b=omega:
                                  relative_modular(a, b).matrix(complex(0.5, t))))
    return calls


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or platform.libc_ver()[0] != "glibc",
                    reason="abs() of a complex calls the C library's hypot; the digest "
                           "was taken with glibc on x86-64")
def test_modular_bits_are_pinned():
    # Any change to the modular routines or the powers they compose that moves
    # one bit of a result, or the text of an error, changes this digest.
    digest, raised = hashlib.sha256(), 0
    calls = _pinned_modular_calls()
    for name, call in calls:
        digest.update(name.encode())
        try:
            out = call()
        except ValidationError as exc:
            raised += 1
            digest.update(f"{type(exc).__name__}: {exc}".encode())
        else:
            arrays = out.blocks if isinstance(out, Element) else (out,)
            digest.update(b"".join(a.tobytes() for a in arrays))
    assert (len(calls), raised) == (1080, 204)
    assert digest.hexdigest() == "2634654bcc68d4327c71519bfe3e665e4cbc825ae11c2d77a9f25f232300fd18"


# The second algebra of each pair: other block dims, fewer blocks, and the
# same block dims with other weights, whose blocks would zip cleanly.
FOREIGN = {"dims": make_algebra([3, 2], [1.0, 0.5]), "blocks": make_algebra([2], [1.0]),
           "weights": make_algebra([2, 3], [1.0, 2.0])}


@pytest.mark.parametrize("other", list(FOREIGN))
@pytest.mark.parametrize("call", [
    lambda phi, omega, x, y, w: connes_cocycle(phi, w, 0.4),
    lambda phi, omega, x, y, w: modular_flow(omega, 0.4, y),
    lambda phi, omega, x, y, w: relative_modular(phi, omega).apply(y),
    lambda phi, omega, x, y, w: relative_modular(phi, omega).power_apply(0.5j, y),
], ids=["cocycle", "flow", "apply", "power_apply"])
def test_arguments_from_another_algebra_are_rejected(m2m3, other, call):
    rng = SplitMix64(23)
    phi, omega, x = faithful(rng, m2m3), faithful(rng, m2m3), rand_element(rng, m2m3)
    y, w = rand_element(rng, FOREIGN[other]), faithful(rng, FOREIGN[other])
    call(phi, omega, x, x, omega)  # the same call within one algebra runs
    with pytest.raises(ValidationError, match="different algebras"):
        call(phi, omega, x, y, w)


@pytest.mark.parametrize("ranks", [None, [1, 2]], ids=["faithful", "rank-deficient"])
def test_each_routine_builds_one_element(m2m3, count_calls, ranks):
    # With the densities' eigen data memoized, the powers stay blocks: every
    # routine builds only the Element it returns.
    rng = SplitMix64(29)
    phi, omega, x = rand_functional(rng, m2m3, ranks), faithful(rng, m2m3), rand_element(rng, m2m3)
    psi = Functional(m2m3, [b @ b for b in phi.densities])  # supp(psi) = supp(phi)
    assert phi.is_positive() and omega.is_positive() and psi.is_positive()
    op = relative_modular(phi, omega)
    built = count_calls(Element.__init__)
    for call in (lambda: connes_cocycle(phi, omega, 0.4), lambda: modular_flow(omega, 0.4, x),
                 lambda: radon_nikodym_sqrt(psi, phi), lambda: op.apply(x),
                 lambda: op.power_apply(0.5 + 0.3j, x)):
        before = len(built)
        assert isinstance(call(), Element)
        assert len(built) - before == 1
