import numpy as np
import pytest

from ncorlicz import (CoshMinusOne, Element, Isomorphism, JumpFunction, PowerFunction,
                      ValidationError, apply_isomorphism, canonical_trace, compose,
                      dual_action, identity_isomorphism, lift_to_core, luxemburg_norm,
                      make_algebra, norm_ratio_diagnostic, rearrangement, verify_isometry)
from ncorlicz.sampling import (SplitMix64, rand_core_element, rand_element,
                               rand_isomorphism, rand_unitary_matrix)


@pytest.fixture
def m2m2():
    return make_algebra([2, 2], [1.0, 1.0])


class TestApply:
    def test_identity(self, m2m2, rng):
        x = rand_element(rng, m2m2)
        assert identity_isomorphism(m2m2).apply(x).allclose(x, 0.0)

    def test_block_swap(self, m2m2, rng):
        swap = Isomorphism(m2m2, m2m2, (1, 0), [np.eye(2), np.eye(2)])
        x = rand_element(rng, m2m2)
        y = swap.apply(x)
        assert np.allclose(y.blocks[0], x.blocks[1])
        assert np.allclose(y.blocks[1], x.blocks[0])

    def test_star_homomorphism_on_samples(self, m2m2, rng):
        iso = rand_isomorphism(rng, m2m2)
        for _ in range(10):
            x, y = rand_element(rng, m2m2), rand_element(rng, m2m2)
            assert (iso.apply(x * y) - iso.apply(x) * iso.apply(y)).frobenius_norm() <= 1e-12
            assert (iso.apply(x.adjoint()) - iso.apply(x).adjoint()).frobenius_norm() <= 1e-12
        assert iso.apply(m2m2.identity()).allclose(m2m2.identity(), 1e-12)
        # injectivity: nonzero maps to nonzero
        x = rand_element(rng, m2m2)
        assert iso.apply(x).frobenius_norm() == pytest.approx(x.frobenius_norm(), rel=1e-12)

    def test_validation(self, m2m2):
        with pytest.raises(ValidationError):
            Isomorphism(m2m2, m2m2, (0, 0), [np.eye(2), np.eye(2)])
        with pytest.raises(ValidationError, match="unitary"):
            Isomorphism(m2m2, m2m2, (0, 1), [np.eye(2) * 2.0, np.eye(2)])
        other = make_algebra([2, 1], [1.0, 1.0])
        with pytest.raises(ValidationError):
            Isomorphism(other, other, (1, 0), [np.eye(2), np.eye(1)])

    @pytest.mark.parametrize("perm, count, match", [
        ((0, 1), 1, "1 unitaries for 2 blocks"), ((0, 1), 3, "3 unitaries for 2 blocks"),
        ((1.5, 0), 2, "not an integer"), ((0.0, 1.0), 2, "not an integer")])
    def test_shape_validation(self, m2m2, perm, count, match):
        # One unitary too few ran into an IndexError, one too many was ignored,
        # and int() truncated 1.5 to the permutation (1, 0).
        with pytest.raises(ValidationError, match=match):
            Isomorphism(m2m2, m2m2, perm, [np.eye(2)] * count)
        assert Isomorphism(m2m2, m2m2, (np.int64(1), 0), [np.eye(2)] * 2).permutation == (1, 0)

    def test_algebra_mismatch(self, m2m2, m2, rng):
        iso = identity_isomorphism(m2m2)
        with pytest.raises(ValidationError):
            iso.apply(rand_element(rng, m2))


class TestLift:
    def test_identity_lift(self, m2m2, rng):
        cx = rand_core_element(rng, m2m2, pieces=2)
        out = lift_to_core(identity_isomorphism(m2m2), cx)
        for (p, iv), (q, jv) in zip(out.pieces, cx.pieces):
            assert p.allclose(q, 0.0) and iv == jv

    def test_trace_preserved(self, m2m2, rng):
        iso = rand_isomorphism(rng, m2m2)
        for _ in range(20):
            cx = rand_core_element(rng, m2m2, pieces=3, positive=True)
            t0, t1 = canonical_trace(cx), canonical_trace(iso.lift(cx))
            assert abs(t0 - t1) <= 1e-13 * max(abs(t0), 1e-300)

    def test_commutes_with_dual_action_exactly(self, m2m2, rng):
        iso = rand_isomorphism(rng, m2m2)
        cx = rand_core_element(rng, m2m2, pieces=3)
        a = iso.lift(dual_action(0.7, cx))
        b = dual_action(0.7, iso.lift(cx))
        for (p, iv), (q, jv) in zip(a.pieces, b.pieces):
            assert iv.a == jv.a and iv.b == jv.b
            assert (p - q).frobenius_norm() == 0.0

    def test_non_trace_preserving_rejected(self, rng):
        alg = make_algebra([2, 2], [1.0, 2.0])
        iso = Isomorphism(alg, alg, (1, 0), [np.eye(2), np.eye(2)])
        assert not iso.trace_preserving
        with pytest.raises(ValidationError, match="trace-preserving"):
            iso.lift(rand_core_element(rng, alg, pieces=1))


class TestVerifyIsometry:
    def test_identity_zero_deviation(self, m2m2, rng):
        rep = verify_isometry(identity_isomorphism(m2m2), PowerFunction(2), 3, rng)
        assert rep.passed
        assert rep.max_base_deviation == 0.0
        assert rep.max_core_deviation == 0.0
        assert rep.rearrangement_equal

    def test_swap_with_unitaries(self, m2m2, rng):
        iso = Isomorphism(m2m2, m2m2, (1, 0),
                          [rand_unitary_matrix(rng, 2), rand_unitary_matrix(rng, 2)])
        rep = verify_isometry(iso, PowerFunction(3), 8, rng)
        assert rep.passed, rep.witness
        assert rep.max_base_deviation <= 1e-9

    def test_composition_isometric(self, m2m2, rng):
        i1, i2 = rand_isomorphism(rng, m2m2), rand_isomorphism(rng, m2m2)
        comp = compose(i2, i1)
        x = rand_element(rng, m2m2)
        assert (comp.apply(x) - i2.apply(i1.apply(x))).frobenius_norm() <= 1e-12
        rep = verify_isometry(comp, CoshMinusOne(), 5, rng)
        assert rep.passed

    def test_functor_identity_law(self, m2m2, rng):
        ide = identity_isomorphism(m2m2)
        comp = compose(ide, ide)
        x = rand_element(rng, m2m2)
        assert comp.apply(x).allclose(x, 0.0)

    def test_rearrangement_step_data(self, m2m2, rng):
        iso = rand_isomorphism(rng, m2m2)
        for _ in range(10):
            x = rand_element(rng, m2m2)
            mu0, mu1 = rearrangement(x), rearrangement(iso.apply(x))
            assert mu0.matches(mu1)
            assert [s.length for s in mu0.steps] == [s.length for s in mu1.steps]

    def test_non_trace_preserving_rejected(self, rng):
        alg = make_algebra([2, 2], [1.0, 2.0])
        iso = Isomorphism(alg, alg, (1, 0), [np.eye(2), np.eye(2)])
        with pytest.raises(ValidationError):
            verify_isometry(iso, PowerFunction(2), 3, rng)


def test_norm_ratio_diagnostic_reports_change(rng):
    alg = make_algebra([2, 2], [1.0, 2.0])
    iso = Isomorphism(alg, alg, (1, 0), [np.eye(2), np.eye(2)])
    lo, hi = norm_ratio_diagnostic(iso, PowerFunction(2), 10, rng)
    assert lo < 1.0 < hi  # weight swap visibly rescales norms, reported only


def test_apply_isomorphism_wrapper(rng):
    alg = make_algebra([2, 2], [1.0, 1.0])
    iso = rand_isomorphism(rng, alg)
    x = rand_element(rng, alg)
    assert apply_isomorphism(iso, x).allclose(iso.apply(x), 0.0)
