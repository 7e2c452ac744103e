"""Exact laws of the paper's objects, swept across the binary64 range.

Each law has a closed-form right-hand side, checked within 1e-12 relative:
weight scaling of the p-norms, unitary invariance and isometry under
trace-preserving *-isomorphisms far from scale 1, and the shift laws of the
core's canonical trace and norms.  The last class pins the root-find's
post-condition: where a finite-valued Phi overflows binary64 next to the
norm, the Luxemburg norm raises instead of returning the overflow edge.
"""

import math

import numpy as np
import pytest

from ncorlicz import (ConvergenceError, CoshMinusOne, Element, PowerFunction, ValidationError,
                      canonical_trace, core_luxemburg_norm, dual_action, luxemburg_norm,
                      luxemburg_report, make_algebra, registry)
from ncorlicz.core_model import CoreElement, interval
from ncorlicz.sampling import (SplitMix64, rand_element, rand_isomorphism, rand_positive,
                               rand_unitary_element)

REL = 1e-12
POWERS = (1.0, 2.0, 3.0)


def close(got, want):
    return got == pytest.approx(want, rel=REL, abs=0)


def reweighted(x, factor):
    """x with the same blocks in the algebra whose trace weights are factor times x's."""
    alg = x.algebra
    return Element(make_algebra(alg.block_dims, [factor * c for c in alg.weights]), x.blocks)


@pytest.fixture(scope="module")
def elements():
    rng = SplitMix64(17)
    return [rand_element(rng, make_algebra([2, 3], [1.0, 0.5])) for _ in range(3)]


@pytest.fixture(scope="module")
def cores():
    rng = SplitMix64(19)
    alg = make_algebra([2, 3], [1.0, 0.5])
    cells = (interval(-4, -1), interval(0, 2.5), interval(6, "inf"))
    return [CoreElement(alg, [(rand_positive(rng, alg), iv) for iv in cells]) for _ in range(3)]


@pytest.mark.parametrize("k", [-900, -500, 500, 900])
@pytest.mark.parametrize("p", POWERS)
def test_weight_scaling(elements, k, p):
    # tau -> 2^k tau gives ||x||_p -> 2^(k/p) ||x||_p.
    phi = PowerFunction(p)
    for x in elements:
        assert close(luxemburg_norm(phi, reweighted(x, 2.0**k)),
                     2.0 ** (k / p) * luxemburg_norm(phi, x))


@pytest.mark.parametrize("k", [-900, 900])
def test_unitary_invariance(elements, k):
    rng = SplitMix64(23)
    for x in elements:
        x = 2.0**k * x
        u, v = rand_unitary_element(rng, x.algebra), rand_unitary_element(rng, x.algebra)
        for name, phi in registry().items():
            assert close(luxemburg_norm(phi, u * x * v), luxemburg_norm(phi, x)), name


@pytest.mark.parametrize("k", [-900, 900])
def test_isometry_under_trace_preserving_isomorphisms(k):
    rng = SplitMix64(29)
    alg = make_algebra([2, 2, 3], [1.0, 1.0, 0.5])
    for _ in range(3):
        iso = rand_isomorphism(rng, alg)
        x = rand_element(rng, alg, 2.0**k)
        for name, phi in registry().items():
            assert close(luxemburg_norm(phi, iso.apply(x)), luxemburg_norm(phi, x)), name


@pytest.mark.parametrize("s", [-600, 600])
def test_core_shift_laws(cores, s):
    # tau~(theta_s x) = e^-s tau~(x) and ||theta_s x||_p = e^(-s/p) ||x||_p.
    for x in cores:
        shifted = dual_action(s, x)
        assert close(canonical_trace(shifted), math.exp(-s) * canonical_trace(x))
        for p in POWERS:
            phi = PowerFunction(p)
            assert close(core_luxemburg_norm(phi, shifted),
                         math.exp(-s / p) * core_luxemburg_norm(phi, x))


class TestOverflowNextToTheNorm:
    """Phi(v / lam) overflows although the norm is a binary64 number (ROADMAP
    D9): the root-find used to close its bracket on the overflow edge and
    report that edge as a converged norm."""

    DIAG = np.diag([1.0, 0.5]).astype(complex)

    @pytest.mark.parametrize("weight", [1e-310, 1e-320])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_subnormal_trace_weight(self, weight, p):
        x = Element(make_algebra([2], [weight]), [self.DIAG])
        with pytest.raises(ConvergenceError, match="overflows binary64"):
            luxemburg_report(PowerFunction(p), x)

    @pytest.mark.parametrize("k", [-1040, -1060, -1070])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_weights_scaled_below_binary64(self, elements, k, p):
        with pytest.raises(ConvergenceError, match="overflows binary64"):
            luxemburg_report(PowerFunction(p), reweighted(elements[0], 2.0**k))

    @pytest.mark.parametrize("a", [740, 760])
    @pytest.mark.parametrize("phi", [PowerFunction(2.0), CoshMinusOne()], ids=["power2", "cosh1"])
    def test_core_piece_far_right(self, a, phi):
        # On [740, 741) the piece's measures are subnormal and the root-find
        # raises; on [760, 761) they are 0 and the distribution rejects them.
        m2 = make_algebra([2], [1.0])
        x = CoreElement(m2, [(Element(m2, [self.DIAG]), interval(a, a + 1))])
        error, message = ((ValidationError, "below the binary64 range") if a == 760
                          else (ConvergenceError, "overflows binary64"))
        with pytest.raises(error, match=message):
            core_luxemburg_norm(phi, x)

    @pytest.mark.parametrize("s", [740, 1200])
    def test_core_shift_far_right(self, cores, s):
        # The piece shifted to [6 + s, inf) has trace mass 0 in binary64.
        with pytest.raises(ValidationError, match="below the binary64 range"):
            core_luxemburg_norm(PowerFunction(2.0), dual_action(s, cores[0]))
