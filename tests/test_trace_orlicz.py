import hashlib
import inspect
import math
import platform
import re
import struct
from fractions import Fraction

import numpy as np
import pytest

from ncorlicz import (ConvergenceError, CoshMinusOne, Element, ExpMinusOne, JumpFunction,
                      OrliczFunction, PowerFunction, RearrangementFunction, ValidationError,
                      _linalg, absolute, dual_pairing, e_space_gauge, eigen_spectrum, fk_integral,
                      luxemburg_norm, luxemburg_report, make_algebra, membership, modular_value,
                      operator_norm, rearrangement, rearrangement_csv, registry, trace,
                      young_conjugate)
from ncorlicz.algebra import block_singular_values
from ncorlicz.core_model import (CoreElement, core_luxemburg_norm, core_luxemburg_report,
                                 core_modular_value, core_rearrangement, dual_action, embed,
                                 interval)
from ncorlicz.orliczfn import XLogX
from ncorlicz.trace_orlicz import (AT_FINITENESS_BOUND, CONVERGED, DEFAULT_TOL, ZERO,
                                   merged_steps, singular_value_measures)
from ncorlicz.sampling import (SplitMix64, rand_core_element, rand_element, rand_positive,
                               rand_unitary_element, rand_unitary_matrix)
from conftest import svd_singular_values

INF = math.inf


class TestRearrangement:
    def test_handworked_example(self, m2m1_half):
        x = Element(m2m1_half, [np.diag([1.0, 3.0]), np.array([[2.0]])])
        mu = rearrangement(x)
        assert [(s.value, s.length) for s in mu.steps] == [(3.0, 1.0), (2.0, 0.5), (1.0, 1.0)]
        # inf-definition oracle: mu(t) = inf { s : tau(P(s, inf)) <= t }
        def tail_mass(s):
            return sum(c for v, c in svd_singular_values(x) if v > s)
        for t in (0.0, 0.5, 1.0, 1.2, 1.5, 2.0, 2.4, 2.5, 3.0):
            grid = np.linspace(0, 4, 4001)
            oracle = min(s for s in grid if tail_mass(s) <= t)
            assert mu(t) == pytest.approx(oracle, abs=2e-3)

    def test_zero_element(self, m2):
        assert rearrangement(m2.zero()).steps == ()

    @pytest.mark.parametrize("t", [-1.0, math.nan, -math.inf])
    def test_argument_outside_the_half_line_rejected(self, m2m1_half, t):
        mu = rearrangement(Element(m2m1_half, [np.diag([1.0, 3.0]), np.array([[2.0]])]))
        with pytest.raises(ValidationError, match=">= 0"):
            mu(t)

    def test_singular_values_computed_once_per_element(self, m2m3, rng, count_calls):
        x = rand_element(rng, m2m3)
        calls = count_calls(_linalg.singular_values)
        reports = [luxemburg_report(phi, x) for phi in registry().values()]
        mu = rearrangement(x)
        fk_integral(PowerFunction(2.0), x)
        assert len(calls) == m2m3.nblocks
        fresh = Element(m2m3, x.blocks)
        assert [luxemburg_report(phi, fresh) for phi in registry().values()] == reports
        assert rearrangement(fresh).steps == mu.steps

    def test_singular_data_merged_once_per_element(self, m2m3, rng, count_calls):
        x = rand_element(rng, m2m3)
        calls = count_calls(singular_value_measures)
        for phi in registry().values():
            luxemburg_report(phi, x)
        rearrangement(x)
        fk_integral(CoshMinusOne(), x)
        modular_value(PowerFunction(2.0), x, 0.5)
        membership(JumpFunction(1.0), x)
        assert len(calls) == 1

    def test_stored_singular_data_is_read_only(self, m2m3, rng):
        mu = rearrangement(rand_element(rng, m2m3))
        values, measures = mu.values, mu.measures
        assert not values.flags.writeable and not measures.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0
        with pytest.raises(ValueError):
            measures[0] = 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e60, 1e-60])
    def test_norms_from_stored_data_match_a_fresh_element(self, m2m3, rng, scale):
        x = rand_element(rng, m2m3, scale)
        first = [luxemburg_report(phi, x) for phi in registry().values()]
        again = [luxemburg_report(phi, x) for phi in registry().values()]
        fresh = [luxemburg_report(phi, Element(m2m3, x.blocks)) for phi in registry().values()]
        assert first == again == fresh
        assert rearrangement(x).steps == rearrangement(Element(m2m3, x.blocks)).steps
        phi = CoshMinusOne()
        assert fk_integral(phi, x) == fk_integral(phi, Element(m2m3, x.blocks))
        assert rearrangement(x) is rearrangement(x)
        want = singular_value_measures(Element(m2m3, x.blocks))
        mu = rearrangement(x)
        assert list(zip(mu.values.tolist(), mu.measures.tolist())) == want

    def test_core_and_base_norms_share_a_piece_factorization(self, m2m3, rng, count_calls,
                                                              factored_blocks):
        # A core norm merges its pieces' block pairs itself and builds no
        # distribution of a piece, so only the base norm merges the piece's
        # steps; each distinct piece's blocks are factored once for all three.
        calls = count_calls(singular_value_measures)
        piece, other = rand_element(rng, m2m3), rand_element(rng, m2m3)
        core = CoreElement(m2m3, [(piece, interval(0, 1)), (other, interval(1, 2)),
                                  (piece, interval(2, "inf"))])
        core_luxemburg_report(PowerFunction(2.0), core)
        core_luxemburg_report(CoshMinusOne(), core)
        luxemburg_report(PowerFunction(2.0), piece)
        assert [args[0] for args in calls] == [piece]
        got = sorted(b.tobytes() for _, b in factored_blocks())
        assert got == sorted(b.tobytes() for b in piece.blocks + other.blocks)

    def test_steps_of_a_positive_element_are_its_spectrum(self, m3):
        # Gaps of 0.9e-9 chain into one eigenvalue cluster, but the steps are
        # the distribution as computed: three values, each of measure 1.
        d = [1 + 1.8e-9, 1 + 0.9e-9, 1.0]
        x = Element(m3, [np.diag(d)])
        lines = [(line.value, line.multiplicity) for line in eigen_spectrum(x).lines]
        assert lines == [(pytest.approx(1 + 0.9e-9, rel=1e-15), 3)]
        assert [(s.value, s.length) for s in rearrangement(x).steps] == [(v, 1.0) for v in d]

    def test_unitary_conjugation_invariance(self, m2m3, rng):
        x = rand_element(rng, m2m3)
        u = rand_unitary_element(rng, m2m3)
        assert rearrangement(x).matches(rearrangement(u * x * u.adjoint()))

    def test_conjugates_with_repeated_singular_values_match(self, m2m3):
        # Repeated values come out of each conjugate a few ulp apart, as
        # separate steps; matches still sees one distribution.
        rng = SplitMix64(5)
        x = Element(m2m3, [np.diag([2.0, 2.0]), np.diag([3.0, 3.0, 1.0])])
        mu = rearrangement(x)
        assert [(s.value, s.length) for s in mu.steps] == [(3.0, 1.0), (2.0, 2.0), (1.0, 0.5)]
        for _ in range(300):
            u = rand_unitary_element(rng, m2m3)
            assert mu.matches(rearrangement(u * x * u.adjoint()))

    def test_total_mass_is_support_trace(self, m2m3, rng):
        x = rand_element(rng, m2m3)
        from ncorlicz import polar_decompose, support_projection
        _, a = polar_decompose(x)
        mass = rearrangement(x).total_mass()
        assert mass == pytest.approx(trace(support_projection(a)).real, rel=1e-12)

    def test_csv_format(self, m2m1_half):
        x = Element(m2m1_half, [np.diag([1.0, 3.0]), np.array([[2.0]])])
        csv = rearrangement_csv(rearrangement(x))
        lines = csv.split("\n")
        assert lines[0] == "t_start,t_end,value"
        assert lines[1] == "0,1,3"
        assert csv.endswith("\n") and "\r" not in csv


class TestRearrangementFunction:
    """The public step-function API on hand-made steps."""

    STEPS = [(2 / 3, 0.1), (0.1, 0.2), (1e-300, 5)]

    @pytest.mark.parametrize("steps, message", [
        ([(1.0, 0.0)], "step Step(value=1.0, length=0.0) must have positive value and length"),
        ([(0.0, 1.0)], "step Step(value=0.0, length=1.0) must have positive value and length"),
        ([(-1, 1)], "step Step(value=-1.0, length=1.0) must have positive value and length"),
        ([(1.0, math.nan)],
         "step Step(value=1.0, length=nan) must have positive value and length"),
        ([(1.0, 1.0), (1.0, 2.0)], "step values must decrease strictly"),
        ([(1.0, 1.0), (2.0, 1.0)], "step values must decrease strictly"),
        ([(INF, 1.0), (1.0, 1.0)],
         "step Step(value=inf, length=1.0) has a value beyond the binary64 range"),
        ([(1.0, INF)], "step Step(value=1.0, length=inf) has a measure beyond the binary64 range"),
    ])
    def test_constructor_rejections(self, steps, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RearrangementFunction(steps)

    def test_value_at_step_ends_and_past_the_mass(self):
        mu = RearrangementFunction([(3.0, 1.0), (2.0, 0.5), (1.0, 1.0)])
        assert [mu(t) for t in (0.0, 0.999, 1.0, 1.4, 1.5, 2.4, 2.5, 1e300, INF)] == \
            [3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        for t in (-1.0, math.nan):
            with pytest.raises(ValidationError, match="^rearrangement argument must be >= 0$"):
                mu(t)

    def test_boundaries_mass_and_repr(self):
        mu = RearrangementFunction(self.STEPS)
        assert mu.boundaries() == [(0.0, 0.1, 2 / 3), (0.1, 0.30000000000000004, 0.1),
                                   (0.30000000000000004, 5.3, 1e-300)]
        assert mu.total_mass() == 5.3
        assert repr(mu) == "RearrangementFunction([(0.6666666666666666, 0.1), (0.1, 0.2), " \
                           "(1e-300, 5.0)])"
        empty = RearrangementFunction([])
        assert (empty.boundaries(), empty.total_mass(), empty(0.0)) == ([], 0, 0.0)
        assert repr(empty) == "RearrangementFunction([])"

    def test_attributes_cannot_be_reassigned(self, m2):
        x = Element(m2, [np.diag([3.0, 4.0])])
        mu = rearrangement(x)
        norm = luxemburg_norm(PowerFunction(2), x)
        assert norm == pytest.approx(5.0, rel=1e-12)
        for name in ("values", "measures"):
            with pytest.raises(AttributeError, match="^RearrangementFunction is immutable$"):
                setattr(mu, name, np.array([4.0, 4.0]))
        assert rearrangement(x) is mu and mu.measures.tolist() == [1.0, 1.0]
        assert luxemburg_norm(PowerFunction(2), x) == norm

    def test_csv_bytes(self):
        assert rearrangement_csv(RearrangementFunction(self.STEPS)) == (
            "t_start,t_end,value\n"
            "0,0.10000000000000001,0.66666666666666663\n"
            "0.10000000000000001,0.30000000000000004,0.10000000000000001\n"
            "0.30000000000000004,5.2999999999999998,1e-300\n")
        assert rearrangement_csv(RearrangementFunction([])) == "t_start,t_end,value\n"

    def test_matches_compares_the_measure_near_each_value(self):
        mu = RearrangementFunction([(3.0, 1.0), (2.0, 0.5)])
        assert mu.matches(RearrangementFunction([(3.0, 1.0), (2.0, 0.5)]))
        # Values within the cluster tolerance compare by their summed measure.
        assert mu.matches(RearrangementFunction([(3.0 + 1e-12, 0.25), (3.0, 0.75), (2.0, 0.5)]))
        # Moving mass between two steps, or dropping a step, is a mismatch.
        assert not mu.matches(RearrangementFunction([(3.0, 0.5), (2.0, 1.0)]))
        assert not mu.matches(RearrangementFunction([(3.0, 1.0)]))
        assert not mu.matches(RearrangementFunction([(3.0, 1.0), (2.0, 0.5), (1.0, 0.5)]))
        assert RearrangementFunction([]).matches(RearrangementFunction([]))

    def test_merged_steps_adds_only_exact_ties(self):
        up = math.nextafter(2.0, INF)
        pairs = [(1.0, 0.5), (2.0, 1.0), (up, 0.25), (2.0, 0.5), (1.0, 0.5)]
        assert merged_steps(pairs) == [(up, 0.25), (2.0, 1.5), (1.0, 1.0)]
        assert merged_steps([]) == []


class TestFkIntegral:
    def test_handworked_power1(self, m2m1_half):
        x = Element(m2m1_half, [np.diag([1.0, 3.0]), np.array([[2.0]])])
        assert fk_integral(PowerFunction(1), x) == pytest.approx(5.0)
        from ncorlicz import trace as tau
        assert tau(absolute(x)).real == pytest.approx(5.0)

    def test_linf_inside_ball(self, m2):
        x = Element(m2, [np.diag([0.5, 1.0])])
        assert fk_integral(JumpFunction(1.0), x) == 0.0

    def test_linf_outside_ball(self, m2):
        x = Element(m2, [np.diag([0.5, 2.0])])
        assert fk_integral(JumpFunction(1.0), x) == INF

    def test_random_against_svd_oracle(self, m2m3, rng):
        for _ in range(100):
            x = rand_element(rng, m2m3)
            got = fk_integral(PowerFunction(2), x)
            want = sum(c * v * v for v, c in svd_singular_values(x))
            assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


class TestLuxemburgNorm:
    @pytest.mark.parametrize("norm", [luxemburg_report, luxemburg_norm, core_luxemburg_report,
                                      core_luxemburg_norm])
    def test_one_default_tolerance(self, norm):
        assert inspect.signature(norm).parameters["tol"].default is DEFAULT_TOL

    def test_schatten_p(self, m2):
        x = Element(m2, [np.diag([3.0, 4.0])])
        assert luxemburg_norm(PowerFunction(2), x) == pytest.approx(5.0, rel=1e-11)
        for p in (1.0, 1.5, 3.0):
            want = (3.0 ** p + 4.0 ** p) ** (1.0 / p)
            assert luxemburg_norm(PowerFunction(p), x) == pytest.approx(want, rel=1e-11)

    def test_operator_norm_recovery(self, m2):
        x = Element(m2, [np.diag([3.0, 4.0])])
        assert luxemburg_norm(JumpFunction(1.0), x) == pytest.approx(4.0, rel=1e-12)

    def test_zero(self, m2):
        for phi in registry().values():
            assert luxemburg_norm(phi, m2.zero()) == 0.0

    def test_report_certifies_modular(self, m2m3, rng):
        x = rand_element(rng, m2m3)
        rep = luxemburg_report(CoshMinusOne(), x)
        assert rep.modular_at_norm <= 1.0
        assert rep.iterations > 0
        obj = rep.to_json_obj()
        assert set(obj) == {"norm", "iterations", "modularValueAtNorm"}

    def test_non_young_rejected(self, m2):
        class Fake(PowerFunction):
            pass
        fake = Fake(2)
        fake.is_young = False
        with pytest.raises(ValidationError):
            luxemburg_norm(fake, m2.zero())

    def test_norm_axioms(self, m2m3, rng):
        for _ in range(40):
            x, y = rand_element(rng, m2m3), rand_element(rng, m2m3)
            alpha = 3.0 * rng.uniform() - 1.5
            for phi in registry().values():
                nx, ny = luxemburg_norm(phi, x), luxemburg_norm(phi, y)
                assert luxemburg_norm(phi, x + y) <= nx + ny + 1e-9
                assert luxemburg_norm(phi, alpha * x) == pytest.approx(
                    abs(alpha) * nx, rel=1e-10, abs=1e-12)
                assert nx > 0

    def test_symmetry_and_unitary_invariance(self, m2m3, rng):
        x = rand_element(rng, m2m3)
        u = rand_unitary_element(rng, m2m3)
        for phi in (PowerFunction(2), CoshMinusOne(), JumpFunction(1.0)):
            n = luxemburg_norm(phi, x)
            assert luxemburg_norm(phi, x.adjoint()) == pytest.approx(n, rel=1e-9)
            assert luxemburg_norm(phi, absolute(x)) == pytest.approx(n, rel=1e-9)
            assert luxemburg_norm(phi, u * x * u.adjoint()) == pytest.approx(n, rel=1e-10)


class TestRootFind:
    """The log-domain root-find: evaluation counts, the infimum, the whole binary64 range."""

    @staticmethod
    def diag(weight, *values):
        return Element(make_algebra([len(values)], [weight]),
                       [np.diag(np.array(values, dtype=complex))])

    def test_evaluations_per_norm(self, m2m3, rng, count_calls):
        calls = count_calls(OrliczFunction.eval_array)
        bound = {"power1": 8, "power2": 8, "power3": 8, "cosh1": 14, "linf": 1}
        for _ in range(50):
            x = rand_element(rng, m2m3)
            for name, phi in registry().items():
                before = len(calls)
                rep = luxemburg_report(phi, x)
                assert len(calls) - before == rep.iterations, name
                if name == "linf":
                    assert rep.iterations == 1 and rep.reason == AT_FINITENESS_BOUND
                else:
                    assert 1 <= rep.iterations <= bound[name], name
                    assert rep.reason == CONVERGED

    def test_norm_is_the_infimum(self, m2m3, rng):
        tol = 1e-12
        for scale in (1e-150, 1.0, 1e150):
            for _ in range(10):
                x = scale * rand_element(rng, m2m3)
                for name, phi in registry().items():
                    rep = luxemburg_report(phi, x, tol)
                    assert modular_value(phi, x, rep.norm) == rep.modular_at_norm <= 1.0
                    assert modular_value(phi, x, rep.norm * (1.0 - tol)) > 1.0, name

    def test_homogeneous_over_the_binary64_range(self, m2m3, rng):
        x = rand_element(rng, m2m3)
        for phi in registry().values():
            n = luxemburg_norm(phi, x)
            for s in (1e-300, 1e-150, 1e150, 1e300):
                assert luxemburg_norm(phi, s * x) == pytest.approx(s * n, rel=2e-12, abs=0)

    def test_tiny_trace_weight(self):
        x = self.diag(1e-100, 1.0, 0.5)
        assert luxemburg_norm(PowerFunction(1), x) == pytest.approx(1.5e-100, rel=2e-12, abs=0)
        rep = luxemburg_report(PowerFunction(2), x)
        assert rep.norm == pytest.approx(math.sqrt(1.25e-100), rel=2e-12, abs=0)
        assert rep.iterations <= 20

    def test_huge_trace_weight(self):
        x = self.diag(1e300, 1.0, 0.5)
        assert luxemburg_norm(PowerFunction(1), x) == pytest.approx(1.5e300, rel=2e-12, abs=0)
        assert luxemburg_norm(PowerFunction(2), x) == pytest.approx(math.sqrt(1.25e300),
                                                                    rel=2e-12, abs=0)

    def test_termination_reasons(self, m2):
        x = Element(m2, [np.diag([3.0, 4.0])])
        assert luxemburg_report(PowerFunction(2), x).reason == CONVERGED
        rep = luxemburg_report(JumpFunction(2.0), x)
        assert (rep.norm, rep.iterations, rep.reason) == (2.0, 1, AT_FINITENESS_BOUND)
        rep = luxemburg_report(PowerFunction(2), m2.zero())
        assert (rep.norm, rep.iterations, rep.reason) == (0.0, 0, ZERO)

    def test_norm_beyond_binary64_names_the_bracket(self):
        x = self.diag(1e308, 1e10, 1.0)
        with pytest.raises(ConvergenceError) as err:
            luxemburg_norm(PowerFunction(1), x)
        msg = str(err.value)
        assert "binary64 range" in msg and "bracket lo=(" in msg
        assert re.search(r"after \d+ modular evaluations; last modular\(", msg)

    def test_cosh1_at_huge_trace_weight(self):
        # Phi is evaluated near t = 1e-150, where cosh(t) - 1 would be exactly 0.
        rep = luxemburg_report(CoshMinusOne(), self.diag(1e300, 1.0, 0.5))
        assert rep.norm == pytest.approx(math.sqrt(0.625e300), rel=2e-12, abs=0)
        assert 0.0 < rep.modular_at_norm <= 1.0

    def test_cosh1_dual_at_huge_trace_weight(self):
        # The conjugate of cosh1 is s^2/2 (1 - s^2/12 + ...) near 0 as well.
        rep = luxemburg_report(young_conjugate(CoshMinusOne()), self.diag(1e300, 1.0, 0.5))
        assert rep.norm == pytest.approx(math.sqrt(0.625e300), rel=2e-12, abs=0)
        assert 0.0 < rep.modular_at_norm <= 1.0

    def test_top_of_binary64_cluster(self):
        x = self.diag(1.0, 1e308, 1e308)
        assert singular_value_measures(x) == [(1e308, 2.0)]
        assert luxemburg_norm(JumpFunction(1.0), x) == 1e308
        assert luxemburg_norm(PowerFunction(2), x) == pytest.approx(math.sqrt(2.0) * 1e308,
                                                                    rel=2e-12, abs=0)
        with pytest.raises(ConvergenceError, match="binary64 range"):
            luxemburg_norm(PowerFunction(1), x)  # the norm is 2e308

    @pytest.mark.parametrize("tol", [1.0, 1.5, INF, 0.0, -0.5, math.nan])
    def test_tolerance_outside_the_unit_interval_rejected(self, m2, tol):
        x = Element(m2, [np.diag([1.0, 2.0])])
        with pytest.raises(ValidationError, match=r"tolerance must lie in \(0, 1\)"):
            luxemburg_report(PowerFunction(2), x, tol)
        with pytest.raises(ValidationError, match=r"tolerance must lie in \(0, 1\)"):
            core_luxemburg_report(PowerFunction(2), embed(x), tol)

    def test_coarse_tolerance_still_brackets_the_norm(self, m2):
        rep = luxemburg_report(PowerFunction(2), Element(m2, [np.diag([1.0, 2.0])]), 0.5)
        assert rep.reason == CONVERGED
        assert math.sqrt(5.0) <= rep.norm <= math.sqrt(5.0) / 0.5

    def test_tolerance_below_resolution_rejected(self, m2):
        x = Element(m2, [np.diag([3.0, 1.0])])
        with pytest.raises(ConvergenceError, match="below the binary64 resolution"):
            luxemburg_norm(CoshMinusOne(), x, tol=1e-17)


class TestMembership:
    def test_finite_family_all_true(self, m2m3, rng):
        flags = membership(PowerFunction(2), rand_element(rng, m2m3))
        assert flags.orlicz_class and flags.kunze_space and flags.mtkr_space

    def test_linf_split(self, m2):
        x = Element(m2, [np.diag([2.0, 0.5])])
        flags = membership(JumpFunction(1.0), x)
        assert not flags.orlicz_class
        assert flags.kunze_space and flags.kunze_witness is not None
        assert modular_value(JumpFunction(1.0), x, 1.0 / flags.kunze_witness) < INF
        assert not flags.mtkr_space

    def test_linf_witness_at_any_scale(self, m2):
        x = Element(m2, [np.diag([1e100, 1.0])])
        flags = membership(JumpFunction(1.0), x)
        assert flags.kunze_space and flags.kunze_witness == 2.0 ** -333
        assert modular_value(JumpFunction(1.0), x, 1.0 / flags.kunze_witness) < INF
        assert membership(JumpFunction(1.0), Element(m2, [np.diag([2.0, 0.3])])).kunze_witness \
            == 0.5

    def test_orlicz_class_beyond_float_overflow(self, m2):
        # tau(|x|^2) = 1e400 is finite although its float sum overflows.
        flags = membership(PowerFunction(2), Element(m2, [np.diag([1e200, 0.3])]))
        assert flags.orlicz_class and flags.kunze_witness == 1.0
        flags = membership(JumpFunction(1.0), Element(m2, [np.diag([2.0, 0.3])]))
        assert not flags.orlicz_class and flags.kunze_witness == 0.5

    def test_linf_zero(self, m2):
        flags = membership(JumpFunction(1.0), m2.zero())
        assert flags.orlicz_class and flags.kunze_space and flags.mtkr_space

    @pytest.mark.parametrize("name", sorted(registry()))
    def test_flags_need_no_distribution(self, name):
        # The identity on make_algebra([2], [1e308]) has a merged step measure
        # of 2e308, beyond binary64, but v_max = 1 decides every flag.
        phi = registry()[name]
        x = make_algebra([2], [1e308]).identity()
        assert operator_norm(x) == 1.0
        assert membership(phi, x) == membership(phi, make_algebra([2], [1.0]).identity())

    def test_linf_boundary_left_continuity(self, m2):
        x = Element(m2, [np.diag([1.0, 0.5])])
        assert membership(JumpFunction(1.0), x).orlicz_class


class TestDualPairing:
    def test_pairing_with_identity_is_trace(self, m2m3, rng):
        x = rand_element(rng, m2m3)
        assert dual_pairing(x, m2m3.identity()) == pytest.approx(trace(x), abs=1e-12)

    def test_bilinear_symmetry(self, m2m3, rng):
        x, y = rand_element(rng, m2m3), rand_element(rng, m2m3)
        assert abs(dual_pairing(x, y) - dual_pairing(y, x)) <= 1e-12 * \
            x.frobenius_norm() * y.frobenius_norm()

    def test_commutative_holder_constant_two(self, m2m3, rng):
        # Two Luxemburg gauges admit the sharp constant 2 (constant 1 fails
        # already at x = y = identity); the ratio stays below 2 + slack.
        phi = PowerFunction(3)
        conj = young_conjugate(phi)
        for _ in range(30):
            dx = [np.diag([3 * rng.uniform() for _ in range(d)]).astype(complex)
                  for d in m2m3.block_dims]
            dy = [np.diag([3 * rng.uniform() for _ in range(d)]).astype(complex)
                  for d in m2m3.block_dims]
            x, y = Element(m2m3, dx), Element(m2m3, dy)
            lhs = abs(dual_pairing(x, y))
            assert lhs <= 2.0 * luxemburg_norm(phi, x) * luxemburg_norm(conj, y) + 1e-9

    def test_constant_one_counterexample(self, m2):
        # documents why the constant-2 form is the asserted one
        phi = PowerFunction(3)
        conj = young_conjugate(phi)
        one = m2.identity()
        lhs = abs(dual_pairing(one, one))
        rhs = luxemburg_norm(phi, one) * luxemburg_norm(conj, one)
        assert lhs > rhs  # constant-1 Hoelder genuinely fails here
        assert lhs <= 2.0 * rhs + 1e-12


class TestESpace:
    def test_collapse_to_luxemburg(self, m2m3, rng):
        x = rand_element(rng, m2m3)
        assert e_space_gauge(PowerFunction(2), x) == luxemburg_norm(PowerFunction(2), x)

    def test_zero(self, m2):
        assert e_space_gauge(PowerFunction(2), m2.zero()) == 0.0

    def test_consistency_with_membership(self, m2m3, rng):
        for _ in range(50):
            x = rand_element(rng, m2m3)
            for phi in (PowerFunction(1), CoshMinusOne()):
                gauge = e_space_gauge(phi, x)
                flags = membership(phi, x)
                assert flags.kunze_space
                assert (gauge == 0.0) == x.is_zero()


@pytest.fixture
def m2m1_half():
    from ncorlicz import make_algebra
    return make_algebra([2, 1], [1.0, 0.5])


def _rank_deficient_element():
    """U diag(1, 0.5, 0) V* + [[1, 1], [1, 1]]: each block has a kernel vector."""
    rng = SplitMix64(0)
    u, v = rand_unitary_matrix(rng, 3), rand_unitary_matrix(rng, 3)
    alg = make_algebra([3, 2], [1.0, 0.5])
    return Element(alg, [(u * [1.0, 0.5, 0.0]) @ v.conj().T, np.ones((2, 2))])


def test_absolute_is_zero_on_the_kernel():
    # The kernel singular value of x is a rounding error below the rank cut, so
    # |x| is 0 there rather than that error.
    x = _rank_deficient_element()
    smax = max(np.linalg.svd(b, compute_uv=False)[0] for b in x.blocks)
    for b in absolute(x).blocks:
        assert np.min(np.abs(np.linalg.eigvalsh(b))) <= 1e-15 * smax


def _graded(seed, s):
    """U diag(1, 0.5, s) W* on one 3 x 3 block, U and W from SplitMix64(seed)."""
    rng = SplitMix64(seed)
    u, w = rand_unitary_matrix(rng, 3), rand_unitary_matrix(rng, 3)
    return Element(make_algebra([3], [1.0]), [(u * [1.0, 0.5, s]) @ w.conj().T])


def test_power1_norms_of_x_and_its_modulus_agree_on_a_kernel():
    x = _rank_deficient_element()
    n_x = luxemburg_norm(PowerFunction(1.0), x)
    n_abs = luxemburg_norm(PowerFunction(1.0), absolute(x))
    assert abs(n_x - n_abs) <= 1e-12 * n_x


@pytest.mark.parametrize("s", [1e-7, 1e-9, 1e-10])
def test_power1_norms_of_a_graded_element_and_its_modulus_agree(s):
    # |x| keeps the singular value s, which lies above RANK_RTOL but near or
    # below the rounding floor of x* x.
    x = _graded(0, s)
    n_x = luxemburg_norm(PowerFunction(1.0), x)
    n_abs = luxemburg_norm(PowerFunction(1.0), absolute(x))
    assert abs(n_x - n_abs) <= 1e-12 * n_x


def test_fk_integral_factors_each_gram_block_once(m2m3, rng, count_calls):
    x = rand_element(rng, m2m3)
    calls = count_calls(_linalg.hermitian_eigh)
    fk_integral(CoshMinusOne(), x)
    assert len(calls) == m2m3.nblocks
    for (block,), b in zip(calls, x.blocks):
        gram = b.conj().T @ b
        np.testing.assert_allclose(block, gram, rtol=0.0, atol=1e-15 * np.abs(gram).max())


@pytest.mark.parametrize("scale, built", [(1.0, 1), (2.0 ** 600, 2)], ids=["e0", "e600"])
def test_fk_integral_builds_one_gram_element_and_no_eigenvectors(m2m3, rng, monkeypatch,
                                                                 count_calls, scale, built):
    # y = x / 2^e is an Element of its own only when e != 0; y* y is one more,
    # and only its eigenvalues are read.
    x = scale * rand_element(rng, m2m3)
    eigh, kwargs = _linalg.hermitian_eigh, []

    def recorded(*args, **kw):
        kwargs.append(kw)
        return eigh(*args, **kw)

    monkeypatch.setattr(_linalg, "hermitian_eigh", recorded)
    inits = count_calls(Element.__init__)
    fk_integral(CoshMinusOne(), x)
    assert len(inits) == built
    assert kwargs == [{"vectors": False}] * m2m3.nblocks


@pytest.mark.parametrize("s", [1e-8, 1e-9, 1e-11, 0.0])
def test_fk_integral_power1_on_a_graded_element(s):
    # The roots of the eigenvalues of x* x are good only to about
    # sqrt(eps) sigma_max, so a check through them misreads a small sigma.
    # s = 1e-11 lies on the spectral rank cut but above the kernels' floor,
    # so the distribution keeps it; a computed zero stays below the floor.
    got = fk_integral(PowerFunction(1.0), _graded(0, s))
    assert got == pytest.approx(1.5 + s, rel=1e-12, abs=0.0)


def _linf_verdict(x):
    # sigma_max = 1 up to rounding sits on linf's jump; the verdict must not
    # depend on which side of it a second factorisation rounds to.
    return fk_integral(JumpFunction(1.0), x) == (0.0 if operator_norm(x) <= 1.0 else INF)


@pytest.mark.parametrize("s", [1e-7, 1e-8])
def test_fk_integral_linf_on_a_graded_element(s):
    assert _linf_verdict(_graded(0, s))


def test_fk_integral_linf_with_unit_top_singular_value():
    assert [seed for seed in range(200) if not _linf_verdict(_graded(seed, 0.25))] == []


def test_fk_integral_on_subnormal_singular_values():
    m = np.array([[1.0, 2.0], [-0.5, 1.0]])  # sigma_1 + sigma_2 = sqrt(10.25)
    x = Element(make_algebra([2, 2], [1.0, 1.0]), [1e-300 * m, 1e-320 * m])
    assert fk_integral(PowerFunction(1.0), x) == pytest.approx(3.2015621187164243e-300,
                                                                rel=1e-12)
    assert fk_integral(PowerFunction(2.0), x) == 0.0
    assert fk_integral(JumpFunction(1.0), x) == 0.0


@pytest.mark.parametrize("d, want", [(2, 1 + 9e-12), (6, 1 + 4.5e-11)])
def test_power1_keeps_values_below_the_rank_cut(d, want):
    # D18: a singular value 9e-12 of the largest lies below the spectral rank
    # cut, but the distribution keeps it, so ||x||_1 = tau(|x|).
    x = Element(make_algebra([d], [1.0]), [np.diag([1.0] + [9e-12] * (d - 1))])
    assert luxemburg_norm(PowerFunction(1), x) == pytest.approx(want, rel=1e-15)
    assert rearrangement(x).total_mass() == float(d)


@pytest.mark.parametrize("gap", [1e-10, 4e-10, 1e-12, 2.0 ** -52])
@pytest.mark.parametrize("conjugate", [False, True])
def test_linf_modular_agrees_with_membership_at_the_jump(gap, conjugate):
    # D17: the top step is the top singular value, the v_max that membership
    # reads, so a value just past linf's jump makes the modular +inf.
    alg = make_algebra([2], [1.0])
    x = Element(alg, [np.diag([1.0 + gap, 1.0 - gap])])
    if conjugate:
        u = rand_unitary_element(SplitMix64(3), alg)
        x = u * x * u.adjoint()
    linf = JumpFunction(1.0)
    flags = membership(linf, x)
    assert fk_integral(linf, x) == (0.0 if flags.orlicz_class else INF)
    if not conjugate:
        assert not flags.orlicz_class


def _step_arrays(x):
    mu = rearrangement(x)
    return mu.values, mu.measures


def _steps_of(data):
    return RearrangementFunction(zip(*data))


@pytest.mark.parametrize("memo, read, plant, part", [
    # a singular value of the block: caught against y* y
    ("_svals", block_singular_values, tuple, 0),
    # a value or a measure of the merged steps: caught against tau(y* y)
    ("_singular", _step_arrays, _steps_of, 0),
    ("_singular", _step_arrays, _steps_of, 1),
], ids=["svals", "step-values", "step-measures"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_fk_integral_rejects_a_planted_error(memo, read, plant, part, k):
    # x has top singular value 1, so y = x and e = 0.  A planted singular
    # value has the largest gap in its block, and the message names it.
    x = _graded(0, 0.25)
    data = [a.copy() for a in read(x)]
    data[part][k] *= 1.0 + 1e-6
    object.__setattr__(x, memo, plant(data))
    if memo == "_svals":
        match = (r"^singular values disagree with x\* x: in block 0 of y = x / 2\^0, "
                 rf"singular value \S*{re.escape(repr(float(data[0][k])))}\)? squared")
    else:
        match = "^distribution identity violated"
    with pytest.raises(ValidationError, match=match):
        fk_integral(PowerFunction(2.0), x)


@pytest.mark.parametrize("name", ["power1", "power2", "power3", "cosh1", "linf"])
@pytest.mark.parametrize("case", ["base", "core"])
def test_step_measure_beyond_binary64_is_a_validation_error(case, name):
    # The two unit singular values of the identity merge into one step of
    # measure 2 c.  On the base c = 1e308, so the step's measure is 2e308; on
    # the core c = 5, scaled by the trace mass 5.2e307 of [-709, -708).  Either
    # sum leaves binary64, and a norm read from it was silently wrong.
    phi = registry()[name]
    if case == "base":
        x = make_algebra([2], [1e308]).identity()
        for read in (luxemburg_report, fk_integral):
            with pytest.raises(ValidationError, match="beyond the binary64 range"):
                read(phi, x)
    else:
        x = make_algebra([2], [5.0]).identity()
        core = CoreElement(x.algebra, [(x, interval(-709, -708))])
        with pytest.raises(ValidationError, match="beyond the binary64 range"):
            core_luxemburg_report(phi, core)


@pytest.mark.parametrize("case", ["base", "core", "product"])
def test_modular_sum_beyond_binary64_is_infinite(case):
    # Every step measure and every term is finite, but their sum leaves
    # binary64: the modular at lam = 1 is +inf and the norm converges,
    # sqrt(c (1 + 0.999^2)) with c the step measure, and numpy's overflow
    # warning is not raised.  In the product case one step's m * Phi(v)
    # already leaves binary64.
    if case == "product":
        assert RearrangementFunction([(2.0, 1e308)]).modular(PowerFunction(1.0), 1.0) == INF
        return
    phi = PowerFunction(2.0)
    x = Element(make_algebra([1, 1], [1e308, 1e308]), [np.array([[1.0]]), np.array([[0.999]])])
    if case == "base":
        assert modular_value(phi, x, 1.0) == INF
        assert fk_integral(phi, x) == INF
        report, c = luxemburg_report(phi, x), 1e308
    else:
        core = CoreElement(x.algebra, [(x, interval(Fraction(-3, 4), 0))])
        assert core_modular_value(phi, core, 1.0) == INF
        report, c = core_luxemburg_report(phi, core), 1e308 * math.expm1(0.75)
    assert report.reason == CONVERGED
    assert report.norm == pytest.approx(math.sqrt(c) * math.sqrt(1.0 + 0.999 ** 2), rel=1e-11)


class TestStepSum:
    """The modular sum_j m_j Phi(v_j / lam), added in step order on Python floats."""

    @pytest.mark.parametrize("phi, steps", [
        (JumpFunction(1.0), [(2.0, 1.0), (0.5, 1.0)]),
        (ExpMinusOne(), [(1e3, 1e-300), (1.0, 1.0)]),
        (PowerFunction(2.0), [(1e200, 1e-300), (1.0, 1.0)]),
    ], ids=["jump", "exp1", "power2"])
    def test_an_infinite_term_gives_an_infinite_modular(self, phi, steps):
        assert RearrangementFunction(steps).modular(phi, 1.0) == INF

    def test_core_modular_is_the_in_order_sum(self):
        # The core measures c_i (e^-a - e^-b) are not dyadic, so the products
        # round and the order and kind of the additions show in the last bits.
        rng = SplitMix64(41)
        alg = make_algebra([2, 3], [1.0, 0.5])
        for _ in range(20):
            mu = core_rearrangement(rand_core_element(rng, alg, pieces=4))
            for phi in registry().values():
                for lam in (0.5, 1.0, 3.0):
                    want = 0.0
                    for v, m in zip(mu.values.tolist(), mu.measures.tolist()):
                        want += m * phi(v / lam)
                    assert mu.modular(phi, lam) == want

    def test_empty_distribution(self):
        for phi in registry().values():
            assert RearrangementFunction([]).modular(phi, 1.0) == 0.0

    @pytest.mark.parametrize("read", [modular_value, core_modular_value], ids=["base", "core"])
    def test_scale_beyond_binary64_names_the_scale(self, read):
        # v_max / lam = 1e310 leaves binary64 although lam and v_max are
        # binary64 numbers.  m Phi(v / lam) may still be finite at such a
        # scale (ROADMAP D9), so the modular names the scale and the range
        # instead of returning +inf; one ratio in range evaluates Phi.
        x = Element(make_algebra([2], [1.0]), [np.diag([1e300, 1.0]).astype(complex)])
        x = embed(x) if read is core_modular_value else x
        message = "scale 1e-10 puts v_max / lam = 1e+300 / 1e-10 beyond the binary64 range"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read(PowerFunction(2), x, 1e-10)
        assert read(PowerFunction(1), x, 1e-8) == pytest.approx(1e308, rel=1e-15)


@pytest.mark.parametrize("weight", [1.0, 1e300, 1e308])
def test_fk_integral_checks_the_identity_beyond_binary64(weight):
    # On weights 1e308 both sides of the identity at Phi(t) = t^2 leave
    # binary64 unless they are taken in units of the largest weight; a step
    # measure planted 1.5 times too large is caught at every scale.
    phi = PowerFunction(2.0)
    alg = make_algebra([1, 1], [weight, weight])
    blocks = [np.array([[1.0]]), np.array([[0.999]])]
    want = INF if weight == 1e308 else pytest.approx(weight * (1.0 + 0.999 ** 2), rel=1e-15)
    assert fk_integral(phi, Element(alg, blocks)) == want
    x = Element(alg, blocks)
    mu = rearrangement(x)
    object.__setattr__(x, "_singular", RearrangementFunction(zip(mu.values, 1.5 * mu.measures)))
    with pytest.raises(ValidationError, match="^distribution identity violated"):
        fk_integral(phi, x)


@pytest.mark.parametrize("scale, small", [(1.0, 1e-155), (1e300, 1e145)])
def test_fk_integral_on_blocks_of_very_different_scales(scale, small):
    # The small block's y* y lies on the subnormal grid of y = x / 2^e.
    m = np.array([[1.0, 2.0], [-0.5, 1.0]])  # sigma_1 + sigma_2 = sqrt(10.25)
    x = Element(make_algebra([2, 2], [1.0, 1.0]), [scale * m, small * m])
    assert fk_integral(PowerFunction(1.0), x) == pytest.approx(3.2015621187164243 * scale,
                                                               rel=1e-12)


def test_operator_norm_reads_the_memoized_singular_values(m2m3, rng, count_calls,
                                                           factored_blocks):
    # A norm followed by operator_norm factors each block once, and neither
    # makes an eigendecomposition.
    x = rand_element(rng, m2m3)
    eigh = count_calls(_linalg.hermitian_eigh)
    luxemburg_report(PowerFunction(2.0), x)
    want = max(np.linalg.svd(b, compute_uv=False)[0] for b in x.blocks)
    assert operator_norm(x) == pytest.approx(want, rel=1e-12)
    assert eigh == []
    assert [kernel for kernel, _ in factored_blocks()] == ["scalar"] * m2m3.nblocks


def _pinned_norm_calls():
    """(label, call) pairs for the root-find digest: norm reports of seeded
    Elements over the binary64 range and of seeded core elements, and inputs
    whose root-find raises."""
    alg = make_algebra([2, 3], [1.0, 0.5])
    phis = list(registry().items()) + [("exp1", ExpMinusOne()), ("xlogx", XLogX())]
    rng = SplitMix64(31)
    calls = []
    for scale in (1.0, 1e60, 1e-60, 1e150, 1e-150):
        for _ in range(8):
            x = rand_element(rng, alg, scale)
            calls += [(name, lambda phi=phi, x=x: luxemburg_report(phi, x)) for name, phi in phis]
    rng = SplitMix64(37)
    for _ in range(100):
        x = rand_core_element(rng, alg, pieces=4)
        calls += [(f"core-{name}", lambda phi=phi, x=x: core_luxemburg_report(phi, x))
                  for name, phi in registry().items()]
    # Overflow next to the norm (tests/test_laws.py) and a tolerance below the
    # binary64 resolution: each raises, and its message is pinned.
    diag = np.diag([1.0, 0.5]).astype(complex)
    base = rand_element(SplitMix64(17), alg)
    for p in (1.0, 2.0):
        phi = PowerFunction(p)
        calls += [("subnormal-weight", lambda phi=phi, w=w: luxemburg_report(
            phi, Element(make_algebra([2], [w]), [diag]))) for w in (1e-310, 1e-320)]
        calls += [("weights-below-binary64", lambda phi=phi, k=k: luxemburg_report(
            phi, Element(make_algebra([2, 3], [2.0**k, 0.5 * 2.0**k]), base.blocks)))
            for k in (-1040, -1060, -1070)]
    m2 = make_algebra([2], [1.0])
    for phi in (PowerFunction(2.0), CoshMinusOne()):
        calls += [("core-far-right", lambda phi=phi, a=a: core_luxemburg_report(
            phi, CoreElement(m2, [(Element(m2, [diag]), interval(a, a + 1))]))) for a in (740, 760)]
    cells = (interval(-4, -1), interval(0, 2.5), interval(6, "inf"))
    core = CoreElement(alg, [(rand_positive(SplitMix64(19), alg), iv) for iv in cells])
    calls += [("core-shift", lambda s=s: core_luxemburg_report(PowerFunction(2.0),
                                                               dual_action(s, core)))
              for s in (740, 1200)]
    x = Element(m2, [np.diag([3.0, 1.0])])
    calls += [("tol", lambda phi=phi: luxemburg_report(phi, x, tol=1e-17))
              for phi in (CoshMinusOne(), ExpMinusOne())]
    return calls


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or platform.libc_ver()[0] != "glibc",
                    reason="Phi calls the C library's pow, exp, log and sinh; the digest "
                           "was taken with glibc on x86-64")
def test_norm_reports_are_pinned():
    # Any change to the root-find, the modular sum or Phi's evaluation that
    # moves one bit of a report, or the text of an error, changes this digest.
    digest, raised = hashlib.sha256(), 0
    calls = _pinned_norm_calls()
    for name, call in calls:
        digest.update(name.encode())
        try:
            rep = call()
        except (ValidationError, ConvergenceError) as exc:
            raised += 1
            digest.update(f"{type(exc).__name__}: {exc}".encode())
        else:
            digest.update(struct.pack("<dqd", rep.norm, rep.iterations, rep.modular_at_norm)
                          + rep.reason.encode())
    assert (len(calls), raised) == (798, 18)
    assert digest.hexdigest() == "85ba85e13c4d6ee5f15bf4877f039b9cbfa71ba7e0190457a8acf519b1d77bca"
