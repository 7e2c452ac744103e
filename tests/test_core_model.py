import math
import operator
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from ncorlicz import (CoreElement, CoshMinusOne, Element, Interval, JumpFunction,
                      OrliczFunction, PowerFunction, RearrangementFunction, ValidationError,
                      _linalg, canonical_trace, core_luxemburg_norm, core_luxemburg_report,
                      core_modular_value, core_rearrangement, dual_action, embed, interval,
                      luxemburg_norm, make_algebra, rearrangement, registry, weighted_trace)
from ncorlicz._linalg import HERMITIAN_RTOL, POSITIVITY_RTOL
from ncorlicz.algebra import certified_positive
from ncorlicz.sampling import (SplitMix64, rand_core_element, rand_element, rand_isomorphism,
                               rand_unitary_matrix)
from ncorlicz.trace_orlicz import merged_steps, singular_value_measures


class TestConstruction:
    def test_interval_validation(self):
        with pytest.raises(ValidationError):
            Interval(Fraction(1), Fraction(1))
        with pytest.raises(ValidationError):
            interval(math.inf, None)
        assert interval(0, "inf").b is None
        # Only interval() converts: a float endpoint built an Interval whose
        # weight() then raised AttributeError.
        for a, b in [(0.5, Fraction(1)), (Fraction(0), 1.0), ("0", None)]:
            with pytest.raises(ValidationError, match=r"interval\(\) converts"):
                Interval(a, b)
        assert Interval(0, 2).weight() == interval(0, 2).weight()
        assert interval(0.5, 1.5).weight() == pytest.approx(
            math.exp(-0.5) - math.exp(-1.5))

    def test_weight_of_short_intervals(self):
        assert interval(0, 1e-10).weight() == pytest.approx(-math.expm1(-1e-10), rel=1e-15, abs=0)
        with localcontext() as ctx:
            ctx.prec = 40
            a, b = Decimal(30), Decimal(30) + Decimal(2) ** -20
            want = float((-a).exp() - (-b).exp())
        assert interval(30, 30 + 2.0 ** -20).weight() == pytest.approx(want, rel=1e-15, abs=0)

    def test_mass_beyond_binary64_rejected(self, m2):
        x = m2.identity()
        assert canonical_trace(CoreElement(m2, [(x, interval(-700, 0))])) == pytest.approx(
            2.0 * (math.exp(700.0) - 1.0))
        for iv in (interval(-1000, 0), interval(-1000, -999), interval(-710, "inf")):
            with pytest.raises(ValidationError, match=r"beyond the binary64 range"):
                iv.weight()
            z = CoreElement(m2, [(x, iv)])
            with pytest.raises(ValidationError, match=re.escape(str(iv))):
                canonical_trace(z)
            with pytest.raises(ValidationError, match="binary64"):
                core_luxemburg_norm(PowerFunction(2.0), z)

    def test_trace_beyond_binary64_rejected(self, m2):
        # A block trace beyond binary64, a finite trace whose weighted term is not,
        # finite terms whose sum is not, and an imaginary part beyond binary64.
        halves = [interval(-1.5, -1), interval(-1, -0.5)]
        for fn, x, ivs, message in (
                (canonical_trace, np.diag([1e308, 1e308]), [interval(0, 1)], "trace is beyond"),
                (canonical_trace, np.diag([1e308, 0.0]), [interval(-2, -1)],
                 "canonical trace is beyond"),
                (weighted_trace, np.diag([1e308, 1e308]), [interval(0, 1)], "trace is beyond"),
                (weighted_trace, np.diag([1e308, 0.0]), [interval(-2, -1)],
                 "weighted trace is beyond"),
                (weighted_trace, np.diag([1e308, 0.0]), halves, "weighted trace is beyond"),
                (weighted_trace, np.diag([1e308j, 0.0]), [interval(-2, -1)],
                 "weighted trace is beyond")):
            z = CoreElement(m2, [(Element(m2, [x]), iv) for iv in ivs])
            with pytest.raises(ValidationError, match=message):
                fn(z)
        z = CoreElement(m2, [(Element(m2, [np.diag([1e308, 0.0])]), interval(-1, 0))])
        assert canonical_trace(z) == 1e308 * interval(-1, 0).weight()
        assert weighted_trace(z) == 1e308 * interval(-1, 0).weight()

    def test_trace_messages_and_the_first_error_raised(self, m2):
        big = Element(m2, [np.diag([1e308, 0.0])])
        negative = Element(m2, [np.diag([1.0, -1.0])])
        for fn, what in ((canonical_trace, "canonical"), (weighted_trace, "weighted")):
            with pytest.raises(ValidationError,
                               match=rf"^the {what} trace is beyond the binary64 range$"):
                fn(CoreElement(m2, [(big, interval(-2, -1))]))
        # canonical_trace checks each piece before its term, and the sum last.
        for pieces, message in (
                ([(big, interval(-2, -1)), (negative, interval(0, 1))],
                 r"^piece on \[0, 1\) is not positive: block 0 eigenvalue -1\.0$"),
                ([(negative, interval(-1000, -999))],
                 r"^piece on \[-1000, -999\) is not positive"),
                ([(m2.identity(), interval(-1000, 0)), (negative, interval(1, 2))],
                 r"^trace mass of \[-1000, 0\) is beyond the binary64 range$")):
            with pytest.raises(ValidationError, match=message):
                canonical_trace(CoreElement(m2, pieces))
        with pytest.raises(ValidationError, match=r"^trace mass of \[-1000, 0\) is beyond"):
            weighted_trace(CoreElement(m2, [(m2.identity(), interval(-1000, 0))]))

    def test_overlap_rejected(self, m2, rng):
        x = rand_element(rng, m2)
        with pytest.raises(ValidationError, match="overlap"):
            CoreElement(m2, [(x, interval(0, 2)), (x, interval(1, 3))])

    def test_zero_pieces_dropped(self, m2, rng):
        x = rand_element(rng, m2)
        core = CoreElement(m2, [(x, interval(0, 1)), (m2.zero(), interval(2, 3))])
        assert len(core.pieces) == 1

    def test_pieces_in_any_order_give_the_same_element(self, m2, rng):
        pool = [rand_element(rng, m2) for _ in range(2)]
        for _ in range(300):
            x, y = random_layout(rng, m2, pool), random_layout(rng, m2, pool)
            cells = list((x + y).pieces)
            for pieces in (list(x.pieces), cells):
                shuffled = pieces.copy()
                for k in range(len(shuffled) - 1, 0, -1):
                    j = rng.randint(k + 1)
                    shuffled[k], shuffled[j] = shuffled[j], shuffled[k]
                got = [CoreElement(m2, p).pieces for p in (pieces, shuffled)]
                assert len(got[0]) == len(got[1]) == len(pieces)
                assert all(p is q is r and u is v is w
                           for (p, u), (q, v), (r, w) in zip(pieces, *got))
        x = pool[0]
        for pieces, text in (([(x, interval(0, 2)), (x, interval(1, 3))],
                              "intervals [0, 2) and [1, 3) overlap"),
                             ([(x, interval(0, "inf")), (x, interval(1, 2))],
                              "intervals [0, inf) and [1, 2) overlap")):
            for order in (pieces, pieces[::-1]):
                with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
                    CoreElement(m2, order)


def random_layout(rng, algebra, pool):
    """A step element on the grid 0, 1/2, ..., 4: each cell of the grid is a gap or
    holds a piece drawn from ``pool``, so pieces abut, endpoints recur across
    draws and one Element can sit on adjacent cells; the last piece is made
    unbounded at random."""
    pieces = [(pool[rng.randint(len(pool))], interval(Fraction(k, 2), Fraction(k + 1, 2)))
              for k in range(8) if rng.randint(3) == 0]
    if pieces and rng.randint(3) == 0:
        pieces[-1] = (pieces[-1][0], Interval(pieces[-1][1].a, None))
    return CoreElement(algebra, pieces)


def reference_cells(x, y):
    """The common refinement the slow way: the sorted set of cut points, then
    the piece of each operand at each point, found by a search."""
    cuts = sorted({p for e in (x, y) for _, iv in e.pieces for p in (iv.a, iv.b)
                   if p is not None})
    unbounded = any(iv.b is None for e in (x, y) for _, iv in e.pieces)
    ends = cuts[1:] + [None] if unbounded else cuts[1:]

    def piece_at(e, p):
        return next((q for q, iv in e.pieces if iv.a <= p and (iv.b is None or p < iv.b)), None)

    cells = [(a, b, piece_at(x, a), piece_at(y, a)) for a, b in zip(cuts, ends)]
    return [c for c in cells if c[2] is not None or c[3] is not None]


class TestArithmetic:
    def test_single_cell_product(self, m2, rng):
        x, y = rand_element(rng, m2), rand_element(rng, m2)
        cx = CoreElement(m2, [(x, interval(0, 1))])
        cy = CoreElement(m2, [(y, interval(0, 1))])
        prod = cx * cy
        assert len(prod.pieces) == 1
        assert prod.pieces[0][0].allclose(x * y, 1e-12)

    def test_disjoint_supports_vanish(self, m2, rng):
        x, y = rand_element(rng, m2), rand_element(rng, m2)
        cx = CoreElement(m2, [(x, interval(0, 1))])
        cy = CoreElement(m2, [(y, interval(1, 2))])
        assert (cx * cy).is_zero()

    def test_merge_walk_matches_the_reference_refinement(self, m2, rng, count_calls):
        pool = [rand_element(rng, m2) for _ in range(2)]
        calls = {op: count_calls(getattr(Element, f"__{op.__name__}__"))
                 for op in (operator.add, operator.sub, operator.mul)}
        negated = count_calls(Element.__neg__)
        features = dict.fromkeys(("abut", "shared", "x_unbounded", "y_unbounded",
                                  "both_unbounded", "empty", "adjacent_same", "x_alone",
                                  "y_alone"), 0)
        zero = m2.zero()
        for _ in range(300):
            x, y = random_layout(rng, m2, pool), random_layout(rng, m2, pool)
            ends = [{p for _, iv in e.pieces for p in (iv.a, iv.b) if p is not None}
                    for e in (x, y)]
            inf = [any(iv.b is None for _, iv in e.pieces) for e in (x, y)]
            adjacent = [(p, q) for e in (x, y) for (p, u), (q, v) in zip(e.pieces, e.pieces[1:])
                        if u.b == v.a]
            reference = reference_cells(x, y)
            features["abut"] += bool(adjacent)
            features["shared"] += bool(ends[0] & ends[1])
            features["x_unbounded"] += inf[0] and not inf[1]
            features["y_unbounded"] += inf[1] and not inf[0]
            features["both_unbounded"] += inf[0] and inf[1]
            features["empty"] += x.is_zero() or y.is_zero()
            features["adjacent_same"] += any(p is q for p, q in adjacent)
            features["x_alone"] += any(yb is None for _, _, _, yb in reference)
            features["y_alone"] += any(xa is None for _, _, xa, _ in reference)
            for op, cells in calls.items():
                want = [c for c in reference
                        if op is not operator.mul or (c[2] is not None and c[3] is not None)]
                pairs = list(dict.fromkeys((xa, yb) for _, _, xa, yb in want))
                both = [(xa, yb) for xa, yb in pairs if xa is not None and yb is not None]
                cells.clear()
                negated.clear()
                out = op(x, y).pieces
                # op ran once per distinct pair where both operands have a piece,
                # on the operands' own pieces; -y once per distinct lone piece of y
                assert len(cells) == len(both)
                for got, pair in zip(cells, both):
                    assert all(g is w for g, w in zip(got, pair))
                lone_y = [yb for xa, yb in pairs if xa is None]
                assert [g for g, in negated] == (lone_y if op is operator.sub else [])
                value = {(xa, yb): op(zero if xa is None else xa, zero if yb is None else yb)
                         for xa, yb in pairs}
                want = [(a, b, (xa, yb)) for a, b, xa, yb in want if not value[xa, yb].is_zero()]
                assert [(iv.a, iv.b) for _, iv in out] == [(a, b) for a, b, _ in want]
                shared = {}
                for (piece, _), (_, _, (xa, yb)) in zip(out, want):
                    # a lone piece of x in x + y or x - y, or of y in x + y, is
                    # that piece itself, and one of y in x - y is -y; each equals
                    # the old zero-filled value but for the sign of an exact zero
                    # (-0.0 + 0.0 is +0.0, -(+0.0) is -0.0), which np.array_equal
                    # ignores
                    lone = xa if yb is None else yb if xa is None and op is operator.add else None
                    if lone is not None:
                        assert piece is lone
                    expected = value[xa, yb].blocks
                    assert all(np.array_equal(u, v) for u, v in zip(piece.blocks, expected))
                    assert shared.setdefault((xa, yb) if lone is None else lone, piece) is piece
                assert len({id(piece) for piece, _ in out}) == len(shared)
        assert all(features.values()), features

    def test_product_works_only_on_the_overlap(self, m2, rng, count_calls):
        pool = [rand_element(rng, m2) for _ in range(3)]
        built = count_calls(Element.__init__)
        products = count_calls(Element.__mul__)
        x = CoreElement(m2, [(pool[0], interval(0, 1)), (pool[1], interval(2, "inf"))])
        y = CoreElement(m2, [(pool[2], interval(-1, 0)), (pool[0], interval(1, 2))])
        assert (x * y).is_zero() and (y * x).is_zero()
        assert not built and not products
        for _ in range(100):
            x, y = random_layout(rng, m2, pool), random_layout(rng, m2, pool)
            overlapping = {(xa, yb) for _, _, xa, yb in reference_cells(x, y)
                           if xa is not None and yb is not None}
            products.clear()
            x * y
            assert len(products) == len(overlapping)

    def test_refinement_associativity(self, m2m3, rng):
        for _ in range(10):
            a = rand_core_element(rng, m2m3, pieces=3)
            b = rand_core_element(rng, m2m3, pieces=3)
            c = rand_core_element(rng, m2m3, pieces=3)
            diff = (a * b) * c - a * (b * c)
            dev = max((p.frobenius_norm() for p, _ in diff.pieces), default=0.0)
            assert dev <= 1e-12

    def test_adjoint_and_absolute(self, m2, rng):
        cx = rand_core_element(rng, m2, pieces=2)
        adj = cx.adjoint()
        for (p, iv), (q, jv) in zip(cx.pieces, adj.pieces):
            assert q.allclose(p.adjoint(), 1e-13)
            assert iv == jv
        ab = cx.absolute()
        for p, _ in ab.pieces:
            assert p.is_hermitian()


class TestCanonicalTrace:
    def test_rank_one_projection_full_halfline(self, m2):
        p = Element(m2, [np.diag([1.0, 0.0])])
        assert canonical_trace(CoreElement(m2, [(p, interval(0, "inf"))])) == 1.0

    def test_identity_up_to_log2(self, m2):
        core = CoreElement(m2, [(m2.identity(), interval(0, math.log(2.0)))])
        assert canonical_trace(core) == pytest.approx(1.0, rel=1e-12)

    def test_zero(self, m2):
        assert canonical_trace(CoreElement(m2, [])) == 0.0

    def test_non_positive_rejected(self, m2):
        bad = CoreElement(m2, [(Element(m2, [np.diag([-1.0, 1.0])]), interval(0, 1))])
        with pytest.raises(ValidationError, match="positive"):
            canonical_trace(bad)

    def test_rejection_names_block_and_eigenvalue(self, m2m3):
        piece = Element(m2m3, [np.eye(2), np.diag([1.0, 0.5, -0.25])])
        with pytest.raises(ValidationError, match=r"not positive: block 1 eigenvalue -0\.25$"):
            canonical_trace(CoreElement(m2m3, [(piece, interval(0, 1))]))

    def test_positive_pieces_skip_the_eigensolver(self, count_calls):
        # The pieces of z* z are certified positive by a Cholesky factorisation.
        alg = make_algebra([6, 2], [1.0, 0.5])
        rng = SplitMix64(8)
        z = CoreElement(alg, [(rand_element(rng, alg), interval(k, k + 1)) for k in range(8)])
        zz = z.adjoint() * z
        calls = count_calls(_linalg.hermitian_eigh)
        total = canonical_trace(zz)
        assert calls == [] and len(zz.pieces) == 8
        assert total == pytest.approx(weighted_trace(zz).real, rel=1e-15, abs=0)

    def test_faithful_on_step_class(self, m2m3, rng):
        x = rand_core_element(rng, m2m3, pieces=2, positive=True)
        if not x.is_zero():
            assert canonical_trace(x) > 0.0

    def test_traciality(self, m2m3, rng):
        for _ in range(10):
            x = rand_core_element(rng, m2m3, pieces=2)
            y = rand_core_element(rng, m2m3, pieces=2)
            lhs, rhs = weighted_trace(x * y), weighted_trace(y * x)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


class TestDualAction:
    def test_identity_shift(self, m2m3, rng):
        x = rand_core_element(rng, m2m3, pieces=3)
        moved = dual_action(0, x)
        assert all(u.a == v.a and u.b == v.b
                   for (_, u), (_, v) in zip(moved.pieces, x.pieces))

    def test_scaling_law_handworked(self, m2):
        p = Element(m2, [np.diag([1.0, 0.0])])
        core = CoreElement(m2, [(p, interval(0, "inf"))])
        assert canonical_trace(dual_action(math.log(2.0), core)) == pytest.approx(0.5, rel=1e-14)

    def test_scaling_law_random(self, m2m3, rng):
        worst = 0.0
        for _ in range(20):
            x = rand_core_element(rng, m2m3, pieces=3, positive=True)
            base = canonical_trace(x)
            for s in (math.log(2.0), -math.log(2.0), 1.0, -1.0, 3.0):
                lhs = canonical_trace(dual_action(s, x))
                rhs = math.exp(-s) * base
                worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        assert worst <= 1e-14

    def test_group_law_exact(self, m2m3, rng):
        x = rand_core_element(rng, m2m3, pieces=3)
        back = dual_action(-math.pi, dual_action(math.pi, x))
        assert back.pieces == x.pieces  # the same pieces, on exact Fraction endpoints

    @pytest.mark.parametrize("shift", [-math.pi, 0])
    def test_suite_group_law_case_sees_changed_pieces(self, monkeypatch, shift):
        # A shift that loses the last piece (round trip) or copies every piece
        # (identity) keeps every endpoint it returns, yet the case must fail.
        from ncorlicz import suite
        exact = suite.dual_action

        def faulty(s, x):
            y = exact(s, x)
            if s != shift:
                return y
            if shift:
                return CoreElement(y.algebra, y.pieces[:-1])
            return y.map_pieces(lambda p: Element(p.algebra, p.blocks))

        monkeypatch.setattr(suite, "dual_action", faulty)
        assert suite.case_core_group_law_exact(SplitMix64(0), 30)[0] is False

    def test_modular_rescaling_identity(self, m2m3, rng):
        phi = PowerFunction(2)
        x = rand_core_element(rng, m2m3, pieces=2, positive=True)
        if x.is_zero():
            return
        for s in (0.5, -1.25, math.log(2.0)):
            shifted = dual_action(s, x)
            for lam in (0.5, 1.0, 3.0):
                lhs = core_modular_value(phi, shifted, lam)
                rhs = math.exp(-s) * core_modular_value(phi, x, lam)
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCoreRearrangement:
    def test_embedding_keeps_the_distribution(self, m2m3):
        # [0, inf) has trace mass exactly 1, and a merge of merged steps keeps them.
        # Values 4e-10 apart stay two steps; an exact tie across blocks is one.
        rng = SplitMix64(27)
        xs = [rand_element(rng, m2m3) for _ in range(199)]
        close = Element(m2m3, [np.diag([2.0, 1.0]), np.diag([2.0 + 4e-10, 0.5, 0.0])])
        assert rearrangement(close).values.tolist() == [2.0 + 4e-10, 2.0, 1.0, 0.5]
        tied = Element(m2m3, [np.diag([2.0, 1.0]), np.diag([2.0, 0.5, 0.0])])
        assert [(s.value, s.length) for s in rearrangement(tied).steps] == [
            (2.0, 1.5), (1.0, 1.0), (0.5, 0.5)]
        for x in xs + [close, tied]:
            mu, core = rearrangement(x), core_rearrangement(embed(x))
            assert core.values.tolist() == mu.values.tolist()
            assert core.measures.tolist() == mu.measures.tolist()

    @pytest.mark.parametrize("s", [Fraction(-7, 2), Fraction(1, 3), 5, 600])
    def test_shift_scales_every_measure(self, m2m3, s):
        # theta_s moves every interval by s, so each measure takes the factor
        # e^-s and no value moves; the sums share pieces across cells.
        rng, scale = SplitMix64(28), math.exp(-s)
        for _ in range(10):
            x = rand_core_element(rng, m2m3, pieces=4)
            for z in (x, x + dual_action(Fraction(3, 8), x)):
                mu, shifted = core_rearrangement(z), core_rearrangement(dual_action(s, z))
                assert shifted.values.tolist() == mu.values.tolist()
                assert shifted.measures == pytest.approx(
                    scale * mu.measures, rel=4 * sys.float_info.epsilon, abs=0)

    @pytest.mark.parametrize("a, b", [(2, 3), (Fraction(1, 3), Fraction(5, 2)), (-7, 40)])
    def test_identity_like_pieces_merge_as_blocks(self, a, b):
        # One merge of all blocks' (v, c_i w) pairs: a value repeated across
        # blocks takes sum_i c_i w, within a few ulp of (sum_i c_i) w, the
        # measure of the piece's own step scaled by w; no value moves.
        rng, alg, iv = SplitMix64(30), make_algebra([2, 3, 1], [0.7, 1.3, 0.45]), interval(a, b)
        w = iv.weight()
        for k in range(200):
            s, t = (1.0 + 9.0 * rng.uniform() for _ in range(2))
            diag = [[s, s], [s, t, s], [t]] if k % 2 else [[s, -s], [s, s, -s], [s]]
            x = Element(alg, [np.diag(d).astype(complex) for d in diag])
            mu, core = rearrangement(x), core_rearrangement(CoreElement(alg, [(x, iv)]))
            assert core.values.tolist() == mu.values.tolist()
            assert core.measures == pytest.approx(
                w * mu.measures, rel=4 * sys.float_info.epsilon, abs=0)

    def test_one_merge_and_no_piece_distribution_per_core_norm(self, m2m3, count_calls):
        x = rand_core_element(SplitMix64(31), m2m3, pieces=4)
        merges, memos = count_calls(merged_steps), count_calls(rearrangement)
        core_luxemburg_report(PowerFunction(2.0), x)
        core_modular_value(CoshMinusOne(), x, 1.0)
        assert len(merges) == 2 and memos == []
        assert all(piece._singular is None for piece, _ in x.pieces)

    def test_a_piece_on_two_intervals_is_evaluated_once(self, m2m3, count_calls):
        rng = SplitMix64(29)
        p, q = rand_element(rng, m2m3), rand_element(rng, m2m3)
        x = CoreElement(m2m3, [(p, interval(0, 1)), (q, interval(1, 2)), (p, interval(3, 4))])
        calls = count_calls(OrliczFunction.eval_array)
        core_luxemburg_report(PowerFunction(2.0), x)
        core_modular_value(CoshMinusOne(), x, 1.0)
        assert len(calls) > 2
        assert [len(args[1]) for args in calls] == [10] * len(calls)


class TestCoreNorm:
    def test_identity_block_sqrt2(self, m2):
        got = core_luxemburg_norm(PowerFunction(2), embed(m2.identity()))
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_zero(self, m2):
        assert core_luxemburg_norm(PowerFunction(2), CoreElement(m2, [])) == 0.0

    def test_far_right_piece(self, m2):
        # Mass e^-700 (1 - e^-1) per unit of trace: the norm is about e^-350.
        one = m2.identity()
        with localcontext() as ctx:
            ctx.prec = 40
            piece = float((2 * ((-Decimal(700)).exp() - (-Decimal(701)).exp())).sqrt())
            tail = float((2 * (-Decimal(700)).exp()).sqrt())
        got = core_luxemburg_norm(PowerFunction(2), CoreElement(m2, [(one, interval(700, 701))]))
        assert got == pytest.approx(piece, rel=2e-12, abs=0)
        assert core_luxemburg_norm(PowerFunction(2), dual_action(700, embed(one))) == \
            pytest.approx(tail, rel=2e-12, abs=0)

    def test_embedding_matches_base_norm(self, m2):
        x = Element(m2, [np.diag([3.0, 4.0])])
        assert core_luxemburg_norm(PowerFunction(2), embed(x)) == pytest.approx(5.0, rel=1e-11)

    def test_embedding_isometry_random(self, m2m3, rng):
        for _ in range(50):
            x = rand_element(rng, m2m3)
            for name, phi in registry().items():
                nb = luxemburg_norm(phi, x)
                nc = core_luxemburg_norm(phi, embed(x))
                assert abs(nb - nc) <= 1e-10 * max(nb, nc, 1e-300), name

    def test_embedding_isometry_cosh(self, m2m3, rng):
        phi = CoshMinusOne()
        for _ in range(50):
            x = rand_element(rng, m2m3)
            nb = luxemburg_norm(phi, x)
            nc = core_luxemburg_norm(phi, embed(x))
            assert abs(nb - nc) <= 1e-10 * max(nb, nc, 1e-300)

    def test_each_distinct_value_is_factored_once(self, m2m3, rng, count_calls):
        # The piece b*c on [4, 5) of x*y splits the shifted piece a on [3, 6) of
        # dual_action(3, x), so the cells [3, 4) and [5, 6) of z both hold 0 + a.
        a, b, c = (rand_element(rng, m2m3) for _ in range(3))
        x = CoreElement(m2m3, [(a, interval(0, 3)), (b, interval(4, 5))])
        y = CoreElement(m2m3, [(c, interval(4, 5))])
        z = x * y + dual_action(3, x)
        zero = m2m3.zero()
        cells = [interval(3, 4), interval(4, 5), interval(5, 6), interval(7, 8)]
        want = CoreElement(m2m3, list(zip([zero + a, b * c + a, zero + a, zero + b], cells)))
        assert [iv for _, iv in z.pieces] == cells
        assert z.pieces[0][0] is z.pieces[2][0]
        iso = rand_isomorphism(rng, m2m3)
        lifted = iso.lift(z)
        assert lifted.pieces[0][0] is lifted.pieces[2][0]
        lifted_want = CoreElement(m2m3, [(iso.apply(p), iv) for p, iv in want.pieces])
        for got, ref in ((z, want), (lifted, lifted_want)):
            for (p, iv), (q, jv) in zip(got.pieces, ref.pieces, strict=True):
                assert iv == jv
                assert all(np.array_equal(u, v) for u, v in zip(p.blocks, q.blocks))
        calls = count_calls(_linalg.singular_values)
        norms = [core_luxemburg_norm(phi, e) for phi in registry().values() for e in (z, lifted)]
        assert len(calls) == 2 * 3 * m2m3.nblocks
        assert norms == [core_luxemburg_norm(phi, e) for phi in registry().values()
                         for e in (want, lifted_want)]

    def test_stacked_factoring_above_the_crossover(self, factored_blocks):
        # 12 pieces over [6, 2] with 10 distinct values: both groups of 10
        # blocks are large enough for the stack kernel.
        alg = make_algebra([6, 2], [1.0, 0.5])
        rng = SplitMix64(12)
        values = [rand_element(rng, alg) for _ in range(10)]
        pieces = values + values[3:5]
        x = CoreElement(alg, [(p, interval(Fraction(k, 2), Fraction(k + 1, 2)))
                              for k, p in enumerate(pieces)])
        # A root-find stopped at tol = 1e-12 may move by 5e-13 when its data
        # moves by an ulp, so both sides solve to 1e-15.
        norms = [core_luxemburg_norm(phi, x, tol=1e-15) for phi in registry().values()]
        got = factored_blocks()
        assert [kernel for kernel, _ in got] == ["stack"] * 20
        distinct = [b for p in values for b in p.blocks]
        assert sorted(b.tobytes() for _, b in got) == sorted(b.tobytes() for b in distinct)
        # Per piece and by the scalar kernel alone: fresh single Elements,
        # merged by the routine that merges the core's pieces.
        ref = RearrangementFunction(merged_steps(
            [(v, m * iv.weight()) for p, iv in x.pieces
             for v, m in singular_value_measures(Element(alg, p.blocks))]))
        assert len(factored_blocks()) == 20 + 12 * alg.nblocks
        assert core_rearrangement(x).matches(ref)
        for phi, norm in zip(registry().values(), norms):
            want = ref.luxemburg(phi, 1e-15).norm
            assert norm == pytest.approx(want, rel=1e-13, abs=0)

    def test_positivity_checked_once_per_distinct_piece(self, count_calls):
        alg = make_algebra([6, 2], [1.0, 0.5])
        rng = SplitMix64(9)
        p, q = (rand_element(rng, alg) for _ in range(2))
        pp, qq = p.adjoint() * p, q.adjoint() * q
        x = CoreElement(alg, [(pp, interval(0, 1)), (qq, interval(1, 2)), (pp, interval(3, 4))])
        calls = count_calls(_linalg.certifies_positive)
        assert canonical_trace(x) == pytest.approx(weighted_trace(x).real, rel=1e-15, abs=0)
        # One kernel call per block size, over the blocks of the distinct pieces.
        assert sorted(args[0].shape for args in calls) == [(2, 2, 2), (2, 6, 6)]
        assert sum(len(args[0]) for args in calls) == 2 * alg.nblocks
        bad = Element(alg, [np.eye(6), np.diag([1.0, -1.0])])
        y = CoreElement(alg, [(pp, interval(0, 1)), (bad, interval(1, 2)), (pp, interval(2, 3)),
                              (bad, interval(3, 4))])
        with pytest.raises(ValidationError, match=r"^piece on \[1, 2\) is not positive"):
            canonical_trace(y)

    def test_first_failing_piece_after_certified_ones_is_named(self, count_calls):
        alg = make_algebra([6, 2], [1.0, 0.5])
        rng = SplitMix64(10)
        good = [p.adjoint() * p for p in (rand_element(rng, alg) for _ in range(3))]
        g = rand_element(rng, alg).blocks
        skew = [b - b.conj().T for b in rand_element(rng, alg).blocks]
        rel = 1.1 * HERMITIAN_RTOL  # ||x - x*|| = rel ||x|| for x = h + t s
        h = [b @ b.conj().T for b in g]
        t = rel * math.hypot(*map(np.linalg.norm, h)) / (
            math.hypot(*map(np.linalg.norm, skew)) * math.sqrt(4.0 - rel * rel))
        skewed = Element(alg, [a + t * b for a, b in zip(h, skew)])
        negative = Element(alg, [np.eye(6), np.diag([1.0, -1.0])])
        # Positive, with its smallest eigenvalue at -0.9 POSITIVITY_RTOL of the
        # largest: the certificate covers about -0.4 POSITIVITY_RTOL here, so
        # the piece is checked alone and its eigenvalues accept it.
        u = rand_unitary_matrix(rng, 6)
        b = (u * [1.0, 0.1, 0.1, 0.1, 0.1, -0.9 * POSITIVITY_RTOL]) @ u.conj().T
        edge_blocks = [(b + b.conj().T) / 2, np.eye(2)]
        assert not certified_positive([Element(alg, edge_blocks)])[0]
        cases = [(skewed, 6, r"^piece on \[3, 4\) is not Hermitian$"),
                 (negative, 5, r"^piece on \[3, 4\) is not positive: block 1 eigenvalue -1\.0$")]
        for bad, distinct, message in cases:
            edge = Element(alg, edge_blocks)  # fresh: no eigen data stored yet
            pieces = [(good[0], interval(0, 1)), (edge, interval(1, 2)),
                      (good[1], interval(2, 3)), (bad, interval(3, 4)),
                      (good[2], interval(4, 5)), (negative, interval(6, 7))]
            calls = count_calls(_linalg.certifies_positive)
            with pytest.raises(ValidationError, match=message):
                canonical_trace(CoreElement(alg, pieces))
            # The distinct pieces in one call per block size, and no other: the
            # uncertified ones are checked alone by their eigenvalues.
            assert [args[0].shape for args in calls[:2]] == [(distinct, 6, 6), (distinct, 2, 2)]
            assert len(calls) == 2
        edge = Element(alg, edge_blocks)
        assert canonical_trace(CoreElement(alg, [(good[0], interval(0, 1)),
                                                 (edge, interval(1, 2))])) > 0.0
        assert edge._eigh is not None  # checked alone, by its eigenvalues

    def test_report_shape(self, m2m3, rng):
        x = rand_core_element(rng, m2m3, pieces=2)
        rep = core_luxemburg_report(JumpFunction(1.0), x)
        assert rep.modular_at_norm <= 1.0
        # membership on the step class with finite-valued families always holds
        assert core_modular_value(CoshMinusOne(), x, 1e9) < math.inf
