import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncorlicz import (CoshMinusOne, ExpMinusOne, JumpFunction, PowerFunction,
                      TabulatedFunction, ValidationError, check_delta2, check_n_function,
                      midpoint_convexity_gap, numeric_conjugate_value, registry,
                      young_conjugate)

INF = math.inf


def test_eval_examples():
    assert PowerFunction(2)(3) == 9
    linf = JumpFunction(1.0)
    assert linf(0.5) == 0.0
    assert linf(1.0) == 0.0  # left-continuous at the jump
    assert linf(2.0) == INF
    assert CoshMinusOne()(0) == 0.0


@pytest.mark.parametrize("t", [1e-150, 1e-10, 1e-5, 0.5, 20.0, 700.0])
def test_cosh1_keeps_relative_accuracy(t):
    # cosh(t) - 1 = 2 sinh(t/2)^2 = t^2/2 (1 + t^2/12 + ...): no cancellation near 0.
    want = t * t / 2 * (1 + t * t / 12) if t < 1e-4 else math.cosh(t) - 1.0
    assert CoshMinusOne()(t) == pytest.approx(want, rel=1e-14, abs=0)
    assert CoshMinusOne().eval_array(np.array([t]))[0] == pytest.approx(want, rel=1e-14, abs=0)


def test_cosh1_overflows_quietly_to_inf():
    # The test configuration turns an overflow warning into an error.
    top = math.log(np.finfo(float).max)
    with np.errstate(over="raise"):
        assert CoshMinusOne().eval_array(np.array([top]))[0] == pytest.approx(
            math.cosh(top), rel=1e-12)
    assert list(CoshMinusOne().eval_array(np.array([711.0, 1e6]))) == [INF, INF]
    assert CoshMinusOne()(709.78) == pytest.approx(math.cosh(709.78), rel=1e-12)
    assert CoshMinusOne()(1e6) == INF


@pytest.mark.parametrize("t", [1e-150, 1e-9, 1e-5, 0.5, 20.0, 1e6])
def test_cosh1_dual_keeps_relative_accuracy(t):
    # s asinh(s) - sqrt(1 + s^2) + 1 = s^2/2 (1 - s^2/12 + ...): the direct form
    # cancels to exactly 0 below s ~ 1e-8.
    want = t * t / 2 * (1 - t * t / 12) if t < 1e-4 else \
        t * math.asinh(t) - math.hypot(1.0, t) + 1.0
    dual = young_conjugate(CoshMinusOne())
    assert dual(t) == pytest.approx(want, rel=1e-14, abs=0)
    assert dual.eval_array(np.array([t]))[0] == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("phi, edge", [
    (PowerFunction(2), math.sqrt(np.finfo(float).max)),
    (PowerFunction(1.5), np.finfo(float).max ** (1 / 1.5)),
    (PowerFunction(3, coef=2.0), (np.finfo(float).max / 2) ** (1 / 3)),
    (CoshMinusOne(), math.log(np.finfo(float).max) + math.log(2.0)),
    (ExpMinusOne(), math.log(np.finfo(float).max)),
])
def test_scalar_and_array_agree_across_overflow(phi, edge):
    # 401 points 2^-50 apart (relative) around the first t with an infinite
    # value: the scalar route neither raises nor turns to inf early or late.
    grid = np.array([edge * (1 + k * 2.0 ** -50) for k in range(-200, 201)])
    arr = phi.eval_array(grid)
    assert np.array_equal(arr, [phi(float(t)) for t in grid])
    assert 0 < int(np.isinf(arr).sum()) < grid.size


@pytest.mark.parametrize("phi, t", [
    (PowerFunction(2, coef=1e-10), 1e155),
    (young_conjugate(PowerFunction(1.5)), 6e102),  # 4/27 * t^3
    (young_conjugate(PowerFunction(1.01)), 1150.0),  # about 3.7e-3 * t^101
])
def test_power_is_finite_where_only_t_to_the_p_overflows(phi, t):
    with pytest.raises(OverflowError):
        t ** phi.p
    with localcontext() as ctx:
        ctx.prec = 40
        want = float((Decimal(phi.coef).ln() + Decimal(phi.p) * Decimal(t).ln()).exp())
    assert want < np.finfo(float).max
    assert phi(t) == pytest.approx(want, rel=1e-12, abs=0)
    assert phi.eval_array(np.array([0.5, t]))[1] == phi(t)
    assert phi(1e10 * t) == INF and phi.eval_array(np.array([1e10 * t]))[0] == INF


def test_eval_rejects_negative():
    with pytest.raises(ValidationError):
        PowerFunction(2)(-1.0)
    with pytest.raises(ValidationError):
        PowerFunction(2)(math.nan)


def test_eval_array_matches_scalar():
    # One Phi per family: the array route returns the scalar values bit for
    # bit (inf where the scalar is inf), so a norm and the references and
    # suite cases that call phi(t) evaluate the same function.
    grid = np.concatenate([np.linspace(0.0, 5.0, 1000), np.geomspace(1e-300, 1e300, 1000)])
    table = TabulatedFunction([(0, 0), (1, 0.5), (2, 2), (4, 7)])
    phis = list(registry().values())
    phis += [young_conjugate(phi) for phi in phis]
    phis += [ExpMinusOne(), young_conjugate(ExpMinusOne()), table]
    for phi in phis:
        arr = phi.eval_array(grid)
        assert arr.shape == grid.shape and arr.dtype == np.float64
        assert np.array_equal(arr, [phi(t) for t in grid.tolist()]), phi.label()
    assert np.array_equal(table.eval_array(grid.reshape(40, 50)),
                          table.eval_array(grid).reshape(40, 50))


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, INF, -INF])
def test_eval_array_rejects_invalid_entries(bad):
    for phi in registry().values():
        with pytest.raises(ValidationError):
            phi.eval_array(np.array([0.5, bad, 2.0]))


def test_eval_array_accepts_negative_zero():
    for phi in registry().values():
        out = phi.eval_array(np.array([-0.0, 1.0]))
        assert out[0] == phi(0.0) and out[1] == phi(1.0), phi.label()


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
def test_eval_array_keeps_empty_shapes(shape):
    for phi in registry().values():
        out = phi.eval_array(np.zeros(shape))
        assert out.shape == shape and out.dtype == np.float64


def test_eval_array_keeps_two_dimensional_shape():
    grid = np.array([[0.5, 1.0, 0.0], [2.0, 1e-300, 3.5]])
    for phi in registry().values():
        out = phi.eval_array(grid)
        assert out.shape == grid.shape
        assert np.array_equal(out, [[phi(t) for t in row] for row in grid.tolist()])


@pytest.mark.parametrize("bad", [math.nan, INF, -1.0])
def test_eval_array_rejects_invalid_entries_in_two_dimensions(bad):
    grid = np.array([[0.5, 1.0], [2.0, bad]])
    for phi in registry().values():
        with pytest.raises(ValidationError, match="finite nonnegative"):
            phi.eval_array(grid)


def test_conjugate_closed_forms():
    # t^2/2 is self-conjugate
    half = PowerFunction(2, coef=0.5)
    conj = young_conjugate(half)
    for s in (0.3, 1.0, 4.2):
        assert conj(s) == pytest.approx(s * s / 2, rel=1e-12)
    # sup over x in [0, 1] of xs is s
    ident = young_conjugate(JumpFunction(1.0))
    assert ident(2.5) == pytest.approx(2.5)
    # conjugate of t is the jump at 1 (pointwise sup oracle on a grid)
    jump = young_conjugate(PowerFunction(1))
    xs = np.linspace(0, 50, 2001)
    for s, expect_inf in ((0.5, False), (1.5, True)):
        oracle = float(np.max(xs * s - xs))
        if expect_inf:
            assert jump(s) == INF and oracle > 10
        else:
            assert jump(s) == pytest.approx(oracle, abs=1e-12) == 0.0


def test_conjugate_of_cosh():
    conj = young_conjugate(CoshMinusOne())
    for s in (0.1, 1.0, 3.7):
        want = s * math.asinh(s) - math.hypot(1.0, s) + 1.0
        assert conj(s) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("phi", [PowerFunction(1.5), PowerFunction(2), PowerFunction(3),
                                 CoshMinusOne(), ExpMinusOne(), JumpFunction(1.0)])
def test_biconjugation(phi):
    bi = young_conjugate(young_conjugate(phi))
    for t in np.geomspace(1e-2, 20, 25):
        ref = phi(float(t))
        got = bi(float(t))
        if ref == INF:
            assert got == INF
        else:
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-12)


def test_numeric_transform_matches_closed_forms():
    for phi in (PowerFunction(2), PowerFunction(3), PowerFunction(2, coef=0.5),
                CoshMinusOne(), ExpMinusOne()):
        conj = young_conjugate(phi)
        for y in np.geomspace(1e-3, 1e3, 30):
            ref = conj(float(y))
            if ref == INF:
                continue
            assert numeric_conjugate_value(phi, float(y)) == pytest.approx(
                ref, rel=1e-8, abs=1e-12), (phi.label(), y)


@settings(max_examples=150, deadline=None)
@given(st.floats(0, 50), st.floats(0, 50))
def test_young_inequality_hypothesis(x, y):
    for phi in (PowerFunction(2), PowerFunction(3), CoshMinusOne(), JumpFunction(1.0)):
        conj = young_conjugate(phi)
        fx, fy = phi(x), conj(y)
        if fx == INF or fy == INF:
            continue
        assert x * y <= fx + fy + 1e-9 * max(1.0, fx, fy)


def test_conjugate_monotone_convex():
    for phi in registry().values():
        conj = young_conjugate(phi)
        pts = np.linspace(0.0, 8.0, 81)
        vals = [conj(float(t)) for t in pts]
        finite = [v for v in vals if v != INF]
        assert all(b >= a - 1e-12 for a, b in zip(finite, finite[1:]))
        for i in range(1, len(pts) - 1):
            if INF not in (vals[i - 1], vals[i], vals[i + 1]):
                assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9


def test_delta2_examples():
    rep = check_delta2(PowerFunction(2), "global")
    assert rep.holds and rep.scan_holds
    assert rep.lam == pytest.approx(4.0, abs=1e-9)
    rep = check_delta2(ExpMinusOne(), "global")
    assert not rep.holds and not rep.scan_holds
    rep = check_delta2(JumpFunction(1.0), "global")
    assert not rep.holds and not rep.scan_holds
    assert rep.witness is not None and 0.5 < rep.witness <= 1.0


@pytest.mark.parametrize("phi,mode,want", [
    (PowerFunction(1), "global", True), (PowerFunction(3), "local", True),
    (CoshMinusOne(), "global", False), (CoshMinusOne(), "local", False),
    (ExpMinusOne(), "local", False), (JumpFunction(1.0), "local", True),
])
def test_delta2_declared_matches_scan(phi, mode, want):
    rep = check_delta2(phi, mode)
    assert rep.holds == want
    assert rep.scan_holds == want
    assert rep.source == "declared"


def test_delta2_numerical_source():
    tab = TabulatedFunction([[0, 0], [1, 1], [2, 4], [4, 16], [8, 64]])
    rep = check_delta2(tab, "global")
    assert rep.source == "numerical"


def test_n_function_examples():
    assert check_n_function(PowerFunction(2)) is True
    assert check_n_function(PowerFunction(1)) is False
    assert check_n_function(CoshMinusOne()) is True
    assert check_n_function(ExpMinusOne()) is False  # f(x)/x -> 1 at 0
    assert check_n_function(JumpFunction(1.0)) is False


def test_tabulated_validation_and_eval():
    tab = TabulatedFunction([[0, 0], [1, 0.5], [2, 2], [3, 4.5]])
    assert tab(1.5) == pytest.approx(1.25)
    assert tab(3.0) == pytest.approx(4.5)
    assert tab(3.0001) == INF
    with pytest.raises(ValidationError, match="convex"):
        TabulatedFunction([[0, 0], [1, 5], [2, 6], [3, 20]])
    with pytest.raises(ValidationError):
        TabulatedFunction([[0, 0], [1, 2], [1, 3]])
    with pytest.raises(ValidationError):
        TabulatedFunction([[0, 1], [1, 2]])
    for points in ([], [[0, 0]], [[-1, 0], [0, 0]]):
        with pytest.raises(ValidationError, match="t > 0"):
            TabulatedFunction(points)


def test_tabulated_conjugate_exact_at_knots():
    tab = TabulatedFunction([[0, 0], [1, 0.5], [2, 2], [3, 4.5]])
    conj = young_conjugate(tab)
    # piecewise-linear conjugate: sup attained at a knot
    for y in (0.2, 1.0, 1.5, 2.4, 10.0):
        oracle = max(t * y - v for t, v in zip(tab.ts, tab.vs))
        assert conj(float(y)) == pytest.approx(max(oracle, 0.0), abs=1e-12)


def test_uniform_convexity_probe():
    pairs = [(0.5, 1.5), (1.0, 3.0), (0.2, 4.0)]
    assert midpoint_convexity_gap(PowerFunction(2), pairs) > 0.0
    assert midpoint_convexity_gap(PowerFunction(1), pairs) == pytest.approx(0.0, abs=1e-15)


def test_flags():
    assert PowerFunction(2).is_orlicz and PowerFunction(2).finite_valued
    linf = JumpFunction(1.0)
    assert linf.is_young and not linf.is_orlicz and not linf.finite_valued
    assert linf.finiteness_bound == 1.0
