"""Scalar Young/Orlicz function calculus.

Families provided: powers a*t^p (covering t^p and t^p/p), the L_inf
Young function (0 up to a jump, +inf beyond, left-continuous at the
jump), cosh(t)-1, exp(t)-1, their closed-form conjugates, and tabulated
piecewise-linear functions.  Values live on the extended half-line;
arithmetic follows inf + a = inf and 0*inf = 0, and comparisons with inf
are total.

Conjugation is Young-Birnbaum-Orlicz: conj(y) = sup_{x>=0} (x y - f(x)).
Closed forms are returned where a family has one; tabulated input goes
through a numerical Legendre-Fenchel transform whose supremum is exact
at the knots of a piecewise-linear function.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

INF = math.inf
_LOG_DBL_MAX = math.log(sys.float_info.max)  # exp(t) is finite exactly for t <= this
_TERNARY_ITERS = 70  # ternary-search steps in a numerical conjugate: (2/3)^70 ~ 5e-13


def _check_arg(t) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValidationError(f"Orlicz functions take finite t >= 0, got {t!r}")
    return t


class OrliczFunction:
    """Base for Young functions on [0, inf) with evaluation and metadata.

    Subclasses fill in ``_eval`` only, the one definition of the function that
    both ``__call__`` and ``eval_array`` evaluate (a list of floats to a list,
    an array to an array of its shape), plus the declared flags:
    ``is_orlicz`` (continuous, positive off 0, divergent), the finiteness
    bound ``x_f`` (inf when finite-valued everywhere), and the verdicts that
    every family declares from its closed form or its knots, never from a
    scan (Rao & Ren, Theory of Orlicz Spaces, 1991, ch. 2): ``delta2_global``
    and ``delta2_local``, ``delta2_witness`` (an x where global Delta_2 fails
    outright, see ``Delta2Report``) and ``n_function``.
    """

    family = "?"
    is_orlicz = True
    is_young = True
    finiteness_bound = INF
    delta2_global: bool
    delta2_local: bool
    delta2_witness: float | None = None
    n_function: bool

    @property
    def finite_valued(self) -> bool:
        return self.finiteness_bound == INF

    def __call__(self, t) -> float:
        return self._eval(_check_arg(t))

    def eval_array(self, arr: list[float] | np.ndarray) -> list[float] | np.ndarray:
        """Phi entrywise: a Python list of floats gives a list of floats, any
        other input an ndarray in the shape of ``arr``.  The root-find's
        modular evaluations pass lists, so they make no ndarray at all.

        The entries are checked in one pass over the Python list that feeds
        ``_eval``: ``0 <= t < inf`` rejects negatives, NaN and +-inf and
        accepts -0.0, for which Phi(0) is returned.  A bad entry raises
        ValidationError.
        """
        if type(arr) is list:
            ts = arr
        else:
            arr = np.asarray(arr, dtype=np.float64)
            ts = arr.ravel().tolist()
        for t in ts:
            if not 0.0 <= t < INF:
                raise ValidationError("eval_array takes finite nonnegative values")
        out = [self._eval(t) for t in ts]
        return out if ts is arr else np.array(out).reshape(arr.shape)

    def _eval(self, t: float) -> float:
        raise NotImplementedError

    def conjugate(self) -> "OrliczFunction":
        raise NotImplementedError

    def label(self) -> str:
        return self.family

    def __repr__(self):
        return f"<{type(self).__name__} {self.label()}>"


class PowerFunction(OrliczFunction):
    """a * t^p with a > 0, p >= 1: Delta_2 with lambda = 2^p, an N-function when p > 1."""

    delta2_global = True
    delta2_local = True

    def __init__(self, p: float, coef: float = 1.0):
        p = float(p)
        coef = float(coef)
        if not (math.isfinite(p) and p >= 1.0):
            raise ValidationError(f"power exponent must satisfy p >= 1, got {p!r}")
        if not (math.isfinite(coef) and coef > 0.0):
            raise ValidationError(f"power coefficient must be positive, got {coef!r}")
        self.p = p
        self.coef = coef
        self.family = "power" if coef == 1.0 else ("scaled-power" if coef == 1.0 / p else "cpower")
        self.n_function = p > 1.0

    def _eval(self, t):
        try:
            return self.coef * t ** self.p
        except OverflowError:
            pass
        # t^p overflows: inf for coef >= 1, otherwise exp(log coef + p log t),
        # which is finite while the product is.
        if self.coef >= 1.0:
            return INF
        try:
            return math.exp(math.log(self.coef) + self.p * math.log(t))
        except OverflowError:
            return INF

    def conjugate(self):
        if self.p == 1.0:
            return JumpFunction(self.coef)
        q = self.p / (self.p - 1.0)
        return PowerFunction(q, coef=(self.coef * self.p) ** (1.0 - q) / q)

    def label(self):
        if self.coef == 1.0:
            return f"power({self.p:g})"
        return f"{self.coef:g}*t^{self.p:g}"


class JumpFunction(OrliczFunction):
    """0 on [0, b], +inf beyond: the Young function whose gauge is b^-1 * sup norm.

    Left-continuous at the jump, so f(b) = 0.  Not an Orlicz function (it
    vanishes off 0 and jumps), but a Young function.  Global Delta_2 fails
    with witness b (f(b) = 0, f(2b) = inf); the local condition holds
    vacuously for any x0 > b because both sides are +inf there and
    inf <= lambda*inf.
    """

    family = "jump"
    is_orlicz = False
    delta2_global = False
    delta2_local = True
    n_function = False

    def __init__(self, bound: float = 1.0):
        bound = float(bound)
        if not (math.isfinite(bound) and bound > 0.0):
            raise ValidationError(f"jump bound must be positive, got {bound!r}")
        self.bound = bound
        self.finiteness_bound = bound
        self.delta2_witness = bound

    def _eval(self, t):
        return 0.0 if t <= self.bound else INF

    def conjugate(self):
        return PowerFunction(1.0, coef=self.bound)

    def label(self):
        return "linf" if self.bound == 1.0 else f"jump({self.bound:g})"


class CoshMinusOne(OrliczFunction):
    """cosh(t) - 1, evaluated as 2 sinh(t/2)^2, which keeps its relative
    accuracy where cosh(t) - 1 cancels (to exactly 0 below t ~ 1e-8).

    An N-function; Delta_2 fails by growth, f(2x)/f(x) ~ e^x.
    """

    family = "cosh1"
    delta2_global = False
    delta2_local = False
    n_function = True

    def _eval(self, t):
        if 0.5 * t > _LOG_DBL_MAX:
            return INF
        s = math.sinh(0.5 * t)
        return 2.0 * s * s

    def conjugate(self):
        return CoshDual()


class CoshDual(OrliczFunction):
    """s*asinh(s) - sqrt(1+s^2) + 1, the conjugate of cosh - 1.

    Evaluated as s (asinh(s) - s / (1 + hypot(1, s))), since sqrt(1+s^2) - 1
    = s^2 / (1 + hypot(1, s)): the direct form cancels (to exactly 0 below
    s ~ 1e-8), and this one neither cancels nor forms s^2.  An N-function
    of growth s log s, so Delta_2 holds.
    """

    family = "cosh1-dual"
    delta2_global = True
    delta2_local = True
    n_function = True

    def _eval(self, t):
        return t * (math.asinh(t) - t / (1.0 + math.hypot(1.0, t)))

    def conjugate(self):
        return CoshMinusOne()


class ExpMinusOne(OrliczFunction):
    """exp(t) - 1: Delta_2 fails by growth; not an N-function, f(t)/t -> 1 at 0."""

    family = "exp1"
    delta2_global = False
    delta2_local = False
    n_function = False

    def _eval(self, t):
        return INF if t > _LOG_DBL_MAX else math.expm1(t)

    def conjugate(self):
        return XLogX()


class XLogX(OrliczFunction):
    """0 on [0, 1], then s*log(s) - s + 1; the conjugate of exp - 1.

    Global Delta_2 fails with witness 1 (f(1) = 0 < f(2)), local Delta_2
    holds (f(2s)/f(s) -> 2), and vanishing on [0, 1] it is no N-function.
    """

    family = "xlogx"
    is_orlicz = False
    delta2_global = False
    delta2_local = True
    delta2_witness = 1.0
    n_function = False

    def _eval(self, t):
        return 0.0 if t <= 1.0 else t * math.log(t) - t + 1.0

    def conjugate(self):
        return ExpMinusOne()


class TabulatedFunction(OrliczFunction):
    """Piecewise-linear Young function through knots (t_k, v_k), +inf beyond.

    Knots must start at (0, 0), include one with t > 0, have strictly
    increasing t, nondecreasing v and nondecreasing secant slopes (convexity);
    a convexity violation is rejected with the witness triple.  Global
    Delta_2 fails with witness x_f (f(2 x_f) = inf), local Delta_2 holds
    vacuously beyond x_f, and being +inf there it is no N-function.
    """

    family = "table"
    delta2_global = False
    delta2_local = True
    n_function = False

    def __init__(self, points):
        pts = [(float(t), float(v)) for t, v in points]
        if any(not (math.isfinite(t) and math.isfinite(v)) for t, v in pts):
            raise ValidationError("table knots must be finite")
        if not any(t > 0.0 for t, _ in pts):
            raise ValidationError("table needs a knot with t > 0")
        if pts[0][0] > 0.0:
            pts.insert(0, (0.0, 0.0))
        if pts[0] != (0.0, 0.0):
            raise ValidationError(f"table must start at (0, 0), got {pts[0]}")
        ts = [t for t, _ in pts]
        vs = [v for _, v in pts]
        for k in range(1, len(ts)):
            if ts[k] <= ts[k - 1]:
                raise ValidationError(f"table abscissae must increase strictly at knot {k}")
            if vs[k] < vs[k - 1]:
                raise ValidationError(f"table values decrease at knot {k}")
        slopes = [(vs[k + 1] - vs[k]) / (ts[k + 1] - ts[k]) for k in range(len(ts) - 1)]
        for k in range(1, len(slopes)):
            if slopes[k] < slopes[k - 1] - 1e-12 * max(abs(slopes[k]), abs(slopes[k - 1]), 1.0):
                raise ValidationError(
                    "table is not convex: witness triple "
                    f"({ts[k - 1]}, {ts[k]}, {ts[k + 1]}) with values "
                    f"({vs[k - 1]}, {vs[k]}, {vs[k + 1]})")
        self.ts = np.array(ts)
        self.vs = np.array(vs)
        self.finiteness_bound = self.delta2_witness = float(ts[-1])
        self.is_orlicz = all(v > 0.0 for v in vs[1:])

    def _eval(self, t):
        if t > self.finiteness_bound:
            return INF
        return float(np.interp(t, self.ts, self.vs))

    def conjugate(self):
        return NumericalConjugate(self)


class NumericalConjugate(OrliczFunction):
    """Legendre-Fenchel transform evaluated numerically on demand.

    The supremum of x*y - f(x) is concave in x; candidates come from the
    base function's knots (exact for piecewise-linear input) or a doubling
    bracket, refined by a fixed-count ternary search.  The convexity
    sandwich bounds the relative error by ~1e-8 on the families used here.

    The flags, finiteness bound and verdicts are those of the function it
    equals.  A table's conjugate is piecewise linear, finite, 0 on [0, s0]
    for the table's first slope s0 and of slope x_f at infinity: it is
    positive off 0 and global Delta_2 holds exactly when s0 = 0, else s0 is
    the witness; local Delta_2 holds, and near 0 it is 0 or of slope t_1 > 0,
    so no N-function.  Any other conjugate is the base's closed-form
    conjugate, and a biconjugate is the base's base.
    """

    family = "numeric-conjugate"

    def __init__(self, base: OrliczFunction):
        self.base = base
        if isinstance(base, TabulatedFunction):
            s0 = float(base.vs[1]) / float(base.ts[1])
            self.is_orlicz = self.delta2_global = s0 == 0.0
            self.delta2_witness = None if s0 == 0.0 else s0
            self.delta2_local, self.n_function = True, False
            return
        same = base.base if isinstance(base, NumericalConjugate) else base.conjugate()
        for name in ("is_orlicz", "finiteness_bound", "delta2_global", "delta2_local",
                     "delta2_witness", "n_function"):
            setattr(self, name, getattr(same, name))

    def _eval(self, y):
        return numeric_conjugate_value(self.base, y)

    def conjugate(self):
        return NumericalConjugate(self)

    def label(self):
        return f"conj[{self.base.label()}]"


def _ternary_max(g, lo: float, hi: float) -> float:
    for _ in range(_TERNARY_ITERS):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) < g(m2):
            lo = m1
        else:
            hi = m2
    mid = 0.5 * (lo + hi)
    return max(g(lo), g(mid), g(hi))


def numeric_conjugate_value(phi: OrliczFunction, y) -> float:
    """sup_{x>=0} (x|y| - phi(x)) by bracketing plus ternary refinement."""
    y = abs(float(y))
    if y == 0.0:
        return 0.0

    def g(x):
        v = phi(x)
        return -INF if v == INF else x * y - v

    if phi.finiteness_bound != INF:
        hi = phi.finiteness_bound
        best = _ternary_max(g, 0.0, hi)
        knots = getattr(phi, "ts", None)
        if knots is not None:
            best = max(best, max(g(float(t)) for t in knots))
        return max(best, g(hi), 0.0)

    # Finite-valued case: grow the bracket until the secant slope beats y.
    hi = 1.0
    for _ in range(260):
        if phi(hi) == INF:
            break
        slope = (phi(hi) - phi(hi / 2.0)) / (hi / 2.0)
        if slope > y:
            break
        hi *= 2.0
    else:
        return INF
    return max(_ternary_max(g, 0.0, hi), 0.0)


def young_conjugate(phi: OrliczFunction) -> OrliczFunction:
    """Young-Birnbaum-Orlicz conjugate, closed-form where the family has one."""
    return phi.conjugate()


# ---------------------------------------------------------------------------
# growth verdicts


@dataclass(frozen=True)
class Delta2Report:
    """The family's declared verdict on f(2x) <= lambda f(x) for every x
    (global) or for every x beyond some x0 (local).

    ``witness`` is a point x where the global condition fails outright: f(x)
    is finite and f(2x) is +inf, or f(x) = 0 < f(2x).  It is None where the
    condition holds, where it fails only by growth, and in local mode.
    """

    mode: str
    holds: bool
    witness: float | None


def check_delta2(phi: OrliczFunction, mode: str = "global") -> Delta2Report:
    """The doubling condition as ``phi`` declares it, with its witness in global mode."""
    if mode == "global":
        return Delta2Report(mode, phi.delta2_global, phi.delta2_witness)
    if mode == "local":
        return Delta2Report(mode, phi.delta2_local, None)
    raise ValidationError(f"mode must be 'global' or 'local', got {mode!r}")


def check_n_function(phi: OrliczFunction) -> bool:
    """Whether ``phi`` is finite, positive off 0, and f(x)/x tends to 0 at 0
    and to inf at infinity, as the family declares."""
    return phi.n_function


# ---------------------------------------------------------------------------
# registry and parsing

_NAMED = {
    "power1": lambda: PowerFunction(1.0),
    "power1.5": lambda: PowerFunction(1.5),
    "power2": lambda: PowerFunction(2.0),
    "power3": lambda: PowerFunction(3.0),
    "cosh1": CoshMinusOne,
    "exp1": ExpMinusOne,
    "linf": lambda: JumpFunction(1.0),
}


def registry() -> dict[str, OrliczFunction]:
    """The Young functions every norm-level property suite runs over."""
    return {name: _NAMED[name]() for name in ("power1", "power2", "power3", "cosh1", "linf")}


def from_name(name: str) -> OrliczFunction:
    """Resolve shorthand names: power<p>, linf, cosh1, exp1."""
    if name in _NAMED:
        return _NAMED[name]()
    if name.startswith("power"):
        try:
            return PowerFunction(float(name[5:]))
        except (ValueError, ValidationError):
            pass
    raise ValidationError(f"unknown Orlicz function name {name!r}")
