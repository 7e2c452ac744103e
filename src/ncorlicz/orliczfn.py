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
    both ``__call__`` and ``eval_array`` evaluate, plus the declared flags:
    ``is_orlicz`` (continuous, positive off 0, divergent), the finiteness
    bound ``x_f`` (inf when finite-valued everywhere), and the declared
    Delta_2 verdicts where the family has a known answer.
    """

    family = "?"
    is_orlicz = True
    is_young = True
    finiteness_bound = INF
    delta2_global: bool | None = None
    delta2_local: bool | None = None

    @property
    def finite_valued(self) -> bool:
        return self.finiteness_bound == INF

    def __call__(self, t) -> float:
        return self._eval(_check_arg(t))

    def eval_array(self, arr: np.ndarray) -> np.ndarray:
        """Phi entrywise, in the shape of ``arr``.

        The entries are checked in one pass over the Python list that feeds
        ``_eval``: ``0 <= t < inf`` rejects negatives, NaN and +-inf and
        accepts -0.0, for which Phi(0) is returned.  A bad entry raises
        ValidationError.
        """
        arr = np.asarray(arr, dtype=np.float64)
        ts = arr.ravel().tolist()
        for t in ts:
            if not 0.0 <= t < INF:
                raise ValidationError("eval_array takes finite nonnegative values")
        return np.array([self._eval(t) for t in ts]).reshape(arr.shape)

    def _eval(self, t: float) -> float:
        raise NotImplementedError

    def conjugate(self) -> "OrliczFunction":
        raise NotImplementedError

    def label(self) -> str:
        return self.family

    def __repr__(self):
        return f"<{type(self).__name__} {self.label()}>"


class PowerFunction(OrliczFunction):
    """a * t^p with a > 0, p >= 1."""

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
        self.delta2_global = True
        self.delta2_local = True
        self.is_orlicz = True

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
    with an infinite jump witness; the local condition holds vacuously for
    any x0 > b because both sides are +inf there and inf <= lambda*inf.
    """

    family = "jump"
    is_orlicz = False
    delta2_global = False
    delta2_local = True

    def __init__(self, bound: float = 1.0):
        bound = float(bound)
        if not (math.isfinite(bound) and bound > 0.0):
            raise ValidationError(f"jump bound must be positive, got {bound!r}")
        self.bound = bound
        self.finiteness_bound = bound

    def _eval(self, t):
        return 0.0 if t <= self.bound else INF

    def conjugate(self):
        return PowerFunction(1.0, coef=self.bound)

    def label(self):
        return "linf" if self.bound == 1.0 else f"jump({self.bound:g})"


class CoshMinusOne(OrliczFunction):
    """cosh(t) - 1, evaluated as 2 sinh(t/2)^2, which keeps its relative
    accuracy where cosh(t) - 1 cancels (to exactly 0 below t ~ 1e-8)."""

    family = "cosh1"
    delta2_global = False
    delta2_local = False

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
    s ~ 1e-8), and this one neither cancels nor forms s^2.
    """

    family = "cosh1-dual"
    delta2_global = True
    delta2_local = True

    def _eval(self, t):
        return t * (math.asinh(t) - t / (1.0 + math.hypot(1.0, t)))

    def conjugate(self):
        return CoshMinusOne()


class ExpMinusOne(OrliczFunction):
    """exp(t) - 1."""

    family = "exp1"
    delta2_global = False
    delta2_local = False

    def _eval(self, t):
        return INF if t > _LOG_DBL_MAX else math.expm1(t)

    def conjugate(self):
        return XLogX()


class XLogX(OrliczFunction):
    """0 on [0, 1], then s*log(s) - s + 1; the conjugate of exp - 1."""

    family = "xlogx"
    is_orlicz = False
    delta2_global = True
    delta2_local = True

    def _eval(self, t):
        return 0.0 if t <= 1.0 else t * math.log(t) - t + 1.0

    def conjugate(self):
        return ExpMinusOne()


class TabulatedFunction(OrliczFunction):
    """Piecewise-linear Young function through knots (t_k, v_k), +inf beyond.

    Knots must start at (0, 0), include one with t > 0, have strictly
    increasing t, nondecreasing v and nondecreasing secant slopes (convexity);
    a convexity violation is rejected with the witness triple.
    """

    family = "table"

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
        self.finiteness_bound = float(ts[-1])
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
    """

    family = "numeric-conjugate"

    def __init__(self, base: OrliczFunction):
        self.base = base
        self.is_orlicz = True

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
# growth diagnostics


@dataclass(frozen=True)
class Delta2Report:
    """Verdict for f(2x) <= lambda f(x) on a geometric scan grid.

    ``source`` says whether the verdict is the family's declared truth or
    purely numerical; ``lam`` is the fitted constant when the scan holds and
    ``witness`` the abscissa of the worst ratio (or of the hard violation).
    """

    mode: str
    holds: bool
    source: str
    scan_holds: bool
    lam: float | None
    witness: float | None


def _delta2_scan(phi: OrliczFunction,
                 xs: np.ndarray) -> tuple[bool, float | None, float | None, bool]:
    """Scan one grid; the extra flag reports whether the verdict is informative.

    Points where f(x) is infinite are vacuous (inf <= lambda*inf) only when
    x genuinely exceeds the finiteness bound; a float overflow inside the
    finite domain cannot certify anything, so a tail made purely of such
    points is flagged uninformative.
    """
    ratios = []
    positions = []
    overflow_skipped = 0
    for x in xs:
        x = float(x)
        f1 = phi(x)
        if f1 == INF:
            if x <= phi.finiteness_bound:
                overflow_skipped += 1
            continue
        f2 = phi(2.0 * x)
        if f2 == INF or (f1 == 0.0 and f2 > 0.0):
            return False, None, x, True
        if f1 == 0.0:
            continue
        ratios.append(f2 / f1)
        positions.append(x)
    if not ratios:
        return True, 0.0, None, overflow_skipped == 0
    arr = np.array(ratios)
    k = int(np.argmax(arr))
    lam, witness = float(arr[k]), positions[k]
    # Divergence heuristic: the worst ratio sits at the top of the grid and
    # dwarfs the mid-grid level.
    mid = float(arr[len(arr) // 2])
    if k >= len(arr) - 2 and mid > 0 and lam > 10.0 * mid:
        return False, lam, witness, True
    return True, lam, witness, True


def check_delta2(phi: OrliczFunction, mode: str = "global") -> Delta2Report:
    """Scan for the doubling condition; declared family verdicts take precedence.

    Global mode scans x in [1e-6, 1e6]; local mode searches for a threshold
    x0 on the same grid such that the tail beyond x0 passes.
    """
    if mode not in ("global", "local"):
        raise ValidationError(f"mode must be 'global' or 'local', got {mode!r}")
    grid = np.geomspace(1e-6, 1e6, 241)
    if mode == "global":
        scan_holds, lam, witness, _ = _delta2_scan(phi, grid)
    else:
        scan_holds, lam, witness = False, None, None
        for start in range(0, len(grid), 20):
            ok, lam0, wit0, informative = _delta2_scan(phi, grid[start:])
            if ok and informative:
                scan_holds, lam, witness = True, lam0, float(grid[start])
                break
            if not ok:
                lam, witness = lam0, wit0
    declared = phi.delta2_global if mode == "global" else phi.delta2_local
    if declared is None:
        return Delta2Report(mode, scan_holds, "numerical", scan_holds, lam, witness)
    return Delta2Report(mode, declared, "declared", scan_holds, lam, witness)


def check_n_function(phi: OrliczFunction) -> bool:
    """Probe f(x)/x -> 0 at 0 and -> inf at infinity with a monotone trend test."""
    if not phi.finite_valued:
        return False
    small = [phi(10.0 ** -k) * 10.0 ** k for k in range(1, 9)]
    for a, b in zip(small, small[1:]):
        if b > a * (1.0 + 1e-9) + 1e-300:
            return False
    if small[-1] > 1e-4:
        return False
    large = [phi(10.0 ** k) / 10.0 ** k for k in range(1, 9)]
    for a, b in zip(large, large[1:]):
        if b < a * (1.0 - 1e-9):
            return False
    return large[-1] > 1e4


def midpoint_convexity_gap(phi: OrliczFunction, pairs) -> float:
    """Smallest midpoint convexity gap over sample pairs, a uniform-convexity probe.

    Returns min over pairs of (f(x)+f(y))/2 - f((x+y)/2), normalized by
    f((x+y)/2) when positive.  Strictly convex families give a positive
    gap; affine stretches give 0.  This probes only the scalar function,
    not the space-level property.
    """
    best = INF
    for x, y in pairs:
        x, y = _check_arg(x), _check_arg(y)
        if x == y:
            continue
        fm = phi(0.5 * (x + y))
        if fm == INF:
            continue
        fx, fy = phi(x), phi(y)
        if fx == INF or fy == INF:
            continue
        gap = 0.5 * (fx + fy) - fm
        best = min(best, gap / fm if fm > 0 else gap)
    return best


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
