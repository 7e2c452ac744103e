"""Orlicz norms over a finite-dimensional trace algebra.

The singular values of an element, weighted by the trace weights of
their blocks, form a decreasing step function, the ``RearrangementFunction``
that ``rearrangement`` stores on the element; every norm and modular value,
here and on the core, is one of its methods.  ``merged_steps`` builds it from
``singular_pairs``, once, over an Element's blocks or a core element's pieces,
as computed: each block keeps its singular values above the kernels' rounding
floor (``_linalg.above_floor``), and only equal values share a step; no
tolerance of the spectral side shapes it.  The distribution identity
tau(f(|x|)) = integral of f along that step function holds exactly for step
data, and ``fk_integral`` checks the singular data it reads against the
eigenvalues of x* x.  The Luxemburg gauge

    ||x||_Phi = inf { lam > 0 : tau(Phi(|x|/lam)) <= 1 }

is found by a safeguarded bracketing root-find on u = log lam for
g(u) = log tau(Phi(|x|/e^u)), which is nonincreasing and, for a power,
linear; it covers the whole binary64 range of lam (see
``_luxemburg_from_measures``).  Every modular value, in the root-find and
out of it, is one step sum sum_j m_j Phi(v_j / lam), with Phi evaluated on
a list of Python floats and the terms added in step order (``_step_sum``), so
no norm or modular value depends on the BLAS build.  In finite dimension the
bounded-times-trace-class machinery collapses: every element is measurable,
N itself is the whole space, and the closure E_Phi of N intersect L_Phi
equals L_Phi as a set; see ``e_space_gauge``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import _linalg
from .algebra import Element, block_eigh, block_singular_values, in_range, operator_norm, trace
from .errors import ConvergenceError, ValidationError
from .orliczfn import INF, OrliczFunction

EVALUATION_CAP = 200
DEFAULT_TOL = 1e-12  # the relative tolerance of every norm's root-find
_DBL_MAX = sys.float_info.max
_U_MIN = math.log(math.ulp(0.0))  # log of the smallest positive scale
_U_MAX = math.log(_DBL_MAX)  # exp stays finite here

CONVERGED = "converged"
AT_FINITENESS_BOUND = "exact at finiteness bound"
ZERO = "zero"


@dataclass(frozen=True)
class Step:
    value: float
    length: float


class RearrangementFunction:
    """Right-continuous nonincreasing step function of singular values.

    The one form of the distribution of |x|: read-only arrays of strictly
    decreasing positive ``values`` and of positive finite ``measures`` (the
    ``steps``); the total mass is the trace of the spectral projection of |x|
    on its singular values above the kernels' rounding floor, and the
    function vanishes beyond it.
    ``modular`` and ``luxemburg`` read the values and the measures as
    Python lists, once per call, hand Phi the list of v_j / lam and add the
    steps with ``_step_sum``: no modular evaluation builds an ndarray.
    """

    __slots__ = ("values", "measures")

    def __init__(self, steps):
        values, measures = [], []  # one pass: rearrangement builds one per Element
        for v, l in steps:
            v, l = float(v), float(l)
            if not (v > 0.0 and l > 0.0):
                raise ValidationError(f"step {Step(v, l)} must have positive value and length")
            if INF in (v, l):
                what = "value" if v == INF else "measure"
                raise ValidationError(f"step {Step(v, l)} has a {what} beyond the binary64 range")
            if values and v >= values[-1]:
                raise ValidationError("step values must decrease strictly")
            values.append(v)
            measures.append(l)
        values, measures = np.array(values), np.array(measures)
        values.flags.writeable = measures.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "measures", measures)

    def __setattr__(self, name, value):
        raise AttributeError("RearrangementFunction is immutable")

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple(map(Step, self.values.tolist(), self.measures.tolist()))

    def __call__(self, t: float) -> float:
        if not (t >= 0):
            raise ValidationError("rearrangement argument must be >= 0")
        for _, end, v in self.boundaries():
            if t < end:
                return v
        return 0.0

    def total_mass(self) -> float:
        return sum(self.measures.tolist())

    def boundaries(self) -> list[tuple[float, float, float]]:
        """(t_start, t_end, value) triples of the steps."""
        rows = []
        t = 0.0
        for v, l in zip(self.values.tolist(), self.measures.tolist()):
            rows.append((t, t + l, v))
            t += l
        return rows

    def modular(self, phi: OrliczFunction, lam: float) -> float:
        """tau(Phi(mu/lam)) as an extended real (``_step_sum``); 0*inf = 0 is
        honored because only strictly positive measures enter, a sum beyond
        binary64 is +inf, and no steps give 0.0.  A scale that puts v_max / lam
        beyond binary64 raises ValidationError: m Phi(v/lam) may still be
        finite there, so +inf would be a guess."""
        if not (lam > 0):
            raise ValidationError("scale must be positive")
        lam, values = float(lam), self.values.tolist()
        if values and values[0] / lam > _DBL_MAX:
            raise ValidationError(f"scale {lam!r} puts v_max / lam = {values[0]!r} / {lam!r} "
                                  "beyond the binary64 range")
        return _step_sum(self.measures.tolist(), phi.eval_array([v / lam for v in values]))

    def luxemburg(self, phi: OrliczFunction, tol: float) -> "NormReport":
        """Luxemburg norm of the steps with its evaluation count, the modular
        value at the norm and the termination reason (``_luxemburg_from_measures``)."""
        if not (0 < tol < 1):
            raise ValidationError(f"tolerance must lie in (0, 1), got {tol!r}")
        if not phi.is_young:
            raise ValidationError(f"{phi.label()} is not a Young function")
        return _luxemburg_from_measures(self.values.tolist(), self.measures.tolist(), phi, tol)

    def matches(self, other: "RearrangementFunction") -> bool:
        """Whether two distributions agree up to rounding: the values of both,
        sorted together and grouped by ``_linalg.levels``, carry in every
        group the same measure from each side, within n eps relative for n
        values in all."""
        steps = sorted([(v, m, side) for side, mu in enumerate((self, other))
                        for v, m in zip(mu.values.tolist(), mu.measures.tolist())], reverse=True)
        rtol = len(steps) * sys.float_info.epsilon
        for group in _linalg.levels([v for v, _, _ in steps])[0]:
            a, b = (sum(steps[k][1] for k in group if steps[k][2] == side) for side in (0, 1))
            if abs(a - b) > rtol * max(a, b):
                return False
        return True

    def __repr__(self):
        return f"RearrangementFunction({list(zip(self.values.tolist(), self.measures.tolist()))})"


def merged_steps(pairs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The steps of (value, measure) pairs: sorted descending, with the
    measures of equal values added; values that differ, by however little,
    stay apart.  The one merge of the base's blocks and of every block
    of the core's pieces at once; sorts ``pairs`` in place."""
    pairs.sort(key=itemgetter(0), reverse=True)
    return [(v, sum(m for _, m in tied)) for v, tied in groupby(pairs, key=itemgetter(0))]


def singular_pairs(x: Element, mass: float = 1.0) -> list[tuple[float, float]]:
    """The (value, c_i * mass) pairs of x's blocks, unmerged: the one place
    where a measure is formed.  The blocks are factored once per Element,
    directly, by one-sided Jacobi (``block_singular_values``); x*x is never
    formed, and each block keeps the values above the kernels' rounding floor
    (``_linalg.above_floor``)."""
    pairs = []
    for c, s in zip(x.algebra.weights, block_singular_values(x)):
        s, m = s.tolist(), c * mass
        pairs += [(v, m) for v in s[:_linalg.above_floor(s)]]
    return pairs


def singular_value_measures(x: Element) -> list[tuple[float, float]]:
    """Nonzero singular values of x with their tau-measures, merged descending."""
    return merged_steps(singular_pairs(x))


def rearrangement(x: Element) -> RearrangementFunction:
    """Decreasing singular-value step function mu of x against tau.

    Reproduces mu(t) = inf { s >= 0 : tau(P^{|x|}(s, inf)) <= t } exactly
    for step data.  The first call stores mu on x, so that every norm, modular
    value, rearrangement and membership test of x merges its singular data once.
    """
    if x._singular is None:
        mu = RearrangementFunction(singular_value_measures(x))
        if x._singular is None:
            object.__setattr__(x, "_singular", mu)
    return x._singular


def _step_sum(measures: list[float], terms: list[float]) -> float:
    """sum_j measures_j terms_j for terms >= 0, as an extended real, added in
    step order on Python floats; ``terms`` is the list that ``eval_array``
    gives back for the list of v_j / lam.  A +inf term, or a product or sum
    beyond binary64, gives +inf, and Python float arithmetic raises no warning
    there.
    No BLAS kernel enters, so the value does not depend on the BLAS build,
    and the loop, unlike ``sum`` (compensated from Python 3.12 on), rounds
    after every addition on every Python."""
    total = 0.0
    for m, t in zip(measures, terms):
        total += m * t
    return total


def modular_value(phi: OrliczFunction, x: Element, lam: float) -> float:
    """tau(Phi(|x|/lam)) as an extended real."""
    return rearrangement(x).modular(phi, lam)


def fk_integral(phi: OrliczFunction, x: Element) -> float:
    """tau(Phi(|x|)) with the singular data it reads checked against x* x.

    Returns ``modular_value(phi, x, 1.0)``, the step sum sum_j Phi(v_j) l_j,
    after two checks against the eigenvalues l_ik of y* y, y = x / 2^e
    (``in_range``): one Element holds the blocks of y* y, and a values-only
    two-sided Jacobi solve per block (``block_eigh(..., vectors=False)``)
    reads them, forming no eigenvector and storing nothing.  On
    each d x d block the memoized one-sided Jacobi values s of y must have
    |s_k^2 - l_k| <= b = 16 d eps s_0^2 + 2 s_0 2^(-1074 - e) + 4 d^2 2^-1074,
    the rounding of y* y and its eigenvalues, of a subnormal sigma of x and of
    the entries of y* y on the subnormal grid.  The steps must meet the
    identity at Phi(t) = t^2, sum_j l_j (v_j / 2^e)^2 = sum_i c_i sum_k l_ik,
    within sum_i c_i d_i b_i, plus n eps relative and n 2^-1073 for rounding,
    n values in all; so the floor, weights and merging of
    ``singular_value_measures`` are checked too.  Neither check reads Phi.
    Both sides and the bound are taken in units of 2^k, k = ceil(log2) of the
    largest weight, so that they stay finite; a weight that this takes below
    the normal range rounds by at most 2^-1075, which adds 2^-1073 sum_i sum_k
    l_ik.  Both checks run on Python floats; a failed block check names the
    value with the largest gap.
    """
    y, e = in_range(x)
    gram = Element(x.algebra, [b.conj().T @ b for b in y.blocks])  # y* y
    k = math.ceil(math.log2(max(x.algebra.weights)))  # every weight / 2^k is at most about 1
    eps, trace_h, slack, n = sys.float_info.epsilon, 0.0, 0.0, 0
    for i, (c, (lam, _), s) in enumerate(zip(x.algebra.weights, block_eigh(gram, vectors=False),
                                             block_singular_values(x))):
        lam, s = lam.tolist(), [math.ldexp(v, -e) for v in s.tolist()]
        d = len(s)
        b = s[0] * (16 * d * eps * s[0] + math.ldexp(2.0, -1074 - e)) + math.ldexp(d * d, -1072)
        gap = [abs(v * v - l) for v, l in zip(s, lam)]
        if (top := max(gap)) > b:
            j = gap.index(top)
            raise ValidationError(
                f"singular values disagree with x* x: in block {i} of y = x / 2^{e}, "
                f"singular value {s[j]!r} squared vs eigenvalue {lam[j]!r} of y* y")
        c, h = math.ldexp(c, -k), sum(lam)
        trace_h, slack, n = trace_h + c * h, slack + c * d * b + math.ldexp(h, -1073), n + d
    mu = rearrangement(x)
    values = [math.ldexp(v, -e) for v in mu.values.tolist()]
    mass = sum(math.ldexp(m, -k) * (t * t) for t, m in zip(values, mu.measures.tolist()))
    tol = slack + n * eps * trace_h + math.ldexp(n, -1073)
    if abs(mass - trace_h) > tol:
        raise ValidationError(f"distribution identity violated at Phi(t) = t^2: step sum {mass!r} "
                              f"vs tau(y* y) = {trace_h!r} for y = x / 2^{e}, in units of 2^{k}")
    return mu.modular(phi, 1.0)


@dataclass(frozen=True)
class NormReport:
    """A Luxemburg norm with the evidence for it.

    ``iterations`` counts modular evaluations and ``reason`` says how the
    root-find stopped: CONVERGED (the bracket closed to the tolerance),
    AT_FINITENESS_BOUND (the modular is +inf below v_max / x_f and at most 1
    there) or ZERO (x = 0).
    """

    norm: float
    iterations: int
    modular_at_norm: float
    reason: str

    def to_json_obj(self) -> dict:
        return {"norm": self.norm, "iterations": self.iterations,
                "modularValueAtNorm": self.modular_at_norm}


def _log(m: float) -> float:
    return -INF if m == 0.0 else math.log(m)


def _luxemburg_from_measures(values: list[float], measures: list[float],
                             phi: OrliczFunction, tol: float) -> NormReport:
    """inf { lam : modular(lam) <= 1 } on singular data, by a safeguarded
    bracketing root-find on u = log lam for g(u) = log modular(e^u).

    Bracket: start at lam = v_max / x_f when Phi has a finite finiteness
    bound x_f, else at v_max, and step u by +-1, +-2, +-4, ... until the
    modular crosses 1, clamped to the binary64 range of lam.  In the first
    case, if modular(v_max / x_f) <= 1 that scale is the exact infimum,
    because below it v_max / lam > x_f and the modular is +inf.  A scale
    with v_max / lam beyond binary64 counts as modular +inf without
    evaluating Phi.

    Refine: Brent's zeroin (Brent 1973, ch. 4) on g, i.e. secant or inverse
    quadratic interpolation, with a bisection in u whenever g is infinite
    (modular 0 or +inf) or the interpolated step is not less than half the
    step before last.  Every new point lies at least tol/2 (relative) inside
    the bracket, so a point next to the root closes the bracket with one
    more evaluation.  For a power g is linear in u, so one secant step lands
    on the root.

    The returned lam was evaluated and has modular(lam) <= 1, and an
    evaluated lo with modular(lo) > 1 has lam - lo <= tol * lam; the report
    counts the modular evaluations.  Raises ConvergenceError, naming the
    bracket, the evaluation count and the last modular values, when no
    binary64 scale meets that, and when a finite-valued Phi reads +inf at lo
    (only an overflow can give that) while modular(lam) < 1/2: the bracket
    then closed on the overflow edge, not on the root.
    """
    if not values:
        return NormReport(0.0, 0, 0.0, ZERO)
    vmax = values[0]  # the values decrease strictly
    xf = phi.finiteness_bound
    trail: list[tuple[float, float]] = []  # (lam, modular) per evaluation
    lo = hi = None  # (lam, modular) at the ends of the bracket

    def fail(why):
        last = ", ".join(f"modular({lam!r}) = {m!r}" for lam, m in trail[-3:])
        return ConvergenceError(f"Luxemburg root-find: {why}; bracket lo={lo}, hi={hi} "
                                f"after {len(trail)} modular evaluations; last {last}")

    def modular(lam):
        if vmax / lam > _DBL_MAX:
            return INF
        if len(trail) == EVALUATION_CAP:
            raise fail("evaluation cap reached")
        m = _step_sum(measures, phi.eval_array([v / lam for v in values]))
        trail.append((lam, m))
        return m

    if not xf > 0.0:
        raise fail(f"{phi.label()} is +inf at every t > 0")
    lam = vmax / xf
    if 0.0 < lam < INF:
        # The smallest binary64 scale with v_max / lam <= x_f.
        while vmax / lam > xf:
            lam = math.nextafter(lam, INF)
        below = math.nextafter(lam, 0.0)
        while below > 0.0 and vmax / below <= xf:
            lam, below = below, math.nextafter(below, 0.0)
        m = modular(lam)
        if m <= 1.0:
            return NormReport(lam, len(trail), m, AT_FINITENESS_BOUND)
    else:
        lam = vmax  # x_f is +inf, or v_max / x_f leaves binary64
        m = modular(lam)

    up = m > 1.0
    u, stride = math.log(lam), 1.0
    while True:
        if m > 1.0:
            lo = (lam, m)
        else:
            hi = (lam, m)
        if (m > 1.0) != up:
            break
        if u == (_U_MAX if up else _U_MIN):
            raise fail("the norm lies outside the binary64 range")
        u = min(u + stride, _U_MAX) if up else max(u - stride, _U_MIN)
        stride *= 2.0
        lam = math.exp(u)
        m = modular(lam)

    # zeroin: b is the end with the smaller |g|, c the other end, a the
    # previous b; a point is u = log lam, g = log m, lam and the modular m.
    least = 0.5 * tol  # the least step in u: tol/2 relative in lam
    blam, bm = hi
    alam, am = clam, cm = lo
    bu, bg = math.log(blam), _log(bm)
    au = cu = math.log(clam)
    ag = cg = _log(cm)
    d = e = cu - bu
    while True:
        if abs(cg) < abs(bg):
            au, ag, alam, am = bu, bg, blam, bm
            bu, bg, blam, bm = cu, cg, clam, cm
            cu, cg, clam, cm = au, ag, alam, am
        lo, hi = ((blam, bm), (clam, cm)) if bm > 1.0 else ((clam, cm), (blam, bm))
        if hi[0] - lo[0] <= tol * hi[0]:
            if lo[1] == INF and hi[1] < 0.5 and phi.finite_valued:
                raise fail(f"{phi.label()} overflows binary64 at the lower end, "
                           "so the bracket closed on the overflow, not on the root")
            return NormReport(hi[0], len(trail), hi[1], CONVERGED)
        xm = 0.5 * (cu - bu)
        if bg == 0.0:  # modular exactly 1: step off b towards c
            d = e = 0.0
        elif abs(e) >= least and abs(ag) > abs(bg) and math.isfinite(ag + cg):
            s = bg / ag
            if alam == clam:  # a is c: secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = ag / cg, bg / cg
                p = s * (2.0 * xm * q * (q - r) - (bu - au) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            q, p = (-q, p) if p > 0.0 else (q, -p)
            if 2.0 * p < min(3.0 * xm * q - abs(least * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        au, ag, alam, am = bu, bg, blam, bm
        u = bu + (d if abs(d) > least else math.copysign(least, xm))
        lam = min(max(math.exp(u), lo[0] * (1.0 + least)), hi[0] * (1.0 - least))
        if not lo[0] < lam < hi[0]:
            lam = lo[0] + 0.5 * (hi[0] - lo[0])
            if not lo[0] < lam < hi[0]:
                raise fail(f"tolerance {tol!r} is below the binary64 resolution")
        m = modular(lam)
        bu, bg, blam, bm = math.log(lam), _log(m), lam, m
        if (m > 1.0) == (cm > 1.0):
            cu, cg, clam, cm = au, ag, alam, am
            d = e = bu - au


def luxemburg_report(phi: OrliczFunction, x: Element, tol: float = DEFAULT_TOL) -> NormReport:
    """Luxemburg norm with its evaluation count, the modular value at the norm
    and the termination reason."""
    return rearrangement(x).luxemburg(phi, tol)


def luxemburg_norm(phi: OrliczFunction, x: Element, tol: float = DEFAULT_TOL) -> float:
    """inf { lam > 0 : tau(Phi(|x|/lam)) <= 1 }; zero exactly for x = 0.

    The returned lam certifies tau(Phi(|x|/lam)) <= 1; attainment of the
    infimum itself is not assumed (the jump families may miss it).
    """
    return luxemburg_report(phi, x, tol).norm


@dataclass(frozen=True)
class MembershipFlags:
    """Orlicz class / gauge-space membership of one element.

    In finite dimension every element belongs to the gauge space; the
    flags differ only through the finiteness bound of Phi (the Orlicz
    class needs tau(Phi(|x|)) finite, the all-scales space needs Phi
    finite-valued or x = 0).
    """

    orlicz_class: bool
    kunze_space: bool
    mtkr_space: bool
    kunze_witness: float | None


def membership(phi: OrliczFunction, x: Element) -> MembershipFlags:
    """Membership of x in the Orlicz class, the span space, and the all-scales space.

    The flags read x only through v_max = ``operator_norm(x)``, so they need
    no distribution: a step measure beyond binary64 does not stop them."""
    if not phi.is_young:
        raise ValidationError(f"{phi.label()} is not a Young function")
    vmax = operator_norm(x)
    if vmax == 0.0:
        return MembershipFlags(True, True, True, 1.0)
    orlicz_class = phi.finite_valued or vmax <= phi.finiteness_bound
    witness = 1.0 if orlicz_class else _shrink_witness(phi.finiteness_bound, vmax)
    return MembershipFlags(orlicz_class, witness is not None, phi.finite_valued, witness)


def _shrink_witness(bound: float, vmax: float) -> float | None:
    """The largest 2^k <= 1 with v_max * 2^k <= bound, or None if there is no
    such 2^k in binary64.  Phi is finite on [0, bound], so tau(Phi(2^k |x|))
    is a finite sum of finite terms, whatever a float sum of it would do."""
    if not bound > 0.0:
        return None
    k = math.floor(math.log2(bound) - math.log2(vmax))
    w = math.ldexp(1.0, min(max(k, -1074), 0))
    if vmax * w > bound:
        w *= 0.5
    return w if w > 0.0 else None


def dual_pairing(x: Element, y: Element) -> complex:
    """Bilinear trace pairing tau(xy)."""
    return trace(x * y)


E_SPACE_NOTE = ("finite-dimensional collapse: N itself is the full measurable algebra, "
                "so the closure of N intersect L_Phi in the gauge norm is L_Phi as a set "
                "and the gauge of x in E_Phi equals its Luxemburg norm")


def e_space_gauge(phi: OrliczFunction, x: Element) -> float:
    """Gauge of x in the closure E_Phi of the bounded part of the space.

    In finite dimension the closure is the whole space (see E_SPACE_NOTE),
    so this is the Luxemburg norm; the function exists so reports can state
    the collapse explicitly rather than silently.
    """
    return luxemburg_norm(phi, x)


def rearrangement_csv(mu: RearrangementFunction) -> str:
    """CSV of the steps: header t_start,t_end,value, LF line endings."""
    lines = ["t_start,t_end,value"]
    for t0, t1, v in mu.boundaries():
        lines.append(f"{t0:.17g},{t1:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"
