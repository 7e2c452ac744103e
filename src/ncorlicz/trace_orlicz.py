"""Orlicz norms over a finite-dimensional trace algebra.

The singular values of an element, weighted by the trace weights of
their blocks, form a decreasing step function (the rearrangement); the
distribution identity tau(f(|x|)) = integral of f along that step
function holds exactly for step data and is asserted whenever both
routes are computed.  The Luxemburg gauge

    ||x||_Phi = inf { lam > 0 : tau(Phi(|x|/lam)) <= 1 }

is found by bisection on the monotone modular.  In finite dimension
the bounded-times-trace-class machinery collapses: every element is
measurable, N itself is the whole space, and the closure E_Phi of
N intersect L_Phi equals L_Phi as a set; see ``e_space_gauge``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import CLUSTER_RTOL, RANK_RTOL, singular_values
from .algebra import Element, absolute, positive_eigenvalues, trace
from .errors import ConvergenceError, ValidationError
from .orliczfn import INF, OrliczFunction

FK_RTOL = 1e-10
BISECTION_CAP = 200


@dataclass(frozen=True)
class Step:
    value: float
    length: float


class RearrangementFunction:
    """Right-continuous nonincreasing step function of singular values.

    Steps carry strictly decreasing values; the total mass equals the
    trace of the support projection of |x|, and the function vanishes
    beyond it.
    """

    __slots__ = ("steps",)

    def __init__(self, steps):
        steps = tuple(Step(float(v), float(l)) for v, l in steps)
        for s in steps:
            if not (s.value > 0.0 and s.length > 0.0):
                raise ValidationError(f"step {s} must have positive value and length")
        for a, b in zip(steps, steps[1:]):
            if b.value >= a.value:
                raise ValidationError("step values must decrease strictly")
        self.steps = steps

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValidationError("rearrangement argument must be >= 0")
        acc = 0.0
        for s in self.steps:
            acc += s.length
            if t < acc:
                return s.value
        return 0.0

    def total_mass(self) -> float:
        return sum(s.length for s in self.steps)

    def boundaries(self) -> list[tuple[float, float, float]]:
        """(t_start, t_end, value) triples of the steps."""
        rows = []
        t = 0.0
        for s in self.steps:
            rows.append((t, t + s.length, s.value))
            t += s.length
        return rows

    def matches(self, other: "RearrangementFunction", rtol: float = CLUSTER_RTOL) -> bool:
        """Step-data equality: same count, exactly equal lengths, values equal
        up to the eigenvalue-merge tolerance."""
        if len(self.steps) != len(other.steps):
            return False
        for a, b in zip(self.steps, other.steps):
            if a.length != b.length:
                return False
            if abs(a.value - b.value) > rtol * max(a.value, b.value):
                return False
        return True

    def __repr__(self):
        return f"RearrangementFunction({[(s.value, s.length) for s in self.steps]})"


def singular_value_measures(x: Element) -> list[tuple[float, float]]:
    """Nonzero singular values of x with their tau-measures, merged descending.

    Each block x_i is factored once, directly, by the one-sided Jacobi kernel
    ``singular_values`` (exact power-of-two prescale, so any finite scale
    works and small values keep their relative accuracy); x*x is never
    formed.  Values at or below RANK_RTOL times the block's largest are
    dropped.  Each remaining singular value of block i carries measure c_i
    per multiplicity; values within the cluster tolerance are merged
    (measure-weighted mean).
    """
    pairs = []
    for c, block in zip(x.algebra.weights, x.blocks):
        vals = singular_values(block)
        cut = RANK_RTOL * vals[0]
        pairs.extend((float(v), c) for v in vals if v > cut)
    pairs.sort(key=lambda p: -p[0])
    merged: list[list[float]] = []
    for v, m in pairs:
        if merged and abs(merged[-1][0] - v) <= CLUSTER_RTOL * max(merged[-1][0], v):
            tot = merged[-1][1] + m
            merged[-1][0] = (merged[-1][0] * merged[-1][1] + v * m) / tot
            merged[-1][1] = tot
        else:
            merged.append([v, m])
    return [(v, m) for v, m in merged]


def rearrangement(x: Element) -> RearrangementFunction:
    """Decreasing singular-value step function mu of x against tau.

    Reproduces mu(t) = inf { s >= 0 : tau(P^{|x|}(s, inf)) <= t } exactly
    for step data.
    """
    return RearrangementFunction(singular_value_measures(x))


def _modular_sum(values: np.ndarray, measures: np.ndarray, phi: OrliczFunction,
                 lam: float) -> float:
    """tau(Phi(|x|/lam)) from singular data; extended-real, 0*inf = 0 honored
    because only strictly positive measures enter."""
    if values.size == 0:
        return 0.0
    out = phi.eval_array(values / lam)
    if np.any(np.isinf(out)):
        return INF
    return float(np.dot(measures, out))


def modular_value(phi: OrliczFunction, x: Element, lam: float) -> float:
    """tau(Phi(|x|/lam)) as an extended real."""
    if not (lam > 0):
        raise ValidationError("scale must be positive")
    data = singular_value_measures(x)
    values = np.array([v for v, _ in data])
    measures = np.array([m for _, m in data])
    return _modular_sum(values, measures, phi, float(lam))


def fk_integral(phi: OrliczFunction, x: Element) -> float:
    """tau(Phi(|x|)) with the step-function route asserted against the spectral route.

    Returns sum_j Phi(v_j) l_j over the rearrangement steps and checks it
    against the blockwise spectral sum within 1e-10 relative.  The two routes
    factor x independently: the steps come from one-sided Jacobi on each
    block, the spectral sum from the eigenvalues of |x| = (x*x)^(1/2).
    """
    steps = rearrangement(x).steps
    lhs = 0.0
    for s in steps:
        fv = phi(s.value)
        if fv == INF:
            lhs = INF
            break
        lhs += fv * s.length
    ax = absolute(x)
    rhs = 0.0
    for i, vals in enumerate(positive_eigenvalues(ax)):
        c = x.algebra.weights[i]
        top = max(vals) if vals else 0.0
        for v in vals:
            vv = v if v > RANK_RTOL * max(top, 0.0) else 0.0
            fv = phi(max(vv, 0.0))
            if fv == INF:
                rhs = INF
                break
            rhs += c * fv
        if rhs == INF:
            break
    if lhs == INF or rhs == INF:
        if lhs != rhs:
            raise ValidationError("distribution identity violated at infinity")
        return INF
    if abs(lhs - rhs) > FK_RTOL * max(abs(lhs), abs(rhs), 1.0):
        raise ValidationError(
            f"distribution identity violated: step sum {lhs!r} vs spectral sum {rhs!r}")
    return lhs


@dataclass(frozen=True)
class NormReport:
    norm: float
    iterations: int
    modular_at_norm: float

    def to_json_obj(self) -> dict:
        return {"norm": self.norm, "iterations": self.iterations,
                "modularValueAtNorm": self.modular_at_norm}


def _luxemburg_from_measures(values: np.ndarray, measures: np.ndarray,
                             phi: OrliczFunction, tol: float) -> tuple[float, int]:
    """Bisection for inf { lam : modular(lam) <= 1 } on singular data.

    The bracket starts at the top singular value, grows or shrinks
    geometrically until it straddles the level set, then bisects; each
    phase is capped at BISECTION_CAP iterations.
    """
    if values.size == 0:
        return 0.0, 0

    def m(lam):
        return _modular_sum(values, measures, phi, lam)

    iters = 0
    hi = float(np.max(values))
    while m(hi) > 1.0:
        hi *= 2.0
        iters += 1
        if iters > BISECTION_CAP:
            raise ConvergenceError("Luxemburg bracket expansion exceeded its cap")
    lo = hi / 2.0
    while m(lo) <= 1.0:
        hi = lo
        lo /= 2.0
        iters += 1
        if iters > BISECTION_CAP:
            raise ConvergenceError("Luxemburg bracket shrink exceeded its cap")
    steps = 0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if m(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        steps += 1
        if steps > BISECTION_CAP:
            raise ConvergenceError("Luxemburg bisection exceeded its cap")
    return hi, iters + steps


def luxemburg_report(phi: OrliczFunction, x: Element, tol: float = 1e-12) -> NormReport:
    """Luxemburg norm with iteration count and the modular value at the norm."""
    if not (tol > 0):
        raise ValidationError("tolerance must be positive")
    if not phi.is_young:
        raise ValidationError(f"{phi.label()} is not a Young function")
    data = singular_value_measures(x)
    values = np.array([v for v, _ in data])
    measures = np.array([m for _, m in data])
    norm, iters = _luxemburg_from_measures(values, measures, phi, tol)
    mod = _modular_sum(values, measures, phi, norm) if norm > 0 else 0.0
    return NormReport(norm, iters, mod)


def luxemburg_norm(phi: OrliczFunction, x: Element, tol: float = 1e-12) -> float:
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
    """Membership of x in the Orlicz class, the span space, and the all-scales space."""
    if not phi.is_young:
        raise ValidationError(f"{phi.label()} is not a Young function")
    data = singular_value_measures(x)
    values = np.array([v for v, _ in data])
    measures = np.array([m for _, m in data])
    if values.size == 0:
        return MembershipFlags(True, True, True, 1.0)
    orlicz_class = _modular_sum(values, measures, phi, 1.0) < INF
    witness = None
    lam = 1.0
    for _ in range(BISECTION_CAP):
        if _modular_sum(values, measures, phi, 1.0 / lam) < INF:
            witness = lam
            break
        lam /= 2.0
    mtkr = phi.finite_valued
    return MembershipFlags(orlicz_class, witness is not None, mtkr, witness)


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
