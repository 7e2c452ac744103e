"""Step-valued elements over the weighted half-line model of the core.

For an algebra whose reference weight is the trace itself, the modular
flow is trivial, so the translation-covariant extension of the algebra
is just (a function algebra over R) tensor N with pointwise operations,
translation acting by shifting the argument, and the generator of
translations acting as multiplication by exp(s).  The unique trace on
that extension which rescales by exp(-s) under the shift by s is
integration of tau against the density exp(-s) ds; this is the choice
that makes the scaling law an exact identity, which is why it is the
trace implemented here.

Only finitely many matrix-valued steps with rational endpoints are
represented (a restricted class; density of the step class in the full
measurable completion is not claimed).  The restriction keeps every
computation exact: sums and products refine the interval partition
cellwise, shifts move endpoints by exact Fraction arithmetic, and each
piece contributes tau(x_k) * (exp(-a_k) - exp(-b_k)) to the trace.
Intervals must have finite left endpoints because the exp(-s) mass
diverges toward -infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._linalg import is_positive_semidefinite
from .algebra import Element, absolute, positive_eigenvalues, trace
from .errors import ValidationError
from .orliczfn import OrliczFunction
from .trace_orlicz import (NormReport, _luxemburg_from_measures, _modular_sum,
                           singular_value_measures)


def _to_endpoint(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError("interval endpoints must be finite (or +inf on the right)")
        return Fraction(value)  # exact: every binary64 is rational
    raise ValidationError(f"cannot use {value!r} as an interval endpoint")


@dataclass(frozen=True)
class Interval:
    """Half-open interval [a, b) with exact rational endpoints; b = None means +inf."""

    a: Fraction
    b: Fraction | None

    def __post_init__(self):
        if self.b is not None and self.b <= self.a:
            raise ValidationError(f"empty interval [{self.a}, {self.b})")

    def weight(self) -> float:
        """exp(-a) - exp(-b), the trace mass of the interval."""
        left = math.exp(-float(self.a))
        return left if self.b is None else left - math.exp(-float(self.b))

    def shift(self, s: Fraction) -> "Interval":
        return Interval(self.a + s, None if self.b is None else self.b + s)

    def __str__(self):
        hi = "inf" if self.b is None else str(self.b)
        return f"[{self.a}, {hi})"


def interval(a, b) -> Interval:
    """Build [a, b); pass None, math.inf or the string "inf" for an infinite b."""
    if b is None or b == math.inf or (isinstance(b, str) and b == "inf"):
        return Interval(_to_endpoint(a), None)
    return Interval(_to_endpoint(a), _to_endpoint(b))


class CoreElement:
    """Finitely many (Element, interval) steps with pairwise disjoint intervals.

    Normalization drops exactly-zero pieces and keeps pieces sorted by left
    endpoint; overlapping input intervals are rejected.
    """

    __slots__ = ("algebra", "pieces")

    def __init__(self, algebra, pieces):
        norm = []
        for x, iv in pieces:
            if x.algebra != algebra:
                raise ValidationError("piece element lives in a different algebra")
            if not isinstance(iv, Interval):
                raise ValidationError("piece interval must be an Interval")
            if not x.is_zero():
                norm.append((x, iv))
        norm.sort(key=lambda p: p[1].a)
        for (_, u), (_, v) in zip(norm, norm[1:]):
            if u.b is None or v.a < u.b:
                raise ValidationError(f"intervals {u} and {v} overlap")
        self.algebra = algebra
        self.pieces = tuple(norm)

    def is_zero(self) -> bool:
        return not self.pieces

    def scale(self, scalar) -> "CoreElement":
        return CoreElement(self.algebra, [(scalar * x, iv) for x, iv in self.pieces])

    def adjoint(self) -> "CoreElement":
        return CoreElement(self.algebra, [(x.adjoint(), iv) for x, iv in self.pieces])

    def absolute(self) -> "CoreElement":
        return CoreElement(self.algebra, [(absolute(x), iv) for x, iv in self.pieces])

    def __add__(self, other):
        return _cellwise(self, other, lambda a, b: a + b)

    def __sub__(self, other):
        return _cellwise(self, other, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, CoreElement):
            return _cellwise(self, other, lambda a, b: a * b)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __repr__(self):
        return f"CoreElement({len(self.pieces)} pieces over dims {self.algebra.block_dims})"


def _cut_points(*elements: CoreElement) -> list[Fraction]:
    pts = set()
    for e in elements:
        for _, iv in e.pieces:
            pts.add(iv.a)
            if iv.b is not None:
                pts.add(iv.b)
    return sorted(pts)


def _value_on_cell(e: CoreElement, a: Fraction) -> Element | None:
    for x, iv in e.pieces:
        if iv.a <= a and (iv.b is None or a < iv.b):
            return x
    return None


def _cellwise(x: CoreElement, y: CoreElement, op) -> CoreElement:
    """Apply a blockwise binary operation on the common interval refinement."""
    if x.algebra != y.algebra:
        raise ValidationError("core elements live in different algebras")
    alg = x.algebra
    zero = alg.zero()
    cuts = _cut_points(x, y)
    cells: list[Interval] = []
    for a, b in zip(cuts, cuts[1:]):
        cells.append(Interval(a, b))
    unbounded = any(iv.b is None for _, iv in x.pieces) or \
        any(iv.b is None for _, iv in y.pieces)
    if cuts and unbounded:
        cells.append(Interval(cuts[-1], None))
    out = []
    for cell in cells:
        xa = _value_on_cell(x, cell.a)
        yb = _value_on_cell(y, cell.a)
        if xa is None and yb is None:
            continue
        out.append((op(xa if xa is not None else zero, yb if yb is not None else zero), cell))
    return CoreElement(alg, out)


def embed(x: Element) -> CoreElement:
    """The canonical slice x on [0, inf), whose exp(-s) mass is exactly 1."""
    return CoreElement(x.algebra, [(x, Interval(Fraction(0), None))])


def _check_piece_positive(x: Element, iv: Interval):
    if not x.is_hermitian():
        raise ValidationError(f"piece on {iv} is not Hermitian")
    for i, vals in enumerate(positive_eigenvalues(x)):
        if not is_positive_semidefinite(vals):
            raise ValidationError(
                f"piece on {iv} is not positive: block {i} eigenvalue {vals[-1]!r}")


def canonical_trace(x: CoreElement) -> float:
    """sum_k tau(x_k) (exp(-a_k) - exp(-b_k)) for a positive step element.

    Faithful and tracial on the step class; rejects non-positive input.
    """
    total = 0.0
    for piece, iv in x.pieces:
        _check_piece_positive(piece, iv)
        total += trace(piece).real * iv.weight()
    return total


def weighted_trace(x: CoreElement) -> complex:
    """Linear extension of the canonical trace to arbitrary step elements."""
    return complex(sum(trace(piece) * iv.weight() for piece, iv in x.pieces))


def dual_action(s, x: CoreElement) -> CoreElement:
    """Translate every interval by +s (exact rational shift).

    An automorphism of the step class with exact group law; composing with
    the canonical trace rescales it by exp(-s).
    """
    shift = _to_endpoint(s)
    return CoreElement(x.algebra, [(piece, iv.shift(shift)) for piece, iv in x.pieces])


def _core_singular_data(x: CoreElement):
    values = []
    measures = []
    for piece, iv in x.pieces:
        w = iv.weight()
        for v, m in singular_value_measures(piece):
            values.append(v)
            measures.append(m * w)
    return np.array(values), np.array(measures)


def core_modular_value(phi: OrliczFunction, x: CoreElement, lam: float) -> float:
    """Canonical-trace modular sum w_k tau(Phi(|x_k|/lam)) as an extended real."""
    if not (lam > 0):
        raise ValidationError("scale must be positive")
    values, measures = _core_singular_data(x)
    return _modular_sum(values, measures, phi, float(lam))


def core_luxemburg_report(phi: OrliczFunction, x: CoreElement,
                          tol: float = 1e-12) -> NormReport:
    if not (tol > 0):
        raise ValidationError("tolerance must be positive")
    if not phi.is_young:
        raise ValidationError(f"{phi.label()} is not a Young function")
    values, measures = _core_singular_data(x)
    norm, iters = _luxemburg_from_measures(values, measures, phi, tol)
    mod = _modular_sum(values, measures, phi, norm) if norm > 0 else 0.0
    return NormReport(norm, iters, mod)


def core_luxemburg_norm(phi: OrliczFunction, x: CoreElement, tol: float = 1e-12) -> float:
    """inf { lam : canonical-trace modular of x/lam <= 1 } over the step class.

    On the step class with finite-valued Phi some scale always has a finite
    modular, so every step element belongs to the associated space; the
    embedding x -> x on [0, inf) reproduces the base-algebra Luxemburg norm
    because its mass is exactly 1.
    """
    return core_luxemburg_report(phi, x, tol).norm
