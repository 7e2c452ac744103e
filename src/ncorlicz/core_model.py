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

The distribution of |x| against that trace is a ``RearrangementFunction``
(``core_rearrangement``), one merge of every piece's block pairs, as the base
merges blocks, and the core norm and modular value read it as the base ones do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Element, absolute, certified_positive, fill_singular_values,
                      finite_sum, negative_block, trace)
from .errors import ValidationError
from .orliczfn import INF, OrliczFunction
from .trace_orlicz import (DEFAULT_TOL, NormReport, RearrangementFunction, merged_steps,
                           singular_pairs)


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
        if not (isinstance(self.a, (Fraction, int))
                and isinstance(self.b, (Fraction, int, type(None)))):
            raise ValidationError(f"endpoints {self.a!r}, {self.b!r} are not Fraction or int; "
                                  "interval() converts other numbers")
        if self.b is not None and self.b <= self.a:
            raise ValidationError(f"empty interval [{self.a}, {self.b})")

    def weight(self) -> float:
        """exp(-a) - exp(-b), the trace mass of the interval; ValidationError beyond binary64.

        Computed as exp(-a) * -expm1(-(b - a)) with b - a rounded once, so a
        short interval keeps its relative accuracy instead of cancelling; the
        integer quotient rounds as float(b - a) would, with no Fraction built.
        """
        a, b = self.a, self.b
        try:
            left = math.exp(-(a.numerator / a.denominator))
            if b is None:
                return left
            return left * -math.expm1(-((b.numerator * a.denominator - a.numerator * b.denominator)
                                        / (a.denominator * b.denominator)))
        except OverflowError:
            raise ValidationError(f"trace mass of {self} is beyond the binary64 range") from None

    def shift(self, s: Fraction) -> "Interval":
        return Interval(self.a + s, None if self.b is None else self.b + s)

    def __str__(self):
        hi = "inf" if self.b is None else str(self.b)
        return f"[{self.a}, {hi})"


def interval(a, b) -> Interval:
    """Build [a, b); pass None, math.inf or the string "inf" for an infinite b."""
    return Interval(_to_endpoint(a), None if b in (None, math.inf, "inf") else _to_endpoint(b))


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

    def map_pieces(self, f, algebra=None) -> "CoreElement":
        """Pieces f(x_k) on the same intervals, in ``algebra`` (default: this one).

        f runs once per distinct piece object, so pieces that share a value
        share its image, and with it the image's memoized spectral data.
        """
        images: dict[Element, Element] = {}  # Elements hash by identity
        for x, _ in self.pieces:
            if x not in images:
                images[x] = f(x)
        return CoreElement(self.algebra if algebra is None else algebra,
                           [(images[x], iv) for x, iv in self.pieces])

    def scale(self, scalar) -> "CoreElement":
        return self.map_pieces(lambda x: scalar * x)

    def adjoint(self) -> "CoreElement":
        return self.map_pieces(Element.adjoint)

    def absolute(self) -> "CoreElement":
        return self.map_pieces(absolute)

    def __add__(self, other):
        return _cellwise(self, other, lambda a, b: a + b, lambda b: b)

    def __sub__(self, other):
        return _cellwise(self, other, lambda a, b: a - b, Element.__neg__)

    def __mul__(self, other):
        if isinstance(other, CoreElement):
            return _cellwise(self, other, lambda a, b: a * b)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __repr__(self):
        return f"CoreElement({len(self.pieces)} pieces over dims {self.algebra.block_dims})"


def _steps(e: CoreElement):
    """(point, piece of e from there on or None) at each endpoint of e, ascending; None is +inf."""
    end = None
    for piece, iv in e.pieces:
        if end is not None and end is not iv.a and end != iv.a:
            yield end, None
        yield iv.a, piece
        end = iv.b
    yield end, None


def _cellwise(x: CoreElement, y: CoreElement, op, y_alone=None) -> CoreElement:
    """Apply a blockwise binary operation on the common interval refinement.

    One merge walk over the sorted endpoints of x and y (``_steps``) visits
    the cells between consecutive cut points in order.  ``op`` runs once per
    distinct pair of operand objects on the cells where both operands have a
    piece, so the cells on which the same two pieces meet share one immutable
    result, and with it its memoized spectral data.  A cell where only x has
    a piece holds that piece itself, memo and all; one where only y has a
    piece holds ``y_alone`` of it, formed once per distinct piece: y itself
    under a sum, -y under a difference.  Each equals the zero-filled x + 0,
    x - 0, 0 + y or 0 - y up to the sign of exact zeros (in binary64
    -0.0 + 0.0 is +0.0, and -(+0.0) is -0.0), which no value reads.  No
    zero element is built.  A product passes no ``y_alone`` and visits
    only the cells where both operands have a piece: blocks are finite, so
    elsewhere it is exactly zero, a piece the constructor would drop anyway.
    """
    if x.algebra != y.algebra:
        raise ValidationError("core elements live in different algebras")
    xs, ys = _steps(x), _steps(y)
    (s, xn), (t, yn) = next(xs, (None, None)), next(ys, (None, None))
    a = xa = yb = None  # the current cell starts at a, where x has xa and y has yb
    values: dict[tuple, Element] = {}  # Elements hash by identity
    out = []
    while True:
        at_x = s is not None and (t is None or s is t or s <= t)
        at_y = t is not None and (not at_x or s is t or s == t)
        b = s if at_x else t  # the next cut point; None past the last
        if xa is not None and yb is not None:
            if (xa, yb) not in values:
                values[xa, yb] = op(xa, yb)
            out.append((values[xa, yb], Interval(a, b)))
        elif y_alone is not None and xa is not None:
            out.append((xa, Interval(a, b)))
        elif y_alone is not None and yb is not None:
            if (None, yb) not in values:
                values[None, yb] = y_alone(yb)
            out.append((values[None, yb], Interval(a, b)))
        if b is None:
            return CoreElement(x.algebra, out)
        if at_x:
            xa, (s, xn) = xn, next(xs, (None, None))
        if at_y:
            yb, (t, yn) = yn, next(ys, (None, None))
        a = b


def embed(x: Element) -> CoreElement:
    """The canonical slice x on [0, inf), whose exp(-s) mass is exactly 1."""
    return CoreElement(x.algebra, [(x, Interval(Fraction(0), None))])


def _check_piece_positive(x: Element, iv: Interval):
    if not x.is_hermitian():
        raise ValidationError(f"piece on {iv} is not Hermitian")
    bad = negative_block(x)
    if bad is not None:
        raise ValidationError(
            f"piece on {iv} is not positive: block {bad[0]} eigenvalue {bad[1]!r}")


def canonical_trace(x: CoreElement) -> float:
    """sum_k tau(x_k) (exp(-a_k) - exp(-b_k)) for a positive step element.

    Faithful and tracial on the step class; rejects non-positive input,
    naming the first interval whose piece fails, and a sum beyond the binary64
    range (``finite_sum``).  The distinct piece objects are certified together
    first (``certified_positive``: one stack kernel call per block size, no
    memo written); only a piece left uncertified is checked on its own, by its
    eigenvalues (``negative_block``), once, in piece order, before its term, so
    every verdict and message is that of the check alone.
    """
    pieces = list(dict.fromkeys(p for p, _ in x.pieces))  # Elements hash by identity
    certified = dict(zip(pieces, certified_positive(pieces)))
    terms = []
    for piece, iv in x.pieces:
        if not certified.pop(piece, True):  # a piece's verdict is read once, where it first sits
            _check_piece_positive(piece, iv)
        terms.append(trace(piece).real * iv.weight())
    return finite_sum(terms, "the canonical trace").real


def weighted_trace(x: CoreElement) -> complex:
    """Linear extension of the canonical trace to arbitrary step elements;
    a sum beyond the binary64 range raises ValidationError (``finite_sum``)."""
    return finite_sum((trace(piece) * iv.weight() for piece, iv in x.pieces),
                      "the weighted trace")


def dual_action(s, x: CoreElement) -> CoreElement:
    """Translate every interval by +s (exact rational shift).

    An automorphism of the step class with exact group law; composing with
    the canonical trace rescales it by exp(-s).
    """
    shift = _to_endpoint(s)
    return CoreElement(x.algebra, [(piece, iv.shift(shift)) for piece, iv in x.pieces])


def core_rearrangement(x: CoreElement) -> RearrangementFunction:
    """Decreasing singular-value step function mu of x against the canonical trace.

    Each piece x_k on [a_k, b_k) gives its blocks' values with measures c_i
    times the interval's trace mass (``singular_pairs``), and ``merged_steps``
    merges all pieces' pairs at once, as it merges an Element's blocks; the
    distinct pieces are factored together first (``fill_singular_values``).
    A measure that is not a positive binary64 number raises ValidationError.
    """
    fill_singular_values(dict.fromkeys(piece for piece, _ in x.pieces))
    pairs = []
    for piece, iv in x.pieces:
        pairs += singular_pairs(piece, iv.weight())
    measures = {m for _, m in pairs}
    where = "below" if 0.0 in measures else "beyond" if INF in measures else None
    if where:
        raise ValidationError(f"a piece measure scaled by its interval's trace mass is {where} "
                              "the binary64 range")
    return RearrangementFunction(merged_steps(pairs))


def core_modular_value(phi: OrliczFunction, x: CoreElement, lam: float) -> float:
    """Canonical-trace modular sum w_k tau(Phi(|x_k|/lam)) as an extended real."""
    return core_rearrangement(x).modular(phi, lam)


def core_luxemburg_report(phi: OrliczFunction, x: CoreElement,
                          tol: float = DEFAULT_TOL) -> NormReport:
    return core_rearrangement(x).luxemburg(phi, tol)


def core_luxemburg_norm(phi: OrliczFunction, x: CoreElement, tol: float = DEFAULT_TOL) -> float:
    """inf { lam : canonical-trace modular of x/lam <= 1 } over the step class.

    On the step class with finite-valued Phi some scale always has a finite
    modular, so every step element belongs to the associated space; the
    embedding x -> x on [0, inf) reproduces the base-algebra Luxemburg norm
    because its mass is exactly 1.
    """
    return core_luxemburg_report(phi, x, tol).norm
