"""Finite-dimensional trace algebras and their decomposition toolkit.

An algebra here is a finite direct sum of full complex matrix blocks
``M_{d_1} + ... + M_{d_m}`` carrying the weighted trace
``tau(x) = sum_i c_i Tr(x_i)`` with strictly positive weights ``c_i``;
tau is faithful, normal and finite.  Elements and normal functionals are
stored blockwise; a positive functional is represented by its density
with respect to tau, so ``phi(x) = tau(rho x)`` holds as an identity of
the stored blocks.

All values are immutable after construction and every operation is pure.
Each Element factors its blocks at most once: ``block_eigh`` stores the
per-block eigen data on the Element the first time it is asked for (a
values-only call stores nothing), and every spectral routine (powers,
supports, positivity, ranks) reads it from there (singular values likewise
from ``block_singular_values``, which
``fill_singular_values`` can fill for many Elements at once).  Each block's
rank and one line per computed eigenvalue with its projection (``block_lines``)
and the ``is_hermitian`` verdict are stored the same way, and so is the
distribution of |x| (``trace_orlicz.rearrangement``) that the norms read; the
blocks are read-only, so no memo can go stale.  The memo readers
``block_lines``, ``on_support``, ``power_blocks`` (the blocks of a spectral
power, which ``power_on_support`` wraps in an Element) and ``in_range``, with
``finite_sum``, are the interface that the other modules use; the package does
not export them.  A function of x is evaluated at each computed eigenvalue, so
it is as accurate as the eigendecomposition (Higham, *Functions of Matrices*,
2008, ch. 4).  ``_linalg.levels`` is the one rule for which values are equal
and which are zero: it gives every rank here, the cut of supports, and only
``eigen_spectrum`` merges lines by it.  A Functional keeps its density as one
such Element.
Positivity without eigen data comes from the stack certificate
``_linalg.certifies_positive``, whose one caller is ``certified_positive``
(one call per block size for many Elements at once; ``Element.is_positive``
asks it first), which stores nothing; ``negative_block`` is the eigenvalue
test on the eigen data.  Memos fill lazily without a lock, and a fill never
overwrites a stored memo.  Which kernel fills the singular-value memo depends
on the call that first needs it: ``fill_singular_values`` sends large groups
of same-size blocks to the stack kernel and the rest to the scalar one, and
the two agree to about 1e-15 of a block's largest value, not bit for bit.  So
the same calls in the same order always store the same values, but two
threads that find a memo empty and fill it by different routes at once may
leave either result.

|x| and polar data come from one singular value decomposition per block,
``_linalg.svd`` (one-sided Jacobi with the right singular vectors), so x is
never squared on that route; |x| keeps every singular value, and only the
partial isometry is cut at the rank that ``_linalg.levels`` gives them
(``polar_decompose``).  Every singular value, ``operator_norm``'s included,
comes from ``block_singular_values``; the one eigendecomposition of x* x left
is the spectral check of ``trace_orlicz.fk_integral``, which compares those
values against it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _linalg
from ._linalg import HERMITIAN_RTOL, is_positive_semidefinite
from .errors import ValidationError

_LOG_DBL_MAX = math.log(sys.float_info.max)  # exp(w) is finite for Re w <= this
# t^z = exp(z log t) has its phase off by up to |Im(z log t)| 2^-52 rad, the rounding
# of z log t.  Past this bound, about 1e-6 rad, power_on_support refuses it: at 2^0 rad
# no digit is left (the modular flow at t = 1e15 misses its group law by 0.16).
_PHASE_BOUND = 2.0 ** -20


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Block dimensions plus positive trace weights of a direct-sum algebra."""

    block_dims: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.block_dims) == 0:
            raise ValidationError("algebra needs at least one block")
        if len(self.block_dims) != len(self.weights):
            raise ValidationError(
                f"{len(self.block_dims)} block dims vs {len(self.weights)} weights")
        for d in self.block_dims:
            if not isinstance(d, int) or d < 1:
                raise ValidationError(f"block dimension {d!r} is not a positive integer")
        for c in self.weights:
            if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
                raise ValidationError(f"trace weight {c!r} is not a finite positive real")

    @property
    def nblocks(self) -> int:
        return len(self.block_dims)

    def identity(self) -> "Element":
        return Element(self, [np.eye(d, dtype=np.complex128) for d in self.block_dims])

    def zero(self) -> "Element":
        return Element(self, [np.zeros((d, d), dtype=np.complex128) for d in self.block_dims])

    def matrix_units(self):
        """Yield (block, row, col, Element) for the standard matrix-unit basis."""
        for i, d in enumerate(self.block_dims):
            for j in range(d):
                for k in range(d):
                    blocks = [np.zeros((n, n), dtype=np.complex128) for n in self.block_dims]
                    blocks[i][j, k] = 1.0
                    yield i, j, k, Element(self, blocks)


def make_algebra(dims, weights) -> AlgebraDescriptor:
    """Build an algebra descriptor; the induced trace is tau(x) = sum c_i Tr(x_i)."""
    return AlgebraDescriptor(tuple(int(d) for d in dims), tuple(float(c) for c in weights))


def _freeze(blocks, dims) -> tuple[np.ndarray, ...]:
    if len(blocks) != len(dims):
        raise ValidationError(f"expected {len(dims)} blocks, got {len(blocks)}")
    out = []
    for i, (b, d) in enumerate(zip(blocks, dims)):
        arr = np.array(b, dtype=np.complex128)
        if arr.shape != (d, d):
            raise ValidationError(f"block {i} has shape {arr.shape}, expected {(d, d)}")
        if not np.isfinite(arr).all():
            raise ValidationError(f"block {i} has non-finite entries")
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


class Element:
    """A blockwise complex matrix, the universal carrier for algebra members."""

    __slots__ = ("algebra", "blocks", "_eigh", "_lines", "_svals", "_singular",
                 "_hermitian")

    def __init__(self, algebra: AlgebraDescriptor, blocks):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", _freeze(blocks, algebra.block_dims))
        object.__setattr__(self, "_eigh", None)
        object.__setattr__(self, "_lines", None)
        object.__setattr__(self, "_svals", None)
        object.__setattr__(self, "_singular", None)
        object.__setattr__(self, "_hermitian", None)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def _check_same(self, other: "Element"):
        if self.algebra != other.algebra:
            raise ValidationError("elements live in different algebras")

    def __add__(self, other):
        self._check_same(other)
        return Element(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._check_same(other)
        return Element(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return Element(self.algebra, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return Element(self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)])
        return Element(self.algebra, [complex(other) * a for a in self.blocks])

    def __rmul__(self, scalar):
        return Element(self.algebra, [complex(scalar) * a for a in self.blocks])

    def __truediv__(self, scalar):
        return Element(self.algebra, [a / complex(scalar) for a in self.blocks])

    def adjoint(self) -> "Element":
        return Element(self.algebra, [a.conj().T for a in self.blocks])

    def frobenius_norm(self) -> float:
        return math.hypot(*map(_linalg.frobenius, self.blocks))

    def is_zero(self) -> bool:
        return not any(a.any() for a in self.blocks)

    def is_hermitian(self) -> bool:
        """||x - x*||_F at most HERMITIAN_RTOL ||x||_F, both taken by
        ``_hermitian_deviation``; decided once and stored on x."""
        if self._hermitian is None:
            dev, norm, _ = _hermitian_deviation(self)
            verdict = dev <= HERMITIAN_RTOL * norm or dev == 0.0
            if self._hermitian is None:
                object.__setattr__(self, "_hermitian", verdict)
        return self._hermitian

    def is_positive(self) -> bool:
        """Hermitian, with every block positive semidefinite: certified without
        eigen data when ``certified_positive`` can, else by ``negative_block``."""
        return self.is_hermitian() and (certified_positive((self,))[0]
                                        or negative_block(self) is None)

    def allclose(self, other: "Element", tol: float = 1e-12) -> bool:
        self._check_same(other)
        return (self - other).frobenius_norm() <= tol

    def __repr__(self):
        return f"Element(dims={self.algebra.block_dims})"


def trace(x: Element) -> complex:
    """Weighted trace tau(x) = sum_i c_i Tr(x_i); tracial and faithful.

    A block trace or a sum beyond the binary64 range raises ValidationError.
    """
    return finite_sum((c * b.trace() for c, b in zip(x.algebra.weights, x.blocks)),
                      "the trace")


def finite_sum(terms, what: str) -> complex:
    """complex(sum(terms)), the terms formed under ``np.errstate``; a sum that
    is not finite raises ValidationError naming ``what``."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves inf or nan
        t = complex(sum(terms))
    if not (math.isfinite(t.real) and math.isfinite(t.imag)):
        raise ValidationError(f"{what} is beyond the binary64 range")
    return t


class Functional:
    """A normal functional stored through its density blocks against tau.

    Evaluation is ``phi(x) = sum_i c_i Tr(rho_i x_i)``, and a value beyond the
    binary64 range raises ValidationError.  phi is positive
    exactly when every density block is positive semidefinite, and faithful
    when every block is definite.  The densities are held as one Element,
    so their blocks are factored at most once per functional.
    """

    __slots__ = ("algebra", "_density")

    def __init__(self, algebra: AlgebraDescriptor, densities):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_density", Element(algebra, densities))

    def __setattr__(self, name, value):
        raise AttributeError("Functional is immutable")

    def __call__(self, x: Element) -> complex:
        if x.algebra != self.algebra:
            raise ValidationError("functional applied to element of a different algebra")
        return finite_sum((c * np.trace(r @ b) for c, r, b in
                           zip(self.algebra.weights, self.densities, x.blocks)),
                          "the value of the functional")

    @property
    def densities(self) -> tuple[np.ndarray, ...]:
        return self._density.blocks

    def density_element(self) -> Element:
        return self._density

    def is_zero(self) -> bool:
        return self._density.is_zero()

    def is_positive(self) -> bool:
        return self._density.is_hermitian() and negative_block(self._density) is None

    def is_faithful(self) -> bool:
        return self.is_positive() and tuple(
            rank for rank, _ in block_lines(self._density)) == self.algebra.block_dims

    def norm(self) -> float:
        """Functional norm, equal to tau(|T|) for the density T."""
        return float(trace(absolute(self._density)).real)

    def __repr__(self):
        return f"Functional(dims={self.algebra.block_dims})"


# ---------------------------------------------------------------------------
# spectral calculus


@dataclass(frozen=True)
class SpectralLine:
    """One merged eigenvalue with its multiplicity and spectral projection."""

    block: int
    value: float
    multiplicity: int
    projection: Element


@dataclass(frozen=True)
class Spectrum:
    """Blockwise spectral data of a Hermitian element.

    Lines are ordered block-by-block with descending eigenvalues inside a
    block; projections are Hermitian idempotents summing to the identity,
    and sum(value * projection) reconstructs the element.
    """

    algebra: AlgebraDescriptor
    lines: tuple[SpectralLine, ...]

    def reconstruct(self) -> Element:
        acc = self.algebra.zero()
        for line in self.lines:
            acc = acc + line.value * line.projection
        return acc


def _hermitian_deviation(x: Element) -> tuple[float, float, int]:
    """(||y - y*||_F, ||y||_F, e) with y = x / 2^e.  y = x unless 2 ||x||_F
    overflows or ||x||_F is below 2^-900, where HERMITIAN_RTOL ||x||_F could
    round in the subnormal range; then y has the exact prescale of
    ``_linalg.pow2_prescale``, so neither norm overflows or rounds away."""
    norm = x.frobenius_norm()
    if 2.0 ** -900 <= norm and 2.0 * norm < math.inf:
        blocks, e = x.blocks, 0
    else:
        blocks, e = _linalg.pow2_prescale(x.blocks)
        norm = math.hypot(*map(_linalg.frobenius, blocks))
    return math.hypot(*(_linalg.frobenius(a - a.conj().T) for a in blocks)), norm, e


def _require_hermitian(x: Element, what: str):
    if not x.is_hermitian():
        dev, _, e = _hermitian_deviation(x)
        try:
            dev_text = f"{math.ldexp(dev, e):.3e}"
        except OverflowError:
            dev_text = f"{dev:.3e} * 2^{e}"
        raise ValidationError(f"{what} needs a Hermitian element (||x - x*|| = {dev_text})")


def block_eigh(x: Element, *,
               vectors: bool = True) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
    """Per-block (descending eigenvalues, eigenvectors) of a Hermitian x, read-only.

    The only caller of ``_linalg.hermitian_eigh`` outside ``_linalg``: the
    first call stores the factorisation on x, later calls return it.  With
    ``vectors=False`` a stored factorisation is returned as it is; without
    one, fresh per-block (eigenvalues, None) from the values-only solve, the
    same values bit for bit, and nothing is stored: for a caller that reads
    the eigenvalues of an Element once, such as ``fk_integral``'s y* y.
    """
    if x._eigh is None:
        if not vectors:
            return tuple(_linalg.hermitian_eigh(b, vectors=False) for b in x.blocks)
        eig = tuple(_linalg.hermitian_eigh(b) for b in x.blocks)
        for vals, vecs in eig:
            vals.flags.writeable = vecs.flags.writeable = False
        if x._eigh is None:
            object.__setattr__(x, "_eigh", eig)
    return x._eigh


def block_singular_values(x: Element) -> tuple[np.ndarray, ...]:
    """Per-block descending singular values of x, read-only, stored on x by the
    first call (see ``fill_singular_values``)."""
    if x._svals is None:
        fill_singular_values((x,))
    return x._svals


# Fewest blocks of one dimension that fill_singular_values sends to
# _linalg.singular_values_stack.  Measured through fill_singular_values on
# random blocks, the stack kernel overtakes the scalar one from 4, 4, 8-9,
# 4, 4-5 and 3 blocks for n = 1, ..., 6 (two runs); odd n pays more, since a
# round rotates only (n - 1) / 2 pairs of n columns.  Both bounds lie above
# that crossover: lowering them would move blocks to the other kernel, whose
# values differ at the rounding level.
_STACK_MIN_EVEN = 6
_STACK_MIN_ODD = 12


def fill_singular_values(elements) -> None:
    """Store the per-block singular values on every element that lacks them.

    The blocks of those elements are grouped by dimension.  A group at least
    as large as the measured crossover (``_STACK_MIN_EVEN`` or
    ``_STACK_MIN_ODD`` blocks) is factored by ``_linalg.singular_values_stack``
    in one call, a smaller one block by block by ``_linalg.singular_values``;
    the two agree to rounding.  These are the only calls of either kernel
    outside ``_linalg``.  A memo already filled is never overwritten.
    """
    todo = [x for x in dict.fromkeys(elements) if x._svals is None]  # hash by identity
    groups: dict[int, list[np.ndarray]] = {}
    for x in todo:
        for b in x.blocks:
            groups.setdefault(len(b), []).append(b)
    factored = {}
    for d, blocks in groups.items():
        if len(blocks) >= (_STACK_MIN_ODD if d % 2 else _STACK_MIN_EVEN):
            vals = list(_linalg.singular_values_stack(np.stack(blocks)))
        else:
            vals = [_linalg.singular_values(b) for b in blocks]
        for v in vals:
            v.flags.writeable = False
        factored[d] = iter(vals)  # in the order the blocks were grouped
    for x in todo:
        svals = tuple(next(factored[len(b)]) for b in x.blocks)
        if x._svals is None:
            object.__setattr__(x, "_svals", svals)


def block_lines(x: Element) -> tuple[tuple[int, tuple], ...]:
    """Per-block (rank, lines) of a Hermitian x, stored on x by the first call.

    A line is (eigenvalue, read-only projection v v*) for each computed
    eigenvalue, in descending order; the rank, ``_linalg.levels``' cut of
    supports, counts the leading lines that lie on the support.
    """
    if x._lines is None:
        out = []
        for vals, vecs in block_eigh(x):
            lines = []
            for k, value in enumerate(vals.tolist()):
                cols = vecs[:, [k]]
                proj = cols @ cols.conj().T
                proj.flags.writeable = False
                lines.append((value, proj))
            out.append((_linalg.levels(vals)[2], tuple(lines)))
        if x._lines is None:
            object.__setattr__(x, "_lines", tuple(out))
    return x._lines


def on_support(x: Element, f, kernel: bool = False) -> list[np.ndarray]:
    """Blocks sum f(l) P_l over the lines of a Hermitian x within its rank
    (``block_lines``), the others counting as kernel, where f is 0.  With
    ``kernel`` every line counts, and an f that raises or is not finite there
    is rejected with the eigenvalue and block named (the spectral calculus)."""
    out = []
    for i, (d, (rank, lines)) in enumerate(zip(x.algebra.block_dims, block_lines(x))):
        acc = np.zeros((d, d), dtype=np.complex128)
        for value, proj in (lines if kernel else lines[:rank]):
            if kernel:
                try:
                    y = complex(f(value))
                except Exception as exc:
                    raise ValidationError(f"function undefined at eigenvalue {value!r} "
                                          f"(block {i}): {exc}") from exc
                if not (math.isfinite(y.real) and math.isfinite(y.imag)):
                    raise ValidationError(
                        f"function not finite at eigenvalue {value!r} (block {i}): {y!r}")
                acc += y * proj
            else:
                acc += f(value) * proj
        out.append(acc)
    return out


def negative_block(x: Element) -> tuple[int, float] | None:
    """(block, smallest eigenvalue) of the first block of a Hermitian x that is
    not positive semidefinite (see ``_linalg.is_positive_semidefinite``), or
    None: the eigenvalue test on the eigen data of x (``block_eigh``).
    """
    for i, (vals, _) in enumerate(block_eigh(x)):
        if not is_positive_semidefinite(vals):
            return i, float(vals[-1])
    return None


def certified_positive(elements) -> list[bool]:
    """Per element, whether ``_linalg.certifies_positive`` accepts every block,
    with one kernel call per block size over all their blocks: True proves the
    element Hermitian and positive, False proves nothing.  The only caller of
    the certificate: an element whose eigen data is stored gets False, since
    that data decides for it (``negative_block``), and so does one whose
    block the certificate declines (it also asks each block to be Hermitian on
    its own, so an element Hermitian only as a whole is declined too).
    """
    elements = list(elements)
    todo = [x for x in elements if x._eigh is None]
    groups: dict[int, list[np.ndarray]] = {}
    for x in todo:
        for b in x.blocks:
            groups.setdefault(len(b), []).append(b)
    verdicts = {d: iter(_linalg.certifies_positive(np.array(blocks)).tolist())
                for d, blocks in groups.items()}  # in the order the blocks were grouped
    certified = {x: all([next(verdicts[len(b)]) for b in x.blocks]) for x in todo}
    return [certified.get(x, False) for x in elements]  # Elements hash by identity


def eigen_spectrum(x: Element) -> Spectrum:
    """Spectral decomposition of a Hermitian element, lines merged by ``_linalg.levels``."""
    _require_hermitian(x, "eigen_spectrum")
    lines = []
    for i, (vals, vecs) in enumerate(block_eigh(x)):
        for group, value in zip(*_linalg.levels(vals)[:2]):
            cols = vecs[:, group]
            blocks = [np.zeros((d, d), dtype=np.complex128) for d in x.algebra.block_dims]
            blocks[i] = cols @ cols.conj().T
            lines.append(SpectralLine(i, value, len(group), Element(x.algebra, blocks)))
    return Spectrum(x.algebra, tuple(lines))


def spectral_calculus(x: Element, f) -> Element:
    """Apply a scalar function to a Hermitian element, f(x) = sum f(l_k) P_k.

    The function is evaluated once per computed eigenvalue, kernel included,
    near-equal ones apart; an evaluation that raises or returns a non-finite
    number is rejected with the offending eigenvalue named.
    """
    _require_hermitian(x, "spectral_calculus")
    return Element(x.algebra, on_support(x, f, kernel=True))


def power_on_support(x: Element, z: complex) -> Element:
    """x^z through the spectral calculus, with 0^z := 0 on the kernel: the
    Element of ``power_blocks``."""
    return Element(x.algebra, power_blocks(x, z))


def power_blocks(x: Element, z: complex) -> list[np.ndarray]:
    """Blocks of x^z through the spectral calculus, with 0^z := 0 on the kernel.

    Lines outside the rank are sent to 0, so negative real parts mean
    Moore-Penrose pseudo-inverses and z = 0 or z = it reproduce the support
    projection and the phase unitaries on it.  An eigenvalue whose power lies
    beyond the binary64 range (a pseudo-inverse of a subnormal density, say)
    or whose z log t is not finite (an infinite or NaN exponent, or a finite
    one whose product overflows) raises ValidationError before it is formed;
    so does a phase whose rounding bound |Im(z log t)| 2^-52 passes
    ``_PHASE_BOUND`` rad, once every exponent has been checked.
    """
    _require_hermitian(x, "power_on_support")
    z = complex(z)
    blurred = []  # eigenvalues whose phase passes _PHASE_BOUND

    def power(t):
        w = z * math.log(t)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise ValidationError(
                f"power_on_support: eigenvalue {t!r} to the power {z} has exponent "
                f"z log t = {w}, which is not finite")
        if w.real > _LOG_DBL_MAX:
            raise ValidationError(
                f"power_on_support: eigenvalue {t!r} to the power {z} has modulus "
                f"exp({w.real:.6g}), beyond the binary64 range")
        if (bound := math.ldexp(abs(w.imag), -52)) > _PHASE_BOUND:
            blurred.append((t, bound))
        return np.exp(w)

    blocks = on_support(x, power)
    if blurred:
        t, bound = blurred[0]
        raise ValidationError(f"power_on_support: eigenvalue {t!r} to the power {z} has a phase "
                              f"whose rounding bound {bound:.3g} rad exceeds {_PHASE_BOUND:.3g} rad")
    return blocks


def positive_eigenvalues(x: Element) -> list[list[float]]:
    """Per-block descending eigenvalues of a Hermitian element (no merging)."""
    _require_hermitian(x, "positive_eigenvalues")
    return [[float(v) for v in vals] for vals, _ in block_eigh(x)]


def in_range(x: Element) -> tuple[Element, int]:
    """(x / 2^e, e) with the exact prescale of ``_linalg.pow2_prescale``, so that
    x* x neither overflows nor underflows; e = 0 leaves x as it is.  The stored
    singular values, or the stored eigenvalues of an x found Hermitian, bound
    the entries of x, and when that bound proves e = 0
    (``_linalg.needs_no_prescale``) no prescale pass runs."""
    if x._svals is not None:
        top = max(float(s[0]) for s in x._svals)
    elif x._eigh is not None and x._hermitian:
        top = max(max(float(vals[0]), -float(vals[-1])) for vals, _ in x._eigh)
    else:
        top = 0.0
    if _linalg.needs_no_prescale(top, max(x.algebra.block_dims)):
        return x, 0
    blocks, e = _linalg.pow2_prescale(x.blocks)
    return (Element(x.algebra, blocks) if e else x), e


def absolute(x: Element) -> Element:
    """|x| = (x* x)^(1/2), the |x| of ``polar_decompose``."""
    return polar_decompose(x)[1]


def polar_decompose(x: Element) -> tuple[Element, Element]:
    """Unique polar data x = v |x| with v*v = supp(|x|) and v v* = supp(|x*|).

    Per block a = 2^e u diag(s) v* with u = w / s from ``_linalg.svd``, so
    |a| = 2^e v s v* over every singular value (the prescale undone by
    ``pow2_rescale``), which keeps the distribution of a, and the polar factor
    is u_r v_r* (Higham, "Computing the polar decomposition -- with
    applications", SIAM J. Sci. Stat. Comput. 7, 1986), on the rank r of s
    (``_linalg.levels``), the cut of supports.
    """
    factors, moduli = [], []
    for b in x.blocks:
        w, s, v, e = _linalg.svd(b)
        r = _linalg.levels(s)[2]
        factors.append((w[:, :r] / s[:r]) @ v[:, :r].conj().T)
        moduli.append(_linalg.pow2_rescale((v * s) @ v.conj().T, e))
    return Element(x.algebra, factors), Element(x.algebra, moduli)


def support_projection(obj) -> Element:
    """Smallest projection carrying a positive element or positive functional."""
    if isinstance(obj, Functional):
        if not obj.is_positive():
            raise ValidationError("support_projection needs a positive functional")
        obj = obj.density_element()
    else:
        _require_hermitian(obj, "support_projection")
        bad = negative_block(obj)
        if bad is not None:
            raise ValidationError(f"support_projection needs a positive input; "
                                  f"block {bad[0]} has eigenvalue {bad[1]!r}")
    return Element(obj.algebra, on_support(obj, lambda t: 1.0))


def operator_norm(x: Element) -> float:
    """Largest singular value of x, the top of the memoized one-sided Jacobi
    values (``block_singular_values``); no eigendecomposition is made."""
    return max(float(s[0]) for s in block_singular_values(x))


def functional_polar(phi: Functional) -> tuple[Element, Functional]:
    """Polar data phi(.) = |phi|(. v) with |phi| positive and supp(phi) = v*v.

    The density T of phi factors as T = v |T|, so |phi| carries the density
    |T| and the partial isometry v is shared with the matrix-level polar
    decomposition of T.
    """
    v, a = polar_decompose(phi.density_element())
    return v, Functional(phi.algebra, list(a.blocks))


@dataclass(frozen=True)
class Reduction:
    """Corner data supp(phi) N supp(phi) in a rotated, truncated basis.

    ``isometries[i]`` maps the i-th kept corner block into the original
    block ``kept_blocks[i]``; ``compress`` restricts an original element to
    the corner.
    """

    algebra: AlgebraDescriptor
    functional: Functional
    isometries: tuple[np.ndarray, ...]
    kept_blocks: tuple[int, ...]

    def compress(self, x: Element) -> Element:
        blocks = [u.conj().T @ x.blocks[i] @ u
                  for u, i in zip(self.isometries, self.kept_blocks)]
        return Element(self.algebra, blocks)


def reduce_to_support(phi: Functional) -> Reduction:
    """Restrict a positive functional to its support corner, where it is faithful."""
    if not phi.is_positive():
        raise ValidationError("reduce_to_support needs a positive functional")
    rho = phi.density_element()
    kept = [(i, rank) for i, (rank, _) in enumerate(block_lines(rho)) if rank]
    if not kept:
        raise ValidationError("functional is zero; the support corner is empty")
    eig = block_eigh(rho)
    corner = make_algebra([r for _, r in kept], [phi.algebra.weights[i] for i, _ in kept])
    dens = [np.diag(eig[i][0][:r]).astype(np.complex128) for i, r in kept]
    return Reduction(corner, Functional(corner, dens), tuple(eig[i][1][:, :r] for i, r in kept),
                     tuple(i for i, _ in kept))
