"""Finite-dimensional trace algebras and their decomposition toolkit.

An algebra here is a finite direct sum of full complex matrix blocks
``M_{d_1} + ... + M_{d_m}`` carrying the weighted trace
``tau(x) = sum_i c_i Tr(x_i)`` with strictly positive weights ``c_i``;
tau is faithful, normal and finite.  Elements and normal functionals are
stored blockwise; a positive functional is represented by its density
with respect to tau, so ``phi(x) = tau(rho x)`` holds as an identity of
the stored blocks.

All values are immutable after construction and every operation is pure,
so concurrent read access is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg
from ._linalg import CLUSTER_RTOL, RANK_RTOL, is_positive_semidefinite
from .errors import ValidationError

HERMITIAN_RTOL = 1e-12


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

    @property
    def total_dim(self) -> int:
        """Complex dimension sum(d_i^2) of the algebra as a vector space."""
        return sum(d * d for d in self.block_dims)

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
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


class Element:
    """A blockwise complex matrix, the universal carrier for algebra members."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: AlgebraDescriptor, blocks):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", _freeze(blocks, algebra.block_dims))

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
        return all(np.all(a == 0) for a in self.blocks)

    def is_hermitian(self, rtol: float = HERMITIAN_RTOL) -> bool:
        dev = (self - self.adjoint()).frobenius_norm()
        return dev <= rtol * max(self.frobenius_norm(), 0.0) or dev == 0.0

    def allclose(self, other: "Element", tol: float = 1e-12) -> bool:
        self._check_same(other)
        return (self - other).frobenius_norm() <= tol

    def __repr__(self):
        return f"Element(dims={self.algebra.block_dims})"


def trace(x: Element) -> complex:
    """Weighted trace tau(x) = sum_i c_i Tr(x_i); tracial and faithful."""
    return complex(sum(c * np.trace(b) for c, b in zip(x.algebra.weights, x.blocks)))


class Functional:
    """A normal functional stored through its density blocks against tau.

    Evaluation is ``phi(x) = sum_i c_i Tr(rho_i x_i)``; phi is positive
    exactly when every density block is positive semidefinite, and faithful
    when every block is definite.
    """

    __slots__ = ("algebra", "densities")

    def __init__(self, algebra: AlgebraDescriptor, densities):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "densities", _freeze(densities, algebra.block_dims))

    def __setattr__(self, name, value):
        raise AttributeError("Functional is immutable")

    def __call__(self, x: Element) -> complex:
        if x.algebra != self.algebra:
            raise ValidationError("functional applied to element of a different algebra")
        return complex(sum(c * np.trace(r @ b)
                           for c, r, b in zip(self.algebra.weights, self.densities, x.blocks)))

    def density_element(self) -> Element:
        return Element(self.algebra, list(self.densities))

    def is_zero(self) -> bool:
        return all(np.all(r == 0) for r in self.densities)

    def is_positive(self) -> bool:
        return self.density_element().is_hermitian() and all(
            is_positive_semidefinite(_linalg.hermitian_eigh(r)[0]) for r in self.densities)

    def is_faithful(self, rtol: float = RANK_RTOL) -> bool:
        if not self.is_positive():
            return False
        for r, d in zip(self.densities, self.algebra.block_dims):
            vals, _ = _linalg.hermitian_eigh(r)
            if _linalg.rank_from_eigenvalues(vals, rtol) < d:
                return False
        return True

    def norm(self) -> float:
        """Functional norm, equal to tau(|T|) for the density T."""
        _, a = polar_decompose(self.density_element())
        return float(trace(a).real)

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

    def eigenvalues_by_block(self) -> list[list[float]]:
        out: list[list[float]] = [[] for _ in range(self.algebra.nblocks)]
        for line in self.lines:
            out[line.block].append(line.value)
        return out

    def reconstruct(self) -> Element:
        acc = self.algebra.zero()
        for line in self.lines:
            acc = acc + line.value * line.projection
        return acc


def _require_hermitian(x: Element, what: str):
    if not x.is_hermitian():
        dev = (x - x.adjoint()).frobenius_norm()
        raise ValidationError(f"{what} needs a Hermitian element "
                              f"(||x - x*|| = {dev:.3e})")


def _block_eigh(x: Element) -> list[tuple[np.ndarray, np.ndarray]]:
    return [_linalg.hermitian_eigh(b) for b in x.blocks]


def _clustered(vals: np.ndarray, vecs: np.ndarray):
    """Yield (representative value, multiplicity, projection matrix) per cluster."""
    for group in _linalg.cluster_indices(vals):
        rep = float(np.mean(vals[group]))
        cols = vecs[:, group]
        proj = cols @ cols.conj().T
        yield rep, len(group), proj


def eigen_spectrum(x: Element) -> Spectrum:
    """Spectral decomposition of a Hermitian element with degeneracy merging."""
    _require_hermitian(x, "eigen_spectrum")
    lines = []
    for i, (vals, vecs) in enumerate(_block_eigh(x)):
        for rep, mult, proj in _clustered(vals, vecs):
            blocks = [np.zeros((d, d), dtype=np.complex128) for d in x.algebra.block_dims]
            blocks[i] = proj
            lines.append(SpectralLine(i, rep, mult, Element(x.algebra, blocks)))
    return Spectrum(x.algebra, tuple(lines))


def spectral_calculus(x: Element, f) -> Element:
    """Apply a scalar function to a Hermitian element, f(x) = sum f(l_k) P_k.

    The function is evaluated once per merged eigenvalue cluster; an
    evaluation that raises or returns a non-finite number is rejected with
    the offending eigenvalue named.
    """
    _require_hermitian(x, "spectral_calculus")
    out_blocks = []
    for i, (vals, vecs) in enumerate(_block_eigh(x)):
        d = x.algebra.block_dims[i]
        acc = np.zeros((d, d), dtype=np.complex128)
        for rep, _, proj in _clustered(vals, vecs):
            try:
                y = complex(f(rep))
            except Exception as exc:
                raise ValidationError(
                    f"function undefined at eigenvalue {rep!r} (block {i}): {exc}") from exc
            if not (math.isfinite(y.real) and math.isfinite(y.imag)):
                raise ValidationError(
                    f"function not finite at eigenvalue {rep!r} (block {i}): {y!r}")
            acc += y * proj
        out_blocks.append(acc)
    return Element(x.algebra, out_blocks)


def power_on_support(x: Element, z: complex) -> Element:
    """x^z through the spectral calculus, with 0^z := 0 on the kernel.

    Eigenvalues at or below the rank threshold are sent to 0, so negative
    real parts mean Moore-Penrose pseudo-inverses and z = 0 or z = it
    reproduce the support projection and the phase unitaries on it.
    """
    _require_hermitian(x, "power_on_support")
    out_blocks = []
    for i, (vals, vecs) in enumerate(_block_eigh(x)):
        d = x.algebra.block_dims[i]
        top = float(vals[0]) if vals.size else 0.0
        acc = np.zeros((d, d), dtype=np.complex128)
        for rep, _, proj in _clustered(vals, vecs):
            if rep <= RANK_RTOL * max(top, 0.0) or rep <= 0.0:
                continue
            acc += np.exp(complex(z) * math.log(rep)) * proj
        out_blocks.append(acc)
    return Element(x.algebra, out_blocks)


def positive_eigenvalues(x: Element) -> list[list[float]]:
    """Per-block descending eigenvalues of a Hermitian element (no merging)."""
    _require_hermitian(x, "positive_eigenvalues")
    return [[float(v) for v in vals] for vals, _ in _block_eigh(x)]


def _in_range(x: Element) -> tuple[Element, int]:
    """(x / 2^e, e) with the exact prescale of ``_linalg.pow2_prescale``, so that
    x* x neither overflows nor underflows; e = 0 leaves x as it is."""
    blocks, e = _linalg.pow2_prescale(x.blocks)
    return (Element(x.algebra, blocks) if e else x), e


def absolute(x: Element) -> Element:
    """|x| = (x* x)^(1/2), formed from an in-range power-of-two multiple of x."""
    y, e = _in_range(x)
    a = spectral_calculus(y.adjoint() * y, lambda t: math.sqrt(max(t, 0.0)))
    return Element(x.algebra, _linalg.pow2_rescale(a.blocks, e))


def polar_decompose(x: Element) -> tuple[Element, Element]:
    """Unique polar data x = v |x| with v*v = supp(|x|) and v v* = supp(|x*|)."""
    y, e = _in_range(x)
    a_blocks = []
    pinv_blocks = []
    for vals, vecs in _block_eigh(y.adjoint() * y):
        d = vecs.shape[0]
        top = float(vals[0]) if vals.size else 0.0
        a = np.zeros((d, d), dtype=np.complex128)
        pinv = np.zeros((d, d), dtype=np.complex128)
        for rep, _, proj in _clustered(vals, vecs):
            if rep <= RANK_RTOL * max(top, 0.0) or rep <= 0.0:
                continue
            root = math.sqrt(rep)
            a += root * proj
            pinv += (1.0 / root) * proj
        a_blocks.append(a)
        pinv_blocks.append(pinv)
    v = y * Element(x.algebra, pinv_blocks)
    return v, Element(x.algebra, _linalg.pow2_rescale(a_blocks, e))


def support_projection(obj) -> Element:
    """Smallest projection carrying a positive element or positive functional."""
    if isinstance(obj, Functional):
        if not obj.is_positive():
            raise ValidationError("support_projection needs a positive functional")
        x = obj.density_element()
    else:
        x = obj
    _require_hermitian(x, "support_projection")
    out_blocks = []
    for i, (vals, vecs) in enumerate(_block_eigh(x)):
        d = x.algebra.block_dims[i]
        top = float(vals[0]) if vals.size else 0.0
        if not is_positive_semidefinite(vals):
            raise ValidationError(
                f"support_projection needs a positive input; block {i} has "
                f"eigenvalue {float(vals[-1])!r}")
        acc = np.zeros((d, d), dtype=np.complex128)
        for rep, _, proj in _clustered(vals, vecs):
            if rep > RANK_RTOL * max(top, 0.0):
                acc += proj
        out_blocks.append(acc)
    return Element(x.algebra, out_blocks)


def operator_norm(x: Element) -> float:
    """Largest singular value of x, the root of the top eigenvalue of x* x."""
    y, e = _in_range(x)
    top = 0.0
    for vals, _ in _block_eigh(y.adjoint() * y):
        if vals.size:
            top = max(top, float(vals[0]))
    return float(_linalg.ldexp_values([math.sqrt(max(top, 0.0))], e, "singular values")[0])


def functional_polar(phi: Functional) -> tuple[Element, Functional]:
    """Polar data phi(.) = |phi|(. v) with |phi| positive and supp(phi) = v*v.

    The density T of phi factors as T = v |T|, so |phi| carries the density
    |T| and the partial isometry v is shared with the matrix-level polar
    decomposition of T.
    """
    t = phi.density_element()
    v, a = polar_decompose(t)
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
    dims = []
    weights = []
    isometries = []
    kept = []
    dens = []
    for i, (r, c) in enumerate(zip(phi.densities, phi.algebra.weights)):
        vals, vecs = _linalg.hermitian_eigh(r)
        rk = _linalg.rank_from_eigenvalues(vals)
        if rk == 0:
            continue
        u = vecs[:, :rk]
        dims.append(rk)
        weights.append(c)
        isometries.append(u)
        kept.append(i)
        dens.append(np.diag(vals[:rk]).astype(np.complex128))
    if not dims:
        raise ValidationError("functional is zero; the support corner is empty")
    corner = make_algebra(dims, weights)
    restricted = Functional(corner, dens)
    return Reduction(corner, restricted, tuple(isometries), tuple(kept))
