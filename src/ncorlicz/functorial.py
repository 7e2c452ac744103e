"""Block *-isomorphisms and the isometry they induce on Orlicz norms.

A *-isomorphism of finite direct sums of matrix blocks is exactly a
permutation of equal-dimension blocks composed with per-block unitary
conjugations (standard structure theory; validated here on generators
rather than proven).  Trace preservation means the permutation also
matches the trace weights; only those isomorphisms lift to the step
model of the core, where they act piecewise, commute with the dual
action exactly and preserve the canonical trace exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraDescriptor, Element
from .core_model import CoreElement, core_luxemburg_norm
from .errors import ValidationError
from .orliczfn import OrliczFunction
from .trace_orlicz import luxemburg_norm, rearrangement

UNITARY_TOL = 1e-12


class Isomorphism:
    """Permutation-plus-unitaries map: image block pi(i) is u_i x_i u_i*."""

    __slots__ = ("source", "target", "permutation", "unitaries")

    def __init__(self, source: AlgebraDescriptor, target: AlgebraDescriptor,
                 permutation, unitaries):
        try:
            permutation = tuple(map(operator.index, permutation))
        except TypeError:
            raise ValidationError("a permutation entry is not an integer") from None
        if sorted(permutation) != list(range(source.nblocks)):
            raise ValidationError(f"{permutation} is not a permutation of the blocks")
        if target.nblocks != source.nblocks:
            raise ValidationError("source and target block counts differ")
        if len(unitaries) != source.nblocks:
            raise ValidationError(f"{len(unitaries)} unitaries for {source.nblocks} blocks")
        us = []
        for i, (d, p) in enumerate(zip(source.block_dims, permutation)):
            if target.block_dims[p] != d:
                raise ValidationError(
                    f"block {i} (dim {d}) cannot map onto target block {p} "
                    f"(dim {target.block_dims[p]})")
            u = np.array(unitaries[i], dtype=np.complex128)
            if u.shape != (d, d):
                raise ValidationError(f"unitary {i} has shape {u.shape}, expected {(d, d)}")
            if np.linalg.norm(u @ u.conj().T - np.eye(d)) > UNITARY_TOL * max(1.0, d):
                raise ValidationError(f"matrix {i} is not unitary")
            u.flags.writeable = False
            us.append(u)
        self.source = source
        self.target = target
        self.permutation = permutation
        self.unitaries = tuple(us)

    @property
    def trace_preserving(self) -> bool:
        return all(self.target.weights[p] == c
                   for p, c in zip(self.permutation, self.source.weights))

    def apply(self, x: Element) -> Element:
        """Image of x: multiplicative, adjoint-preserving, unital, injective."""
        if x.algebra != self.source:
            raise ValidationError("element does not live in the source algebra")
        blocks = [np.zeros((d, d), dtype=np.complex128) for d in self.target.block_dims]
        for i, p in enumerate(self.permutation):
            blocks[p] = self.unitaries[i] @ x.blocks[i] @ self.unitaries[i].conj().T
        return Element(self.target, blocks)

    def lift(self, x: CoreElement) -> CoreElement:
        """Piecewise image on the step model; needs trace preservation.

        Intervals are untouched, so the lift commutes with the dual action
        exactly and preserves the canonical trace exactly.  The map is applied
        once per distinct piece object (``CoreElement.map_pieces``), so pieces
        that share a value share its image.
        """
        if not self.trace_preserving:
            raise ValidationError(
                "only trace-preserving isomorphisms lift to the core model "
                "(the canonical trace covariance would fail)")
        if x.algebra != self.source:
            raise ValidationError("core element does not live in the source algebra")
        return x.map_pieces(self.apply, self.target)

    def __repr__(self):
        return f"Isomorphism(perm={self.permutation})"


def identity_isomorphism(algebra: AlgebraDescriptor) -> Isomorphism:
    return Isomorphism(algebra, algebra, range(algebra.nblocks),
                       [np.eye(d) for d in algebra.block_dims])


def compose(second: Isomorphism, first: Isomorphism) -> Isomorphism:
    """second after first."""
    if first.target != second.source:
        raise ValidationError("isomorphisms do not compose: target/source mismatch")
    perm = tuple(second.permutation[p] for p in first.permutation)
    unitaries = [second.unitaries[first.permutation[i]] @ first.unitaries[i]
                 for i in range(first.source.nblocks)]
    return Isomorphism(first.source, second.target, perm, unitaries)


def apply_isomorphism(iso: Isomorphism, x: Element) -> Element:
    return iso.apply(x)


def lift_to_core(iso: Isomorphism, x: CoreElement) -> CoreElement:
    return iso.lift(x)


@dataclass(frozen=True)
class IsometryReport:
    """verify_isometry outcome: max deviations and the first witness, if any."""

    passed: bool
    samples: int
    max_base_deviation: float
    max_core_deviation: float
    rearrangement_equal: bool
    witness: str | None


def verify_isometry(iso: Isomorphism, phi: OrliczFunction, samples: int,
                    rng, rtol: float = 1e-9) -> IsometryReport:
    """Check norm invariance of the isomorphism on random elements.

    Draws ``samples`` base elements and step elements from ``rng`` (a
    sampling.SplitMix64), compares Luxemburg norms before and after the
    map at relative tolerance ``rtol``, and compares rearrangement step
    data (exact lengths, values equal after the eigenvalue merge).
    """
    from .sampling import rand_core_element, rand_element  # local: avoid import cycle

    if not iso.trace_preserving:
        raise ValidationError("verify_isometry needs a trace-preserving isomorphism")
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    max_base = 0.0
    max_core = 0.0
    rearr_ok = True
    witness = None
    for k in range(samples):
        x = rand_element(rng, iso.source)
        y = iso.apply(x)
        n0 = luxemburg_norm(phi, x)
        n1 = luxemburg_norm(phi, y)
        dev = abs(n0 - n1) / max(n0, n1, 1e-300)
        max_base = max(max_base, dev)
        if dev > rtol and witness is None:
            witness = f"base sample {k}: {n0!r} vs {n1!r}"
        if not rearrangement(x).matches(rearrangement(y)):
            rearr_ok = False
            if witness is None:
                witness = f"rearrangement mismatch at base sample {k}"
        cx = rand_core_element(rng, iso.source, pieces=2)
        c0 = core_luxemburg_norm(phi, cx)
        c1 = core_luxemburg_norm(phi, iso.lift(cx))
        cdev = abs(c0 - c1) / max(c0, c1, 1e-300)
        max_core = max(max_core, cdev)
        if cdev > rtol and witness is None:
            witness = f"core sample {k}: {c0!r} vs {c1!r}"
    passed = max_base <= rtol and max_core <= rtol and rearr_ok
    return IsometryReport(passed, samples, max_base, max_core, rearr_ok, witness)


def norm_ratio_diagnostic(iso: Isomorphism, phi: OrliczFunction, samples: int,
                          rng) -> tuple[float, float]:
    """(min, max) of the base-norm ratio under the map; a diagnostic only.

    Useful for weight-rescaling isomorphisms, where the norm change is
    reported rather than asserted.
    """
    from .sampling import rand_element

    lo, hi = float("inf"), 0.0
    for _ in range(samples):
        x = rand_element(rng, iso.source)
        n0 = luxemburg_norm(phi, x)
        n1 = luxemburg_norm(phi, iso.apply(x))
        if n0 > 0:
            r = n1 / n0
            lo, hi = min(lo, r), max(hi, r)
    return lo, hi
