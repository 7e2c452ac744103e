"""Deterministic sampling built on a SplitMix64 stream.

All stochastic property checks and the CLI suite draw from this
generator, so a fixed seed reproduces every sample exactly.  SplitMix64
advances a 64-bit counter by the golden-ratio increment and mixes it
through two xor-multiply rounds; uniforms take the top 53 bits, normals
come from Box-Muller.

Output k of the stream depends only on seed + k * increment mod 2^64, so
``SplitMix64.normals`` computes a whole batch of outputs in numpy
``uint64`` and still equals that many ``normal()`` calls bit for bit; the
random elements and matrices draw their entries that way, one batch per
call.  Box-Muller's log, sin and cos come from the C library through
``math`` in both paths, never from numpy, whose vectorised transcendentals
may round differently.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import AlgebraDescriptor, Element, Functional
from .core_model import CoreElement, Interval
from .errors import ValidationError
from .functorial import Isomorphism

_MASK = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GAMMA_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_TWO_PI = 2.0 * math.pi


def _box_muller(u_open: list[float], u: list[float]) -> list[float]:
    """Box-Muller on pairs (u_open in (0, 1], u in [0, 1)): r cos theta, r sin theta
    for each pair in turn, with r = sqrt(-2 log u_open) and theta = 2 pi u."""
    out = []
    for a, b in zip(u_open, u):
        r = math.sqrt(-2.0 * math.log(a))
        theta = _TWO_PI * b
        out += (r * math.cos(theta), r * math.sin(theta))
    return out


class SplitMix64:
    def __init__(self, seed: int):
        self.state = int(seed) & _MASK
        self._spare: float | None = None

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def uniform(self) -> float:
        """Uniform in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_open(self) -> float:
        """Uniform in (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValidationError("randint needs n >= 1")
        return self.next_u64() % n

    def normal(self) -> float:
        if self._spare is not None:
            v = self._spare
            self._spare = None
            return v
        v, self._spare = _box_muller([self.uniform_open()], [self.uniform()])
        return v

    def normals(self, count: int) -> np.ndarray:
        """The next ``count`` normals as a float64 array: bit for bit those of
        ``count`` calls of ``normal()``, leaving the same state and spare."""
        if count < 0:
            raise ValidationError("normals needs count >= 0")
        out = []
        if count and self._spare is not None:
            out.append(self._spare)
            self._spare = None
        pairs = (count - len(out) + 1) // 2
        if pairs:
            # Outputs 1 .. 2 * pairs of the stream at once; uint64 array
            # arithmetic wraps mod 2^64 as the scalar stream does.
            z = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
            z *= _GAMMA_U64
            z += np.uint64(self.state)
            self.state = (self.state + 2 * pairs * _GAMMA) & _MASK
            z ^= z >> 30
            z *= _MIX1_U64
            z ^= z >> 27
            z *= _MIX2_U64
            z ^= z >> 31
            u = (z >> 11).astype(np.float64) * 2.0 ** -53
            out += _box_muller((u[0::2] + 2.0 ** -53).tolist(), u[1::2].tolist())
            if len(out) > count:
                self._spare = out.pop()
        return np.array(out, dtype=np.float64)


def rand_matrix(rng: SplitMix64, n: int, scale: float = 1.0) -> np.ndarray:
    """n x n complex Gaussian matrix, entries (re, im) in row-major order."""
    return scale * rng.normals(2 * n * n).view(np.complex128).reshape(n, n)


def rand_element(rng: SplitMix64, algebra: AlgebraDescriptor, scale: float = 1.0) -> Element:
    """Blocks of ``rand_matrix`` draws in block order, all from one batch."""
    flat = rng.normals(2 * sum(d * d for d in algebra.block_dims)).view(np.complex128)
    blocks, start = [], 0
    for d in algebra.block_dims:
        blocks.append(scale * flat[start:start + d * d].reshape(d, d))
        start += d * d
    return Element(algebra, blocks)


def rand_hermitian(rng: SplitMix64, algebra: AlgebraDescriptor) -> Element:
    x = rand_element(rng, algebra)
    return 0.5 * (x + x.adjoint())


def rand_positive(rng: SplitMix64, algebra: AlgebraDescriptor) -> Element:
    x = rand_element(rng, algebra)
    return x.adjoint() * x


def rand_unitary_matrix(rng: SplitMix64, n: int) -> np.ndarray:
    """Haar-ish unitary: modified Gram-Schmidt of a Ginibre draw, phases fixed."""
    g = rand_matrix(rng, n)
    q = np.zeros_like(g)
    for k in range(n):
        v = g[:, k].copy()
        for _ in range(2):
            for j in range(k):
                v -= np.vdot(q[:, j], v) * q[:, j]
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:  # essentially impossible; restart the column
            return rand_unitary_matrix(rng, n)
        v /= nrm
        pivot = v[np.argmax(np.abs(v))]
        q[:, k] = v * (abs(pivot) / pivot)
    return q


def rand_unitary_element(rng: SplitMix64, algebra: AlgebraDescriptor) -> Element:
    return Element(algebra, [rand_unitary_matrix(rng, d) for d in algebra.block_dims])


def rand_density_matrix(rng: SplitMix64, n: int, rank: int | None = None) -> np.ndarray:
    """PSD matrix with eigenvalues in [0.2, 1.2] and exact zeros beyond the
    requested rank."""
    if rank is None:
        rank = n
    if not 0 <= rank <= n:
        raise ValidationError(f"rank {rank} out of range for dimension {n}")
    u = rand_unitary_matrix(rng, n)
    vals = np.array([0.2 + rng.uniform() if k < rank else 0.0 for k in range(n)])
    return (u * vals) @ u.conj().T


def rand_functional(rng: SplitMix64, algebra: AlgebraDescriptor,
                    ranks: list[int] | None = None) -> Functional:
    if ranks is None:
        ranks = list(algebra.block_dims)
    dens = [rand_density_matrix(rng, d, r) for d, r in zip(algebra.block_dims, ranks)]
    return Functional(algebra, dens)


def rand_faithful_functional(rng: SplitMix64, algebra: AlgebraDescriptor) -> Functional:
    return rand_functional(rng, algebra)


def rand_core_element(rng: SplitMix64, algebra: AlgebraDescriptor,
                      pieces: int = 3, positive: bool = False) -> CoreElement:
    """Random step element with rational endpoints in [-4, 6], denominator 8."""
    cuts = sorted({Fraction(rng.randint(81) - 32, 8) for _ in range(2 * pieces)})
    out = []
    k = 0
    while k + 1 < len(cuts) and len(out) < pieces:
        a, b = cuts[k], cuts[k + 1]
        x = rand_element(rng, algebra)
        if positive:
            x = x.adjoint() * x
        out.append((x, Interval(a, b)))
        k += 2
    if rng.uniform() < 0.3 and cuts:
        x = rand_element(rng, algebra)
        if positive:
            x = x.adjoint() * x
        last = max(iv.b for _, iv in out) if out else cuts[-1]
        out.append((x, Interval(last + 1, None)))
    return CoreElement(algebra, out)


def rand_isomorphism(rng: SplitMix64, algebra: AlgebraDescriptor) -> Isomorphism:
    """Trace-preserving isomorphism: a permutation within groups of blocks of
    equal (dim, weight), composed with random per-block unitaries."""
    n = algebra.nblocks
    perm = list(range(n))
    groups: dict[tuple[int, float], list[int]] = {}
    for i, (d, c) in enumerate(zip(algebra.block_dims, algebra.weights)):
        groups.setdefault((d, c), []).append(i)
    for members in groups.values():
        shuffled = members.copy()
        for k in range(len(shuffled) - 1, 0, -1):
            j = rng.randint(k + 1)
            shuffled[k], shuffled[j] = shuffled[j], shuffled[k]
        for src, dst in zip(members, shuffled):
            perm[src] = dst
    unitaries = [rand_unitary_matrix(rng, d) for d in algebra.block_dims]
    return Isomorphism(algebra, algebra, tuple(perm), unitaries)
