"""Modular theory over finite-dimensional trace algebras.

The standard form used throughout is the Hilbert-Schmidt one: vectors
are block matrix tuples with <xi, zeta> = sum_i c_i Tr(xi_i* zeta_i),
the algebra acts by left multiplication, the modular conjugation is the
blockwise adjoint, and the positive cone consists of the positive
elements.  The vector representative of a positive functional is the
square root of its density, relative modular operators act by
xi -> rho_phi xi rho_omega^+ (pseudo-inverse on the right support), and
Connes cocycles are the phase-power products rho_phi^{it} rho_omega^{-it}.

Matrices use the matrix units e_jk, block by block and row-major inside a
block (the order of ``matrix_units``); there xi -> a xi b is blockdiag_i
kron(a_i, b_i^T), entry [(j, k), (l, m)] = a_jl b_mk, and every matrix below
is built from that identity instead of by applying its map to each unit.
Spectral data, the GNS basis included, comes from ``algebra.block_eigh`` and
its memo on each density; the module calls no ``numpy.linalg``.  Powers stay
blocks (``algebra.power_blocks``) and products are formed block by block, so
the cocycle, the flow, the Radon-Nikodym root and ``ModularOperator.apply`` /
``power_apply`` each build one Element, the one they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .algebra import (AlgebraDescriptor, Element, Functional, block_eigh, block_lines,
                      in_range, on_support, power_blocks, power_on_support, trace)
from .errors import ValidationError


# ---------------------------------------------------------------------------
# GNS construction


@dataclass(frozen=True)
class GNSData:
    """Concrete GNS space of a positive functional.

    The carrier is the span of the classes [x] = x rho^(1/2) inside the
    Hilbert-Schmidt space; ``basis`` holds the orthonormal basis
    blockdiag_i kron(I, conj(V_i)) of that span as columns over the matrix
    units (block i scaled by sqrt(c_i)), V_i the support eigenvectors of
    rho_i, ``gram`` the inner products omega(e_a* e_b) = blockdiag_i
    c_i kron(I, rho_i^T), and ``cyclic_vector`` the class of the identity.
    """

    algebra: AlgebraDescriptor
    functional: Functional
    dimension: int
    gram: np.ndarray
    basis: np.ndarray
    cyclic_vector: np.ndarray
    _root: tuple[np.ndarray, ...]
    _ranks: tuple[int, ...]

    def embed(self, x: Element) -> np.ndarray:
        """Coordinates of the class [x] in the orthonormal basis."""
        return self.basis.conj().T @ _ambient(self.algebra, self._root, x)

    def represent(self, x: Element) -> np.ndarray:
        """Matrix blockdiag_i kron(x_i, I_{r_i}) of left multiplication by x, r_i = rank(rho_i):
        on the basis, kron(I, W)* kron(x_i, I) kron(I, W) = kron(x_i, W* W)."""
        return _linalg.block_diag([_linalg.kron(xb, np.eye(r))
                                   for xb, r in zip(x.blocks, self._ranks)])


def gns(omega: Functional) -> GNSData:
    """GNS space, representation and cyclic vector of a positive functional.

    The class of e_jk is row (j, k) of blockdiag_i sqrt(c_i) kron(I, rho_i^(1/2)),
    e_j tensor rho_i^(1/2)[k, :], and the rows of rho_i^(1/2) span conj(v) over
    its support eigenvectors v.  So the basis is blockdiag_i kron(I, conj(V_i)),
    V_i the first r_i columns of the density's memoized eigenvectors, r_i the
    rank of ``block_lines``, which ``on_support`` keeps; the dimension is
    sum_i d_i r_i, and the basis is orthonormal as far as V_i is, at every scale.
    The cyclic vector, the class of 1, is read off the blocks sqrt(c_i) rho_i^(1/2).
    """
    if not omega.is_positive():
        raise ValidationError("gns needs a positive functional")
    if omega.is_zero():
        raise ValidationError("gns of the zero functional is empty")
    alg = omega.algebra
    rho = omega.density_element()
    root = tuple(on_support(rho, math.sqrt))
    ranks = tuple(rank for rank, _ in block_lines(rho))
    basis = _linalg.block_diag([_linalg.kron(np.eye(len(vecs)), vecs[:, :r].conj())
                                for (_, vecs), r in zip(block_eigh(rho), ranks)])
    gram = _linalg.block_diag([c * _linalg.kron(np.eye(len(r)), r.T)
                               for c, r in zip(alg.weights, omega.densities)])
    cyc = basis.conj().T @ np.concatenate([math.sqrt(c) * r.ravel()
                                           for c, r in zip(alg.weights, root)])
    return GNSData(alg, omega, basis.shape[1], gram, basis, cyc, root, ranks)


def _ambient(alg: AlgebraDescriptor, root, x: Element) -> np.ndarray:
    """x rho^(1/2) flattened into the Hilbert-Schmidt space, blocks scaled by sqrt(c_i)."""
    return np.concatenate([math.sqrt(c) * (xb @ rb).ravel()
                           for c, xb, rb in zip(alg.weights, x.blocks, root)])


# ---------------------------------------------------------------------------
# standard form


class StandardForm:
    """Hilbert-Schmidt standard form of a trace algebra.

    Carries the inner product, the blockwise-adjoint conjugation and the
    positive cone, plus the canonical vector representative of positive
    functionals; the left action of x on xi is the product x * xi.
    """

    def __init__(self, algebra: AlgebraDescriptor):
        self.algebra = algebra

    def inner(self, xi: Element, zeta: Element) -> complex:
        return trace(xi.adjoint() * zeta)

    def conjugation(self, xi: Element) -> Element:
        return xi.adjoint()

    def in_cone(self, xi: Element) -> bool:
        return xi.is_positive()

    def vector_representative(self, phi: Functional) -> Element:
        """The cone vector xi(phi) = rho^(1/2) with phi(x) = <xi, x xi>."""
        if not phi.is_positive():
            raise ValidationError("vector representative needs a positive functional")
        return Element(self.algebra, on_support(phi.density_element(), math.sqrt))


def standard_form(algebra: AlgebraDescriptor) -> StandardForm:
    return StandardForm(algebra)


# ---------------------------------------------------------------------------
# relative modular operators


class ModularOperator:
    """Relative modular operator xi -> rho_phi xi rho_omega^+ on the standard form.

    Powers use the kernel convention 0^z = 0, so real powers are
    Moore-Penrose and imaginary powers are phase unitaries on the support;
    the operator is positive on its support, which is the left support of
    phi tensored against the right support of omega.
    """

    def __init__(self, phi: Functional, omega: Functional):
        if phi.algebra != omega.algebra:
            raise ValidationError("functionals live in different algebras")
        if not (phi.is_positive() and omega.is_positive()):
            raise ValidationError("relative modular operator needs positive functionals")
        self.algebra = phi.algebra
        self.phi = phi
        self.omega = omega
        self.rho_left = phi.density_element()
        self.rho_right_pinv = power_on_support(omega.density_element(), -1.0)

    def apply(self, xi: Element) -> Element:
        return _sandwich(self.algebra, self.rho_left.blocks, xi, self.rho_right_pinv.blocks)

    def power_apply(self, z: complex, xi: Element) -> Element:
        left = power_blocks(self.rho_left, z)
        right = power_blocks(self.omega.density_element(), -z)
        return _sandwich(self.algebra, left, xi, right)

    def matrix(self, z: complex = 1.0) -> np.ndarray:
        """blockdiag_i kron(L_i, R_i^T), L = rho_phi^z, R = rho_omega^-z: the z-th power on
        the units e_jk / sqrt(c_i) in matrix-unit order, whose weights cancel tau's."""
        if z == 1.0:
            left, right = self.rho_left.blocks, self.rho_right_pinv.blocks
        else:
            left = power_blocks(self.rho_left, z)
            right = power_blocks(self.omega.density_element(), -z)
        return _linalg.block_diag([_linalg.kron(a, b.T) for a, b in zip(left, right)])


def _sandwich(algebra: AlgebraDescriptor, left, x: Element, right) -> Element:
    """The Element of blocks (a_i x_i) b_i, the product a * x * b of Elements,
    for an x of ``algebra``."""
    if x.algebra != algebra:
        raise ValidationError("elements live in different algebras")
    return Element(algebra, [(a @ xb) @ b for a, xb, b in zip(left, x.blocks, right)])


def relative_modular(phi: Functional, omega: Functional) -> ModularOperator:
    """Relative modular operator of the pair (phi, omega)."""
    return ModularOperator(phi, omega)


def modular_flow(phi: Functional, t: float, x: Element) -> Element:
    """Modular automorphism sigma_t(x) = rho^{it} x rho^{-it} of a faithful functional."""
    if not phi.is_faithful():
        raise ValidationError(
            "modular flow needs a faithful functional; reduce to the support corner first")
    rho = phi.density_element()
    return _sandwich(phi.algebra, power_blocks(rho, complex(0.0, t)), x,
                     power_blocks(rho, complex(0.0, -t)))


def connes_cocycle(phi: Functional, omega: Functional, t: float) -> Element:
    """Cocycle u_t = rho_phi^{it} rho_omega^{-it}, a partial isometry with
    initial and final projections under supp(phi); unitary when phi is
    faithful, and rho^{i0} = supp(rho) at t = 0."""
    if not phi.is_positive():
        raise ValidationError("cocycle needs a positive first argument")
    if not omega.is_faithful():
        raise ValidationError("cocycle needs a faithful second argument")
    left = power_blocks(phi.density_element(), complex(0.0, t))
    right = power_blocks(omega.density_element(), complex(0.0, -t))
    if phi.algebra != omega.algebra:
        raise ValidationError("elements live in different algebras")
    return Element(phi.algebra, [a @ b for a, b in zip(left, right)])


def radon_nikodym_sqrt(psi: Functional, phi: Functional) -> Element:
    """Square root h^(1/2) = rho_psi^(1/2) rho_phi^(-1/2) of the quotient of psi by phi.

    Requires supp(psi) <= supp(phi); then psi(x) = phi(h^(1/2)* x h^(1/2))
    holds for every x.  A support violation is rejected with the offending
    eigenvector named.
    """
    if not (psi.is_positive() and phi.is_positive()):
        raise ValidationError("radon_nikodym_sqrt needs positive functionals")
    if psi.algebra != phi.algebra:
        raise ValidationError("functionals live in different algebras")
    comp = [np.eye(len(q), dtype=np.complex128) - q
            for q in on_support(phi.density_element(), lambda t: 1.0)]  # I - supp(phi)
    rho_psi = psi.density_element()
    # rho_psi / 2^e is exact and in range, so the leak test reads the same at
    # every scale, subnormal densities included.
    rho, e = in_range(rho_psi)
    leak = [(c @ r) @ c for c, r in zip(comp, rho.blocks)]
    scale = rho.frobenius_norm()
    if math.hypot(*map(_linalg.frobenius, leak)) > 1e-10 * scale:
        for i, (vals, vecs) in enumerate(block_eigh(Element(psi.algebra, leak))):
            if vals[0] > 1e-10 * scale:
                vec = np.round(vecs[:, 0], 6)
                raise ValidationError(
                    "support violation: psi is not dominated by phi; offending eigenvector "
                    f"{vec.tolist()} in block {i} carries mass {math.ldexp(vals[0], e)!r}")
        raise ValidationError("support violation: psi is not dominated by phi")
    left = power_blocks(rho_psi, 0.5)
    right = power_blocks(phi.density_element(), -0.5)
    return Element(psi.algebra, [a @ b for a, b in zip(left, right)])
