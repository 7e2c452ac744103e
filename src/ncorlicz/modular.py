"""Modular theory over finite-dimensional trace algebras.

The standard form used throughout is the Hilbert-Schmidt one: vectors
are block matrix tuples with <xi, zeta> = sum_i c_i Tr(xi_i* zeta_i),
the algebra acts by left multiplication, the modular conjugation is the
blockwise adjoint, and the positive cone consists of the positive
elements.  The vector representative of a positive functional is the
square root of its density, relative modular operators act by
xi -> rho_phi xi rho_omega^+ (pseudo-inverse on the right support), and
Connes cocycles are the phase-power products rho_phi^{it} rho_omega^{-it}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .algebra import (AlgebraDescriptor, Element, Functional, power_on_support,
                      support_projection, trace)
from .errors import ValidationError

GNS_PIVOT_TOL = 1e-11


# ---------------------------------------------------------------------------
# GNS construction


@dataclass(frozen=True)
class GNSData:
    """Concrete GNS space of a positive functional.

    The carrier is the span of the classes [x] = x rho^(1/2) inside the
    Hilbert-Schmidt space; ``basis`` holds an orthonormal basis of that
    span as columns over the flattened ambient space, ``gram`` the inner
    products omega(e_a* e_b) over matrix units, and ``cyclic_vector`` the
    class of the identity.
    """

    algebra: AlgebraDescriptor
    functional: Functional
    dimension: int
    gram: np.ndarray
    basis: np.ndarray
    cyclic_vector: np.ndarray
    _root: tuple[np.ndarray, ...]

    def _ambient(self, x: Element) -> np.ndarray:
        chunks = []
        for c, xb, rb in zip(self.algebra.weights, x.blocks, self._root):
            chunks.append(math.sqrt(c) * (xb @ rb).ravel())
        return np.concatenate(chunks)

    def embed(self, x: Element) -> np.ndarray:
        """Coordinates of the class [x] in the orthonormal basis."""
        return self.basis.conj().T @ self._ambient(x)

    def represent(self, x: Element) -> np.ndarray:
        """Matrix of left multiplication by x on the GNS space."""
        dims = self.algebra.block_dims
        cols = []
        for k in range(self.dimension):
            vec = self.basis[:, k]
            out = []
            pos = 0
            for d, xb in zip(dims, x.blocks):
                blockvec = vec[pos:pos + d * d].reshape(d, d)
                out.append((xb @ blockvec).ravel())
                pos += d * d
            cols.append(self.basis.conj().T @ np.concatenate(out))
        return np.column_stack(cols) if cols else np.zeros((0, 0), dtype=np.complex128)


def gns(omega: Functional) -> GNSData:
    """GNS space, representation and cyclic vector of a positive functional.

    The kernel of [.] (the left ideal of null vectors) is detected by
    Gram-Schmidt over the matrix units with a fixed pivot threshold, so
    the dimension comes out as sum_i d_i * rank(rho_i).
    """
    if not omega.is_positive():
        raise ValidationError("gns needs a positive functional")
    if omega.is_zero():
        raise ValidationError("gns of the zero functional is empty")
    alg = omega.algebra
    root = tuple(_psd_sqrt_matrix(r) for r in omega.densities)
    units = [e for _, _, _, e in alg.matrix_units()]

    def ambient(x: Element) -> np.ndarray:
        chunks = []
        for c, xb, rb in zip(alg.weights, x.blocks, root):
            chunks.append(math.sqrt(c) * (xb @ rb).ravel())
        return np.concatenate(chunks)

    candidates = [ambient(e) for e in units]
    scale = max(float(np.linalg.norm(v)) for v in candidates)
    basis, _ = _linalg.gram_schmidt(candidates, GNS_PIVOT_TOL * max(scale, 1e-300))
    gram = np.empty((len(units), len(units)), dtype=np.complex128)
    for a, ea in enumerate(units):
        for b, eb in enumerate(units):
            gram[a, b] = omega(ea.adjoint() * eb)
    data = GNSData(alg, omega, basis.shape[1], gram, basis,
                   np.zeros(basis.shape[1], dtype=np.complex128), root)
    cyc = data.embed(alg.identity())
    return GNSData(alg, omega, basis.shape[1], gram, basis, cyc, root)


def _psd_sqrt_matrix(r: np.ndarray) -> np.ndarray:
    vals, vecs = _linalg.hermitian_eigh(r)
    top = float(vals[0]) if vals.size else 0.0
    out = np.zeros_like(r)
    for group in _linalg.cluster_indices(vals):
        rep = float(np.mean(vals[group]))
        if rep <= _linalg.RANK_RTOL * max(top, 0.0):
            continue
        cols = vecs[:, group]
        out += math.sqrt(rep) * (cols @ cols.conj().T)
    return out


# ---------------------------------------------------------------------------
# standard form


class StandardForm:
    """Hilbert-Schmidt standard form of a trace algebra.

    Carries the inner product, the left action, the blockwise-adjoint
    conjugation and the positive cone, plus the canonical vector
    representative of positive functionals.
    """

    def __init__(self, algebra: AlgebraDescriptor):
        self.algebra = algebra

    def inner(self, xi: Element, zeta: Element) -> complex:
        return trace(xi.adjoint() * zeta)

    def act(self, x: Element, xi: Element) -> Element:
        return x * xi

    def conjugation(self, xi: Element) -> Element:
        return xi.adjoint()

    def in_cone(self, xi: Element) -> bool:
        return xi.is_hermitian() and all(
            _linalg.is_positive_semidefinite(_linalg.hermitian_eigh(b)[0]) for b in xi.blocks)

    def vector_representative(self, phi: Functional) -> Element:
        """The cone vector xi(phi) = rho^(1/2) with phi(x) = <xi, x xi>."""
        if not phi.is_positive():
            raise ValidationError("vector representative needs a positive functional")
        return Element(self.algebra, [_psd_sqrt_matrix(r) for r in phi.densities])


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
        self.support_left = support_projection(phi)
        self.support_right = support_projection(omega)

    def apply(self, xi: Element) -> Element:
        return self.rho_left * xi * self.rho_right_pinv

    def power_apply(self, z: complex, xi: Element) -> Element:
        left = power_on_support(self.rho_left, z)
        right = power_on_support(self.omega.density_element(), -z)
        return left * xi * right

    def matrix(self, z: complex = 1.0) -> np.ndarray:
        """Dense matrix of the z-th power on the normalized matrix-unit basis."""
        alg = self.algebra
        units = []
        for i, _, _, e in alg.matrix_units():
            units.append(e / math.sqrt(alg.weights[i]))
        sf = StandardForm(alg)
        cols = []
        for u in units:
            img = self.power_apply(z, u) if z != 1.0 else self.apply(u)
            cols.append(np.array([sf.inner(v, img) for v in units]))
        return np.column_stack(cols)


def relative_modular(phi: Functional, omega: Functional) -> ModularOperator:
    """Relative modular operator of the pair (phi, omega)."""
    return ModularOperator(phi, omega)


def modular_flow(phi: Functional, t: float, x: Element) -> Element:
    """Modular automorphism sigma_t(x) = rho^{it} x rho^{-it} of a faithful functional."""
    if not phi.is_faithful():
        raise ValidationError(
            "modular flow needs a faithful functional; reduce to the support corner first")
    rho = phi.density_element()
    return power_on_support(rho, 1j * t) * x * power_on_support(rho, -1j * t)


def connes_cocycle(phi: Functional, omega: Functional, t: float) -> Element:
    """Cocycle u_t = rho_phi^{it} rho_omega^{-it}, a partial isometry with
    initial and final projections under supp(phi); unitary when phi is
    faithful, and rho^{i0} = supp(rho) at t = 0."""
    if not phi.is_positive():
        raise ValidationError("cocycle needs a positive first argument")
    if not omega.is_faithful():
        raise ValidationError("cocycle needs a faithful second argument")
    return (power_on_support(phi.density_element(), 1j * t)
            * power_on_support(omega.density_element(), -1j * t))


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
    p = support_projection(phi)
    comp = psi.algebra.identity() - p
    rho_psi = psi.density_element()
    leak = comp * rho_psi * comp
    scale = max(rho_psi.frobenius_norm(), 1e-300)
    if leak.frobenius_norm() > 1e-10 * scale:
        for i, b in enumerate(leak.blocks):
            vals, vecs = _linalg.hermitian_eigh(b)
            if vals.size and vals[0] > 1e-10 * scale:
                vec = np.round(vecs[:, 0], 6)
                raise ValidationError(
                    "support violation: psi is not dominated by phi; offending "
                    f"eigenvector {vec.tolist()} in block {i} carries mass {float(vals[0])!r}")
        raise ValidationError("support violation: psi is not dominated by phi")
    return (power_on_support(rho_psi, 0.5)
            * power_on_support(phi.density_element(), -0.5))
