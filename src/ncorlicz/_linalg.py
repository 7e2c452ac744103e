"""Deterministic dense linear algebra for small complex blocks.

Eigendecompositions of Hermitian blocks use a two-sided cyclic Jacobi
iteration, and singular values use a one-sided (Hestenes) Jacobi iteration
on the block itself, both with a fixed sweep order instead of LAPACK, so
results do not depend on the BLAS build.  Block dimensions are tiny here,
which makes the O(n^3-per-sweep) cost irrelevant and lets Jacobi deliver its
usual high relative accuracy (Demmel & Veselic, "Jacobi's method is more
accurate than QR", SIAM J. Matrix Anal. Appl. 13, 1992).

Both kernels prescale by an exact power of two taken from the largest entry,
so their thresholds neither overflow nor underflow anywhere in the binary64
range; the eigensolver does this only when the Frobenius norm of its input
leaves [2^-450, 2^450], so inputs of ordinary size take the unscaled path.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ConvergenceError, ValidationError

# Convergence threshold for the Jacobi sweep: off-diagonal Frobenius mass
# relative to the Frobenius norm of the input.
JACOBI_REL_OFF = 1e-13
MAX_SWEEPS = 64

# One-sided Jacobi rotates columns p, q while |<a_p, a_q>| exceeds this
# multiple of ||a_p|| ||a_q||; a sweep without a rotation ends the iteration.
ORTH_TOL = 1e-15

# Frobenius norms outside [2^-450, 2^450] send hermitian_eigh through the
# power-of-two prescale: there the squared entries behind the norm and the
# threshold come close to overflow or underflow.  After its prescale,
# singular_values leaves columns of norm below 2^-450 unrotated: their
# cosines would underflow, and such values lie far below RANK_RTOL.
_SAFE_LO = 2.0 ** -450
_SAFE_HI = 2.0 ** 450

# Eigenvalues closer than this (relative) are merged into one spectral
# projection, which stabilizes projections under degeneracy.
CLUSTER_RTOL = 1e-9

# Below this (relative to the largest eigenvalue) an eigenvalue counts as
# zero: it is excluded from supports, ranks and pseudo-inverses.
RANK_RTOL = 1e-11


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _offdiag_mass(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _pow2_exponent(a: np.ndarray) -> int:
    """e with every real and imaginary part of ``a`` below 2^e in magnitude.

    The largest part m satisfies 2^(e-1) <= m < 2^e, so scaling by 2^-e is
    exact and brings the entries to at most sqrt(2) in modulus.  Non-finite
    entries raise ValidationError; an all-zero matrix gives 0.
    """
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    if a.size == 0:
        return 0
    big = max(float(np.max(np.abs(a.real))), float(np.max(np.abs(a.imag))))
    return math.frexp(big)[1]


def _ldexp_matrix(a: np.ndarray, e: int) -> np.ndarray:
    """a * 2^e as a complex matrix, exact unless an entry under- or overflows."""
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = np.ldexp(a.real, e)
    out.imag = np.ldexp(a.imag, e)
    return out


def hermitian_eigh(a: np.ndarray, rel_off: float = JACOBI_REL_OFF,
                   max_sweeps: int = MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix.

    Cyclic Jacobi: sweeps run over pairs (p, q), p < q, in row-major order,
    each rotation being a phase times a real plane rotation that zeroes the
    (p, q) entry.  Convergence is declared once the off-diagonal Frobenius
    mass drops below ``rel_off`` times the input norm.

    When that norm is non-finite, or zero or outside [2^-450, 2^450], the
    matrix is first scaled by an exact power of two (see ``_pow2_exponent``)
    and the eigenvalues are scaled back; non-finite entries raise
    ValidationError.
    """
    n = a.shape[0]
    work = np.array(a, dtype=np.complex128)
    scale = frobenius(work)
    e = 0
    if not _SAFE_LO <= scale <= _SAFE_HI:
        e = _pow2_exponent(work)
        work = _ldexp_matrix(work, -e)
        scale = frobenius(work)
    vecs = np.eye(n, dtype=np.complex128)
    if n <= 1 or scale == 0.0:
        return _descending(work, vecs, e)

    thresh = rel_off * scale
    if not math.isfinite(thresh):
        raise ConvergenceError(f"Jacobi threshold {thresh!r} is not finite")
    converged = False
    for _ in range(max_sweeps):
        if _offdiag_mass(work) <= thresh:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                absa = abs(apq)
                if absa == 0.0:
                    continue
                app = work[p, p].real
                aqq = work[q, q].real
                u = apq / absa
                tau = (aqq - app) / (2.0 * absa)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # Unitary in the (p, q) plane: [[c, s], [-conj(u) s, conj(u) c]].
                ub = np.conj(u)
                colp = work[:, p].copy()
                colq = work[:, q].copy()
                work[:, p] = c * colp - (ub * s) * colq
                work[:, q] = s * colp + (ub * c) * colq
                rowp = work[p, :].copy()
                rowq = work[q, :].copy()
                work[p, :] = c * rowp - (u * s) * rowq
                work[q, :] = s * rowp + (u * c) * rowq
                work[p, q] = 0.0
                work[q, p] = 0.0
                work[p, p] = work[p, p].real
                work[q, q] = work[q, q].real
                vp = vecs[:, p].copy()
                vq = vecs[:, q].copy()
                vecs[:, p] = c * vp - (ub * s) * vq
                vecs[:, q] = s * vp + (ub * c) * vq
    else:
        converged = _offdiag_mass(work) <= thresh
    if not converged:
        raise ConvergenceError(
            f"Jacobi eigensolver did not reach off-diagonal mass {thresh:.3e} "
            f"in {max_sweeps} sweeps (residual {_offdiag_mass(work):.3e})")
    return _descending(work, vecs, e)


def _descending(work: np.ndarray, vecs: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of ``work`` times 2^e, sorted descending, with matching columns of ``vecs``."""
    vals = np.real(np.diag(work)).astype(np.float64)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    if e:
        vals = _ldexp_values(vals, e, "eigenvalues")
    return vals, vecs[:, order]


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values (descending) of a complex matrix by one-sided Jacobi.

    Hestenes' method: cyclic sweeps over column pairs (p, q), p < q, in
    row-major order apply the plane rotation that makes columns p and q
    orthogonal, skipping pairs whose cosine is already at most ``ORTH_TOL``;
    a sweep with no rotation ends the iteration and the column norms are the
    singular values.  The block is factored directly, never squared, so small
    singular values keep their relative accuracy down to 2^-450 times the
    largest entry, below which columns are left unrotated.  All arithmetic is
    scalar Python ``complex`` on column lists, after an exact power-of-two
    prescale of the block (see ``_pow2_exponent``) that is undone on the
    results.  Non-finite entries raise ValidationError.
    """
    a = np.asarray(a, dtype=np.complex128)
    e = _pow2_exponent(a)
    cols = _ldexp_matrix(a, -e).T.tolist()
    norms = [_norm(col) for col in cols]
    sweeps = 0
    while _hestenes_sweep(cols, norms):
        sweeps += 1
        if sweeps == MAX_SWEEPS:
            raise ConvergenceError(f"one-sided Jacobi did not orthogonalize {len(cols)} "
                                   f"columns in {MAX_SWEEPS} sweeps")
    return _ldexp_values(np.array(sorted(norms, reverse=True), dtype=np.float64), e,
                         "singular values")


def _norm(col: list[complex]) -> float:
    return math.hypot(*map(abs, col))


def _hestenes_sweep(cols: list[list[complex]], norms: list[float]) -> bool:
    """One cyclic sweep of one-sided Jacobi in place; whether it rotated any pair.

    ``norms`` holds the column norms and is recomputed from each rotated column.
    """
    rotated = False
    n = len(cols)
    for p in range(n - 1):
        for q in range(p + 1, n):
            norm_p, norm_q = norms[p], norms[q]
            if norm_p < _SAFE_LO or norm_q < _SAFE_LO:
                continue
            cp, cq = cols[p], cols[q]
            g = sum(map(operator.mul, map(complex.conjugate, cp), cq))
            absg = abs(g)
            if absg <= ORTH_TOL * norm_p * norm_q:
                continue
            rotated = True
            # The rotation of hermitian_eigh for the Gram entries
            # [[norm_p^2, g], [conj(g), norm_q^2]], applied to the columns themselves.
            ub = (g / absg).conjugate()
            tau = (norm_q - norm_p) * (norm_q + norm_p) / (2.0 * absg)
            t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            us, uc = ub * s, ub * c
            cols[p] = [c * x - us * y for x, y in zip(cp, cq)]
            cols[q] = [s * x + uc * y for x, y in zip(cp, cq)]
            norms[p] = _norm(cols[p])
            norms[q] = _norm(cols[q])
    return rotated


def _ldexp_values(vals: np.ndarray, e: int, what: str) -> np.ndarray:
    """vals * 2^e; a result beyond the binary64 range raises ValidationError."""
    out = np.ldexp(vals, e)
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"the matrix has {what} beyond the binary64 range")
    return out


def cluster_indices(vals_desc: np.ndarray, rtol: float = CLUSTER_RTOL) -> list[list[int]]:
    """Group indices of a descending eigenvalue array into near-degenerate clusters.

    Adjacent values join a cluster when their gap is at most ``rtol`` times
    the larger magnitude of the two.
    """
    groups: list[list[int]] = []
    for k, v in enumerate(vals_desc):
        if groups:
            prev = vals_desc[groups[-1][-1]]
            if abs(prev - v) <= rtol * max(abs(prev), abs(v)):
                groups[-1].append(k)
                continue
        groups.append([k])
    return groups


def rank_from_eigenvalues(vals: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Numerical rank of a positive semidefinite matrix from its eigenvalues."""
    if vals.size == 0:
        return 0
    top = float(np.max(vals))
    if top <= 0.0:
        return 0
    return int(np.sum(vals > rtol * top))


def gram_schmidt(vectors: list[np.ndarray], pivot_tol: float) -> tuple[np.ndarray, list[int]]:
    """Orthonormalize ``vectors`` by modified Gram-Schmidt with one reorthogonalization.

    Candidates whose residual norm falls at or below ``pivot_tol`` are treated
    as linearly dependent and dropped.  Returns the orthonormal basis as
    columns plus the indices of the kept candidates.
    """
    basis: list[np.ndarray] = []
    kept: list[int] = []
    for idx, vec in enumerate(vectors):
        w = np.array(vec, dtype=np.complex128)
        for _ in range(2):
            for b in basis:
                w = w - np.vdot(b, w) * b
        nrm = float(np.linalg.norm(w))
        if nrm > pivot_tol:
            basis.append(w / nrm)
            kept.append(idx)
    if basis:
        mat = np.column_stack(basis)
    else:
        mat = np.zeros((vectors[0].shape[0] if vectors else 0, 0), dtype=np.complex128)
    return mat, kept
