"""Deterministic dense linear algebra for small complex blocks.

Eigendecompositions of Hermitian blocks use a two-sided cyclic Jacobi
iteration, and singular values use a one-sided (Hestenes) Jacobi iteration
on the block itself, both with a fixed sweep order instead of LAPACK, so
results do not depend on the BLAS build.  Block dimensions are tiny here,
which makes the O(n^3-per-sweep) cost irrelevant and lets Jacobi deliver its
usual high relative accuracy (Demmel & Veselic, "Jacobi's method is more
accurate than QR", SIAM J. Matrix Anal. Appl. 13, 1992).

Both kernels run in scalar Python ``complex`` arithmetic on lists (rows for
the eigensolver, columns for singular values and eigenvectors) and share
one plane-rotation formula, ``_rotation``; no rotation makes a numpy call.
Both prescale by an exact power of two (the eigensolver from the Frobenius
norm of its input, singular values from the largest entry) that is undone
on the results, so their thresholds neither overflow nor underflow anywhere
in the binary64 range and 2^k a gives exactly 2^k times the values of a.
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

# pow2_prescale leaves matrices alone while their largest entry lies in
# [2^-451, 2^450): there products of two entries stay normal.  After its
# prescale, singular_values leaves columns of norm below 2^-450 unrotated:
# their cosines would underflow, and such values lie far below RANK_RTOL.
_SAFE_EXP = 450
_SAFE_LO = 2.0 ** -_SAFE_EXP

# Eigenvalues closer than this (relative) are merged into one spectral
# projection, which stabilizes projections under degeneracy.
CLUSTER_RTOL = 1e-9

# Below this (relative to the largest eigenvalue) an eigenvalue counts as
# zero: it is excluded from supports, ranks and pseudo-inverses.
RANK_RTOL = 1e-11

# A Hermitian block counts as positive while its smallest eigenvalue is at
# least -POSITIVITY_RTOL times its largest eigenvalue modulus.
POSITIVITY_RTOL = 1e-10


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm; finite whenever it is representable (no squares are formed)."""
    return math.hypot(*map(abs, np.ravel(a).tolist()))


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


def hermitian_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix.

    Cyclic Jacobi: sweeps run over pairs (p, q), p < q, in row-major order,
    each rotation being a phase times a real plane rotation that zeroes the
    (p, q) entry.  The iteration stops once the off-diagonal Frobenius mass
    is at most ``JACOBI_REL_OFF`` times the norm of the block, tested once
    before each sweep.

    The block is taken as (a + a*) / 2 after an exact power-of-two prescale
    by its Frobenius norm (see ``_pow2_exponent`` when that norm overflows),
    and held as rows of Python ``complex``, the eigenvectors as column lists.
    A rotation rebuilds rows p and q, sets the two diagonal entries by
    Rutishauser's update, zeroes (p, q) and mirrors the conjugates into
    columns p and q, so no rotation makes a numpy call.  The eigenvalues are
    scaled back at the end.  Non-finite entries raise ValidationError.
    """
    w = np.asarray(a, dtype=np.complex128)
    rows = w.tolist()
    n = len(rows)
    scale = math.hypot(*[abs(x) for row in rows for x in row])
    e = math.frexp(scale)[1] if math.isfinite(scale) else _pow2_exponent(w)
    half = math.ldexp(0.5, -e)
    rows = [[half * x + half * y.conjugate() for x, y in zip(row, col)]
            for row, col in zip(rows, zip(*rows))]
    vecs = [[complex(i == j) for i in range(n)] for j in range(n)]
    thresh = JACOBI_REL_OFF * math.hypot(*[abs(x) for row in rows for x in row])
    sweeps = 0
    while (off := _off_mass(rows)) > thresh:
        if sweeps == MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi eigensolver did not reach off-diagonal mass {thresh:.3e} "
                f"in {MAX_SWEEPS} sweeps (residual {off:.3e})")
        _jacobi_sweep(rows, vecs)
        sweeps += 1
    # sorted() is stable with reverse=True: equal eigenvalues keep their order.
    order = sorted(range(n), key=lambda i: rows[i][i].real, reverse=True)
    vecs = np.array([vecs[i] for i in order], dtype=np.complex128).reshape(n, n).T
    return ldexp_values([rows[i][i].real for i in order], e, "eigenvalues"), vecs


def _off_mass(rows: list[list[complex]]) -> float:
    """Frobenius norm of the off-diagonal part of a Hermitian matrix held as rows."""
    return math.sqrt(2.0 * math.fsum(abs(x) ** 2 for p, row in enumerate(rows)
                                     for x in row[p + 1:]))


def _rotation(d: float, g: complex, absg: float) -> tuple[float, float, float, complex]:
    """Jacobi rotation (t, c, s, u) that zeroes g in [[a, g], [conj(g), a + d]].

    ``u = g / |g|`` is the phase and t = s / c the root of t^2 + 2 tau t = 1
    with tau = d / (2|g|) of smaller modulus; the rotated diagonal is a - t|g|
    and a + d + t|g|.
    """
    u = g / absg
    tau = d / (2.0 * absg)
    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    return t, c, t * c, u


def _jacobi_sweep(rows: list[list[complex]], vecs: list[list[complex]]) -> None:
    """One cyclic sweep of two-sided Jacobi on ``rows`` and the columns ``vecs``, in place."""
    n = len(rows)
    for p in range(n - 1):
        for q in range(p + 1, n):
            rp, rq = rows[p], rows[q]
            apq = rp[q]
            absa = abs(apq)
            if absa == 0.0:
                continue
            app, aqq = rp[p].real, rq[q].real
            t, c, s, u = _rotation(aqq - app, apq, absa)
            # J* A J with J = [[c, s], [-conj(u) s, conj(u) c]] in the (p, q) plane.
            us, uc = u * s, u * c
            new_p = [c * x - us * y for x, y in zip(rp, rq)]
            new_q = [s * x + uc * y for x, y in zip(rp, rq)]
            new_p[p] = app - t * absa
            new_q[q] = aqq + t * absa
            new_p[q] = new_q[p] = 0j
            rows[p], rows[q] = new_p, new_q
            # Columns p and q are the conjugates of rows p and q (diagonal real, (p, q) zero).
            for k, row in enumerate(rows):
                if k != p and k != q:
                    row[p] = new_p[k].conjugate()
                    row[q] = new_q[k].conjugate()
            vp, vq = vecs[p], vecs[q]
            ubs, ubc = us.conjugate(), uc.conjugate()
            vecs[p] = [c * x - ubs * y for x, y in zip(vp, vq)]
            vecs[q] = [s * x + ubc * y for x, y in zip(vp, vq)]


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
    return ldexp_values(sorted(norms, reverse=True), e, "singular values")


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
            _, c, s, u = _rotation((norm_q - norm_p) * (norm_q + norm_p), g, absg)
            ub = u.conjugate()
            us, uc = ub * s, ub * c
            cols[p] = [c * x - us * y for x, y in zip(cp, cq)]
            cols[q] = [s * x + uc * y for x, y in zip(cp, cq)]
            norms[p] = _norm(cols[p])
            norms[q] = _norm(cols[q])
    return rotated


def pow2_prescale(blocks) -> tuple[list[np.ndarray], int]:
    """(blocks / 2^e, e) for a list of matrices, exact; e = 0 while their largest
    real or imaginary part lies in [2^-451, 2^450), so products of two of them
    neither overflow nor underflow, and otherwise comes from ``_pow2_exponent``.
    Non-finite entries raise ValidationError."""
    e = _pow2_exponent(np.concatenate([np.ravel(b) for b in blocks]))
    if abs(e) <= _SAFE_EXP:
        return list(blocks), 0
    return [_ldexp_matrix(b, -e) for b in blocks], e


def pow2_rescale(blocks, e: int) -> list[np.ndarray]:
    """blocks * 2^e; an entry beyond the binary64 range raises ValidationError."""
    if e == 0:
        return list(blocks)
    with np.errstate(over="ignore"):
        out = [_ldexp_matrix(b, e) for b in blocks]
    if not all(np.all(np.isfinite(b)) for b in out):
        raise ValidationError("the result has entries beyond the binary64 range")
    return out


def ldexp_values(vals: list[float], e: int, what: str) -> np.ndarray:
    """vals * 2^e; a result beyond the binary64 range raises ValidationError."""
    try:
        return np.array([math.ldexp(v, e) for v in vals], dtype=np.float64)
    except OverflowError:
        raise ValidationError(f"the matrix has {what} beyond the binary64 range") from None


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


def is_positive_semidefinite(vals_desc) -> bool:
    """Whether descending eigenvalues belong to a positive block (see POSITIVITY_RTOL)."""
    if len(vals_desc) == 0:
        return True
    low = float(vals_desc[-1])
    return low >= -POSITIVITY_RTOL * max(float(vals_desc[0]), abs(low), 1e-300)


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
