"""Deterministic dense linear algebra for small complex blocks.

Eigendecompositions of Hermitian blocks use a two-sided cyclic Jacobi
iteration, and singular values use a one-sided (Hestenes) Jacobi iteration
on the block itself, both with a fixed sweep order instead of LAPACK, so
results do not depend on the BLAS build.  Block dimensions are tiny here,
which makes the O(n^3-per-sweep) cost irrelevant and lets Jacobi deliver its
usual high relative accuracy (Demmel & Veselic, "Jacobi's method is more
accurate than QR", SIAM J. Matrix Anal. Appl. 13, 1992).

Both kernels run in scalar Python ``complex`` arithmetic on lists (rows for
the eigensolver, columns for singular values and eigenvectors) and use the
same plane rotation (``_rotation``, inlined in the one-sided sweep); no
rotation makes a numpy call.  An eigensolver rotation in the (p, q) plane
rewrites only rows and columns p and q of the block, in place.  The
one-sided kernel carries the column norms through a sweep by the
closed-form update of the rotated diagonal, as LAPACK's xGESVJ does,
recomputing a norm from its column only where the update would cancel, and
recomputes every norm from the final columns.
Both prescale by an exact power of two that is undone on the results, so
their thresholds neither overflow nor underflow anywhere in the binary64
range and 2^k a gives exactly 2^k times the values of a.  The eigensolver
takes it from the Frobenius norm of its input; every other kernel here, and
``pow2_prescale``, from the largest real or imaginary part of each block,
by the one routine ``_pow2_scale``, which also rejects non-finite entries.

The one-sided iteration has two entry points: ``singular_values`` for the
values and ``svd``, which also accumulates the right singular vectors, for
|x| and polar data; the values are bit for bit the same.  The two-sided one
likewise: ``hermitian_eigh(a, vectors=False)`` forms no eigenvector, for a
caller that reads only the eigenvalues, and gives the values of the full
solve bit for bit.

The third kernel, ``certifies_positive``, decides per block of a stack of
same-size blocks whether the block is Hermitian within ``HERMITIAN_RTOL`` and
a Cholesky factorisation of its slightly shifted Hermitian part succeeds;
then it passes the eigenvalue test of ``is_positive_semidefinite`` without an
eigendecomposition.  It runs in elementwise numpy on the whole stack, so a
call costs per block size, not per block.

The fourth kernel, ``singular_values_stack``, is the one-sided iteration on
a whole stack of same-size blocks in numpy.  The columns of all blocks form
one complex array, and each round rotates disjoint column pairs of every
block at once, in round-robin order, with the prescale, thresholds and norm
update of ``singular_values``; one tournament in which no block rotated ends
it.  Its cost is per round rather than per block, so it wins once a stack is
large enough; ``algebra.fill_singular_values`` sends it the groups of blocks
at or above the measured crossover (six even-sized or twelve odd-sized
blocks), such as the distinct pieces of a core element, and leaves every
smaller group to ``singular_values``.

``levels`` alone decides which values count as equal and which as zero: the
ranks and supports in ``algebra`` and the lines of its ``eigen_spectrum``.
Functions of an element take each computed eigenvalue, |x| every singular
value, and the distribution of |x| those that ``above_floor`` counts.
"""

from __future__ import annotations

import functools
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
# their cosines would underflow, and such values lie far below every cut here.
_SAFE_EXP = 450
_SAFE_LO = 2.0 ** -_SAFE_EXP

# ``levels`` joins adjacent values closer than this (relative) into one group:
# one line of ``algebra.eigen_spectrum``, stable under degeneracy.
CLUSTER_RTOL = 1e-9

# ``levels`` counts a group at or below this times the largest value as zero:
# outside ranks, supports, pseudo-inverses and polar factors (|x| keeps it).
RANK_RTOL = 1e-11

# An element counts as Hermitian while ||x - x*||_F is at most this times ||x||_F.
HERMITIAN_RTOL = 1e-12

# A Hermitian block counts as positive while its smallest eigenvalue is at
# least -POSITIVITY_RTOL times its largest eigenvalue modulus.
POSITIVITY_RTOL = 1e-10

# certifies_positive accepts ||w - w*||_F^2 up to this times ||w + w*||_F^2 +
# ||w - w*||_F^2 = 4 ||w||_F^2: HERMITIAN_RTOL less a relative 2^-20, far more
# than the rounding of both sides here and in Element.is_hermitian.
_HERMITIAN_SQ = (HERMITIAN_RTOL * (1.0 - 2.0 ** -20)) ** 2 / 4.0


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm; finite whenever it is representable (no squares are
    formed), and +inf when it, or the modulus of an entry, is beyond binary64."""
    try:
        return math.hypot(*map(abs, np.ravel(a).tolist()))
    except OverflowError:  # abs of a complex whose modulus is beyond binary64
        return math.inf


def _pow2_scale(stack) -> tuple[np.ndarray, np.ndarray]:
    """(w, e) for a stack of complex blocks along the first axis: e[b] is the
    exponent of the largest real or imaginary part m of block b, 2^(e-1) <= m
    < 2^e (0 for a zero block), and w[b] = 2^-e[b] a[b], exact, with every
    entry at most sqrt(2) in modulus.  The one prescale of every kernel here
    but the eigensolver's.  Non-finite entries raise ValidationError."""
    parts = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
    big = np.abs(parts).max(axis=tuple(range(1, parts.ndim)), initial=0.0)
    if not math.isfinite(big.max(initial=0.0)):  # NaN propagates through max
        raise ValidationError("matrix has non-finite entries")
    e = np.frexp(big)[1]
    return np.ldexp(parts, -e.reshape((-1,) + (1,) * (parts.ndim - 1))).view(np.complex128), e


def _ldexp_matrix(a: np.ndarray, e: int) -> np.ndarray:
    """a * 2^e as a complex matrix, exact unless an entry under- or overflows."""
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = np.ldexp(a.real, e)
    out.imag = np.ldexp(a.imag, e)
    return out


def _hermitian_rows(a: np.ndarray) -> tuple[list[list[complex]], int]:
    """(rows of (a + a*) / 2^(e+1) as Python ``complex``, e) with 2^(e-1) <=
    ||a||_F < 2^e, the exact prescale of ``hermitian_eigh``.  e comes from
    ``_pow2_scale`` when the norm overflows and is at least -1021, so that
    2^-(e+1) is finite: a block of subnormal norm is scaled to below 1/4.
    Non-finite entries raise ValidationError."""
    w = np.asarray(a, dtype=np.complex128)
    rows = w.tolist()
    scale = frobenius(w)
    e = (max(math.frexp(scale)[1], -1021) if math.isfinite(scale)
         else int(_pow2_scale(w[None])[1][0]))
    half = math.ldexp(0.5, -e)
    return [[half * x + half * y.conjugate() for x, y in zip(row, col)]
            for row, col in zip(rows, zip(*rows))], e


def hermitian_eigh(a: np.ndarray, *,
                   vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix.

    Cyclic Jacobi: sweeps run over pairs (p, q), p < q, in row-major order,
    each rotation being a phase times a real plane rotation that zeroes the
    (p, q) entry.  The iteration stops once the off-diagonal Frobenius mass
    is at most ``JACOBI_REL_OFF`` times the norm of the block, tested once
    before each sweep.

    The block is taken as (a + a*) / 2 after an exact power-of-two prescale
    by its Frobenius norm (see ``_hermitian_rows``), and held as rows of
    Python ``complex``, the eigenvectors as column lists.
    A rotation in the (p, q) plane rewrites rows and columns p and q in
    place: the n - 2 entries (p, k) and (q, k), k not p or q, and their
    conjugates at (k, p) and (k, q); then it sets the two diagonal entries by
    Rutishauser's update and zeroes (p, q) and (q, p), so no rotation makes a
    numpy call.  The eigenvalues are scaled back at the end.  Non-finite
    entries raise ValidationError.

    With ``vectors=False`` no eigenvector is formed and the result is
    (values, None); no row update reads the vectors, so the values, and any
    error, are bit for bit those of the full solve.
    """
    rows, e = _hermitian_rows(a)
    n = len(rows)
    vecs = [[complex(i == j) for i in range(n)] for j in range(n)] if vectors else None
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
    if vectors:
        vecs = np.array([vecs[i] for i in order], dtype=np.complex128).reshape(n, n).T
    return ldexp_values([rows[i][i].real for i in order], e, "eigenvalues"), vecs


def certifies_positive(stack) -> np.ndarray:
    """Per block of an (m, n, n) stack, whether it is certified Hermitian and
    positive, as m booleans; False proves nothing.

    True means both halves of ``Element.is_positive`` hold for the block a: an
    Element whose blocks all pass is one ``is_hermitian`` accepts, and
    H = (a + a*) / 2 passes ``is_positive_semidefinite``.  Each block is
    prescaled exactly, to w = 2^-e a, by ``_pow2_scale``.

    The Hermitian half asks ||w - w*||_F <= (1 - 2^-20) HERMITIAN_RTOL ||w||_F,
    on squares (see ``_HERMITIAN_SQ``).  The positive half factors
    L L* = G + delta I, G = w + w* = 2^(1-e) H, by a right-looking Cholesky in
    real arithmetic with delta = ||G||_F (POSITIVITY_RTOL / sqrt(n) - m).
    Success gives L L* = G + delta I + E with ||E||_2 <= gamma ||L||_F^2, where
    gamma is about (n + 1) u, u = 2^-53, and at most sqrt(2) (n + 3) u with
    complex rounding, in any order of the inner products (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., Thm 10.3; Demmel, LAPACK
    Working Note 14), and ||L||_F^2 = tr(L L*) <= sqrt(n) ||G||_F
    (1 + POSITIVITY_RTOL) + n ||E||_2.  The margin m = 4 n^2 u bounds
    gamma sqrt(n) with room for that and for the rounding of ||G||_F when
    n >= 2; n = 1 has no inner product and decides the sign of g + delta
    exactly.  So lambda_min(G) >= -delta - ||E||_2 >= -POSITIVITY_RTOL
    ||G||_F / sqrt(n) >= -POSITIVITY_RTOL max|lambda|.  A zero block is
    positive; a nonzero G below 2^-450 is left to the eigensolver, since
    underflow would void the bound.

    Every step is elementwise real numpy or a sum within one block, with no
    BLAS and no fused multiply-add, so a block's verdict is bit for bit that
    of a stack of one.  A block whose pivot fails is already declined, so the
    NaN or inf that its later steps may carry are left unreported.  Non-finite
    entries raise ValidationError.
    """
    w = _pow2_scale(stack)[0]
    m, n = w.shape[0], w.shape[-1]
    wh = w.conj().transpose(0, 2, 1)
    gk = np.empty((2, m, n, n), dtype=np.complex128)
    np.add(w, wh, out=gk[0])
    np.subtract(w, wh, out=gk[1])
    gs, ks = np.square(gk.view(np.float64).reshape(2, m, 2 * n * n)).sum(axis=2)
    fro = np.sqrt(gs)
    ok = (ks <= _HERMITIAN_SQ * (gs + ks)) & (fro >= _SAFE_LO)
    delta = fro * (POSITIVITY_RTOL / math.sqrt(max(n, 1)) - 4 * n * n * 2.0 ** -53)
    g = gk[0].view(np.float64).reshape(m, n, n, 2)  # (Re, Im) of G
    pivots = np.empty((n, m))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(n):
            pivot = np.add(g[:, j, j, 0], delta, out=pivots[j])
            if j + 1 == n:
                break
            col = g[:, j + 1:, j] / np.sqrt(pivot)[:, None, None]
            # G[p, q] -= col_p conj(col_q) on the trailing block, as (Re, Im).
            t = col[:, :, None, :, None] * col[:, None, :, None, :]
            outer = np.empty(t.shape[:4])
            np.add(t[..., 0, 0], t[..., 1, 1], out=outer[..., 0])
            np.subtract(t[..., 1, 0], t[..., 0, 1], out=outer[..., 1])
            g[:, j + 1:, j + 1:] -= outer
    # gs + ks = 4 ||w||_F^2 is 0 exactly for a zero block: any other has a part of at least 1/2.
    return (ok & (pivots > 0.0).all(axis=0)) | (gs + ks == 0.0)


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


def _jacobi_sweep(rows: list[list[complex]], vecs: list[list[complex]] | None) -> None:
    """One cyclic sweep of two-sided Jacobi on ``rows`` and, when given, the
    columns ``vecs``, in place."""
    n = len(rows)
    for p in range(n - 1):
        rp = rows[p]
        for q in range(p + 1, n):
            rq = rows[q]
            apq = rp[q]
            absa = abs(apq)
            if absa == 0.0:
                continue
            app, aqq = rp[p].real, rq[q].real
            t, c, s, u = _rotation(aqq - app, apq, absa)
            # J* A J with J = [[c, s], [-conj(u) s, conj(u) c]] in the (p, q) plane.
            us, uc = u * s, u * c
            for k, rk in enumerate(rows):
                if k != p and k != q:
                    x, y = rp[k], rq[k]
                    rp[k] = xp = c * x - us * y
                    rq[k] = xq = s * x + uc * y
                    rk[p], rk[q] = xp.conjugate(), xq.conjugate()
            rp[p], rq[q] = app - t * absa, aqq + t * absa
            rp[q] = rq[p] = 0j
            if vecs is not None:
                vp, vq = vecs[p], vecs[q]
                ubs, ubc = us.conjugate(), uc.conjugate()
                vecs[p] = [c * x - ubs * y for x, y in zip(vp, vq)]
                vecs[q] = [s * x + ubc * y for x, y in zip(vp, vq)]


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values (descending) of a complex matrix by one-sided Jacobi:
    the norms of the final columns of ``_hestenes``, with the prescale undone.
    Non-finite entries raise ValidationError."""
    cols, _, e = _hestenes(a, False)
    return ldexp_values(sorted(map(_norm, cols), reverse=True), e, "singular values")


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(w, s, v, e) with 2^-e a v = w, from ``_hestenes`` with v accumulated:
    w's columns are orthogonal to ``ORTH_TOL`` with norms s, descending, and
    v's in the same order, so ``singular_values(a)`` is 2^e s bit for bit and
    a = 2^e u diag(s) v* with u = w / s on s > 0.  Non-finite entries raise
    ValidationError."""
    cols, vecs, e = _hestenes(a, True)
    s = np.array([_norm(col) for col in cols])
    order = sorted(range(len(s)), key=s.__getitem__, reverse=True)
    return (np.array(cols, dtype=np.complex128).T[:, order], s[order],
            np.array(vecs, dtype=np.complex128).T[:, order], e)


def _hestenes(a: np.ndarray, with_v: bool) -> tuple[list, list | None, int]:
    """(columns, v or None, e) of one-sided Jacobi on 2^-e a, v as column lists.

    Hestenes' method: cyclic sweeps over column pairs (p, q), p < q, in
    row-major order apply the plane rotation that makes columns p and q
    orthogonal, skipping pairs whose cosine is already at most ``ORTH_TOL``;
    a sweep with no rotation ends the iteration.  Within the sweeps the column
    norms are updated in closed form (see ``_hestenes_sweep``), so callers
    recompute them from the final columns.  The block is factored directly,
    never squared, so small singular values keep their relative accuracy down
    to 2^-450 times the largest entry, below which columns are left unrotated.
    All arithmetic is scalar Python ``complex`` on column lists, after the
    exact power-of-two prescale of ``_pow2_scale``.  With ``with_v`` every
    rotation is also applied to the columns of the identity, which become v.
    """
    w, e = _pow2_scale(np.asarray(a)[None])
    cols = w[0].T.tolist()
    n = len(cols)
    vecs = [[complex(i == j) for i in range(n)] for j in range(n)] if with_v else None
    norms = [_norm(col) for col in cols]
    sweeps = 0
    while _hestenes_sweep(cols, norms, vecs):
        sweeps += 1
        if sweeps == MAX_SWEEPS:
            raise ConvergenceError(f"one-sided Jacobi did not orthogonalize {n} "
                                   f"columns in {MAX_SWEEPS} sweeps")
    return cols, vecs, int(e[0])


def _norm(col: list[complex]) -> float:
    return math.hypot(*map(abs, col))


def _hestenes_sweep(cols: list[list[complex]], norms: list[float], vecs: list | None) -> bool:
    """One cyclic sweep of one-sided Jacobi in place; whether it rotated any pair.

    ``norms`` holds the column norms.  The rotation is the two-sided one of
    ``_rotation`` for the Gram entries [[norm_p^2, g], [conj(g), norm_q^2]],
    g = <a_p, a_q>, applied to the columns themselves, so the rotated squared
    norms are the rotated diagonal norm_p^2 - t|g| and norm_q^2 + t|g|
    (de Rijk, SIAM J. Sci. Stat. Comput. 10, 1989; Drmac & Veselic, SIAM J.
    Matrix Anal. Appl. 29, 2008).  A norm whose square would fall below a
    quarter of its old value is recomputed from its column instead, since
    the update cancels there.  Columns ``vecs``, when given, take the same
    rotations.
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
            sq_p, sq_q = norm_p * norm_p, norm_q * norm_q
            tau = (norm_q - norm_p) * (norm_q + norm_p) / (2.0 * absg)
            t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            ub = g.conjugate() / absg
            us, uc = ub * s, ub * c
            cols[p] = new_p = [c * x - us * y for x, y in zip(cp, cq)]
            cols[q] = new_q = [s * x + uc * y for x, y in zip(cp, cq)]
            if vecs is not None:
                vp, vq = vecs[p], vecs[q]
                vecs[p] = [c * x - us * y for x, y in zip(vp, vq)]
                vecs[q] = [s * x + uc * y for x, y in zip(vp, vq)]
            new_sq_p, new_sq_q = sq_p - t * absg, sq_q + t * absg
            norms[p] = math.sqrt(new_sq_p) if new_sq_p >= 0.25 * sq_p else _norm(new_p)
            norms[q] = math.sqrt(new_sq_q) if new_sq_q >= 0.25 * sq_q else _norm(new_q)
    return rotated


def singular_values_stack(stack) -> np.ndarray:
    """Descending singular values of every block of an (m, n, n) stack, as an
    (m, n) array, by one-sided Jacobi on all blocks at once.

    The columns of all blocks are held as one complex array, seated for the
    round-robin (tournament) ordering (Brent & Luk, SIAM J. Sci. Stat.
    Comput. 6, 1985).  Each round rotates the floor(n/2) disjoint column
    pairs p = cols[i], q = cols[h + i] of every block by the rotation of
    ``_hestenes_sweep`` for g = sum conj(p) q, then multiplies q by the phase
    u = g / |g|, which changes no norm, so that all columns move in one step,
    c cols + k cols[swap]: p' = c p - s conj(u) q and q' = c q + s u p.  A
    pair that needs no rotation takes t = 0, the identity.  The iteration
    stops after one tournament (n - 1 rounds, n rounded up to even) in which
    no block rotated: then every pair was found orthogonal since the last
    rotation.  Per block the rest is as in ``singular_values``: the prescale
    of ``_pow2_scale`` and its undo, ``_SAFE_LO``, ``ORTH_TOL``, the
    closed-form norm update with its cancellation guard (a squared norm that
    would fall below a quarter of its old value is recomputed from its
    column, and only such columns are re-normed), at most ``MAX_SWEEPS``
    tournaments, and final norms recomputed from the columns.  Every step is
    elementwise numpy or a sum within one block, with no BLAS, so a block's
    values do not depend on the rest of the stack: they are bit for bit those
    of a stack of one.  Non-finite entries raise ValidationError.
    """
    w, e = _pow2_scale(stack)
    m, n = w.shape[0], w.shape[-1]
    if w.size == 0:
        return np.zeros((m, n))
    # cols[k, b] is column k of block b; odd n gets a zero column, which
    # never rotates and adds one zero value.
    h2 = n + n % 2
    h = h2 // 2
    cols = np.zeros((h2, m, n), dtype=np.complex128)
    cols[:n] = w.transpose(2, 0, 1)
    seats, perm = _tournament(h2)
    cols = cols[seats]
    sq = _col_norms(cols) ** 2
    rounds = quiet = 0
    while quiet < h2 - 1:
        if rounds == MAX_SWEEPS * (h2 - 1):
            raise ConvergenceError(f"one-sided Jacobi did not orthogonalize {n} columns "
                                   f"in {MAX_SWEEPS} sweeps")
        rounds += 1
        norms = np.sqrt(sq)
        g = np.add.reduce(cols[:h].conj() * cols[h:], axis=-1)
        absg = np.abs(g)
        active = (np.minimum(sq[:h], sq[h:]) >= _SAFE_LO * _SAFE_LO) & \
            (absg > ORTH_TOL * (norms[:h] * norms[h:]))
        if not np.count_nonzero(active):
            quiet += 1
        else:
            quiet = 0
            # Idle pairs divide by a safe |g| of 1 and take t = 0: the identity.
            safe = np.where(active, absg, 1.0)
            tau = (sq[h:] - sq[:h]) / (2.0 * safe)
            t = np.where(active, 1.0 / (tau + np.copysign(np.hypot(1.0, tau), tau)), 0.0)
            c = 1.0 / np.hypot(1.0, t)
            su = (t * c) * (g / safe)
            # p' = c p - s conj(u) q and q' = c q + s u p in one step.
            k = np.concatenate((-su.conj(), su)).reshape(2, h, m, 1)
            pairs = cols.reshape(2, h, m, n)
            new = (c[..., None] * pairs + k * pairs[::-1]).reshape(h2, m, n)
            step = t * absg
            new_sq = np.concatenate((sq[:h] - step, sq[h:] + step))
            bad = ~(new_sq >= 0.25 * sq)
            if np.count_nonzero(bad):
                new_sq[bad] = _col_norms(new[bad]) ** 2
            cols, sq = new, new_sq
        cols, sq = cols[perm], sq[perm]
    vals = -np.sort(-_col_norms(cols).T, axis=1)[:, :n]
    with np.errstate(over="ignore"):
        vals = np.ldexp(vals, e[:, None])
    if not np.all(np.isfinite(vals)):
        raise ValidationError("the matrix has singular values beyond the binary64 range")
    return vals


def _col_norms(cols: np.ndarray) -> np.ndarray:
    """Euclidean norms of complex vectors along the last axis, each formed at the
    exact power-of-two scale of its largest real or imaginary part, so that no
    square that matters underflows."""
    parts = cols.view(np.float64)
    f = np.frexp(np.abs(parts).max(axis=-1))[1]
    scaled = np.ldexp(parts, -f[..., None])
    return np.ldexp(np.sqrt((scaled * scaled).sum(axis=-1)), f)


@functools.lru_cache(maxsize=None)
def _tournament(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(seats, perm) of the round-robin ordering of an even number n of columns.

    Columns are stored in seat order: a round pairs storage places i and
    n/2 + i.  ``seats`` is the storage order of the first round, and
    ``stored[perm]`` seats the columns for the next: place 0 stays and the
    others move on by one, so every pair meets once in n - 1 rounds.
    """
    def stored(s):
        return s[:n // 2] + s[n // 2:][::-1]

    seats = list(range(n))
    first, then = stored(seats), stored(seats[:1] + seats[-1:] + seats[1:-1])
    out = np.array(first), np.array([first.index(k) for k in then])
    for a in out:
        a.flags.writeable = False  # cached and shared by every call
    return out


def pow2_prescale(blocks) -> tuple[list[np.ndarray], int]:
    """(blocks / 2^e, e) for a list of complex matrices, exact; e = 0 while their
    largest real or imaginary part lies in [2^-451, 2^450), so products of two of
    them neither overflow nor underflow, and otherwise e is the exponent of that
    part, the ``_pow2_scale`` exponent of all blocks taken as one.  A non-finite
    entry raises ValidationError."""
    e = int(_pow2_scale(np.concatenate([np.ravel(b) for b in blocks])[None])[1][0])
    if abs(e) <= _SAFE_EXP:
        return list(blocks), 0
    return [_ldexp_matrix(b, -e) for b in blocks], e


def needs_no_prescale(top: float, d: int) -> bool:
    """Whether ``pow2_prescale`` returns e = 0 for blocks of dimension at most d
    whose largest singular value is ``top``, up to rounding: their largest real
    or imaginary part lies in [top / (d sqrt 2), top], so with a factor 2 to
    spare, top in [2^-450 d sqrt 2, 2^449) puts it in [2^-451, 2^450).  A top of
    0 proves nothing."""
    return _SAFE_LO * d * math.sqrt(2.0) <= top < 2.0 ** (_SAFE_EXP - 1)


def pow2_rescale(a: np.ndarray, e: int) -> np.ndarray:
    """a * 2^e; an entry beyond the binary64 range raises ValidationError."""
    if e == 0:
        return a
    with np.errstate(over="ignore"):
        out = _ldexp_matrix(a, e)
    if not np.all(np.isfinite(out)):
        raise ValidationError("the result has entries beyond the binary64 range")
    return out


def ldexp_values(vals: list[float], e: int, what: str) -> np.ndarray:
    """vals * 2^e; a result beyond the binary64 range raises ValidationError."""
    try:
        return np.array([math.ldexp(v, e) for v in vals], dtype=np.float64)
    except OverflowError:
        raise ValidationError(f"the matrix has {what} beyond the binary64 range") from None


def levels(vals_desc) -> tuple[list[list[int]], list[float], int]:
    """(groups, values, rank) of descending values, the one rule for equal and zero values.

    Adjacent values share a group while their gap is at most ``CLUSTER_RTOL``
    times the larger magnitude (a chain rule); a group's value is the plain
    mean of its members, formed as a running mean, which cannot overflow; the
    rank counts the values of the groups whose value lies above
    ``RANK_RTOL`` max(v_0, 0), the leading ones, since values descend.
    """
    vals = vals_desc.tolist() if isinstance(vals_desc, np.ndarray) else vals_desc
    rtol, groups, values = CLUSTER_RTOL, [], []
    for k, v in enumerate(vals):
        # Descending, so the gap is prev - v and the larger magnitude max(prev, -v).
        if groups and prev - v <= rtol * (prev if prev > -v else -v):
            groups[-1].append(k)
            values[-1] += (v - values[-1]) * (1.0 / len(groups[-1]))
        else:
            groups.append([k])
            values.append(v)
        prev = v
    cut = RANK_RTOL * vals[0] if groups and vals[0] > 0.0 else 0.0
    rank = len(vals)
    if values and not values[-1] > cut:  # the first group at or below the cut ends the rank
        rank = next(g[0] for g, value in zip(groups, values) if not value > cut)
    return groups, values, rank


def above_floor(vals_desc) -> int:
    """How many of a block's d descending singular values lie above the
    one-sided kernels' rounding floor, 64 d 2^-52 times the largest: a computed
    zero stays below it, and the values above it are computed to high relative
    accuracy (Demmel & Veselic 1992).  The distribution of |x| keeps those."""
    vals = vals_desc.tolist() if isinstance(vals_desc, np.ndarray) else vals_desc
    floor = math.ldexp(64 * len(vals), -52) * vals[0] if vals else 0.0
    return next((k for k, v in enumerate(vals) if not v > floor), len(vals))


def is_positive_semidefinite(vals_desc) -> bool:
    """Whether descending eigenvalues belong to a positive block (see POSITIVITY_RTOL)."""
    if len(vals_desc) == 0:
        return True
    low = float(vals_desc[-1])
    return low >= -POSITIVITY_RTOL * max(float(vals_desc[0]), abs(low), 1e-300)


def block_diag(blocks) -> np.ndarray:
    """Complex matrix with the given blocks along its diagonal, zeros elsewhere."""
    out = np.zeros(tuple(map(sum, zip(*(b.shape for b in blocks)))), dtype=np.complex128)
    row = col = 0
    for b in blocks:
        out[row:row + b.shape[0], col:col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, entry [(j, m), (l, k)] = a[j, l] * b[m, k]."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])

