"""Dense reference for the oracle tests: the truncated Hamiltonian as a list of
rows and cyclic Jacobi eigenvalues, independent of the parity-ladder count in
`aqrm.oracle`. Jacobi is slow (O(n^3) per sweep) but robust, and it is the
most accurate of the classical dense methods (Demmel & Veselic, SIAM J.
Matrix Anal. Appl. 13 (1992)). Also all eigenvalues of a real symmetric
tridiagonal matrix by Sturm-count bisection, the reference for the parity
chains and for the y-roots of the constraint polynomials, and the parity-ladder
count run over every rung, the reference for its certified early stop, in
floats and in exact rationals."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from aqrm.oracle import _pivot
from aqrm.roots import bisect_sign_change


# basis ordering: |n, up> at 2n, |n, down> at 2n+1 (spin-major interleaved)

def truncated_hamiltonian(params, M: int) -> list[list[float]]:
    """Dense 2(M+1)-dimensional truncation of
    a^dag a + delta sigma_z + g sigma_x (a^dag + a) + eps sigma_x; every
    off-diagonal entry is written to both triangles, so symmetry is exact."""
    n = 2 * (M + 1)
    rows = [[0.0] * n for _ in range(n)]

    def put(i, j, v):
        rows[i][j] = rows[j][i] = v

    for k in range(M + 1):
        rows[2 * k][2 * k] = k + params.delta
        rows[2 * k + 1][2 * k + 1] = k - params.delta
        put(2 * k, 2 * k + 1, params.eps)
        if k < M:
            c = params.g * math.sqrt(k + 1.0)
            put(2 * k + 1, 2 * (k + 1), c)       # |k,down> <-> |k+1,up>
            put(2 * k, 2 * (k + 1) + 1, c)       # |k,up>   <-> |k+1,down>
    return rows


def _jacobi_eigenvalues(rows: list[list[float]], tol: float = 1e-14,
                        max_sweeps: int = 60) -> list[float]:
    """Cyclic Jacobi rotations on a copy of the rows; eigenvalues sorted."""
    n = len(rows)
    a = [r[:] for r in rows]
    for _ in range(max_sweeps):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(i + 1, n)))
        norm = max(max(abs(v) for v in row) for row in a) or 1.0
        if off <= tol * norm * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (a[q][q] - a[p][p]) / apq
                t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return sorted(a[i][i] for i in range(n))


def eigenvalues(rows: list[list[float]], count: int | None = None,
                tol: float = 1e-12) -> list[float]:
    """Lowest `count` eigenvalues (all when count is None), sorted ascending."""
    if count is None:
        count = len(rows)
    if count > len(rows):
        raise ValueError("count exceeds dimension")
    return _jacobi_eigenvalues(rows, tol=min(tol, 1e-14))[:count]


def tridiag_count_below(diag: Sequence[float], off: Sequence[float], sigma: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix strictly
    below sigma (Sturm sign-agreement count via the LDL pivot recurrence)."""
    count = 0
    d = 1.0
    tiny = 1e-300
    for i, a in enumerate(diag):
        e2 = off[i - 1] * off[i - 1] if i > 0 else 0.0
        d = (a - sigma) - (e2 / d if d != 0.0 else e2 / tiny)
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = -tiny
            count += 1
    return count


def sym_tridiag_eigenvalues(diag: Sequence[float], offdiag: Sequence[float],
                            tol: float = 1e-12) -> list[float]:
    """All eigenvalues of a real symmetric tridiagonal matrix, sorted, each
    bracketed to absolute width tol by bisection from Gershgorin bounds."""
    n = len(diag)
    if len(offdiag) != max(n - 1, 0):
        raise ValueError("offdiag must have length n-1")
    if n == 0:
        return []
    lo = min(diag[i] - (abs(offdiag[i - 1]) if i > 0 else 0.0)
             - (abs(offdiag[i]) if i < n - 1 else 0.0) for i in range(n))
    hi = max(diag[i] + (abs(offdiag[i - 1]) if i > 0 else 0.0)
             + (abs(offdiag[i]) if i < n - 1 else 0.0) for i in range(n))
    lo -= tol
    hi += tol
    eigs = [bisect_sign_change(lambda s: tridiag_count_below(diag, offdiag, s) - k - 0.5,
                               lo, hi, -1, tol)
            for k in range(n)]
    eigs.sort()
    return eigs


def band_count_full(ladder, sigma: float) -> int:
    """The parity-ladder inertia count of `aqrm.oracle._band_count_below`
    without its certified stop: the same Schur recursion over every rung."""
    count = 0
    u = v = w = 0.0                       # S_{k-1}^{-1} = [[u, v], [v, w]]
    for c2, da, db, eps in ladder:
        p = da - sigma - c2 * u
        b = eps - c2 * v
        d = db - sigma - c2 * w
        det = p * d - b * b
        if det > 1e-300 or det < -1e-300:
            count += 1 if det < 0.0 else 2 * (p < 0.0)
            r = 1.0 / det
            u, v, w = d * r, -b * r, p * r
            continue
        scale = max(1.0, abs(p), abs(d))
        p = _pivot(p, scale)
        l = b / p
        q = _pivot(d - l * b, scale)
        count += (p < 0.0) + (q < 0.0)
        w = 1.0 / q
        v = -l * w
        u = 1.0 / p - l * v
    return count


def band_count_exact(ladder, sigma: float) -> int:
    """The count of band_count_full in exact rational arithmetic on the
    ladder's floats: by Sylvester's law of inertia, the number of eigenvalues
    below sigma of the matrix those floats spell, with no rounding at all.
    Raises ZeroDivisionError where sigma is an eigenvalue of a leading block
    (a singular S_k), which random floats never hit."""
    s = Fraction(sigma)
    count = 0
    u = v = w = Fraction(0)               # S_{k-1}^{-1} = [[u, v], [v, w]]
    for c2, da, db, eps in ladder:
        c2 = Fraction(c2)
        p = Fraction(da) - s - c2 * u
        b = Fraction(eps) - c2 * v
        d = Fraction(db) - s - c2 * w
        det = p * d - b * b
        count += 1 if det < 0 else 2 * (p < 0)
        u, v, w = d / det, -b / det, p / det
    return count
