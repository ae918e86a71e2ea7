"""Independent ground truth: the model Hamiltonian on a truncated boson basis
and self-contained symmetric eigensolvers, used to validate every spectral
claim at desk scale. No external numerical library is involved."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .roots import bisect_count
from .series import ModelParams


@dataclass
class DenseSymMatrix:
    """Row-major dense symmetric matrix; only built through helpers that write
    the upper triangle and mirror it, so symmetry is exact."""

    dim: int
    entries: list[float]

    def at(self, i: int, j: int) -> float:
        return self.entries[i * self.dim + j]

    def rows(self) -> list[list[float]]:
        n = self.dim
        return [self.entries[i * n:(i + 1) * n] for i in range(n)]

    def max_asymmetry(self) -> float:
        n = self.dim
        return max((abs(self.at(i, j) - self.at(j, i))
                    for i in range(n) for j in range(i)), default=0.0)


@dataclass(frozen=True)
class TruncationConfig:
    M: int = 80          # highest boson number kept
    tol: float = 1e-10

    def __post_init__(self):
        if self.M < 8:
            raise ValueError("M must be at least 8")


# basis ordering: |n, up> at 2n, |n, down> at 2n+1 (spin-major interleaved)

def truncated_hamiltonian(params: ModelParams, cfg: TruncationConfig) -> DenseSymMatrix:
    """Dense 2(M+1)-dimensional truncation of
    a^dag a + delta sigma_z + g sigma_x (a^dag + a) + eps sigma_x."""
    M = cfg.M
    n = 2 * (M + 1)
    e = [0.0] * (n * n)

    def put(i, j, v):
        e[i * n + j] = v
        e[j * n + i] = v

    for k in range(M + 1):
        e[(2 * k) * n + 2 * k] = k + params.delta
        e[(2 * k + 1) * n + 2 * k + 1] = k - params.delta
        put(2 * k, 2 * k + 1, params.eps)
        if k < M:
            c = params.g * math.sqrt(k + 1.0)
            put(2 * k + 1, 2 * (k + 1), c)       # |k,down> <-> |k+1,up>
            put(2 * k, 2 * (k + 1) + 1, c)       # |k,up>   <-> |k+1,down>
    return DenseSymMatrix(n, e)


# ---------------------------------------------------------------------------
# dense symmetric eigensolvers
# ---------------------------------------------------------------------------

def _householder_tridiag(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Reduce a symmetric matrix (given as mutable rows) to tridiagonal form;
    returns (diagonal, subdiagonal). Standard Householder chain without
    accumulating the transform."""
    n = len(a)
    d = [0.0] * n
    e = [0.0] * n
    for i in range(n - 1, 0, -1):
        l = i - 1
        h = 0.0
        if l > 0:
            scale = sum(abs(a[i][k]) for k in range(l + 1))
            if scale == 0.0:
                e[i] = a[i][l]
            else:
                inv_scale = 1.0 / scale
                row = a[i]
                for k in range(l + 1):
                    row[k] *= inv_scale
                    h += row[k] * row[k]
                f = row[l]
                g = -math.sqrt(h) if f >= 0.0 else math.sqrt(h)
                e[i] = scale * g
                h -= f * g
                row[l] = f - g
                inv_h = 1.0 / h
                f = 0.0
                for j in range(l + 1):
                    g = sum(a[j][k] * row[k] for k in range(j + 1))
                    g += sum(a[k][j] * row[k] for k in range(j + 1, l + 1))
                    e[j] = g * inv_h
                    f += e[j] * row[j]
                hh = f / (h + h)
                for j in range(l + 1):
                    f = row[j]
                    e[j] = g = e[j] - hh * f
                    aj = a[j]
                    for k in range(j + 1):
                        aj[k] -= f * e[k] + g * row[k]
        else:
            e[i] = a[i][l]
        d[i] = h
    e[0] = 0.0
    for i in range(n):
        d[i] = a[i][i]
    return d, e[1:] + [0.0]


def _tql_eigenvalues(d: list[float], e: list[float], max_iter: int = 50) -> list[float]:
    """Implicit-shift QL iteration on a symmetric tridiagonal matrix
    (diagonal d, subdiagonal e with a trailing 0); eigenvalues only."""
    n = len(d)
    d = d[:]
    e = e[:] + [0.0] * (n - len(e))
    for l in range(n):
        iters = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= 2.3e-16 * dd or e[m] == 0.0:
                    break
                m += 1
            if m == l:
                break
            iters += 1
            if iters > max_iter:
                raise ArithmeticError("QL iteration did not converge")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            sgn = r if g >= 0 else -r
            g = d[m] - d[l] + e[l] / (g + sgn)
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    d.sort()
    return d


def _jacobi_eigenvalues(rows: list[list[float]], tol: float = 1e-14,
                        max_sweeps: int = 60) -> list[float]:
    """Cyclic Jacobi rotations; robust for small dimensions."""
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


def eigenvalues(m: DenseSymMatrix, count: int | None = None,
                tol: float = 1e-12) -> list[float]:
    """Lowest `count` eigenvalues (all when count is None), sorted ascending.
    Householder reduction plus implicit-shift QL; cyclic Jacobi below
    dimension 65."""
    if count is None:
        count = m.dim
    if count > m.dim:
        raise ValueError("count exceeds dimension")
    if m.dim <= 64:
        eigs = _jacobi_eigenvalues(m.rows(), tol=min(tol, 1e-14))
    else:
        d, e = _householder_tridiag(m.rows())
        eigs = _tql_eigenvalues(d, e)
    return eigs[:count]


# ---------------------------------------------------------------------------
# inertia bisection on the parity ladder: eps sigma_x joins the two Z2 parity
# chains A_k = |k, up if k even else down> and B_k = |k, down if k even else
# up> rung by rung, so H is block tridiagonal with 2x2 blocks
# D_k = [[k + (-1)^k delta, eps], [eps, k - (-1)^k delta]] and couplings
# c_k I, c_k = g sqrt(k+1)
# ---------------------------------------------------------------------------

def _ladder(params: ModelParams, M: int) -> list[tuple[float, float, float, float]]:
    """Rungs (c_{k-1}^2, D_k[0][0], D_k[1][1], eps) for k = 0..M; c_{-1} = 0."""
    c = [0.0] + [params.g * math.sqrt(k + 1.0) for k in range(M)]
    return [(c[k] * c[k], k + (-1) ** k * params.delta, k - (-1) ** k * params.delta,
             params.eps) for k in range(M + 1)]


def _band_count_below(ladder: list[tuple[float, float, float, float]], sigma: float) -> int:
    """Eigenvalues strictly below sigma: the negative eigenvalues of the Schur
    complements S_k = D_k - sigma - c_{k-1}^2 S_{k-1}^{-1}, summed (Haynsworth
    inertia additivity). S_k = [[p, b], [b, d]] has one if det < 0, two if
    det > 0 and p < 0. An exactly singular S_k is read through its scalar
    LDL^T pivots instead, a zero pivot nudged to -1e-300."""
    count = 0
    u = v = w = 0.0                       # S_{k-1}^{-1} = [[u, v], [v, w]]
    for c2, da, db, eps in ladder:
        p = da - sigma - c2 * u
        b = eps - c2 * v
        d = db - sigma - c2 * w
        det = p * d - b * b
        if det != 0.0:
            count += 1 if det < 0.0 else 2 * (p < 0.0)
            r = 1.0 / det
            u, v, w = d * r, -b * r, p * r
            continue
        if p == 0.0:
            p = -1e-300
        l = b / p
        q = d - l * b
        if q == 0.0:
            q = -1e-300
        count += (p < 0.0) + (q < 0.0)
        w = 1.0 / q
        v = -l * w
        u = 1.0 / p - l * v
    return count


def lowest_eigenvalues(params: ModelParams, cfg: TruncationConfig,
                       count: int) -> list[float]:
    """Lowest eigenvalues of the truncated Hamiltonian through inertia
    bisection on the parity ladder; agrees with the dense path to solver
    tolerance but costs O(M) per probe instead of O(M^3) overall."""
    M, d, e = cfg.M, params.delta, abs(params.eps)
    ladder = _ladder(params, M)
    count = min(count, 2 * (M + 1))
    # Gershgorin radii of the rows |k,up> and |k,down>: couplings left of the
    # diagonal first, then those right of it
    c = [0.0] + [abs(params.g * math.sqrt(k + 1.0)) for k in range(M)] + [0.0]
    rows = [(k + d, c[k] + (e + c[k + 1])) for k in range(M + 1)]
    rows += [(k - d, (e + c[k]) + c[k + 1]) for k in range(M + 1)]
    lo = min(a - r for a, r in rows) - 1.0
    hi = max(a + r for a, r in rows) + 1.0
    out = []
    for k in range(count):
        out.append(bisect_count(lambda s: _band_count_below(ladder, s),
                                lo, hi, k, cfg.tol * 0.01 + 1e-14))
        lo = out[-1] - 1e-9  # eigenvalues are sorted; restart just below
    return out


def convergence_study(params: ModelParams, M_list: list[int],
                      count: int) -> list[dict]:
    """Eigenvalue drift per level across increasing truncations; certifies the
    truncation error before any spectral comparison."""
    if any(b <= a for a, b in zip(M_list, M_list[1:])):
        raise ValueError("M_list must be strictly increasing")
    rows = []
    prev = None
    for M in M_list:
        eigs = lowest_eigenvalues(params, TruncationConfig(M=M), count)
        drift = None if prev is None else max(abs(a - b) for a, b in zip(eigs, prev))
        rows.append({"M": M, "eigenvalues": eigs, "drift": drift})
        prev = eigs
    return rows


def certified_eigenvalues(params: ModelParams, count: int, tol: float = 1e-8,
                          M_start: int = 60, M_cap: int = 400) -> tuple[list[float], int]:
    """Raise the truncation until successive eigenvalue drift falls below tol;
    returns (eigenvalues, certified M)."""
    M = M_start
    prev = lowest_eigenvalues(params, TruncationConfig(M=M), count)
    while M < M_cap:
        M2 = M + max(20, M // 2)
        cur = lowest_eigenvalues(params, TruncationConfig(M=M2), count)
        if max(abs(a - b) for a, b in zip(cur, prev)) < tol:
            return cur, M2
        M, prev = M2, cur
    raise ArithmeticError("truncation did not certify within the M cap")
