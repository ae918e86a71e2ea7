"""Level counts of the model Hamiltonian by inertia bisection on its parity
ladder: certified_count, the count N(sigma) of the untruncated Hamiltonian,
places every level that the spectrum assembles (exceptional and regular
alike). lowest_eigenvalues bisects the count of a truncated boson basis, and
certified_eigenvalues bisects N(sigma) to the levels the tests hold the
spectrum to. No external numerical library is involved."""

from __future__ import annotations

import math

from .roots import bisect_count
from .series import ModelParams

_WIDTH = 1.01e-12    # bisection width of each eigenvalue
M_MAX = 100_000      # largest truncation; checked before any rung is built
_M_FIRST = 60        # last rung of certified_count's first rung list


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


def _pivot(x: float, scale: float) -> float:
    """x, moved out to +/-2^-32 scale when it is smaller in magnitude; a zero
    pivot goes to the negative side and counts as negative. This perturbs H by
    about 2^-32 scale, so the count stays exact for sigma farther than that
    from every eigenvalue. A much smaller nudge (1e-300, say) makes the next
    Schur complement so large that rounding erases the rest of its block."""
    t = 2.0 ** -32 * scale
    return x if abs(x) >= t else (t if x > 0.0 else -t)


def _band_count_below(ladder: list[tuple[float, float, float, float]],
                      sigma: float) -> tuple[int, int]:
    """(n, k): n eigenvalues strictly below sigma, counted on rungs 0..k.
    n sums the negative eigenvalues of the Schur complements
    S_k = D_k - sigma - c_{k-1}^2 S_{k-1}^{-1} (Haynsworth inertia
    additivity). S_k = [[p, b], [b, d]] has one if det < 0, two if det > 0
    and p < 0. When det is zero, below 1e-300 in magnitude (its reciprocal
    would overflow) or NaN, S_k is read through its scalar LDL^T pivots
    instead, each kept away from zero by _pivot.

    The count stops at the first rung k whose S_k certifies the tail. With
    r = sqrt(delta^2 + eps^2), lambda_min(D_j) = j - r, so lambda_min(S_j) >=
    mu implies S_{j+1} >= ((j + 1)(1 - g^2/mu) - r - sigma) I. Take S_k > 0
    and mu = det / (2 (p + d)) <= lambda_min(S_k) / 2. If mu > g^2 and
    (k + 1)(1 - g^2/mu) - r - sigma >= mu, every later S_j >= mu I by
    induction and adds nothing, for every truncation at or above k. The
    factor 2 is far more slack than rounding takes, so n is the count of the
    whole ladder. Without such a rung, k is the last rung."""
    g2 = ladder[1][0] if len(ladder) > 1 else 0.0     # c_0^2 = g^2
    h = 0.5 / g2 if g2 > 0.0 else math.inf            # mu > g^2 iff 1/(2 mu) < h
    _, da, db, eps = ladder[0]
    s = math.hypot(0.5 * (da - db), eps) + sigma      # r + sigma
    count = 0
    u = v = w = 0.0                       # S_{k-1}^{-1} = [[u, v], [v, w]]
    for c2, da, db, eps in ladder:
        p = da - sigma - c2 * u
        b = eps - c2 * v
        d = db - sigma - c2 * w
        det = p * d - b * b
        if det > 1e-300 or det < -1e-300:
            r = 1.0 / det
            u, v, w = d * r, -b * r, p * r
            if det < 0.0:
                count += 1
            elif p < 0.0:
                count += 2
            elif u + w < h:               # S_k > 0 and u + w = 1/(2 mu)
                t = u + w
                k = 0.5 * (da + db)       # D_k = k I + traceless part
                if 2.0 * t * ((k + 1.0) * (1.0 - 2.0 * g2 * t) - s) >= 1.0:
                    return count, round(k)
            continue
        scale = max(1.0, abs(p), abs(d))
        p = _pivot(p, scale)
        l = b / p
        q = _pivot(d - l * b, scale)
        count += (p < 0.0) + (q < 0.0)
        w = 1.0 / q
        v = -l * w
        u = 1.0 / p - l * v
    return count, len(ladder) - 1


class UncertifiedCount(ArithmeticError):
    """No rung up to M_MAX certifies the eigenvalue count below some sigma."""


def certified_count(params: ModelParams):
    """sigma -> N(sigma), the number of eigenvalues below sigma of the
    untruncated Hamiltonian. A count that stops at a certified rung k holds for
    every truncation from k on, and by Cauchy interlacing the truncated counts
    tend to N(sigma), so it is N(sigma). The rung list, built at the first
    probe, doubles from _M_FIRST while a probe runs to its last rung M (the
    count's last_rung()). Past M_MAX it raises UncertifiedCount, and at once
    where sigma + r + g^2 > 0 and 2 g^2 + r + sigma >= M_MAX + 2: a rung k
    certifies only if k + 1 >= mu (mu + r + sigma) / (mu - g^2) for some
    mu > g^2 (_band_count_below), and that exceeds 2 g^2 + r + sigma."""
    g2 = params.g * params.g
    r = math.hypot(params.delta, params.eps)
    M, rungs = min(_M_FIRST, M_MAX), None

    def count(sigma: float) -> int:
        nonlocal M, rungs
        if sigma + r + g2 > 0.0 and sigma + r + 2.0 * g2 >= M_MAX + 2:
            raise UncertifiedCount(f"level count not certified by M={M_MAX}")
        rungs = rungs or _ladder(params, M)
        n, k = _band_count_below(rungs, sigma)
        while k == M and M < M_MAX:
            M = min(2 * M, M_MAX)
            rungs = _ladder(params, M)
            n, k = _band_count_below(rungs, sigma)
        if k == M:
            raise UncertifiedCount(f"level count not certified by M={M}")
        return n

    count.last_rung = lambda: M     # no reference back to count: no cycle
    return count


def level_bracket(params: ModelParams, k: int) -> tuple[float, float]:
    """(-w, k // 2 + w), w = delta + |eps| + 1, brackets level k (0-based) in
    x = lambda + g^2: by Weyl's inequality no level lies farther than
    ||delta sigma_z + eps sigma_x|| < w from the displaced oscillators' levels,
    each n - g^2 twice."""
    w = params.delta + abs(params.eps) + 1.0
    return -w, k // 2 + w


def _truncated(params: ModelParams, M: int) -> list[tuple[float, float, float, float]]:
    """_ladder(params, M), refused before any rung is built unless 8 <= M <= M_MAX."""
    if not 8 <= M <= M_MAX:
        raise ValueError(f"M must be at least 8 and at most {M_MAX}")
    return _ladder(params, M)


def truncation_warning(params: ModelParams, M: int, sigma: float) -> str | None:
    """None when the count below sigma of the Hamiltonian truncated at M is
    N(sigma), else why not. A count that stops at a certified rung below M is
    N(sigma) already; only a probe that runs to rung M asks certified_count."""
    n, k = _band_count_below(_truncated(params, M), sigma)
    try:
        exact = n if k < M else certified_count(params)(sigma)
        why = f"{exact} without truncation"
    except UncertifiedCount as exc:
        exact, why = None, str(exc)
    return None if exact == n else (f"truncation M={M} not converged: {n} eigenvalues "
                                    f"below {format(sigma, '.17g')} at M={M}, {why}")


def lowest_eigenvalues(params: ModelParams, M: int, count: int) -> list[float]:
    """Lowest eigenvalues of the Hamiltonian truncated at boson number M
    (at least 8, at most M_MAX), through inertia bisection on the parity
    ladder. A probe at sigma counts rung by rung up to the certified tail
    rung of _band_count_below, about sigma + O(g^2), and never past M.

    Level k bisects from just below level k - 1 up to the Gershgorin top,
    but the counts are shared between levels (Barth, Martin & Wilkinson,
    Numer. Math. 9 (1967) 386): above[j] is the least sigma probed so far
    with more than j eigenvalues below it. The count does not decrease in
    sigma, so a midpoint at or above above[k] has more than k below it and
    takes the step a probe would take, without one. The bisection paths, and
    every bit returned, are those of probing each midpoint wherever the
    computed count does not decrease either; it is exact, so monotone,
    farther than the _pivot nudge from every eigenvalue."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    ladder = _truncated(params, M)
    d, e = params.delta, abs(params.eps)
    count = min(count, 2 * (M + 1))
    # Gershgorin radii of the rows |k,up> and |k,down>: couplings left of the
    # diagonal first, then those right of it
    c = [0.0] + [abs(params.g * math.sqrt(k + 1.0)) for k in range(M)] + [0.0]
    rows = [(k + d, c[k] + (e + c[k + 1])) for k in range(M + 1)]
    rows += [(k - d, (e + c[k]) + c[k + 1]) for k in range(M + 1)]
    lo = min(a - r for a, r in rows) - 1.0
    hi = max(a + r for a, r in rows) + 1.0
    above = [math.inf] * count

    def count_below(sigma: float) -> int:     # for level k of the loop below
        if sigma >= above[k]:
            return k + 1
        n = _band_count_below(ladder, sigma)[0]
        j = min(n, count) - 1
        while j >= 0 and above[j] > sigma:     # above is nondecreasing in j
            above[j] = sigma
            j -= 1
        return n

    out = []
    for k in range(count):
        out.append(bisect_count(count_below, lo, hi, k, _WIDTH))
        lo = out[-1] - 1e-9  # eigenvalues are sorted; restart just below
    return out


def certified_eigenvalues(params: ModelParams, count: int) -> tuple[list[float], int]:
    """(levels, M): the lowest count eigenvalues of the untruncated Hamiltonian,
    each by bisection on certified_count inside its level_bracket, and the last
    rung M of the rung list that count ended on. Raises UncertifiedCount."""
    n = certified_count(params)
    g2 = params.g ** 2
    out = []
    for k in range(count):
        lo, hi = level_bracket(params, k)
        out.append(bisect_count(n, lo - g2, hi - g2, k, _WIDTH))
    return out, n.last_rung()
