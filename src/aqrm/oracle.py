"""Level counts of the model Hamiltonian by inertia bisection on its parity
ladder: certified_count, the count N(sigma) of the untruncated Hamiltonian,
places every level that the spectrum assembles (exceptional and regular
alike). A probe can also return Newton's correction for the determinant
from the same loop. lowest_eigenvalues bisects the count of a truncated
boson basis after a Newton search for each level, and certified_eigenvalues
bisects N(sigma) to the levels the tests hold the spectrum to. No external
numerical library is involved."""

from __future__ import annotations

import math

from .roots import bisect_sign_change
from .series import ModelParams

_WIDTH = 1.01e-12    # bisection width of each eigenvalue
_GUARD = 2.0 ** -26  # window around a Newton estimate, times max(1, g)
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
                      sigma: float, newton: bool = False):
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
    whole ladder. Without such a rung, k is the last rung.

    Rounding. Kahan ("Accurate eigenvalues of a symmetric tridiagonal
    matrix", 1966) proved that the computed scalar Sturm count is the exact
    count of a matrix with entries moved by a few units in the last place,
    and Demmel, Dhillon & Ren (ETNA 3 (1995) 116) extended that to its
    variants. This block recursion has no such proof, and does worse where
    a nearly singular S_j lets the later entries grow. Against the exact
    count it was wrong within about 1e-13 of a level on most draws, up to
    6e-12 at (g, delta, eps, M) = (3.95, 0.02, 1/2, 22), and up to about
    3e-9 g where a level sits on a level of a leading block 0..j (measured
    for j <= 5 and g <= 2; 1.6e-9 at (1, 2, 3/2, 15), where the level near
    5/2 sits on a level of the first block). Every guided bisection rests
    on the premise this leaves: n is exact, so it does not decrease in
    sigma, outside a band around each level that is that narrow. Where the
    band is narrower than the spectrum's grid step h = 2^-34, as everywhere
    but at such a coincidence, it holds at most one grid point, so each
    level keeps one cell across which the count steps up; at a coincidence
    the cell found is one of those in the band. lowest_eigenvalues keeps
    its own window (_GUARD).
    tests/_dense.py runs the same recursion in Fractions on the ladder's
    floats, the exact count the tests compare n with next to the levels.

    With newton, (n, k, t): the same n and k, and the Newton correction
    t = 1/L for det(H_K - sigma), H_K the ladder cut two rungs past k, so
    sigma - t is Newton's step. The loop also carries
    X_k = S_k^{-1} S_k' S_k^{-1} (three numbers), with
    S_k' = dS_k/dsigma = c_{k-1}^2 X_{k-1} - I, and sums
    L = sum_k tr(S_k^{-1} S_k') = d/dsigma log|det(H_K - sigma)|. t is None
    where a pivot took the scalar path, or where L is 0 or NaN. Where sigma
    nears a level of a leading block 0..j, S_j is nearly singular and the
    terms of L cancel, so t may be far off there; the count is not. A Newton
    probe walks the rungs of a plain one and two more, and the jet never
    touches n or k (Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386;
    Li & Zeng, SIAM J. Sci. Comput. 15 (1994) 1145)."""
    g2 = ladder[1][0] if len(ladder) > 1 else 0.0     # c_0^2 = g^2
    h = 0.5 / g2 if g2 > 0.0 else math.inf            # mu > g^2 iff 1/(2 mu) < h
    _, da, db, eps = ladder[0]
    s = math.hypot(0.5 * (da - db), eps) + sigma      # r + sigma
    count = 0
    u = v = w = 0.0                       # S_{k-1}^{-1} = [[u, v], [v, w]]
    xu = xv = xw = L = 0.0                # X_{k-1} = [[xu, xv], [xv, xw]]
    done = None                           # (n, k) of a certified Newton probe
    for c2, da, db, eps in ladder:
        p = da - sigma - c2 * u
        b = eps - c2 * v
        d = db - sigma - c2 * w
        det = p * d - b * b
        if det > 1e-300 or det < -1e-300:
            r = 1.0 / det
            u, v, w = d * r, -b * r, p * r
            if newton:
                sp, sb, sd = c2 * xu - 1.0, c2 * xv, c2 * xw - 1.0     # S_k'
                tu, tv = u * sp + v * sb, u * sb + v * sd            # S_k^{-1} S_k'
                tb, tw = v * sp + w * sb, v * sb + w * sd
                L += tu + tw
                xu, xv, xw = tu * u + tv * v, tu * v + tv * w, tb * v + tw * w
                if done:
                    extra -= 1
                    if not extra:
                        break
            if det < 0.0:
                count += 1
            elif p < 0.0:
                count += 2
            elif u + w < h:               # S_k > 0 and u + w = 1/(2 mu)
                t = u + w
                k = 0.5 * (da + db)       # D_k = k I + traceless part
                if 2.0 * t * ((k + 1.0) * (1.0 - 2.0 * g2 * t) - s) >= 1.0:
                    if not newton:
                        return count, round(k)
                    if not done:
                        done, extra = (count, round(k)), 2
            continue
        scale = max(1.0, abs(p), abs(d))
        p = _pivot(p, scale)
        l = b / p
        q = _pivot(d - l * b, scale)
        count += (p < 0.0) + (q < 0.0)
        w = 1.0 / q
        v = -l * w
        u = 1.0 / p - l * v
        L = math.nan
    if not newton:
        return count, len(ladder) - 1
    n, k = done or (count, len(ladder) - 1)
    return n, k, (1.0 / L if L == L and L != 0.0 else None)


class IncompleteSpectrum(ArithmeticError):
    """The level count cannot settle the spectrum: levels closer than the
    assembly's floor, or a count that no rung certifies."""


class UncertifiedCount(IncompleteSpectrum):
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
    mu > g^2 (_band_count_below), and that exceeds 2 g^2 + r + sigma.
    count(sigma, True) returns (N(sigma), t) instead, t the Newton correction
    of _band_count_below's jet (None where it has none) from the same probe."""
    g2 = params.g * params.g
    r = math.hypot(params.delta, params.eps)
    M, rungs = min(_M_FIRST, M_MAX), None

    def count(sigma: float, newton: bool = False):
        nonlocal M, rungs
        if sigma + r + g2 > 0.0 and sigma + r + 2.0 * g2 >= M_MAX + 2:
            raise UncertifiedCount(f"level count not certified by M={M_MAX}")
        rungs = rungs or _ladder(params, M)
        probe = _band_count_below(rungs, sigma, newton)
        while probe[1] == M and M < M_MAX:
            M = min(2 * M, M_MAX)
            rungs = _ladder(params, M)
            probe = _band_count_below(rungs, sigma, newton)
        if probe[1] == M:
            raise UncertifiedCount(f"level count not certified by M={M}")
        return (probe[0], probe[2]) if newton else probe[0]

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


def _newton_search(ladder: list[tuple[float, float, float, float]], k: int,
                   x: float, a: float, b: float, w: float):
    """(s, probes): Newton's method from x for level k of the ladder's count,
    and the (sigma, count) of every probe it made. It steps while each point
    lies inside the open bracket (a, b), its count is k or k + 1 and the
    corrections at least halve, and stops at the first step that fails,
    with s None. Once Newton's quadratic rate puts the next correction,
    |t|^3 / |t'|^2 after a correction t' and then t, at most w / 256,
    s = sigma - t, kept only if the counts at s -/+ w are at most k and
    more than k."""
    probes, last = [], math.inf
    while a < x < b:
        n, _, t = _band_count_below(ladder, x, True)
        probes.append((x, n))
        if t is None or not k <= n <= k + 1 or not abs(t) <= 0.5 * last:
            break
        if last < math.inf and abs(t) ** 3 <= w * last * last / 256.0:
            s = x - t
            probes += [(y, _band_count_below(ladder, y)[0]) for y in (s - w, s + w)]
            return (s if probes[-2][1] <= k < probes[-1][1] else None), probes
        x, last = x - t, abs(t)
    return None, probes


def lowest_eigenvalues(params: ModelParams, M: int, count: int) -> list[float]:
    """Lowest eigenvalues of the Hamiltonian truncated at boson number M
    (at least 8, at most M_MAX), through inertia bisection on the parity
    ladder. A probe at sigma counts rung by rung up to the certified tail
    rung of _band_count_below, about sigma + O(g^2), and never past M.

    Level k bisects from just below level k - 1 up to the Gershgorin top,
    but the counts are shared between levels (Barth, Martin & Wilkinson,
    Numer. Math. 9 (1967) 386): above[j] is the least sigma probed so far
    with more than j eigenvalues below it, and below[j] the greatest with at
    most j. The count does not decrease in sigma, so a midpoint at or above
    above[k] has more than k below it and one at or below below[k] at most
    k, and each takes the step a probe would take, without one.

    Before it bisects, level k is sought by _newton_search inside the open
    bracket (below[k], above[k]), with the window w = 2^-26 max(1, g).
    Levels 0 and 1 start from the displaced oscillators' ground level split
    by the bias and the tunnelling, -g^2 -/+ sqrt(eps^2 + delta^2 e^(-4 g^2)),
    which is exact at g = 0; level 2 from level 0 plus 1; level k from level
    k - 1 plus the gap between levels k - 2 and k - 3, since the levels come
    in pairs and the gaps alternate. The search's probes enter the table
    only where it returns an estimate s.

    With an s, the table answers only the midpoints at least w from it, and
    the bisection probes every midpoint nearer s; without one it answers
    every midpoint it settles. Rounding can flip the count near a level
    (_band_count_below), and Newton's probes land there: within about 1e-13
    mostly, but up to about 3e-9 g where the level sits on a level of a
    leading block (measured for g <= 2), and w is five times that. So the
    bisection paths, and every bit returned, are those of probing each
    midpoint wherever the computed count does not decrease farther than w
    from the level."""
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
    below = [-math.inf] * count
    w = _GUARD * max(1.0, abs(params.g))

    def record(sigma: float, n: int) -> int:
        j = min(n, count) - 1
        while j >= 0 and above[j] > sigma:     # above is nondecreasing in j
            above[j] = sigma
            j -= 1
        j = n
        while j < count and below[j] < sigma:  # so is below
            below[j] = sigma
            j += 1
        return n

    def count_below(sigma: float) -> int:     # for level k of the loop below
        if s is None or abs(sigma - s) >= w:
            if sigma >= above[k]:
                return k + 1
            if sigma <= below[k]:
                return k
        return record(sigma, _band_count_below(ladder, sigma)[0])

    out = []
    split = math.hypot(e, d * math.exp(-2.0 * params.g ** 2))
    for k in range(count):
        if k >= 2:
            x = out[-1] + (out[-2] - out[-3]) if k >= 3 else out[0] + 1.0
        else:
            x = (2 * k - 1) * split - params.g ** 2
        s, seen = _newton_search(ladder, k, x, max(lo, below[k]), min(hi, above[k]), w)
        if s is not None:
            for y, n in seen:
                record(y, n)
        out.append(bisect_sign_change(lambda x: count_below(x) - k - 0.5, lo, hi, -1, _WIDTH))
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
        out.append(bisect_sign_change(lambda x: n(x) - k - 0.5, lo - g2, hi - g2, -1, _WIDTH))
    return out, n.last_rung()
