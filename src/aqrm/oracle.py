"""Level counts of the model Hamiltonian by inertia on its parity ladder,
and locate_levels, the one count bisection that places levels on them.
A probe can also return Newton's correction for the determinant from the
same loop, and locate_levels lets it pick the points it probes. On
certified_count, the count N(sigma) of the untruncated Hamiltonian, it
places every level that the spectrum assembles (exceptional and regular
alike); lowest_eigenvalues runs it on the count of a truncated boson basis.
certified_eigenvalues bisects N(sigma), unguided, to the levels the tests
hold the spectrum to. No external numerical library is involved."""

from __future__ import annotations

import math

from .roots import bisect_sign_change
from .series import ModelParams

_WIDTH = 1.01e-12    # bisection width of each eigenvalue
_H = 2.0 ** -40      # grid step of lowest_eigenvalues' cells
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
    band holds at most one point of locate_levels' grid (step 2^-34 at the
    finest for the spectrum, 2^-40 for lowest_eigenvalues), each level keeps
    one cell across which the count steps up; elsewhere, as at such a
    coincidence, the cell found is one of those in the band.
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
    assembly's floor, or a count that no rung up to M_MAX certifies."""


def certified_count(params: ModelParams):
    """sigma -> N(sigma), the number of eigenvalues below sigma of the
    untruncated Hamiltonian. A count that stops at a certified rung k holds for
    every truncation from k on, and by Cauchy interlacing the truncated counts
    tend to N(sigma), so it is N(sigma). The rung list, built at the first
    probe, doubles from _M_FIRST while a probe runs to its last rung M (the
    count's last_rung()). Past M_MAX it raises IncompleteSpectrum, and at once
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
            raise IncompleteSpectrum(f"level count not certified by M={M_MAX}")
        rungs = rungs or _ladder(params, M)
        probe = _band_count_below(rungs, sigma, newton)
        while probe[1] == M and M < M_MAX:
            M = min(2 * M, M_MAX)
            rungs = _ladder(params, M)
            probe = _band_count_below(rungs, sigma, newton)
        if probe[1] == M:
            raise IncompleteSpectrum(f"level count not certified by M={M}")
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
    except IncompleteSpectrum as exc:
        exact, why = None, str(exc)
    return None if exact == n else (f"truncation M={M} not converged: {n} eigenvalues "
                                    f"below {format(sigma, '.17g')} at M={M}, {why}")


def locate_levels(n, todo: list[tuple[float, float, int, int]], h: float,
                  floor: float, cap: float) -> list[float]:
    """Sorted levels of the level count n (levels below x) in the brackets
    todo, each (a, b, n(a), n(b)), one entry per level (count bisection:
    Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386). A bracket [a, b)
    with more than one level splits at its midpoint. One with a single level
    is bisected on n over the grid j h, h raised to twice the float spacing
    at max(|a|, |b|) where that is coarser, for the cell [j h, (j + 1) h]
    across which n steps up; the level is its midpoint. Where the count's
    rounding band next to a level (_band_count_below) holds at most one
    grid point, that cell depends on n and h only, not on the bracket or on
    the points probed. A bracket no wider than floor with more than one
    level raises IncompleteSpectrum; with floor 0, a bracket inside one cell
    yields its levels at the cell's midpoint, as where the two levels of a
    Juddian doublet share a float. Brackets whose lower count reaches cap
    drop, and only levels below cap are returned.

    n(x, True) also returns Newton's correction t from the same probe. The
    bisection probes the grid point floor((x - t) / h), kept strictly inside
    (lo, hi), while successive corrections at least halve, and the midpoint
    otherwise. Every count still moves lo or hi, so wherever n steps up once
    across the bracket the cell is that of plain bisection. Bracket halving
    is no safeguard here: Newton closes in from one side, and halving would
    reject most of its steps."""
    out = []
    while todo:
        a, b, na, nb = todo.pop()
        if na >= cap or nb == na:
            continue
        step = max(h, 2.0 * math.ulp(max(abs(a), abs(b))))
        lo, hi = math.floor(a / step), math.ceil(b / step)
        if nb == na + 1:
            j, last = (lo + hi) // 2, math.inf
            while hi - lo > 1:
                nj, t = n(j * step, True)
                if nj > na:
                    hi = j
                else:
                    lo = j
                if t is not None and abs(t) <= 0.5 * last:
                    j = math.floor(min(max(j - t / step, lo + 1), hi - 1))
                    last = abs(t)
                else:
                    j, last = (lo + hi) // 2, math.inf if t is None else abs(t)
            out.append((lo + 0.5) * step)
        elif hi - lo == 1 and not floor:
            out += [(lo + 0.5) * step] * (min(nb, cap) - na)
        elif b - a <= floor:
            raise IncompleteSpectrum(
                f"{nb - na} levels within {b - a:.1e} of x = {format(a, '.17g')}")
        else:
            mid = 0.5 * (a + b)
            nm = n(mid)
            todo += [(a, mid, na, nm), (mid, b, nm, nb)]
    return sorted(out)


def lowest_eigenvalues(params: ModelParams, M: int, count: int) -> list[float]:
    """Lowest eigenvalues of the Hamiltonian truncated at boson number M
    (at least 8, at most M_MAX): locate_levels on the truncated count, from
    the Gershgorin window of H, on the grid h = 2^-40 with floor 0 and cap
    count. A probe at sigma counts rung by rung up to the certified tail
    rung of _band_count_below, about sigma + O(g^2), and never past M."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    ladder = _truncated(params, M)
    d, e = params.delta, abs(params.eps)
    # Gershgorin radii of the rows |k,up> and |k,down>: couplings left of the
    # diagonal first, then those right of it
    c = [0.0] + [abs(params.g * math.sqrt(k + 1.0)) for k in range(M)] + [0.0]
    rows = [(k + d, c[k] + (e + c[k + 1])) for k in range(M + 1)]
    rows += [(k - d, (e + c[k]) + c[k + 1]) for k in range(M + 1)]
    lo = min(a - r for a, r in rows) - 1.0
    hi = max(a + r for a, r in rows) + 1.0

    def n(sigma: float, newton: bool = False):
        probe = _band_count_below(ladder, sigma, newton)
        return (probe[0], probe[2]) if newton else probe[0]

    return locate_levels(n, [(lo, hi, 0, 2 * (M + 1))], _H, 0.0, count)


def certified_eigenvalues(params: ModelParams, count: int) -> tuple[list[float], int]:
    """(levels, M): the lowest count eigenvalues of the untruncated Hamiltonian,
    each by bisection on certified_count inside its level_bracket, and the last
    rung M of the rung list that count ended on. Raises IncompleteSpectrum."""
    n = certified_count(params)
    g2 = params.g ** 2
    out = []
    for k in range(count):
        lo, hi = level_bracket(params, k)
        out.append(bisect_sign_change(lambda x: n(x) - k - 0.5, lo - g2, hi - g2, -1, _WIDTH))
    return out, n.last_rung()
