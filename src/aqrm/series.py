"""Series-defined analytic machinery: the K-coefficient recurrences behind the
G-function, Frobenius solutions at the model's regular singular points, the
constraint T-functions for exceptional eigenvalues, pole expansions of the
G-function (residues, double-pole coefficients, regularized sums), and the
gamma-regularized function calG whose zeros give the complete spectrum.

calG = G / (Gamma(eps-x) Gamma(-eps-x)) has no poles: each branch's series is
summed with its reciprocal gamma factor folded into every coefficient, and
1/Gamma is entire, so one series covers every x, the points N +/- eps
included. G itself keeps its poles (PoleEncountered)."""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import Literal

from .poly import a_value, constraint_value

Sign = Literal["plus", "minus"]

POLE_GUARD = 1e-8          # reject direct series evaluation closer than this to a pole
_HALF_INT_TOL = 1e-9
# every adaptive series stops once _STREAK consecutive terms are below _TOL
# relative to the partial sum, and raises NonConvergent after _MAX_TERMS terms
# or on a sum that is not finite
_TOL = 1e-14
_MAX_TERMS = 2000
_STREAK = 8


class PoleEncountered(ArithmeticError):
    """A series coefficient hit a pole of its recurrence at index n."""

    def __init__(self, n: int, where: float):
        super().__init__(f"recurrence pole at n={n} (x - n +/- eps = {where:.3e})")
        self.n = n


class NonConvergent(ArithmeticError):
    """Tail criterion not met within _MAX_TERMS terms."""


class WrongPoleOrder(ValueError):
    """A simple-pole formula was requested in the double-pole regime or vice versa."""


class ModelParams(namedtuple("ModelParams", "g delta eps")):
    """Physical parameters: finite coupling g > 0, level splitting delta > 0,
    bias eps."""

    __slots__ = ()

    def __new__(cls, g: float, delta: float, eps: float = 0.0):
        if not (math.isfinite(g) and math.isfinite(delta) and math.isfinite(eps)):
            raise ValueError("g, delta and eps must be finite")
        if not g > 0:
            raise ValueError("g must be positive")
        if not delta > 0:
            raise ValueError("delta must be positive")
        return super().__new__(cls, g, delta, eps)


SeriesState = namedtuple("SeriesState", "sum_R sum_Rbar truncation_order converged")
FrobeniusSolution = namedtuple("FrobeniusSolution", "kind N coeffs value_at_half")


def is_half_integer(eps: float) -> bool:
    return abs(2.0 * eps - round(2.0 * eps)) < _HALF_INT_TOL


def _C(n: int) -> float:
    """1 / (n! (n+1)!)."""
    return 1.0 / (math.factorial(n) * math.factorial(n + 1))


# ---------------------------------------------------------------------------
# reciprocal gamma: Lanczos scalar path
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def _gamma_lanczos(z: float) -> float:
    """Gamma(z) for z >= 0.5."""
    w = z - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * math.exp(-t) * acc


def reciprocal_gamma(z: float) -> float:
    """1/Gamma(z); exactly 0 at nonpositive integers, by branch."""
    if z == math.floor(z) and z <= 0.0:
        return 0.0
    if z >= 0.5:
        return 1.0 / _gamma_lanczos(z)
    # reflection: 1/Gamma(z) = Gamma(1-z) sin(pi z) / pi, with the sine
    # evaluated through its nearest-integer reduction for accuracy
    n = round(z)
    s = math.sin(math.pi * (z - n)) * (1.0 if n % 2 == 0 else -1.0)
    return _gamma_lanczos(1.0 - z) * s / math.pi


# ---------------------------------------------------------------------------
# K-coefficient series of the G-function
# ---------------------------------------------------------------------------

def _k_steps(x: float, params: ModelParams, s: float, n: int = 0,
             prev2: float = 0.0, prev1: float = 1.0):
    """Yield (d_n, K_n) for n = 0, 1, 2, ... of the branch with s = +eps or
    -eps: d_n = x - n + s, K_0 = 1 and n K_n = f_{n-1} K_{n-1} - K_{n-2} with
    f_n = 2g + (n - x + s + Delta^2/d_n) / (2g). The pole d_{n-1} is checked
    just before K_n is formed (PoleEncountered), so a consumer that stops at
    K_n never checks d_n. Seeded with a later n and (K_{n-1}, K_n) as
    (prev2, prev1), it runs the same recurrence on any multiple of K from
    there."""
    two_g = 2.0 * params.g
    d2 = params.delta * params.delta
    d = x - n + s
    yield d, prev1
    while True:
        if abs(d) < POLE_GUARD:
            raise PoleEncountered(n, d)
        f = two_g + (n - x + s + d2 / d) / two_g
        n += 1
        prev2, prev1 = prev1, (f * prev1 - prev2) / n
        d = x - n + s
        yield d, prev1


def _branch_shift(params: ModelParams, sign: Sign) -> float:
    return params.eps if sign == "plus" else -params.eps


def k_sequence(x: float, params: ModelParams, sign: Sign, n_max: int) -> list[float]:
    """Raw coefficients K_0..K_{n_max} of the chosen branch; raises
    PoleEncountered if the recurrence passes through a pole."""
    steps = _k_steps(x, params, _branch_shift(params, sign))
    return [k for _, (_, k) in zip(range(n_max + 1), steps)]


def _summed(steps, g: float, n: int = 0, gn: float = 1.0, R: float = 0.0,
            Rbar: float = 0.0) -> SeriesState:
    """Add K_n g^n to R and K_n g^n / d_n to Rbar over the (d_n, K_n) pairs
    of steps, from index n with gn = g^n, until the stop rule above holds."""
    streak = 0
    for n, (d, k) in zip(range(n, _MAX_TERMS + 1), steps):
        if abs(d) < POLE_GUARD:
            raise PoleEncountered(n, d)
        tR = k * gn
        tRbar = tR / d
        R += tR
        Rbar += tRbar
        gn *= g
        if abs(tR) <= _TOL * (1.0 + abs(R)) and abs(tRbar) <= _TOL * (1.0 + abs(Rbar)):
            streak += 1
            if streak >= _STREAK:
                return SeriesState(R, Rbar, n, math.isfinite(R) and math.isfinite(Rbar))
        else:
            streak = 0
    return SeriesState(R, Rbar, _MAX_TERMS, False)


def k_coefficients(x: float, params: ModelParams, sign: Sign) -> SeriesState:
    """Partial sums R = sum K_n g^n and Rbar = sum K_n g^n / (x - n +/- eps)
    of the branch's coefficients K_n, adaptively truncated."""
    return _summed(_k_steps(x, params, _branch_shift(params, sign)), params.g)


def _scaled_sums(x: float, params: ModelParams, sign: Sign) -> SeriesState:
    """The partial sums of k_coefficients times 1/Gamma(-x - s), s = +eps or
    -eps: sum c_n g^n and sum c_n g^n / d_n with c_n = K_n / Gamma(-x - s)
    and d_n = x - n + s. Every term is finite at every x, the branch's poles
    included.

    With y = x + s, m = floor(y + 1/2) + 1 (at least 0) leaves every d_n with
    n >= m at most -1/2. Below m, L_n = K_n prod_{j<n} d_j follows
        n L_n = (f_{n-1} d_{n-1}) L_{n-1} - d_{n-1} d_{n-2} L_{n-2},
    whose coefficients are polynomials in x, and w_n = 1/Gamma(n - y) runs
    down from one Lanczos value w_m by w_n = (n - y) w_{n+1}, so
        c_n = (-1)^n L_n w_n,    c_n / d_n = (-1)^(n+1) L_n w_{n+1}
    are exact zeros or finite numbers at a pole. These m terms are all
    added, since at a pole y = N the first N are exact zeros that must not
    stop the series; from m on, _k_steps continues c_n under the stop rule."""
    s = _branch_shift(params, sign)
    g, two_g, d2 = params.g, 2.0 * params.g, params.delta * params.delta
    y = x + s
    m = max(0, math.floor(y + 0.5) + 1)
    if m > _MAX_TERMS:          # the tail would start past the term cap
        raise NonConvergent(f"G-function series not converged at x={x}")
    w = [0.0] * (m + 1)
    w[m] = reciprocal_gamma(m - y)
    for n in range(m - 1, -1, -1):
        w[n] = (n - y) * w[n + 1]
    R = Rbar = c = L2 = 0.0
    L1 = gn = alt = 1.0             # L_0, g^0, (-1)^0
    for n in range(m):
        c = alt * L1 * w[n]
        R += c * gn
        Rbar -= alt * L1 * w[n + 1] * gn
        d = y - n
        L2, L1 = L1, (((two_g + (n - x + s) / two_g) * d + d2 / two_g) * L1
                      - d * (d + 1.0) * L2) / (n + 1)
        gn *= g
        alt = -alt
    return _summed(_k_steps(x, params, s, m, c, alt * L1 * w[m]), g, m, gn, R, Rbar)


def _combined(series, x: float, params: ModelParams) -> float:
    """Delta^2 Rbar+ Rbar- - R+ R- from the two branches of one series."""
    sp, sm = series(x, params, "plus"), series(x, params, "minus")
    if not (sp.converged and sm.converged):
        raise NonConvergent(f"G-function series not converged at x={x}")
    return params.delta ** 2 * sp.sum_Rbar * sm.sum_Rbar - sp.sum_R * sm.sum_R


def g_function(x: float, params: ModelParams) -> float:
    """G(x) = Delta^2 Rbar+ Rbar- - R+ R-; zeros give regular eigenvalues
    lambda = x - g^2. Raises PoleEncountered within POLE_GUARD of x = n +/- eps."""
    return _combined(k_coefficients, x, params)


def regularized_g(x: float, params: ModelParams) -> float:
    """calG(x) = G(x) / (Gamma(eps-x) Gamma(-eps-x)), the same combination of
    the _scaled_sums: an entire function of x that vanishes exactly at the
    full spectrum (x = lambda + g^2). Each branch folds its reciprocal gamma
    factor into every term, so no value, at or near a point x = n +/- eps,
    comes from a cancellation or a special case."""
    return _combined(_scaled_sums, x, params)


# ---------------------------------------------------------------------------
# Frobenius solutions and constraint T-functions
# ---------------------------------------------------------------------------

def _phi_tail(phi: int, N: int, params: ModelParams,
              eps: float) -> tuple[dict[int, float], int, int, int | None, float]:
    """Coefficients kb of phi1 (phi=1, near singular point) or phi2 (phi=2,
    far point) at bias eps, from kb_{start-1} = 0 and kb_start = 1 by
        kb_{n+1} = ((n - N + (2g)^2 - shift + Delta^2/(pole - n)) kb_n
                    - (2g)^2 kb_{n-1}) / (n + 1),
    until _STREAK terms kb_n 2^-n in a row are negligible. phi1 starts at
    L + 1 with L = N, shift 2 eps and pole N. phi2 has shift 0 and pole
    N + 2 eps, and starts at L + 1 when N + 2 eps is within _HALF_INT_TOL of a
    nonnegative integer L (the pole stays at N + 2 eps, not L), else at 0
    with L = None. Returns (kb, start, n_max, L, c0): c0 is L, or
    N + 2 eps without a shift: the plus kind has coefficients
    Delta kb_n / (c0 - n), plus (L + 1)/Delta at L."""
    g2 = 4.0 * params.g * params.g
    d2 = params.delta * params.delta
    ne = N + 2.0 * eps
    if phi == 1:
        L, shift, pole = N, 2.0 * eps, N
    else:
        L, shift, pole = round(ne), 0.0, ne
        if not (abs(ne - L) < _HALF_INT_TOL and L >= 0):
            L = None
    start = 0 if L is None else L + 1
    kb = {start - 1: 0.0, start: 1.0}
    n = start
    half_n = 0.5 ** start
    ssum = half_n
    streak = 0
    while n - start < _MAX_TERMS:
        kb[n + 1] = ((n - N + g2 - shift + d2 / (pole - n)) * kb[n] - g2 * kb[n - 1]) / (n + 1)
        n += 1
        half_n *= 0.5
        term = kb[n] * half_n
        ssum += term
        if abs(term) <= _TOL * (1.0 + abs(ssum)):
            streak += 1
            if streak >= _STREAK:
                return kb, start, n, L, ne if L is None else L
        else:
            streak = 0
    raise NonConvergent(f"phi{phi} series not converged (N={N}, eps={eps})")


def _phi_values(phi: int, N: int, params: ModelParams, eps: float) -> tuple[float, float]:
    """(phi_minus, phi_plus) of phi1 or phi2 at 1/2: for phi1 these are
    (R^(N,-), Rbar^(N,-)), for phi2 (R^(N,+), Rbar^(N,+))."""
    kb, start, n_max, L, c0 = _phi_tail(phi, N, params, eps)
    R = 0.0
    Rbar = 0.0 if L is None else (L + 1) / params.delta * 0.5 ** L
    for n in range(start, n_max + 1):
        t = kb[n] * 0.5 ** n
        R += t
        Rbar += params.delta * t / (c0 - n)
    return R, Rbar


def frobenius_solution(kind: str, N: int, params: ModelParams) -> FrobeniusSolution:
    """One of the four local Frobenius solutions, as its series coefficients
    and its value at the matching point 1/2, read off the _phi_tail
    coefficients: the minus kind is kb itself, the plus kind
    Delta kb_n / (c0 - n) with (L + 1)/Delta at L."""
    phi = {"phi1": 1, "phi2": 2}.get(kind[:4])
    if phi is None or kind[4:] not in ("_minus", "_plus"):
        raise ValueError(f"unknown Frobenius solution kind {kind!r}")
    plus = kind.endswith("_plus")
    kb, start, n_max, L, c0 = _phi_tail(phi, N, params, params.eps)
    coeffs = [0.0] * (n_max + 1)
    if plus and L is not None:
        coeffs[L] = (L + 1) / params.delta
    for n in range(start, n_max + 1):
        coeffs[n] = params.delta * kb[n] / (c0 - n) if plus else kb[n]
    value = sum(c * 0.5 ** n for n, c in enumerate(coeffs) if c)
    return FrobeniusSolution(kind, N, coeffs, value)


def t_function(N: int, params: ModelParams, sign: Sign = "plus") -> float:
    """Constraint function whose zeros in (g, Delta) admit the exceptional
    eigenvalue lambda = N + eps - g^2 (sign="plus") or N - eps - g^2
    (sign="minus") with a non-polynomial eigensolution."""
    eps = _branch_shift(params, sign)
    Rm, Rbm = _phi_values(1, N, params, eps)
    Rp, Rbp = _phi_values(2, N, params, eps)
    return Rbp * Rbm - Rp * Rm


# ---------------------------------------------------------------------------
# finite parts at a pole, from the scaled series
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _branch_jets(x0: float, params: ModelParams,
                 sign: Sign) -> tuple[float, float, float, float]:
    """The 1-jet (S, S', Sbar, Sbar') at x = x0 of the two _scaled_sums of
    one branch, each quantity of the same L/w head and K tail carried with
    its x-derivative. The seed w_m is held fixed (w'_m = 0): at a pole
    y0 = x0 + s = m - 1, where w_m = 1/Gamma(1) = 1, the true derivatives add
    psi(1) S, which _finite_parts cancels. Raises NonConvergent unless all
    four sums settle to finite values. Cached: jets are only ever read."""
    s = _branch_shift(params, sign)
    g, two_g, d2 = params.g, 2.0 * params.g, params.delta * params.delta
    y = x0 + s
    m = max(0, math.floor(y + 0.5) + 1)
    if m > _MAX_TERMS:
        raise NonConvergent(f"branch jets not converged at x0={x0}")
    w, dw = [0.0] * (m + 1), [0.0] * (m + 1)
    w[m] = reciprocal_gamma(m - y)
    for n in range(m - 1, -1, -1):
        w[n] = (n - y) * w[n + 1]
        dw[n] = (n - y) * dw[n + 1] - w[n + 1]
    S = dS = Sb = dSb = c = dc = L2 = dL1 = dL2 = 0.0
    L1 = gn = alt = 1.0
    for n in range(m):
        c, dc = alt * L1 * w[n], alt * (dL1 * w[n] + L1 * dw[n])
        S += c * gn
        dS += dc * gn
        Sb -= alt * L1 * w[n + 1] * gn
        dSb -= alt * (dL1 * w[n + 1] + L1 * dw[n + 1]) * gn
        d = y - n
        a = two_g + (n - x0 + s) / two_g
        p, dp, q = a * d + d2 / two_g, a - d / two_g, d * (d + 1.0)
        L2, L1, dL2, dL1 = L1, (p * L1 - q * L2) / (n + 1), dL1, \
            (dp * L1 + p * dL1 - (2.0 * d + 1.0) * L2 - q * dL2) / (n + 1)
        gn *= g
        alt = -alt
    acc = (S, dS, Sb, dSb)
    k2, dk2, k1, dk1 = c, dc, alt * L1 * w[m], alt * dL1 * w[m]
    streak = 0
    for n in range(m, _MAX_TERMS + 1):
        d = x0 - n + s
        terms = (k1 * gn, dk1 * gn, k1 * gn / d, (dk1 - k1 / d) * gn / d)
        acc = tuple(a + t for a, t in zip(acc, terms))
        if all(abs(t) <= _TOL * (1.0 + abs(a)) for a, t in zip(acc, terms)):
            streak += 1
            if streak >= _STREAK:
                if all(map(math.isfinite, acc)):
                    return acc
                break
        else:
            streak = 0
        f = two_g + (n - x0 + s + d2 / d) / two_g
        df = -(1.0 + d2 / (d * d)) / two_g
        k2, dk2, k1, dk1 = k1, dk1, (f * k1 - k2) / (n + 1), (df * k1 + f * dk1 - dk2) / (n + 1)
        gn *= g
    raise NonConvergent(f"branch jets not converged at x0={x0}")


def _finite_parts(x0: float, params: ModelParams, sign: Sign) -> tuple[float, float]:
    """Finite parts (Q, Qbar) at x0 of the branch's R and Rbar. At a pole
    y0 = x0 + s = N' >= 0, Gamma(-x - s) = c (-1/u + psi(N'+1) + O(u)) with
    u = x - x0 and c = (-1)^N'/N'!, so R = S Gamma(-x - s) has residue
    -c S(x0) and finite part c (psi(N'+1) S(x0) - S'(x0)); the jet's missing
    psi(1) S cancels the -gamma of psi(N'+1) = H_N' - gamma, so H_N' stands in
    for it. A regular branch (y0 < 0) gives Q = R(x0) = S(x0) / w_0."""
    S, dS, Sb, dSb = _branch_jets(x0, params, sign)
    n = round(x0 + _branch_shift(params, sign))
    if n < 0:
        w0 = reciprocal_gamma(-n)
        return S / w0, Sb / w0
    c = (-1) ** n / math.factorial(n)
    h = sum(1.0 / k for k in range(1, n + 1))
    return c * (h * S - dS), c * (h * Sb - dSb)


# ---------------------------------------------------------------------------
# residues and pole coefficients
# ---------------------------------------------------------------------------

def _branch_singular(x0: float, eps: float, sign: Sign) -> bool:
    s = eps if sign == "plus" else -eps
    n = round(x0 + s)
    return n >= 0 and abs(x0 - n + s) < _HALF_INT_TOL


def residue_simple(N: int, params: ModelParams, sign: Sign = "plus") -> float:
    """Closed-form residue of G at the simple pole x = N + eps (sign="plus")
    or x = N - eps: 1/(N!(N+1)!) Delta^2 P_N((2g)^2, Delta^2) T_N."""
    e_eff = _branch_shift(params, sign)
    x0 = N + e_eff
    if _branch_singular(x0, params.eps, "plus") and _branch_singular(x0, params.eps, "minus"):
        raise WrongPoleOrder(f"x = {x0} is in the double-pole regime")
    pn = constraint_value(N, e_eff, N, 4.0 * params.g ** 2, params.delta ** 2)
    return _C(N) * params.delta ** 2 * pn * t_function(N, params, sign)


def residue_numeric(x0: float, params: ModelParams, order: int = 1,
                    h0: float = 1e-2):
    """Laurent coefficients at x0 from one-sided limits with Richardson
    extrapolation over the step sequence h, h/2, h/4 (independent of the
    closed-form path). order=1 returns the residue; order=2 returns (A, B)."""
    def sym(h):
        gp = g_function(x0 + h, params)
        gm = g_function(x0 - h, params)
        if order == 1:
            return ((h * gp - h * gm) / 2.0,)
        return ((h * h * gp + h * h * gm) / 2.0, (h * h * gp - h * h * gm) / (2.0 * h))

    out = []
    for v in zip(*(sym(h) for h in (h0, h0 / 2.0, h0 / 4.0))):
        r1 = (4.0 * v[1] - v[0]) / 3.0
        r2 = (4.0 * v[2] - v[1]) / 3.0
        out.append((16.0 * r2 - r1) / 15.0)
    return out[0] if order == 1 else tuple(out)


def _require_half_integer(params: ModelParams, ell: int):
    if abs(params.eps - ell / 2.0) > _HALF_INT_TOL:
        raise ValueError(f"eps must equal ell/2 = {ell / 2.0}, got {params.eps}")


def q_functions(N: int, ell: int,
                params: ModelParams) -> tuple[float, float, float, float]:
    """Finite parts at x = N + ell/2 of (R-, Rbar-, R+, Rbar+): the four sums
    with their pole term removed, Q = lim (R - Res/(x - x0)), read from the
    1-jets of the pole-free scaled series (_finite_parts)."""
    _require_half_integer(params, ell)
    x0 = N + ell / 2.0
    return _finite_parts(x0, params, "minus") + _finite_parts(x0, params, "plus")


def double_pole_coefficients(N: int, ell: int,
                             params: ModelParams) -> tuple[float, float]:
    """Laurent coefficients A/(x-x0)^2 + B/(x-x0) of G at x0 = N + ell/2 when
    eps = ell/2, in closed form.

    A = C(N) C(N+l) Delta^4 P_N P_{N+l} T_N  (the off-diagonal product of the
    two branch residues; it vanishes to first order at a zero of T).
    B combines the branch finite parts through the regularized sums.
    """
    _require_half_integer(params, ell)
    if ell < 0:
        raise ValueError("ell must be nonnegative here")
    g2 = 4.0 * params.g ** 2
    d2 = params.delta ** 2
    pn = constraint_value(N, ell / 2.0, N, g2, d2)
    pnl = constraint_value(N + ell, -ell / 2.0, N + ell, g2, d2)
    Rm, Rbm = _phi_values(1, N, params, ell / 2.0)
    Rp, Rbp = _phi_values(2, N, params, ell / 2.0)
    A = _C(N) * _C(N + ell) * d2 * d2 * pn * pnl * (Rbp * Rbm - Rp * Rm)

    qm, qbm, qp, qbp = q_functions(N, ell, params)
    aval = a_value(N, ell, g2, d2)
    bracket = (Rbm * (params.delta * qbp) - Rm * qp) / _C(N + ell) \
        + aval * (Rbp * (params.delta * qbm) - Rp * qm) / _C(N)
    B = _C(N) * _C(N + ell) * d2 * pn * bracket
    return A, B


def b_function(N: int, ell: int, params: ModelParams) -> float:
    """Regularized T-function N!(N+1)! (Rbar+ . Delta Qbar- minus R+ . Q-) at
    the point x = N + ell/2 with bias ell/2; defined for signed ell so the
    residue-vanishing combination B(N+l, -l) + A_N^l B(N, l) can be formed."""
    e = ell / 2.0
    local = ModelParams(params.g, params.delta, e)
    x0 = N + e
    qm, qbm = _finite_parts(x0, local, "minus")
    Rp, Rbp = _phi_values(2, N, local, e)
    return (Rbp * (params.delta * qbm) - Rp * qm) / _C(N)


def b_residual(N: int, ell: int, params: ModelParams) -> float:
    """Residual of the residue-vanishing relation at the double pole
    x = N + ell/2: B(N+l, -l) + A_N^l((2g)^2, Delta^2) B(N, l)."""
    _require_half_integer(params, ell)
    aval = a_value(N, ell, 4.0 * params.g ** 2, params.delta ** 2)
    return b_function(N + ell, -ell, params) + aval * b_function(N, ell, params)
