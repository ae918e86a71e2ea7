"""Series-defined analytic machinery: the K-coefficient recurrences behind the
G-function, the constraint T-functions for exceptional eigenvalues, pole
expansions of the G-function (residues; double-pole coefficients from the
T-function and the regularized sums), and calG whose zeros give the complete
spectrum.

calG = G / (Gamma(eps-x) Gamma(-eps-x)) has no poles: each branch's series is
summed with its reciprocal gamma factor folded into every coefficient, and
1/Gamma is entire, so one series covers every x, the points N +/- eps
included. G itself keeps its poles (PoleEncountered).

Every series is the one loop _summed, which recurs and sums together: the
K-series of G, the tail of calG's (whose 1-jets at a pole are the same
series run at a complex x) and the T-function's Frobenius solutions, G's two
branches at its pole x = N +/- eps summed past the pole. A branch is named by
its shift s = +eps or -eps, and _summed alone decides convergence: it returns
the branch's two sums or raises NonConvergent."""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache
from typing import Literal

from .poly import a_value, constraint_value

Sign = Literal["plus", "minus"]

POLE_GUARD = 1e-8          # reject direct series evaluation closer than this to a pole
_HALF_INT_TOL = 1e-9
# _summed stops once _STREAK consecutive terms are below _TOL relative to the
# partial sum, and raises NonConvergent after _MAX_TERMS terms from its start
# or on a sum that is not finite
_TOL = 1e-14
_MAX_TERMS = 2000
_STREAK = 8
_H = 1e-30                 # complex step of the branch jets


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


def is_half_integer(eps: float) -> bool:
    return abs(2.0 * eps - round(2.0 * eps)) < _HALF_INT_TOL


def _C(*levels: int) -> float:
    """The product of 1/(n! (n+1)!) over the levels n; ArithmeticError, naming
    the first, where it is below the smallest normal float."""
    c = 1.0
    for n in levels:
        f = math.factorial(n) * math.factorial(n + 1)
        c *= 1.0 / f if f <= 1.0 / sys.float_info.min else 0.0
    if c < sys.float_info.min:
        raise ArithmeticError(f"1/(N!(N+1)!) factors underflow at N={levels[0]}")
    return c


# ---------------------------------------------------------------------------
# K-coefficient series of the G-function
# ---------------------------------------------------------------------------

def _branch_shift(params: ModelParams, sign: Sign) -> float:
    return params.eps if sign == "plus" else -params.eps


def k_sequence(x: float, params: ModelParams, sign: Sign, n_max: int) -> list[float]:
    """Raw coefficients K_0..K_{n_max} of the chosen branch, by the recurrence
    of _summed; raises PoleEncountered if it passes through a pole (d_{n_max}
    is not checked)."""
    s = _branch_shift(params, sign)
    two_g, d2 = 2.0 * params.g, params.delta * params.delta
    ks = [0.0, 1.0]                 # K_{-1}, K_0
    for n in range(n_max):
        d = x - n + s
        if abs(d) < POLE_GUARD:
            raise PoleEncountered(n, d)
        f = two_g + (n - x + s + d2 / d) / two_g
        ks.append((f * ks[-1] - ks[-2]) / (n + 1))
    return ks[1:]


def _summed(x: float | complex, params: ModelParams, s: float, n: int = 0,
            k2: float = 0.0, k1: float = 1.0, gn: float = 1.0, R: float = 0.0,
            Rbar: float = 0.0) -> tuple[float, float]:
    """(R, Rbar): K_n g^n added to R and K_n g^n / d_n to Rbar for the branch
    with s = +eps or -eps, until the stop rule above holds on finite sums,
    else NonConvergent: d_n = x - n + s, K_0 = 1 and
    n K_n = f_{n-1} K_{n-1} - K_{n-2} with
    f_n = 2g + (n - x + s + Delta^2/d_n) / (2g). The pole d_n is checked
    before term n (PoleEncountered). Seeded with a later n, the values
    (k2, k1) at n - 1 and n of any solution of the recurrence and gn in place
    of g^n, it sums that solution from n on, at a real or a complex x."""
    g, two_g, d2 = params.g, 2.0 * params.g, params.delta * params.delta
    streak = 0
    for n in range(n, n + _MAX_TERMS + 1):
        d = x - n + s
        if abs(d) < POLE_GUARD:
            raise PoleEncountered(n, d)
        tR = k1 * gn
        tRbar = tR / d
        R += tR
        Rbar += tRbar
        gn *= g
        if abs(tR) <= _TOL * (1.0 + abs(R)) and abs(tRbar) <= _TOL * (1.0 + abs(Rbar)):
            streak += 1
            if streak >= _STREAK:
                if math.isfinite(abs(R)) and math.isfinite(abs(Rbar)):
                    return R, Rbar
                break
        else:
            streak = 0
        f = two_g + (n - x + s + d2 / d) / two_g
        k2, k1 = k1, (f * k1 - k2) / (n + 1)
    raise NonConvergent(f"G-function series not converged at x={x.real}")


def _scaled_sums(x: float | complex, params: ModelParams, s: float) -> tuple[float, float]:
    """The sums of _summed for the branch s times 1/Gamma(-x - s):
    sum c_n g^n and sum c_n g^n / d_n with c_n = K_n / Gamma(-x - s) and
    d_n = x - n + s. Every term is finite at every x, the branch's poles
    included.

    With y = x + s, m = floor(y + 1/2) + 1 (at least 0) leaves every d_n with
    n >= m at most -1/2. Below m, L_n = K_n prod_{j<n} d_j follows
        n L_n = (f_{n-1} d_{n-1}) L_{n-1} - d_{n-1} d_{n-2} L_{n-2},
    whose coefficients are polynomials in x, and w_n = 1/Gamma(n - y) runs
    down from one math.gamma value w_m by w_n = (n - y) w_{n+1}, so
        c_n = (-1)^n L_n w_n,    c_n / d_n = (-1)^(n+1) L_n w_{n+1}
    are exact zeros or finite numbers at a pole. The seed's argument m - y
    is in (1/2, 3/2] for y >= -1/2 and -y > 1/2 below, never a pole of
    Gamma. These m terms are all added, since at a pole y = N the first N
    are exact zeros that must not stop the series; from m on, _summed
    continues c_n under the stop rule. A complex x takes m and the seed w_m
    from its real part: w_m stays real."""
    g, two_g, d2 = params.g, 2.0 * params.g, params.delta * params.delta
    y = x + s
    m = max(0, math.floor(y.real + 0.5) + 1)
    if m > _MAX_TERMS:          # the tail would start past the term cap
        raise NonConvergent(f"G-function series not converged at x={x.real}")
    w = [0.0] * (m + 1)
    w[m] = 1.0 / math.gamma(m - y.real)
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
    return _summed(x, params, s, m, c, alt * L1 * w[m], gn, R, Rbar)


def _combined(series, x: float, params: ModelParams) -> float:
    """Delta^2 Rbar+ Rbar- - R+ R- from the branches s = eps and -eps of one
    series, in that order; ArithmeticError where a product of two nonzero
    sums is below the smallest normal float (a zero sum, as at a pole, gives
    a true zero)."""
    (Rp, Rbp), (Rm, Rbm) = series(x, params, params.eps), series(x, params, -params.eps)
    lhs, rhs = params.delta ** 2 * Rbp * Rbm, Rp * Rm
    if any(a and b and abs(prod) < sys.float_info.min for prod, a, b in
           ((lhs, Rbp, Rbm), (rhs, Rp, Rm))):
        raise ArithmeticError(f"G-function products underflow at x={x}")
    return lhs - rhs


def g_function(x: float, params: ModelParams) -> float:
    """G(x) = Delta^2 Rbar+ Rbar- - R+ R-; zeros give regular eigenvalues
    lambda = x - g^2. Raises PoleEncountered within POLE_GUARD of x = n +/- eps."""
    return _combined(_summed, x, params)


def regularized_g(x: float, params: ModelParams) -> float:
    """calG(x) = G(x) / (Gamma(eps-x) Gamma(-eps-x)), the same combination of
    the _scaled_sums: an entire function of x that vanishes exactly at the
    full spectrum (x = lambda + g^2). Each branch folds its reciprocal gamma
    factor into every term, so no value, at or near a point x = n +/- eps,
    comes from a cancellation or a special case."""
    return _combined(_scaled_sums, x, params)


# ---------------------------------------------------------------------------
# constraint T-functions
# ---------------------------------------------------------------------------

def _branch_sums(x: float, params: ModelParams, s: float) -> tuple[float, float]:
    """(R, Rbar) of the branch s at x, from _summed. Where x + s is within
    _HALF_INT_TOL of an integer L >= 0, the pole d_L = 0, the sums run from
    L + 1 on the solution with K_L = 0 and K_{L+1} g^(L+1) = 2^-(L+1), and
    Rbar starts at the pole's term lim K_L g^L / d_L = (L + 1) 2^-L / Delta^2."""
    L = round(x + s)
    if abs(x + s - L) < _HALF_INT_TOL and L >= 0:
        return _summed(x, params, s, L + 1, 0.0, 1.0, 0.5 ** (L + 1), 0.0,
                       (L + 1) * 0.5 ** L / params.delta ** 2)
    return _summed(x, params, s)


def t_function(N: int, params: ModelParams, sign: Sign = "plus") -> float:
    """Constraint function whose zeros in (g, Delta) admit the exceptional
    eigenvalue lambda = x - g^2, x = N + e, e = eps (sign="plus") or -eps,
    with a non-polynomial eigensolution: Delta^2 Rbar+ Rbar- - R+ R- of G's
    branches s = +eps, -eps at x, in that order (_branch_sums), which are the
    paper's Frobenius solutions at 1/2 (b_n = K_n g^n, plus kind Delta Rbar):
    phi1 is the branch s = -e, seeded 2^-(N+1) past its pole at N; phi2 is
    s = +e, seeded 1 at 0, or 2^-(L+1) past a pole at L = N + 2e >= 0
    (PoleEncountered within POLE_GUARD of such an L otherwise). So T~(N + l)
    at bias l/2 is T(N) bitwise. Each value is about 2^-N: where either
    product is below the smallest normal float, ArithmeticError, not a 0."""
    x = N + _branch_shift(params, sign)
    Rp, Rbp = _branch_sums(x, params, params.eps)
    Rm, Rbm = _branch_sums(x, params, -params.eps)
    lhs, rhs = params.delta ** 2 * Rbp * Rbm, Rp * Rm
    if abs(lhs) < sys.float_info.min or abs(rhs) < sys.float_info.min:
        raise ArithmeticError(f"T-function products underflow at N={N}, g={params.g!r}")
    return lhs - rhs


# ---------------------------------------------------------------------------
# finite parts at a pole, from the scaled series
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _branch_jets(x0: float, params: ModelParams,
                 s: float) -> tuple[float, float, float, float]:
    """The 1-jet (S, S', Sbar, Sbar') at x = x0 of the two _scaled_sums of
    the branch s, read from the same series at x0 + i _H (complex step): real
    parts S, Sbar and imaginary parts _H S', _H Sbar', with no cancellation.
    The seed w_m is real (w'_m = 0): at a pole y0 = x0 + s = m - 1, where
    w_m = 1/Gamma(1) = 1 exactly, the true derivatives add psi(1) S, which
    _finite_parts cancels. Cached: jets are only ever read."""
    S, Sb = _scaled_sums(complex(x0, _H), params, s)
    return S.real, S.imag / _H, Sb.real, Sb.imag / _H


def _finite_parts(x0: float, params: ModelParams, s: float) -> tuple[float, float]:
    """Finite parts (Q, Qbar) at x0 of the R and Rbar of the branch s, which
    must be a pole: y0 = x0 + s = N' >= 0 (b_function asks at y0 = N or N + l).
    There Gamma(-x - s) = c (-1/u + psi(N'+1) + O(u)) with
    u = x - x0 and c = (-1)^N'/N'!, so R = S Gamma(-x - s) has residue
    -c S(x0) and finite part c (psi(N'+1) S(x0) - S'(x0)); the jet's missing
    psi(1) S cancels the -gamma of psi(N'+1) = H_N' - gamma, so H_N' stands in
    for it."""
    S, dS, Sb, dSb = _branch_jets(x0, params, s)
    n = round(x0 + s)
    c = (-1) ** n / math.factorial(n)
    h = sum(1.0 / k for k in range(1, n + 1))
    return c * (h * S - dS), c * (h * Sb - dSb)


# ---------------------------------------------------------------------------
# residues and pole coefficients
# ---------------------------------------------------------------------------

def residue_simple(N: int, params: ModelParams, sign: Sign = "plus") -> float:
    """Closed-form residue of G at the simple pole x = N + eps (sign="plus")
    or x = N - eps: 1/(N!(N+1)!) Delta^2 P_N((2g)^2, Delta^2) T_N."""
    e_eff = _branch_shift(params, sign)
    x0 = N + e_eff
    if is_half_integer(e_eff) and round(N + 2 * e_eff) >= 0:
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


def double_pole_coefficients(N: int, ell: int,
                             params: ModelParams) -> tuple[float, float]:
    """Laurent coefficients A/(x-x0)^2 + B/(x-x0) of G at x0 = N + ell/2 when
    eps = ell/2, from the paper's constraint relations: with
    c = C(N) C(N+l) Delta^2 P_N and C(n) = 1/(n!(n+1)!),
        A = c Delta^2 P_{N+l} T_N,    B = c (B(N+l, -l) + A_N^l B(N, l)),
    T_N the plus T-function at bias l/2 (A vanishes to first order at its
    zeros) and the bracket b_residual. Where C(N) C(N+l) is below the
    smallest normal float it raises ArithmeticError, not A = B = 0."""
    if ell < 0:
        raise ValueError("ell must be nonnegative here")
    g2, d2 = 4.0 * params.g ** 2, params.delta ** 2
    scale = _C(N, N + ell) * d2
    resid = b_residual(N, ell, params)
    pn = constraint_value(N, ell / 2.0, N, g2, d2)
    pnl = constraint_value(N + ell, -ell / 2.0, N + ell, g2, d2)
    T = t_function(N, ModelParams(params.g, params.delta, ell / 2.0), "plus")
    return scale * d2 * pn * pnl * T, scale * pn * resid


def b_function(N: int, ell: int, params: ModelParams) -> float:
    """Regularized T-function N!(N+1)! (Delta^2 Rbar+ Qbar- - R+ Q-) at
    x = N + ell/2 with bias e = ell/2: the sums of the branch s = e past its
    pole, the finite parts of the branch s = -e (neither reads params.eps).
    Signed ell forms B(N+l, -l) + A_N^l B(N, l)."""
    e = ell / 2.0
    x0 = N + e
    qm, qbm = _finite_parts(x0, params, -e)
    Rp, Rbp = _branch_sums(x0, params, e)
    return (params.delta ** 2 * Rbp * qbm - Rp * qm) / _C(N)


def b_residual(N: int, ell: int, params: ModelParams) -> float:
    """Residual of the residue-vanishing relation at the double pole
    x = N + ell/2: B(N+l, -l) + A_N^l((2g)^2, Delta^2) B(N, l)."""
    if abs(params.eps - ell / 2.0) > _HALF_INT_TOL:
        raise ValueError(f"eps must equal ell/2 = {ell / 2.0}, got {params.eps}")
    aval = a_value(N, ell, 4.0 * params.g ** 2, params.delta ** 2)
    return b_function(N + ell, -ell, params) + aval * b_function(N, ell, params)
