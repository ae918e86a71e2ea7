"""Eigenvalue assembly: the parity-ladder level count places every level, read
once at each window end and each side of every candidate x = N +/- eps. A
candidate the count jumps across is a record, Juddian at exact roots of the
constraint polynomial and non-Juddian otherwise; oracle.locate_levels puts
each regular level, a zero of the regularized G-function, at the midpoint
of a dyadic cell of the same count, and calG is left to check it. Where the
count cannot settle the spectrum it raises oracle's IncompleteSpectrum,
never a short list: levels closer than _FLOOR, or a count no rung
certifies (UncertifiedCount, raised by the count itself). Also
classification with multiplicities, positive-root counting, T-function zero
scans over g, and coupling sweeps that produce spectral-curve tables."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import oracle
from .oracle import IncompleteSpectrum
from .poly import _det_rows, constraint_slice
from .roots import (
    bisect_sign_change,
    count_real_roots,
    isolate_real_roots,
    refine_root,
    squarefree_part,
)
from .series import (
    ModelParams,
    is_half_integer,
    t_function,
)

KIND_REGULAR = "regular"
KIND_JUDDIAN = "juddian"
KIND_NON_JUDDIAN = "non-juddian-exceptional"

_RATIONAL_EPS_CAP = 10 ** 4      # largest denominator recognized as exact bias
_FLOOR = 1e-9                    # narrowest bracket split on the level count
_H = 2.0 ** -34                  # level grid: the count's rounding band holds one point
_JUDDIAN_TOL = Fraction(1, 2 ** 48)  # width to which a Juddian root x = (2g)^2 is refined
_T_SCAN_STEP = 0.01              # T-zero scan in g: two zeros in one step cancel unseen
_T_ZERO_TOL = 1e-10              # width to which a T-zero in g is bisected


# x = lambda + g^2; branch is "plus_eps" or "minus_eps" for exceptional kinds
EigenvalueRecord = namedtuple("EigenvalueRecord", "x lam kind multiplicity level_N branch",
                              defaults=(1, None, None))


def exact_bias(eps: float) -> Fraction | None:
    """The bias as an exact rational when one with denominator at most
    _RATIONAL_EPS_CAP matches it, so a typed 0.3 counts as 3/10 and not as
    its nearest float; None otherwise."""
    if isinstance(eps, Fraction):
        return eps
    cand = Fraction(eps).limit_denominator(_RATIONAL_EPS_CAP)
    return cand if abs(float(cand) - eps) < 1e-12 else None


# ---------------------------------------------------------------------------
# Juddian (quasi-exact) points
# ---------------------------------------------------------------------------

def juddian_roots(N: int, eps, delta) -> list[tuple[float, int]]:
    """All couplings g > 0 with P_N^(N,eps)((2g)^2, delta^2) = 0, by exact
    root isolation in x = (2g)^2; multiplicity 2 exactly when 2 eps is an
    integer (degenerate crossing), else 1."""
    if N == 0:
        return []
    eps = Fraction(eps)
    sf = squarefree_part(constraint_slice(N, eps, Fraction(delta) ** 2))
    mult = 2 if (2 * eps).denominator == 1 else 1
    out = []
    for lo, hi in isolate_real_roots(sf):
        if hi <= 0:
            continue
        r = refine_root(sf, (lo, hi), _JUDDIAN_TOL)
        if r > 0:
            out.append((math.sqrt(float(r)) / 2.0, mult))
    return out


def count_positive_roots(N: int, eps, y) -> int:
    """Exact number of distinct positive roots in x of P_N^(N,eps)(x, y), for
    any N, rational eps and y: positive_root_counts at the one point y."""
    y = Fraction(y)
    return positive_root_counts(N, eps, ((y.numerator, y.denominator),))[0]


def positive_root_counts(N: int, eps, points) -> list[int]:
    """The number of distinct positive roots in x of P_N^(N,eps)(x, u/v) for
    each integer pair (u, v), v > 0, in points.

    Where N <= 1 or 1 + 2 eps > 0 it is read from the determinant form
    det(D x + A), D = diag(1..N), A = C_N + y I (the rows of poly._det_rows,
    built once for all points). Every off-diagonal product i(i+1) c_{N-i} of
    A is then positive, so A is diagonally similar to an unreduced symmetric
    tridiagonal S, and the roots are x = -eig(D^(-1/2) S D^(-1/2)): real and
    simple, the positive ones as many as the negative eigenvalues of S
    (Sylvester's law of inertia). Those are the sign changes, zeros dropped,
    of the leading minors of A, a Sturm sequence (Wilkinson, The Algebraic
    Eigenvalue Problem, 1965, 5.37): a zero minor lies between two of
    opposite sign, and a zero m_N is the root x = 0; _sign_changes counts
    them. Elsewhere a product can be 0 or negative, and each count is read
    from the Sturm chain of constraint_slice."""
    eps = Fraction(eps)
    if N >= 2 and eps.denominator + 2 * eps.numerator <= 0:
        return [count_real_roots(constraint_slice(N, eps, Fraction(u, v)), lo=0)
                for u, v in points]
    rows = _det_rows(N, eps)
    return [_sign_changes(rows, u, v) for u, v in points]


def _sign_changes(rows, u: int, v: int) -> int:
    """The sign changes, zeros dropped, of the leading minors at x = 0 of the
    integer rows (a_i, b_i, c_i, 0, e_i) of q (D x + A), eps = p/q, each row
    times v for y = u/v, v > 0 (in lowest terms or not: row i's scale v is
    positive, so it moves no sign):
        m_i = (b_i u + c_i v) m_{i-1} - v^2 e_i m_{i-2}."""
    changes, last, m, prev, vv = 0, 1, 1, 0, v * v
    for _, b, c, _, e in rows:
        m, prev = (b * u + c * v) * m - vv * e * prev, m
        if m and (m > 0) != (last > 0):
            changes, last = changes + 1, m
    return changes


# ---------------------------------------------------------------------------
# non-Juddian exceptional points: zeros of the T-function over g
# ---------------------------------------------------------------------------

def non_juddian_roots(N: int, delta: float, eps: float, sign: str,
                      g_lo: float, g_hi: float) -> list[float]:
    """Zeros of the T-function in (g_lo, g_hi) by sign-change scan plus
    bisection; these admit the exceptional eigenvalue N +/- eps - g^2 with a
    non-polynomial eigensolution, and never coincide with Juddian couplings.
    The point N - eps ("minus") is the T-function at the bias -eps."""
    def tval(g):
        return t_function(N, ModelParams(g, delta, eps if sign == "plus" else -eps))

    out = []
    g_prev = g_lo
    f_prev = tval(g_prev)
    steps = max(2, int(round((g_hi - g_lo) / _T_SCAN_STEP)))
    for i in range(1, steps + 1):
        g_cur = g_lo + (g_hi - g_lo) * i / steps
        f_cur = tval(g_cur)
        if f_prev == 0.0:
            out.append(g_prev)
        elif f_prev * f_cur < 0.0:
            out.append(bisect_sign_change(tval, g_prev, g_cur, f_prev, _T_ZERO_TOL))
        g_prev, f_prev = g_cur, f_cur
    return out


# ---------------------------------------------------------------------------
# exceptional points x = N +/- eps
# ---------------------------------------------------------------------------

def _juddian_here(N: int, params: ModelParams, branch_eps: float) -> bool:
    """Is this coupling a root of the level-N constraint polynomial, that is,
    does P_N^(N,eps)(x, delta^2) vanish at some x = (2g')^2 with
    g - t < g' <= g + t, t = 1e-7 max(1, g)? One exact count_real_roots for
    every bias: a float bias with no low-denominator match is taken as the
    dyadic rational it is. _assemble asks only at a candidate the level
    count jumps across."""
    frac = exact_bias(branch_eps)
    eps = Fraction(branch_eps) if frac is None else frac
    g = Fraction(params.g)
    t = Fraction(1e-7) * max(1, g)
    return count_real_roots(constraint_slice(N, eps, Fraction(params.delta) ** 2),
                            4 * max(0, g - t) ** 2, 4 * (g + t) ** 2) > 0


# ---------------------------------------------------------------------------
# the spectrum: records plus one dyadic cell per level of the count
# ---------------------------------------------------------------------------

def _level_count(params: ModelParams):
    """x -> the number of levels below x = lambda + g^2, by
    oracle.certified_count, whose UncertifiedCount is an IncompleteSpectrum."""
    count = oracle.certified_count(params)
    return lambda x, newton=False: count(x - params.g ** 2, newton)


def _x_floor(params: ModelParams) -> float:
    """The default window floor, 1/2 below level 0's oracle.level_bracket."""
    return -(params.delta + abs(params.eps) + 1.5)


def _assemble(params: ModelParams, n, x_lo: float, x_max: float,
              cap: float = math.inf) -> list[EigenvalueRecord]:
    """Sorted records in [x_lo, x_max) for the level count n (levels below x),
    in one pass over the sorted edges x_lo, x0 -/+ _FLOOR for each candidate
    x0 = N +/- eps in the window (one where N + eps = N' - eps) and x_max,
    each probed once. x_max is probed first, before the candidates are
    listed, so a count no rung certifies refuses at a cost that does not
    grow with the window. A candidate is a record when n jumps across it by
    the multiplicity its kind requires: 2 for a Juddian point (a root of the
    level-N constraint polynomial, by the exact test) at half-integer bias,
    where alone two levels meet, and 1 otherwise. Every other bracket goes
    to oracle.locate_levels with floor _FLOOR, whose cells on the grid _H
    are the regular records. Under a level cap the edges are probed up to
    the first whose count reaches it, and only levels below it are located."""
    top, cands = n(x_max), []
    for c in sorted(((N + e, N, e, branch)
                     for branch, e in (("plus_eps", params.eps), ("minus_eps", -params.eps))
                     for N in range(int(x_max - e) + 2)
                     if x_lo <= N + e - _FLOOR and N + e + _FLOOR <= x_max),
                    key=lambda c: c[0]):
        if not cands or c[0] - cands[-1][0] >= 2 * _FLOOR:
            cands.append(c)
    edges = [x_lo] + [x for c in cands for x in (c[0] - _FLOOR, c[0] + _FLOOR)] + [x_max]
    counts = []
    for x in edges[:-1]:
        counts.append(n(x))
        if counts[-1] >= cap:
            break
    else:
        counts.append(top)
    out, todo = [], []
    for i, (a, b, na, nb) in enumerate(zip(edges, edges[1:], counts, counts[1:])):
        if i % 2 and nb != na:
            x0, N, e, branch = cands[i // 2]
            jud = _juddian_here(N, params, e)
            if nb - na == (2 if jud and is_half_integer(params.eps) else 1):
                kind = KIND_JUDDIAN if jud else KIND_NON_JUDDIAN
                out.append(EigenvalueRecord(x0, x0 - params.g ** 2, kind, nb - na, N, branch))
                continue
        todo.append((a, b, na, nb))
    out += [EigenvalueRecord(x=x, lam=x - params.g ** 2, kind=KIND_REGULAR)
            for x in oracle.locate_levels(n, todo, _H, _FLOOR, cap)]
    out.sort(key=lambda r: r.x)
    return out


def full_spectrum(params: ModelParams, x_max: float,
                  x_lo: float | None = None) -> list[EigenvalueRecord]:
    """Sorted eigenvalue records in [x_lo, x_max): the exceptional points
    where the level count jumps plus every other level of the count, at the
    midpoint of its dyadic cell of width _H = 2^-34. Degenerate points
    appear once with multiplicity 2; they occur only for half-integer bias and
    are Juddian. Raises IncompleteSpectrum rather than return a list that the
    count shows to be short."""
    if x_lo is None:
        x_lo = _x_floor(params)
    if not (math.isfinite(x_max) and x_max > x_lo):
        raise ValueError("need a finite x_max above x_lo")
    return _assemble(params, _level_count(params), x_lo, x_max)


def expand_multiplicities(records: list[EigenvalueRecord]) -> list[float]:
    """Sorted eigenvalue list with each record repeated per its multiplicity."""
    return sorted(r.lam for r in records for _ in range(r.multiplicity))


# ---------------------------------------------------------------------------
# coupling sweeps
# ---------------------------------------------------------------------------

def spectral_sweep(delta: float, eps: float, g_grid, n_levels: int) -> list[dict]:
    """Rows (g, index, lambda, x, kind, multiplicity, level_N, branch) for the
    lowest n_levels eigenvalues at every coupling of the strictly increasing
    g_grid, each assembled in grid order up to level n_levels on a window
    that ends at the top of level n_levels - 1's oracle.level_bracket."""
    if n_levels < 0:
        raise ValueError("need n_levels >= 0")
    if any(b <= a for a, b in zip(g_grid, g_grid[1:])):
        raise ValueError("g_grid must be strictly increasing")
    rows = []
    for g in g_grid:
        params = ModelParams(g, delta, eps)
        x_max = oracle.level_bracket(params, n_levels - 1)[1]
        flat = [r for r in _assemble(params, _level_count(params), _x_floor(params), x_max,
                                     n_levels)
                for _ in range(r.multiplicity)]
        if len(flat) < n_levels:
            raise IncompleteSpectrum(f"{len(flat)} of {n_levels} levels at g = {fmt_float(g)}")
        rows.extend(records_to_rows(flat[:n_levels], g))
    return rows


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

SPECTRUM_FIELDS = ("g", "index", "lambda", "x", "kind", "multiplicity",
                   "level_N", "branch")


def fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def records_to_rows(records: list[EigenvalueRecord], g: float) -> list[dict]:
    return [{"g": g, "index": i, "lambda": r.lam, "x": r.x, "kind": r.kind,
             "multiplicity": r.multiplicity, "level_N": r.level_N,
             "branch": r.branch}
            for i, r in enumerate(records)]


def _csv_field(v) -> str:
    if v is None:
        return ""
    return fmt_float(v) if isinstance(v, float) else str(v)


def rows_to_csv(rows: list[dict], fields=SPECTRUM_FIELDS) -> str:
    """CSV with a header line: floats to 17 significant digits, None empty."""
    lines = [",".join(fields)]
    lines += [",".join(_csv_field(r[k]) for k in fields) for r in rows]
    return "\n".join(lines) + "\n"
