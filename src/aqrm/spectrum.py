"""Eigenvalue assembly: the parity-ladder level count places every level, read
once at each window end and each side of every candidate x = N +/- eps. A
candidate the count jumps across is a record, Juddian at exact roots of the
constraint polynomial and non-Juddian otherwise; each regular level, a zero
of the regularized G-function, is located by bisection on the same count,
its probes steered by Newton's correction, to the midpoint of a dyadic
cell, and calG is left to check it. Also classification with
multiplicities, positive-root counting, T-function zero scans over g, and
coupling sweeps that produce spectral-curve tables."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import oracle
from .poly import constraint_slice
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
_H_MIN = 2.0 ** -34              # finest grid: the count's rounding band holds one point


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

def juddian_roots(N: int, eps, delta,
                  tol: Fraction = Fraction(1, 2 ** 48)) -> list[tuple[float, int]]:
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
        r = refine_root(sf, (lo, hi), tol)
        if r > 0:
            out.append((math.sqrt(float(r)) / 2.0, mult))
    return out


def count_positive_roots(N: int, eps, y) -> int:
    """Exact number of distinct positive roots in x of P_N^(N,eps)(x, y)."""
    return count_real_roots(constraint_slice(N, eps, y), lo=0)


# ---------------------------------------------------------------------------
# non-Juddian exceptional points: zeros of the T-function over g
# ---------------------------------------------------------------------------

def non_juddian_roots(N: int, delta: float, eps: float, sign: str,
                      g_lo: float, g_hi: float, scan_step: float = 0.01,
                      refine_tol: float = 1e-10) -> list[float]:
    """Zeros of the T-function in (g_lo, g_hi) by sign-change scan plus
    bisection; these admit the exceptional eigenvalue N +/- eps - g^2 with a
    non-polynomial eigensolution, and never coincide with Juddian couplings."""
    def tval(g):
        return t_function(N, ModelParams(g, delta, eps), sign)

    out = []
    g_prev = g_lo
    f_prev = tval(g_prev)
    steps = max(2, int(round((g_hi - g_lo) / scan_step)))
    for i in range(1, steps + 1):
        g_cur = g_lo + (g_hi - g_lo) * i / steps
        f_cur = tval(g_cur)
        if f_prev == 0.0:
            out.append(g_prev)
        elif f_prev * f_cur < 0.0:
            out.append(bisect_sign_change(tval, g_prev, g_cur, f_prev, refine_tol))
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

class IncompleteSpectrum(ArithmeticError):
    """The level count cannot settle the spectrum: levels closer than _FLOOR,
    or a count that no rung certifies."""


def _level_count(params: ModelParams):
    """x -> the number of levels below x = lambda + g^2, by
    oracle.certified_count; IncompleteSpectrum where no rung certifies it."""
    count = oracle.certified_count(params)

    def n(x: float, newton: bool = False):
        try:
            return count(x - params.g ** 2, newton)
        except oracle.UncertifiedCount as exc:
            raise IncompleteSpectrum(str(exc)) from None

    return n


def _x_floor(params: ModelParams) -> float:
    """The default window floor, 1/2 below level 0's oracle.level_bracket."""
    return -(params.delta + abs(params.eps) + 1.5)


def _assemble(params: ModelParams, n, x_lo: float, x_max: float, refine_tol: float,
              cap: float = math.inf) -> list[EigenvalueRecord]:
    """Sorted records in [x_lo, x_max) for the level count n (levels below x),
    in one pass over the sorted edges x_lo, x0 -/+ _FLOOR for each candidate
    x0 = N +/- eps in the window (one where N + eps = N' - eps) and x_max,
    each probed once, x_max first so that a hopeless count refuses before it
    builds any rungs. A candidate is a record when n jumps across it by the
    multiplicity its kind requires: 2 for a Juddian point (a root of the
    level-N constraint polynomial, by the exact test) at half-integer bias,
    where alone two levels meet, and 1 otherwise. Every other bracket splits
    at midpoints until a bracket [a, b) holds one level, and bisection on n
    over the grid j h finds the cell [j h, (j + 1) h] that holds it; the
    level is its midpoint (j + 1/2) h. h is the largest power of two
    <= refine_tol, but at least _H_MIN and twice the float spacing at
    max(|a|, |b|), so every grid point is a float and a tol below either
    still ends. Next to a level the float count can be wrong in a band about
    1e-12 wide (oracle._band_count_below); on a finer grid it is not monotone
    there, and the cell would depend on the points probed. Where refine_tol
    sets h, the cell depends on n and refine_tol only, not on the bracket
    (count bisection: Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386).
    Under a level cap the edges are probed up to the first whose count
    reaches it, and brackets whose lower count does are dropped.

    n(x, True) also returns Newton's correction t from the same probe
    (oracle._band_count_below). The bisection probes the grid point
    floor((x - t) / h), kept strictly inside (lo, hi), for as long as
    successive corrections at least halve, and the midpoint otherwise. Every
    count still moves lo or hi, so the cell, and the record, are those of
    plain bisection wherever n steps up once across the bracket; Newton only
    picks the points. Bracket halving is no safeguard here: Newton closes in
    from one side, and halving would reject most of its steps."""
    cands = []
    for c in sorted(((N + e, N, e, branch)
                     for branch, e in (("plus_eps", params.eps), ("minus_eps", -params.eps))
                     for N in range(int(x_max - e) + 2)
                     if x_lo <= N + e - _FLOOR and N + e + _FLOOR <= x_max),
                    key=lambda c: c[0]):
        if not cands or c[0] - cands[-1][0] >= 2 * _FLOOR:
            cands.append(c)
    edges = [x_lo] + [x for c in cands for x in (c[0] - _FLOOR, c[0] + _FLOOR)] + [x_max]
    top, counts = n(x_max), []
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
    while todo:
        a, b, na, nb = todo.pop()
        if nb == na + 1:
            h = max(math.ldexp(0.5, math.frexp(refine_tol)[1]), _H_MIN,
                    2.0 * math.ulp(max(abs(a), abs(b))))
            lo, hi = math.floor(a / h), math.ceil(b / h)
            j, last = (lo + hi) // 2, math.inf
            while hi - lo > 1:
                nj, t = n(j * h, True)
                if nj > na:
                    hi = j
                else:
                    lo = j
                if t is not None and abs(t) <= 0.5 * last:
                    j = math.floor(min(max(j - t / h, lo + 1), hi - 1))
                    last = abs(t)
                else:
                    j, last = (lo + hi) // 2, math.inf if t is None else abs(t)
            x = (lo + 0.5) * h
            out.append(EigenvalueRecord(x=x, lam=x - params.g ** 2, kind=KIND_REGULAR))
        elif nb != na:
            if b - a <= _FLOOR:
                raise IncompleteSpectrum(
                    f"{nb - na} levels within {b - a:.1e} of x = {fmt_float(a)}")
            mid = 0.5 * (a + b)
            nm = n(mid)
            todo += [t for t in ((a, mid, na, nm), (mid, b, nm, nb)) if t[2] < cap]
    out.sort(key=lambda r: r.x)
    return out


def full_spectrum(params: ModelParams, x_max: float, refine_tol: float = 1e-10,
                  x_lo: float | None = None) -> list[EigenvalueRecord]:
    """Sorted eigenvalue records in [x_lo, x_max): the exceptional points
    where the level count jumps plus every other level of the count, at the
    midpoint of its dyadic cell of width about refine_tol. Degenerate points
    appear once with multiplicity 2; they occur only for half-integer bias and
    are Juddian. Raises IncompleteSpectrum rather than return a list that the
    count shows to be short."""
    if x_lo is None:
        x_lo = _x_floor(params)
    if not (0 < refine_tol < math.inf and math.isfinite(x_max) and x_max > x_lo):
        raise ValueError("need a finite refine_tol > 0 and a finite x_max above x_lo")
    return _assemble(params, _level_count(params), x_lo, x_max, refine_tol)


def expand_multiplicities(records: list[EigenvalueRecord]) -> list[float]:
    """Sorted eigenvalue list with each record repeated per its multiplicity."""
    return sorted(r.lam for r in records for _ in range(r.multiplicity))


# ---------------------------------------------------------------------------
# coupling sweeps
# ---------------------------------------------------------------------------

def spectral_sweep(delta: float, eps: float, g_grid, n_levels: int,
                   refine_tol: float = 1e-10) -> list[dict]:
    """Rows (g, index, lambda, x, kind, multiplicity, level_N, branch) for the
    lowest n_levels eigenvalues at every coupling of the strictly increasing
    g_grid, each assembled in grid order up to level n_levels on a window
    that ends at the top of level n_levels - 1's oracle.level_bracket."""
    if n_levels < 0 or not 0 < refine_tol < math.inf:
        raise ValueError("need n_levels >= 0 and a finite refine_tol > 0")
    if any(b <= a for a, b in zip(g_grid, g_grid[1:])):
        raise ValueError("g_grid must be strictly increasing")
    rows = []
    for g in g_grid:
        params = ModelParams(g, delta, eps)
        x_max = oracle.level_bracket(params, n_levels - 1)[1]
        flat = [r for r in _assemble(params, _level_count(params), _x_floor(params), x_max,
                                     refine_tol, n_levels)
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


def rows_to_json(rows: list[dict]) -> str:
    import json
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"
