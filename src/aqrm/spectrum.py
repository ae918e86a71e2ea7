"""Eigenvalue assembly: the parity-ladder level count places every level.
Exceptional points x = N +/- eps are records where the count jumps across
them, named Juddian by exact roots of the constraint polynomial and
non-Juddian otherwise; regular levels are zeros of the regularized G-function
inside brackets of the same count. Also classification with multiplicities,
positive-root counting, T-function zero scans over g, and coupling sweeps that
produce spectral-curve tables."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import oracle
from .poly import constraint_slice
from .roots import (
    NoSignChange,
    bisect_count,
    bisect_sign_change,
    count_real_roots,
    dyadic_root,
    isolate_real_roots,
    refine_root,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from .series import (
    ModelParams,
    is_half_integer,
    regularized_g,
    t_function,
)

KIND_REGULAR = "regular"
KIND_JUDDIAN = "juddian"
KIND_NON_JUDDIAN = "non-juddian-exceptional"

_RATIONAL_EPS_CAP = 10 ** 4      # largest denominator recognized as exact bias
_BRACKET = 1e-3                  # widest level bracket handed to calG refinement
_FLOOR = 1e-9                    # narrowest bracket split on the level count
_M_START, _M_CAP = 40, 400       # truncations tried for the level count


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

@lru_cache(maxsize=512)
def _juddian_chain(N: int, eps: Fraction, y: Fraction) -> tuple | None:
    """Sturm chain (coefficient tuples) of the squarefree part of P_N^(N,eps)(x, y)
    in x; None when there is nothing to count (N = 0 or a constant squarefree
    part). The polynomial does not depend on g, so a sweep builds each chain once."""
    if N == 0:
        return None
    sf = squarefree_part(constraint_slice(N, eps, y))
    return None if sf.degree <= 0 else tuple(q.coeffs for q in sturm_chain(sf))


def _juddian_here(N: int, params: ModelParams, branch_eps: float) -> bool:
    """Is this coupling a root of the level-N constraint polynomial? One exact
    Sturm count for every bias: a float bias with no low-denominator match is
    taken as the dyadic rational it is."""
    frac = exact_bias(branch_eps)
    chain = _juddian_chain(N, Fraction(branch_eps) if frac is None else frac,
                           Fraction(params.delta) ** 2)
    if chain is None:
        return False
    # roots x = (2g')^2 with g - t < g' <= g + t
    g = Fraction(params.g)
    t = Fraction(1e-7) * max(1, g)
    return sturm_count(chain, 4 * max(0, g - t) ** 2, 4 * (g + t) ** 2) > 0


def exceptional_records(params: ModelParams, n, x_lo: float,
                        x_max: float) -> list[EigenvalueRecord]:
    """Exceptional eigenvalues x = N +/- eps whose bracket [x - _FLOOR,
    x + _FLOOR) lies in [x_lo, x_max], placed by the level count alone, with
    n(x) the number of levels below x: a point is a record when n jumps across
    its bracket by the multiplicity its kind requires, 2 for a Juddian point
    at half-integer bias (two levels meet only there) and 1 otherwise. The
    exact test only names the kind: Juddian at a root of the level-N
    constraint polynomial, non-Juddian elsewhere. Any other jump makes no
    record; its levels are left to the regular brackets."""
    eps = params.eps
    half = is_half_integer(eps)
    cands = sorted(((N + e, N, e, branch)
                    for branch, e in (("plus_eps", eps), ("minus_eps", -eps))
                    for N in range(int(x_max - e) + 2)
                    if x_lo <= N + e - _FLOOR and N + e + _FLOOR <= x_max),
                   key=lambda c: c[0])
    out = []
    prev = -math.inf
    for x0, N, e, branch in cands:
        if x0 - prev < 2 * _FLOOR:      # one bracket per point, N + eps = N' - eps
            continue
        prev = x0
        jump = n(x0 + _FLOOR) - n(x0 - _FLOOR)
        if jump:
            jud = _juddian_here(N, params, e)
            if jump == (2 if jud and half else 1):
                out.append(EigenvalueRecord(
                    x=x0, lam=x0 - params.g ** 2,
                    kind=KIND_JUDDIAN if jud else KIND_NON_JUDDIAN,
                    multiplicity=jump, level_N=N, branch=branch))
    return out


# ---------------------------------------------------------------------------
# the spectrum: records plus one calG zero per bracket of the level count
# ---------------------------------------------------------------------------

class IncompleteSpectrum(ArithmeticError):
    """The level count and the located levels disagree."""


def _counted(params: ModelParams, task):
    """task(n), with n(x) the number of levels below x = lambda + g^2 of the
    truncation at the first M = _M_START, _M_START + M_STEP, ... whose every
    probe agrees with M + M_STEP."""
    for M in range(_M_START, _M_CAP + 1, oracle.M_STEP):
        count = oracle.level_counter(params, M)
        try:
            return task(lambda x: count(x - params.g ** 2))
        except oracle.TruncationError:
            pass
    raise IncompleteSpectrum(f"level count not converged at M={_M_CAP}")


def _regular_brackets(n, records: list[EigenvalueRecord], x_lo: float,
                      x_max: float) -> list[tuple[float, float]]:
    """Brackets [a, b), in no order and at most _BRACKET wide, each holding
    exactly one level counted by n in [x_lo, x_max) that is not a record;
    every record owns [x - _FLOOR, x + _FLOOR)."""
    edges = [x_lo] + [x for r in records for x in (r.x - _FLOOR, r.x + _FLOOR)] + [x_max]
    counts = [n(x) for x in edges]
    out, todo = [], list(zip(edges[::2], edges[1::2], counts[::2], counts[1::2]))
    while todo:
        a, b, na, nb = todo.pop()
        if nb == na or (nb == na + 1 and b - a <= _BRACKET):
            out += [(a, b)] * (nb - na)
        elif b - a <= _FLOOR:
            raise IncompleteSpectrum(
                f"{nb - na} levels within {b - a:.1e} of x = {fmt_float(a)}")
        else:
            mid = 0.5 * (a + b)
            nm = n(mid)
            todo += [(a, mid, na, nm), (mid, b, nm, nb)]
    return out


def _assemble(params: ModelParams, n, x_lo: float, x_max: float,
              refine_tol: float) -> list[EigenvalueRecord]:
    """Sorted records in [x_lo, x_max) for the level count n: the exceptional
    records plus, in every bracket of the count, one regular calG zero at the
    midpoint of the dyadic cell of width about refine_tol across which calG
    changes sign."""
    def f(x):
        return regularized_g(x, params)

    out = exceptional_records(params, n, x_lo, x_max)
    for a, b in _regular_brackets(n, out, x_lo, x_max):
        try:
            x = dyadic_root(f, a, b, f(a), f(b), refine_tol)
        except NoSignChange as exc:
            raise IncompleteSpectrum(f"calG level bracket: {exc}") from None
        out.append(EigenvalueRecord(x=x, lam=x - params.g ** 2, kind=KIND_REGULAR))
    out.sort(key=lambda r: r.x)
    return out


def full_spectrum(params: ModelParams, x_max: float, refine_tol: float = 1e-10,
                  x_lo: float | None = None) -> list[EigenvalueRecord]:
    """Sorted eigenvalue records in [x_lo, x_max): the exceptional points
    where the level count jumps plus one regular calG zero in every other
    bracket of the count. Degenerate points appear once with multiplicity 2;
    they occur only for half-integer bias and are Juddian. Raises
    IncompleteSpectrum rather than return a list that the count shows to be
    short."""
    if x_lo is None:
        x_lo = -(params.delta + abs(params.eps) + 1.5)
    if not (0 < refine_tol < math.inf and math.isfinite(x_max) and x_max > x_lo):
        raise ValueError("need a finite refine_tol > 0 and a finite x_max above x_lo")
    return _counted(params, lambda n: _assemble(params, n, x_lo, x_max, refine_tol))


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
    g_grid; grid points are independent and assembled in grid order. Each
    coupling's window ends just above level n_levels - 1 of the level count."""
    if n_levels < 0 or not 0 < refine_tol < math.inf:
        raise ValueError("need n_levels >= 0 and a finite refine_tol > 0")
    if any(b <= a for a, b in zip(g_grid, g_grid[1:])):
        raise ValueError("g_grid must be strictly increasing")
    # Weyl's inequality against the displaced oscillators (levels n - g^2,
    # each twice) puts level k in -w < x < k // 2 + w; each window starts at
    # full_spectrum's default x_lo
    w = delta + abs(eps) + 1.0
    x_lo = -(delta + abs(eps) + 1.5)
    rows = []
    for g in g_grid:
        params = ModelParams(g, delta, eps)

        def levels(n):
            top = bisect_count(n, -w, (n_levels - 1) // 2 + w, n_levels - 1, _BRACKET)
            return _assemble(params, n, x_lo, top + _BRACKET, refine_tol)

        flat = [r for r in _counted(params, levels) for _ in range(r.multiplicity)]
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
