"""Eigenvalue assembly: quasi-exact (Juddian) points from exact polynomial
roots, non-polynomial exceptional points from T-function zero scans, the
regular spectrum from zeros of the regularized G-function, classification with
multiplicities, positive-root counting, and coupling sweeps that produce
spectral-curve tables."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .poly import constraint_poly
from .roots import (
    count_real_roots,
    isolate_real_roots,
    refine_root,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from .series import (
    ModelParams,
    is_half_integer,
    log_term_coefficient,
    regularized_g,
    t_function,
)

KIND_REGULAR = "regular"
KIND_JUDDIAN = "juddian"
KIND_NON_JUDDIAN = "non-juddian-exceptional"

_RATIONAL_EPS_CAP = 10 ** 4      # largest denominator recognized as exact bias
_SWEEP_X_MAX = 6.0               # sweep window above g^2: max(this, n_levels + 2)


@dataclass
class EigenvalueRecord:
    x: float                     # lambda + g^2
    lam: float
    kind: str
    multiplicity: int = 1
    level_N: int | None = None
    branch: str | None = None    # "plus_eps" or "minus_eps" for exceptional kinds


def exact_bias(eps: float) -> Fraction | None:
    """The bias as an exact rational when it is one (all closed-form Juddian
    machinery needs this); None for irrational-looking values."""
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
    y = Fraction(delta) ** 2
    p = constraint_poly(N, eps, N).subs_y(y)
    mult = 2 if (2 * eps).denominator == 1 else 1
    out = []
    for iv in isolate_real_roots(p):
        if iv.hi <= 0:
            continue
        r = refine_root(p, iv, tol)
        if r > 0:
            out.append((math.sqrt(float(r)) / 2.0, mult))
    out.sort()
    return out


def count_positive_roots(N: int, eps, y) -> int:
    """Exact number of distinct positive roots in x of P_N^(N,eps)(x, y)."""
    p = constraint_poly(N, Fraction(eps), N).subs_y(Fraction(y))
    return count_real_roots(p, lo=Fraction(0), hi=None)


# ---------------------------------------------------------------------------
# float zeros: sign-change bisection and the slope-normalized vanishing test
# ---------------------------------------------------------------------------

def _bisect_sign_change(f, a: float, b: float, fa: float, tol: float) -> float:
    """A zero of f between a and b, where fa = f(a) and f(b) differ in sign:
    the midpoint of the bracket once it is no wider than tol, or once no float
    midpoint lies strictly inside it."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _vanishes_at(f, g: float, rel_tol: float) -> bool:
    """Does f vanish at the coupling g, relative to its central-difference
    slope there?"""
    h = min(1e-4 * max(1.0, g), g / 2)
    slope = (f(g + h) - f(g - h)) / (2.0 * h)
    return abs(f(g)) <= rel_tol * (abs(slope) * max(1.0, g) + 1e-12)


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
            out.append(_bisect_sign_change(tval, g_prev, g_cur, f_prev, refine_tol))
        g_prev, f_prev = g_cur, f_cur
    return out


# ---------------------------------------------------------------------------
# spectrum from zeros of the regularized G-function
# ---------------------------------------------------------------------------

_DIP_SUBDIV = 16
_DIP_DEPTH = 4


def _scan_zeros(params: ModelParams, lo: float, hi: float, step: float,
                tol: float) -> list[float]:
    """Zeros of the regularized G-function on [lo, hi] by sign-change
    bracketing, with recursive local refinement wherever |f| dips without a
    sign change: strong-coupling quasi-doublets sit closer than any fixed
    grid, and a dip is the footprint of such an even pair."""
    def f(x):
        return regularized_g(x, params)

    zeros: list[float] = []

    def scan(a, b, steps, depth):
        xs = [a + (b - a) * i / steps for i in range(steps + 1)]
        vs = [f(x) for x in xs]
        for i in range(steps):
            if vs[i] == 0.0:
                zeros.append(xs[i])
            elif vs[i] * vs[i + 1] < 0.0:
                zeros.append(_bisect_sign_change(f, xs[i], xs[i + 1], vs[i], tol))
        if vs[-1] == 0.0:
            zeros.append(xs[-1])
        if depth == 0:
            return
        last = -2
        for i in range(1, steps):
            same_sign = vs[i] != 0.0 and vs[i - 1] * vs[i] > 0.0 and vs[i] * vs[i + 1] > 0.0
            if same_sign and abs(vs[i]) < abs(vs[i - 1]) and abs(vs[i]) < abs(vs[i + 1]):
                if i == last + 1:
                    continue    # overlapping dip window already refined
                scan(xs[i - 1], xs[i + 1], _DIP_SUBDIV, depth - 1)
                last = i

    scan(lo, hi, max(2, int(math.ceil((hi - lo) / step))), _DIP_DEPTH)
    zeros.sort()
    out = []
    for z in zeros:
        if not out or z - out[-1] > max(4.0 * tol, 1e-12):
            out.append(z)
    return out


def _t_zero_here(N: int, params: ModelParams, sign: str,
                 rel_tol: float = 1e-6) -> bool:
    """Does the T-function vanish at this coupling, up to slope normalization?"""
    return _vanishes_at(
        lambda g: t_function(N, ModelParams(g, params.delta, params.eps), sign),
        params.g, rel_tol)


@lru_cache(maxsize=512)
def _juddian_chain(N: int, eps: Fraction, y: Fraction) -> tuple | None:
    """Sturm chain of the squarefree part of P_N^(N,eps)(x, y) in x; None when
    there is nothing to count (N = 0 or a constant squarefree part). The
    polynomial does not depend on g, so a sweep builds each chain once."""
    if N == 0:
        return None
    sf = squarefree_part(constraint_poly(N, eps, N).subs_y(y))
    return None if sf.degree <= 0 else tuple(sturm_chain(sf))


def _juddian_here(N: int, params: ModelParams, branch_eps: float,
                  rel_tol: float = 1e-7) -> bool:
    """Is this coupling a root of the level-N constraint polynomial? Exact
    when the bias is rational, slope-normalized numeric fallback otherwise."""
    frac = exact_bias(branch_eps)
    if frac is not None:
        chain = _juddian_chain(N, frac, Fraction(params.delta) ** 2)
        if chain is None:
            return False
        # one exact Sturm count of roots x = (2g')^2 with g - t < g' <= g + t
        g = Fraction(params.g)
        t = Fraction(rel_tol) * max(1, g)
        return sturm_count(chain, 4 * max(0, g - t) ** 2, 4 * (g + t) ** 2) > 0
    warnings.warn("irrational bias: quasi-exact detection falls back to "
                  "float root proximity and may be ill-conditioned",
                  RuntimeWarning, stacklevel=2)
    return _vanishes_at(
        lambda g: log_term_coefficient(N, ModelParams(g, params.delta, branch_eps)),
        params.g, rel_tol)


def exceptional_records(params: ModelParams, x_lo: float,
                        x_max: float) -> list[EigenvalueRecord]:
    """Exceptional eigenvalues x = N +/- eps in [x_lo, x_max]: Juddian points
    (multiplicity 2 at half-integer bias) and non-Juddian T-function zeros."""
    eps = params.eps
    half = is_half_integer(eps)
    g2 = params.g ** 2
    out = []
    seen: set[int] = set()
    for branch, sign, e in (("plus_eps", "plus", eps), ("minus_eps", "minus", -eps)):
        n = 0
        while n + e <= x_max + 1e-12:
            x0 = n + e
            key = round(x0 * 2 ** 30)
            if x0 >= x_lo and key not in seen:
                jud = _juddian_here(n, params, e)
                njud = False if jud else _t_zero_here(n, params, sign)
                if jud or njud:
                    seen.add(key)
                    mult = 2 if (jud and half) else 1
                    out.append(EigenvalueRecord(
                        x=x0, lam=x0 - g2,
                        kind=KIND_JUDDIAN if jud else KIND_NON_JUDDIAN,
                        multiplicity=mult, level_N=n, branch=branch))
            n += 1
    out.sort(key=lambda r: r.x)
    return out


def regular_spectrum(params: ModelParams, x_range: tuple[float, float],
                     scan_step: float = 1e-2,
                     refine_tol: float = 1e-10) -> list[EigenvalueRecord]:
    """Regular eigenvalues in the window: zeros of the regularized G-function
    that do not sit on an exceptional point x = n +/- eps."""
    lo, hi = x_range
    zeros = _scan_zeros(params, lo, hi, scan_step, refine_tol)
    g2 = params.g ** 2
    window = 10.0 * scan_step
    out = []
    for x in zeros:
        near = None
        for e in (params.eps, -params.eps):
            n = round(x - e)
            if n >= 0 and abs(x - (n + e)) <= window:
                near = (n, e)
                break
        if near is not None and abs(x - (near[0] + near[1])) <= 1e3 * refine_tol * max(1.0, abs(x)):
            continue    # the zero is the exceptional point itself
        out.append(EigenvalueRecord(x=x, lam=x - g2, kind=KIND_REGULAR))
    return out


def full_spectrum(params: ModelParams, x_max: float,
                  scan_step: float = 1e-2, refine_tol: float = 1e-10,
                  x_lo: float | None = None) -> list[EigenvalueRecord]:
    """Merged, sorted eigenvalue records up to x = x_max: regular zeros plus
    classified exceptional points. Degenerate points appear once with
    multiplicity 2; they occur only for half-integer bias and are Juddian.

    Regular zeros are found by sign-change bracketing, so a pair of regular
    eigenvalues closer than scan_step (a tight avoided crossing) needs a
    correspondingly smaller scan_step to be resolved."""
    if not (scan_step > 0 and refine_tol > 0):
        raise ValueError("scan_step and refine_tol must be positive")
    if x_lo is None:
        x_lo = -(params.delta + abs(params.eps) + 1.5)
    exc = exceptional_records(params, x_lo, x_max)
    reg = regular_spectrum(params, (x_lo, x_max), scan_step, refine_tol)
    # drop regular zeros that bisection landed on top of an exceptional record
    out = list(exc)
    for r in reg:
        if all(abs(r.x - e.x) > 1e3 * refine_tol * max(1.0, abs(r.x)) for e in exc):
            out.append(r)
    out.sort(key=lambda r: r.x)
    return out


def expand_multiplicities(records: list[EigenvalueRecord]) -> list[float]:
    """Sorted eigenvalue list with each record repeated per its multiplicity."""
    out = []
    for r in records:
        out.extend([r.lam] * r.multiplicity)
    return sorted(out)


# ---------------------------------------------------------------------------
# coupling sweeps
# ---------------------------------------------------------------------------

def spectral_sweep(delta: float, eps: float, g_grid, n_levels: int,
                   scan_step: float = 1e-2, refine_tol: float = 1e-10) -> list[dict]:
    """Rows (g, index, lambda, x, kind, multiplicity, level_N, branch) for the
    lowest n_levels eigenvalues at every coupling of the strictly increasing
    g_grid; grid points are independent and assembled in grid order."""
    if n_levels < 0:
        raise ValueError("n_levels must be nonnegative")
    if any(b <= a for a, b in zip(g_grid, g_grid[1:])):
        raise ValueError("g_grid must be strictly increasing")
    rows = []
    for g in g_grid:
        params = ModelParams(g, delta, eps)
        x_hi = g * g + max(_SWEEP_X_MAX, n_levels + 2.0)
        recs = full_spectrum(params, x_hi, scan_step, refine_tol)
        flat: list[EigenvalueRecord] = []
        for r in recs:
            flat.extend([r] * r.multiplicity)
        flat.sort(key=lambda r: r.lam)
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
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"
