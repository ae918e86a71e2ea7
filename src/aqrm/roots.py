"""Exact real-root machinery: Sturm isolation over the rationals, bisection
refinement, generic tridiagonal continuants, and bisection eigenvalues of real
symmetric tridiagonal matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


class NotSymmetrizableError(ValueError):
    """Raised when a tridiagonal matrix has a negative off-diagonal product."""


# ---------------------------------------------------------------------------
# tridiagonal matrices and continuants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TridiagMatrix:
    """Tridiagonal matrix over an arbitrary commutative ring.

    Entries may be Fractions, floats, or exact bivariate polynomials; the only
    requirement is that they support +, - and *.
    """

    diag: tuple
    upper: tuple
    lower: tuple

    def __post_init__(self):
        n = len(self.diag)
        if len(self.upper) != max(n - 1, 0) or len(self.lower) != max(n - 1, 0):
            raise ValueError("off-diagonals must have length n-1")

    @property
    def n(self) -> int:
        return len(self.diag)


def continuant(m: TridiagMatrix):
    """Determinant of a tridiagonal matrix by the three-term recurrence
    J_i = a_i J_{i-1} - b_{i-1} c_{i-1} J_{i-2}.

    Only the products b_i * c_i enter, so two matrices with equal diagonals
    and equal off-diagonal products have equal determinants.
    """
    if m.n == 0:
        return 1
    prev2, prev1 = 0, 1
    for i in range(m.n):
        cur = m.diag[i] * prev1
        if i > 0:
            cur = cur - (m.upper[i - 1] * m.lower[i - 1]) * prev2
        prev2, prev1 = prev1, cur
    return prev1


def symmetrize_tridiag(m: TridiagMatrix) -> tuple[list[float], list[float]]:
    """Replace off-diagonal pairs (b_i, c_i) by sqrt(b_i c_i) on both sides.

    Valid whenever every product b_i c_i >= 0; the symmetric matrix has the
    same characteristic polynomial by the continuant equivalence.
    """
    diag = [float(a) for a in m.diag]
    off = []
    for b, c in zip(m.upper, m.lower):
        p = float(b) * float(c)
        if p < 0.0:
            raise NotSymmetrizableError(f"off-diagonal product {p} < 0")
        off.append(math.sqrt(p))
    return diag, off


# ---------------------------------------------------------------------------
# univariate rational polynomials
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial with Fraction coefficients, ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroPolynomialError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly([]), self
        quot = [Fraction(0)] * (dq + 1)
        dlc = other.lc
        for k in range(dq, -1, -1):
            if len(rem) - 1 != k + other.degree:
                while rem and rem[-1] == 0:
                    rem.pop()
                if len(rem) - 1 < k + other.degree:
                    continue
            c = rem[-1] / dlc
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
            rem.pop()
        return UniPoly(quot), UniPoly(rem)

    def primitive(self) -> "UniPoly":
        """Scale by a positive rational so coefficients are coprime integers
        (sign of the polynomial is preserved)."""
        if self.is_zero():
            return self
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c.numerator * (den // c.denominator)))
        return UniPoly([c * den / g for c in self.coeffs])


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd in Q[x]."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    return a * (1 / a.lc)


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: p = prod q_i^i with the q_i squarefree and coprime."""
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    if p.degree == 0:
        return []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    out = []
    c = p.divmod(g)[0]
    d = dp.divmod(g)[0] - c.derivative()
    i = 1
    while c.degree > 0:
        q = poly_gcd(c, d)
        if q.degree > 0:
            out.append((q, i))
        c = c.divmod(q)[0]
        d = d.divmod(q)[0] - c.derivative()
        i += 1
    return out


def squarefree_part(p: UniPoly) -> UniPoly:
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p
    return p.divmod(g)[0]


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation
# ---------------------------------------------------------------------------

def sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Sturm sequence of p with content normalization to limit coefficient
    blow-up; every normalization factor is positive so sign patterns are kept."""
    chain = [p.primitive()]
    d = p.derivative()
    if not d.is_zero():
        chain.append(d.primitive())
        while True:
            r = chain[-2].divmod(chain[-1])[1]
            if r.is_zero():
                break
            chain.append((-r).primitive())
    return chain


def _variations(values) -> int:
    count = 0
    prev = 0
    for v in values:
        s = 0 if v == 0 else (1 if v > 0 else -1)
        if s != 0:
            if prev != 0 and s != prev:
                count += 1
            prev = s
    return count


def _variations_at(chain: list[UniPoly], t: Fraction) -> int:
    return _variations([q(t) for q in chain])


def _variations_at_inf(chain: list[UniPoly], positive: bool) -> int:
    signs = []
    for q in chain:
        if q.is_zero():
            signs.append(0)
        else:
            s = 1 if q.lc > 0 else -1
            if not positive and q.degree % 2 == 1:
                s = -s
            signs.append(s)
    return _variations(signs)


def sturm_count(chain: Sequence[UniPoly], lo: Fraction | None = None,
                hi: Fraction | None = None) -> int:
    """Number of distinct real roots in (lo, hi] of the squarefree polynomial
    whose Sturm chain is given; open ends at infinity when a bound is None."""
    va = _variations_at(chain, lo) if lo is not None else _variations_at_inf(chain, False)
    vb = _variations_at(chain, hi) if hi is not None else _variations_at_inf(chain, True)
    return va - vb


def count_real_roots(p: UniPoly, lo: Fraction | None = None,
                     hi: Fraction | None = None) -> int:
    """Number of distinct real roots of p in (lo, hi]; open ends at infinity
    when a bound is None."""
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    sf = squarefree_part(p)
    if sf.degree == 0:
        return 0
    return sturm_count(sturm_chain(sf), lo, hi)


@dataclass(frozen=True)
class RootInterval:
    """Isolating interval (lo, hi] for one distinct real root."""

    lo: Fraction
    hi: Fraction
    multiplicity_hint: int = 1

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: all real roots lie in [-B, B]."""
    lc = abs(p.lc)
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lc


def isolate_real_roots(p: UniPoly) -> list[RootInterval]:
    """Disjoint isolating intervals for all distinct real roots, by exact
    Sturm-sequence bisection; multiplicity hints come from the squarefree
    decomposition."""
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    if p.degree == 0:
        return []
    decomp = squarefree_decomposition(p)
    sf = UniPoly([1])
    for q, _ in decomp:
        sf = sf * q
    chain = sturm_chain(sf)
    bound = root_bound(sf)

    lo, hi = -bound, bound + 1
    # make sure endpoints are not roots (the bound guarantees it for lo/hi)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, _variations_at(chain, lo), _variations_at(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if sf(mid) == 0:
            # exact rational root at mid: shrink a private interval around it
            w = b - a
            while True:
                w = w / 4
                l, r = mid - w, mid + w
                if sf(l) != 0 and sf(r) != 0 and \
                   _variations_at(chain, l) - _variations_at(chain, r) == 1:
                    break
            out.append((l, r))
            stack.append((a, l, va, _variations_at(chain, l)))
            stack.append((r, b, _variations_at(chain, r), vb))
        else:
            vm = _variations_at(chain, mid)
            stack.append((a, mid, va, vm))
            stack.append((mid, b, vm, vb))

    out.sort()
    factor_chains = [(sturm_chain(q), m) for q, m in decomp]
    ivs = []
    for a, b in out:
        mult = 1
        for q_chain, m in factor_chains:
            if sturm_count(q_chain, a, b) == 1:
                mult = m
                break
        ivs.append(RootInterval(a, b, mult))
    return ivs


def refine_interval(p: UniPoly, iv: RootInterval, tol: Fraction) -> RootInterval:
    """Bisect the isolating interval down to width <= tol; endpoints stay
    exact rationals and the root stays strictly bracketed."""
    sf = squarefree_part(p)
    lo, hi = iv.lo, iv.hi
    tol = Fraction(tol)
    flo = sf(lo)
    while flo == 0:
        # a root on the open left end is not the isolated one; step inside
        lo = lo + (hi - lo) / 2 ** 16
        flo = sf(lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = sf(mid)
        if fm == 0:
            w = min(tol, hi - mid, mid - lo) / 2
            return RootInterval(mid - w, mid + w, iv.multiplicity_hint)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return RootInterval(lo, hi, iv.multiplicity_hint)


def refine_root(p: UniPoly, iv: RootInterval, tol: Fraction) -> Fraction:
    """Refine to width <= tol and return one rational point of the final
    interval; a simple rational root nearby is detected and returned exactly."""
    fine = refine_interval(p, iv, tol)
    mid = fine.mid
    # snap to a low-denominator rational root when one hides in the interval
    for cap in (1, 4, 64, 10 ** 6):
        cand = mid.limit_denominator(cap)
        if fine.lo < cand < fine.hi and p(cand) == 0:
            return cand
    return mid


def real_roots(p: UniPoly, tol: Fraction = Fraction(1, 2 ** 48)) -> list[tuple[Fraction, int]]:
    """All distinct real roots refined to width tol, with multiplicities."""
    return [(refine_root(p, iv, tol), iv.multiplicity_hint)
            for iv in isolate_real_roots(p)]


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigenvalues by Sturm-count bisection
# ---------------------------------------------------------------------------

def bisect_count(count_below, lo: float, hi: float, k: int, width: float) -> float:
    """The k-th (0-based) eigenvalue in [lo, hi] of a matrix whose number of
    eigenvalues strictly below sigma is count_below(sigma): the midpoint of
    the bisection bracket once it is no wider than width, or once no float
    midpoint lies strictly inside it."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if count_below(mid) <= k:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tridiag_count_below(diag: Sequence[float], off: Sequence[float], sigma: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix strictly
    below sigma (Sturm sign-agreement count via the LDL pivot recurrence)."""
    count = 0
    d = 1.0
    tiny = 1e-300
    for i, a in enumerate(diag):
        e2 = off[i - 1] * off[i - 1] if i > 0 else 0.0
        d = (a - sigma) - (e2 / d if d != 0.0 else e2 / tiny)
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = -tiny
            count += 1
    return count


def sym_tridiag_eigenvalues(diag: Sequence[float], offdiag: Sequence[float],
                            tol: float = 1e-12) -> list[float]:
    """All eigenvalues of a real symmetric tridiagonal matrix, sorted, each
    bracketed to absolute width tol by bisection from Gershgorin bounds."""
    n = len(diag)
    if len(offdiag) != max(n - 1, 0):
        raise ValueError("offdiag must have length n-1")
    if n == 0:
        return []
    lo = min(diag[i] - (abs(offdiag[i - 1]) if i > 0 else 0.0)
             - (abs(offdiag[i]) if i < n - 1 else 0.0) for i in range(n))
    hi = max(diag[i] + (abs(offdiag[i - 1]) if i > 0 else 0.0)
             + (abs(offdiag[i]) if i < n - 1 else 0.0) for i in range(n))
    lo -= tol
    hi += tol
    eigs = [bisect_count(lambda s: tridiag_count_below(diag, offdiag, s), lo, hi, k, tol)
            for k in range(n)]
    eigs.sort()
    return eigs
