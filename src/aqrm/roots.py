"""Exact real roots of rational polynomials: one Sturm chain of the
square-free part counts them, a split on that count isolates them, and one
sign-change bisection refines them (the same bisection refines calG zeros in
floats). Also generic tridiagonal continuants, and the count bisection shared
by the oracle and the spectrum sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


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
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations_at(chain: list[UniPoly], t: Fraction) -> int:
    return _variations([q(t) for q in chain])


def _variations_at_inf(chain: list[UniPoly], positive: bool) -> int:
    return _variations([q.lc if positive or q.degree % 2 == 0 else -q.lc for q in chain])


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


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound B: every root z has |z| < B, so p(-B) and p(B) are
    nonzero."""
    lc = abs(p.lc)
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lc




def isolate_real_roots(p: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Sorted isolating intervals (lo, hi), one per distinct real root of p:
    [-B, B + 1] split at midpoints on the Sturm count of the square-free part
    sf until each piece holds one root. A split point where sf vanishes moves
    toward hi, so sf is nonzero at both ends of each interval, with opposite
    signs."""
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    sf = squarefree_part(p)
    if sf.degree == 0:
        return []
    chain = sturm_chain(sf)
    bound = root_bound(sf)
    lo, hi = -bound, bound + 1
    out = []
    todo = [(lo, hi, _variations_at(chain, lo), _variations_at(chain, hi))]
    while todo:
        a, b, va, vb = todo.pop()
        if va - vb == 1:
            out.append((a, b))
        elif va > vb:
            mid = (a + b) / 2
            while sf(mid) == 0:
                mid = (mid + b) / 2
            vm = _variations_at(chain, mid)
            todo += [(a, mid, va, vm), (mid, b, vm, vb)]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# bisection: on a sign change, and on a count
# ---------------------------------------------------------------------------

def bisect_sign_change(f, a, b, fa, tol):
    """A zero of f between a and b, where fa = f(a) and f(b) differ in sign:
    the midpoint of the bracket once it is no wider than tol, or once no
    midpoint lies strictly inside it. Exact on Fractions; on floats the
    midpoint (a + b) / 2 is bitwise 0.5 * (a + b)."""
    while b - a > tol:
        mid = (a + b) / 2
        if not a < mid < b:
            break
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return (a + b) / 2


def refine_root(p: UniPoly, iv: tuple[Fraction, Fraction], tol: Fraction) -> Fraction:
    """The root of p in the isolating interval iv = (lo, hi), across which p
    changes sign (pass the square-free part when p has repeated roots), to
    within tol; a low-denominator rational root is returned exactly."""
    lo, hi = iv
    mid = bisect_sign_change(p, lo, hi, p(lo), Fraction(tol))
    # snap to a low-denominator rational root: in iv it is the isolated one
    for cap in (1, 4, 64, 10 ** 6):
        cand = mid.limit_denominator(cap)
        if lo < cand < hi and p(cand) == 0:
            return cand
    return mid


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
