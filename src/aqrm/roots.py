"""Exact real roots of rational polynomials (coefficients in ascending
degree), computed on integers: a polynomial enters as its primitive integer
multiple, its square-free part is an exact integer division, one primitive
Sturm chain of sign-kept pseudo-remainders counts the roots by homogeneous
integer evaluation at rational points, a split on that count isolates them,
and one sign-change bisection refines them. It also finds the T-function
zeros and, on a count minus k + 1/2, oracle.certified_eigenvalues, the
reference of the tests and of perfbench/check.py for the sweeps."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


# ---------------------------------------------------------------------------
# the integer core: coefficient lists in Z[x], kept primitive
# ---------------------------------------------------------------------------

def _primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _integer_coeffs(p: Sequence) -> tuple[int, ...]:
    """The primitive integer coefficients of a positive rational multiple of p:
    a non-int as Fraction(c) (a float exactly), trailing zeros dropped."""
    cs = [c if type(c) is int else Fraction(c) for c in p]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ZeroPolynomialError("zero polynomial")
    den = math.lcm(*(c.denominator for c in cs))
    return tuple(_primitive([c.numerator * (den // c.denominator) for c in cs]))


def _neg_prem(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of -|lc b|^k a mod b: minus the remainder of a by b,
    scaled by a positive integer (a pseudo-remainder on |lc b|, so no sign is
    lost; Collins 1967, Brown & Traub 1971). Empty when b divides a. Each
    division step is one pass r <- |lc b| r - c x^k b, with b[:-1] aligned
    under r by zero padding."""
    r = list(a)
    db = len(b) - 1
    s = abs(b[-1])
    pad = [0] * len(a) + list(b[:-1])
    while len(r) > db:
        c = r.pop()
        if c:
            f = c if b[-1] > 0 else -c
            r = [s * v - f * u for v, u in zip(r, pad[len(a) + db - len(r):])]
    while r and r[-1] == 0:
        r.pop()
    return _primitive([-v for v in r]) if r else []


@lru_cache(maxsize=16)
def _chain(a: tuple[int, ...]) -> tuple:
    """Primitive Sturm sequence of the primitive integer polynomial a, ending
    in gcd(a, a') up to sign. Cached so that for a square-free a,
    squarefree_part and the count or isolation after it share one sequence."""
    chain = [a]
    d = _primitive([i * c for i, c in enumerate(a)][1:])
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            r = _neg_prem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(r)
    return tuple(map(tuple, chain))


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[x], where b is primitive and divides a over Q (so, by Gauss's
    lemma, over Z too): every step of the long division is an exact integer
    division by lc b."""
    r = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    for k in range(len(out) - 1, -1, -1):
        c = r[k + db] // b[-1]
        out[k] = c
        if c:
            for j, bj in enumerate(b):
                r[k + j] -= c * bj
    return out


def _value(cs: Sequence, t) -> int:
    """q^d p(n/q) for t = n/q (q > 0, d = deg p) by homogeneous Horner: an
    integer with the sign of p(t) when the coefficients are integers."""
    n, q = t.numerator, t.denominator
    acc, qk = cs[-1], 1
    for c in reversed(cs[:-1]):
        qk *= q
        acc = acc * n + c * qk
    return acc


def squarefree_part(p: Sequence) -> tuple[int, ...]:
    """p / gcd(p, p') as the primitive integer coefficients of a positive
    rational multiple of p's square-free part."""
    a = _integer_coeffs(p)
    g = _chain(a)[-1]
    return a if len(g) == 1 else tuple(_exact_quotient(a, g))


# ---------------------------------------------------------------------------
# Sturm counts and root isolation
# ---------------------------------------------------------------------------

def _variations(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations_at(chain: Sequence[Sequence[int]], t) -> int:
    return _variations([_value(c, t) for c in chain])


def _variations_at_inf(chain: Sequence[Sequence[int]], positive: bool) -> int:
    return _variations([c[-1] if positive or len(c) % 2 else -c[-1] for c in chain])


def count_real_roots(p: Sequence, lo: Fraction | None = None,
                     hi: Fraction | None = None) -> int:
    """Number of distinct real roots of p in (lo, hi]; open ends at infinity
    when a bound is None. Counted on the integer chain of the square-free part."""
    sf = squarefree_part(p)
    if len(sf) == 1:
        return 0
    chain = _chain(sf)
    va = _variations_at(chain, lo) if lo is not None else _variations_at_inf(chain, False)
    vb = _variations_at(chain, hi) if hi is not None else _variations_at_inf(chain, True)
    return va - vb


def isolate_real_roots(p: Sequence) -> list[tuple[Fraction, Fraction]]:
    """Sorted isolating intervals (lo, hi), one per distinct real root of p:
    [-B, B + 1], B the Cauchy bound of the square-free part sf (every root z
    has |z| < B), split at midpoints on the Sturm count of sf until each piece
    holds one root. A split point where sf vanishes moves toward hi, so sf is
    nonzero at both ends of each interval, with opposite signs."""
    sf = squarefree_part(p)
    if len(sf) == 1:
        return []
    chain = _chain(sf)
    bound = 1 + Fraction(max(map(abs, sf[:-1])), abs(sf[-1]))
    lo, hi = -bound, bound + 1
    out = []
    todo = [(lo, hi, _variations_at(chain, lo), _variations_at(chain, hi))]
    while todo:
        a, b, va, vb = todo.pop()
        if va - vb == 1:
            out.append((a, b))
        elif va > vb:
            mid = (a + b) / 2
            while _value(sf, mid) == 0:
                mid = (mid + b) / 2
            vm = _variations_at(chain, mid)
            todo += [(a, mid, va, vm), (mid, b, vm, vb)]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# bisection on a sign change
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


def refine_root(p: Sequence, iv: tuple[Fraction, Fraction], tol: Fraction) -> Fraction:
    """The root of p in the isolating interval iv = (lo, hi), across which p
    changes sign (pass the square-free part when p has repeated roots), to
    within tol; a low-denominator rational root is returned exactly."""
    lo, hi = iv
    cs = _integer_coeffs(p)

    def sign_of(t):
        return _value(cs, t)

    mid = bisect_sign_change(sign_of, lo, hi, sign_of(lo), Fraction(tol))
    # snap to a low-denominator rational root: in iv it is the isolated one
    for cap in (1, 4, 64, 10 ** 6):
        cand = mid.limit_denominator(cap)
        if lo < cand < hi and sign_of(cand) == 0:
            return cand
    return mid

