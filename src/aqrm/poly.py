"""Every polynomial family attached to the model: the constraint polynomials
P_k^(N,eps), their determinant form, the integer quotient A_N^l, the Q_k
variant, the Laguerre limit, and the exact identities between them. With
eps = p/q the family runs on the integer members R_k = q^k P_k: the identity
checks, the divisibility and the x-slices for root counting read those."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .roots import TridiagMatrix, UniPoly, continuant


class DivisibilityError(ArithmeticError):
    """Raised when the proven divisibility of constraint polynomials fails.

    This would falsify an exact theorem, so it must never fire on valid input.
    """


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class BivarPoly:
    """Sparse bivariate polynomial: finite map (deg_x, deg_y) -> coefficient,
    an int or a Fraction.

    Zero coefficients are never stored. Instances are immutable in use; all
    arithmetic returns new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        t = {}
        if terms:
            for (i, j), c in terms.items():
                if type(c) is not int:
                    c = _frac(c)
                if c != 0:
                    t[(int(i), int(j))] = c
        self.terms = t

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(c) -> "BivarPoly":
        return BivarPoly({(0, 0): c})

    @staticmethod
    def x() -> "BivarPoly":
        return BivarPoly({(1, 0): 1})

    @staticmethod
    def y() -> "BivarPoly":
        return BivarPoly({(0, 1): 1})

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, 0) + c
        return BivarPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return BivarPoly()
            return BivarPoly({k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        t = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                t[k] = t.get(k, 0) + c1 * c2
        return BivarPoly(t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Fraction(1, other)

    @staticmethod
    def _coerce(v) -> "BivarPoly":
        if isinstance(v, BivarPoly):
            return v
        if isinstance(v, (int, Fraction)):
            return BivarPoly.const(v)
        raise TypeError(f"cannot coerce {type(v)} to BivarPoly")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.const(other)
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, i: int, j: int):
        return self.terms.get((i, j), 0)

    def evaluate(self, xv, yv):
        """Evaluate at (xv, yv); exact for int/Fraction arguments, float
        arithmetic when either argument is a float."""
        exact = isinstance(xv, (int, Fraction)) and isinstance(yv, (int, Fraction))
        by_x: dict[int, list[tuple[int, Fraction]]] = {}
        for (i, j), c in self.terms.items():
            by_x.setdefault(i, []).append((j, c))
        acc = 0
        for i in sorted(by_x, reverse=True):
            inner = 0
            for j, c in sorted(by_x[i], reverse=True):
                inner = inner + (c if exact else float(c)) * yv ** j
            acc = acc + inner * xv ** i
        return acc

    # -- serialization -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple]:
        """Terms sorted by (deg_x, deg_y)."""
        return [(i, j, self.terms[(i, j)]) for i, j in sorted(self.terms)]

    def to_json_obj(self) -> dict:
        return {"terms": [[i, j, f"{c.numerator}/{c.denominator}"]
                          for i, j, c in self.sorted_terms()]}

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        def key(t):
            i, j, _ = t
            return (-(i + j), -i)
        parts = []
        for i, j, c in sorted(self.sorted_terms(), key=key):
            mono = "*".join(([f"x^{i}" if i > 1 else "x"] if i else [])
                            + ([f"y^{j}" if j > 1 else "y"] if j else []))
            mag = abs(c)
            cs = str(mag) if (mag != 1 or not mono) else ""
            body = "*".join([p for p in (cs, mono) if p])
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    __repr__ = __str__


_X = BivarPoly.x()
_Y = BivarPoly.y()


# ---------------------------------------------------------------------------
# recurrence constants
# ---------------------------------------------------------------------------

def c_weight(k: int, eps: Fraction):
    """c_k = k(k + 2 eps)."""
    return k * (k + 2 * eps)


def lambda_weight(k: int, N: int) -> int:
    """lambda_k = k(k-1)(N-k+1)."""
    return k * (k - 1) * (N - k + 1)


# ---------------------------------------------------------------------------
# constraint polynomials
# ---------------------------------------------------------------------------

def _add_shifted(acc: dict, terms: dict, w, di: int = 0, dj: int = 0) -> None:
    """acc += w * x^di * y^dj * terms, in place: a monomial factor only shifts
    each exponent key, so no product of polynomials is formed."""
    if not w:
        return
    get = acc.get
    if di or dj:
        for (i, j), v in terms.items():
            key = (i + di, j + dj)
            acc[key] = get(key, 0) + w * v
    else:
        for key, v in terms.items():
            acc[key] = get(key, 0) + w * v


def _scaled_family(N: int, eps: Fraction, k_max: int) -> list[dict]:
    """[R_0, ..., R_{k_max}], R_k = q^k P_k^(N,eps) as integer term dicts,
    eps = p/q in lowest terms:
        R_k = (q k x + q y - k(k q + 2 p)) R_{k-1} - q^2 lambda_k x R_{k-2}."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    p, q = eps.numerator, eps.denominator
    fam = [{(0, 0): 1}]
    for k in range(1, k_max + 1):
        acc: dict = {}
        _add_shifted(acc, fam[k - 1], q * k, 1, 0)
        _add_shifted(acc, fam[k - 1], q, 0, 1)
        _add_shifted(acc, fam[k - 1], -k * (k * q + 2 * p))
        if k > 1:
            _add_shifted(acc, fam[k - 2], -q * q * lambda_weight(k, N), 1, 0)
        fam.append({key: v for key, v in acc.items() if v})
    return fam


def constraint_poly(N: int, eps, k: int) -> BivarPoly:
    """P_k^(N,eps)(x,y) by the three-term recurrence

        P_k = (k x + y - k(k + 2 eps)) P_{k-1} - k(k-1)(N-k+1) x P_{k-2},

    with P_0 = 1 and P_{-1} = 0, so P_1 = x + y - 1 - 2 eps, run on the
    integer members R_k = q^k P_k; only the last is divided by q^k."""
    eps = _frac(eps)
    last = _scaled_family(N, eps, k)[-1]
    out = BivarPoly()
    out.terms = {key: Fraction(v, eps.denominator ** k) for key, v in last.items()}
    return out


@lru_cache(maxsize=128)
def _top_member(N: int, eps: Fraction) -> tuple:
    """The terms of R_N, built once for all the slices of one (N, eps)."""
    return tuple(_scaled_family(N, eps, N)[-1].items())


def constraint_slice(N: int, eps, y) -> UniPoly:
    """b^N R_N(x, a/b) for y = a/b as an integer polynomial in x (R_N has
    degree N in y): a positive multiple of P_N^(N,eps)(x, y), which is all
    root counting and isolation need."""
    y = _frac(y)
    a, b = y.numerator, y.denominator
    powers = [a ** j * b ** (N - j) for j in range(N + 1)]
    out = [0] * (N + 1)
    for (i, j), v in _top_member(N, _frac(eps)):
        out[i] += v * powers[j]
    return UniPoly(out)


def constraint_value(N: int, eps, k: int, x, y):
    """P_k^(N,eps)(x,y) evaluated directly through the recurrence; works for
    float or Fraction arguments (eps may be any real for the float path)."""
    p0 = 1
    p1 = x + y - 1 - 2 * eps
    if k == 0:
        return p0
    for j in range(2, k + 1):
        p2 = (j * x + y - j * (j + 2 * eps)) * p1 - j * (j - 1) * (N - j + 1) * x * p0
        p0, p1 = p1, p2
    return p1


def constraint_tridiag(N: int, eps) -> TridiagMatrix:
    """Tridiagonal matrix I_N y + D_N x + C_N whose continuant is P_N^(N,eps).

    Row i has diagonal y + i x - i(2(N-i)+1+2 eps), upper entry 1, lower entry
    i(i+1) c_{N-i}.
    """
    eps = _frac(eps)
    diag = tuple(_Y + i * _X - BivarPoly.const(i * (2 * (N - i) + 1 + 2 * eps))
                 for i in range(1, N + 1))
    upper = tuple(BivarPoly.const(1) for _ in range(N - 1))
    lower = tuple(BivarPoly.const(i * (i + 1) * c_weight(N - i, eps))
                  for i in range(1, N))
    return TridiagMatrix(diag, upper, lower)


def q_poly(N: int, eps, k: int) -> BivarPoly:
    """Q_k^(N,eps)(x,y): the continuant of the first k rows of
    constraint_tridiag(N, eps); Q_N = P_N^(N,eps).

    Q_0 = 1, Q_1 = x + y - (2N - 1 + 2 eps),
    Q_k = (k x + y - k(2(N+1-k) - 1 + 2 eps)) Q_{k-1}
          - k(k-1)(N+1-k)(N+1-k+2 eps) Q_{k-2}.
    """
    if not 0 <= k <= N:
        raise ValueError("need 0 <= k <= N")
    m = constraint_tridiag(N, eps)
    j = max(k - 1, 0)
    return BivarPoly._coerce(continuant(TridiagMatrix(m.diag[:k], m.upper[:j], m.lower[:j])))


def constraint_poly_det(N: int, eps) -> BivarPoly:
    """P_N^(N,eps)(x,y) by symbolic continuant expansion of its tridiagonal
    determinant form, q_poly(N, eps, N); must agree with
    constraint_poly(N, eps, N) identically."""
    return q_poly(N, eps, N)


# ---------------------------------------------------------------------------
# the quotient A_N^l and divisibility
# ---------------------------------------------------------------------------

def _a_tridiag(N: int, ell: int, x, y) -> TridiagMatrix:
    """The continuant behind A_N^l / ((N+l)!/N!): diagonal
    x + y/(N+i) - l + 2i - 1, off-diagonal products i(i-l) (unit lower side),
    for float x and y."""
    diag = tuple(x + y / (N + i) - ell + 2 * i - 1 for i in range(1, ell + 1))
    prods = tuple(i * (i - ell) for i in range(1, ell))
    return TridiagMatrix(diag, prods, (1,) * len(prods))


def a_poly(N: int, ell: int) -> BivarPoly:
    """The degree-l quotient A_N^l(x,y) = P_{N+l}^(N+l,-l/2) / P_N^(N,l/2),
    built from its own tridiagonal determinant: _a_tridiag with row i times
    N + i, which scales the continuant by (N+l)!/N! and leaves integer entries,
    diagonal (N+i)(x - l + 2i - 1) + y and off-diagonal products
    i(i-l)(N+i)(N+i+1)."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    diag = tuple((N + i) * (_X - (ell - 2 * i + 1)) + _Y for i in range(1, ell + 1))
    prods = tuple(i * (i - ell) * (N + i) * (N + i + 1) for i in range(1, ell))
    return BivarPoly._coerce(continuant(TridiagMatrix(diag, prods, (1,) * len(prods))))


def a_value(N: int, ell: int, x, y):
    """A_N^l evaluated in floats through the continuant of _a_tridiag."""
    scale = math.factorial(N + ell) // math.factorial(N)
    return continuant(_a_tridiag(N, ell, x, y)) * scale


def verify_divisibility(N: int, ell: int) -> tuple[BivarPoly, bool]:
    """Exact division of P_{N+l}^(N+l,-l/2) by P_N^(N,l/2), on the integer
    members: R_{N+l} / R_N = q^l A_N^l with q the denominator of l/2. The
    divisor's leading x-coefficient is the constant N! q^N, so each quotient
    coefficient must be an exact integer division by it.

    Returns (quotient, exact). A nonzero remainder, or a quotient different
    from a_poly(N, ell), raises DivisibilityError since either would falsify
    a proven identity.
    """
    half = Fraction(ell, 2)
    rem = _scaled_family(N + ell, -half, N + ell)[-1]
    small = _scaled_family(N, half, N)[-1]
    lc = small[(N, 0)]
    quot = {}
    for s in range(ell, -1, -1):
        top = [(j, v) for (i, j), v in rem.items() if i == s + N and v]
        for j, v in top:
            c, r = divmod(v, lc)
            if r:
                raise DivisibilityError(f"non-integer quotient for N={N}, ell={ell}")
            quot[(s, j)] = c
            _add_shifted(rem, small, -c, s, j)
    if any(rem.values()):
        raise DivisibilityError(f"nonzero remainder for N={N}, ell={ell}")
    a = a_poly(N, ell)
    scale = half.denominator ** ell
    if quot != {key: v * scale for key, v in a.terms.items()}:
        raise DivisibilityError(f"quotient mismatch for N={N}, ell={ell}")
    return a, True


# ---------------------------------------------------------------------------
# Laguerre limit (Delta = 0)
# ---------------------------------------------------------------------------

def laguerre_poly(k: int, alpha) -> BivarPoly:
    """Generalized Laguerre polynomial L_k^(alpha)(x) as a polynomial in x,
    via the standard recurrence (independent of the constraint recurrence):
    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}."""
    alpha = _frac(alpha)
    p0 = BivarPoly.const(1)
    if k == 0:
        return p0
    p1 = BivarPoly.const(1 + alpha) - _X
    for j in range(1, k):
        p2 = ((BivarPoly.const(2 * j + 1 + alpha) - _X) * p1
              - BivarPoly.const(j + alpha) * p0) * Fraction(1, j + 1)
        p0, p1 = p1, p2
    return p1


def laguerre_check(k: int, eps) -> bool:
    """Exact identity P_k^(k,eps)(x,0) = (-1)^k (k!)^2 L_k^(2 eps)(x) in Q[x]."""
    eps = _frac(eps)
    lhs = constraint_poly(k, eps, k)
    lhs0 = BivarPoly({(i, 0): c for (i, j), c in lhs.terms.items() if j == 0})
    rhs = laguerre_poly(k, 2 * eps) * ((-1) ** k * math.factorial(k) ** 2)
    return lhs0 == rhs


# ---------------------------------------------------------------------------
# generating-function identities
# ---------------------------------------------------------------------------

def generating_identity_check(N: int, ell: int, k_max: int) -> bool:
    """Binomial transfer between normalized families: for every k <= k_max,
    Ptilde_k^(N+l,-l/2) = sum_i binom(l, k-i) Ptilde_i^(N,l/2), exactly.

    Checked on the integer members R_k = q^k P_k (q the denominator of l/2)
    after multiplying by q^k k! (k+1)!, which turns each weight into the
    integer binom(l, k-i) q^(k-i) k! (k+1)! / (i! (i+1)!).
    """
    half = Fraction(ell, 2)
    q = half.denominator
    left = _scaled_family(N + ell, -half, k_max)
    right = _scaled_family(N, half, k_max)
    for k in range(k_max + 1):
        norm_k = math.factorial(k) * math.factorial(k + 1)
        acc: dict = {}
        for i in range(max(0, k - ell), k + 1):
            w = math.comb(ell, k - i) * norm_k \
                // (math.factorial(i) * math.factorial(i + 1))
            _add_shifted(acc, right[i], w * q ** (k - i))
        if {key: v for key, v in acc.items() if v} != left[k]:
            return False
    return True


def ode_coefficient_check(N: int, eps, k_max: int) -> bool:
    """The normalized sequence Ptilde_k solves the second-order ODE of its
    generating function; checked as the exact vanishing, for 2 <= k <= k_max,
    of the t^(k-1) coefficient of the ODE applied to the series.

    With m = k - 1 that coefficient is
        (m+1)(m+2) Pt_{m+1} + (m(m-1) - m(x - 3 - 2 eps) - (x + y - 1 - 2 eps)) Pt_m
        + (N-m) x Pt_{m-1},
    tested after multiplying by the nonzero constant q^(m+1) m! (m+1)!
    (eps = p/q), which turns every Pt_i into the integer member
    R_i = q^i P_i, times q^(m+1-i)."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    eps = _frac(eps)
    p, q = eps.numerator, eps.denominator
    r = _scaled_family(N, eps, k_max)
    for k in range(2, k_max + 1):
        m = k - 1
        acc = dict(r[m + 1])
        _add_shifted(acc, r[m], -(m + 1) * q, 1, 0)
        _add_shifted(acc, r[m], -q, 0, 1)
        _add_shifted(acc, r[m], q * (m * (m - 1) + 3 * m + 1) + 2 * p * (m + 1))
        _add_shifted(acc, r[m - 1], q * q * m * (m + 1) * (N - m), 1, 0)
        if any(acc.values()):
            return False
    return True

