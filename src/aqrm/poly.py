"""Exact bivariate polynomial arithmetic over arbitrary-precision rationals,
and every polynomial family attached to the model: the constraint polynomials
P_k^(N,eps), their determinant form, the integer quotient A_N^l, the Q_k
variant, the Laguerre limit, and the generating-function identities."""

from __future__ import annotations

import math
from fractions import Fraction

from .roots import TridiagMatrix, UniPoly, continuant


class DivisibilityError(ArithmeticError):
    """Raised when the proven divisibility of constraint polynomials fails.

    This would falsify an exact theorem, so it must never fire on valid input.
    """


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class BivarPoly:
    """Sparse bivariate polynomial: finite map (deg_x, deg_y) -> Fraction.

    Zero coefficients are never stored. Instances are immutable in use; all
    arithmetic returns new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        t = {}
        if terms:
            for (i, j), c in terms.items():
                c = _frac(c)
                if c != 0:
                    t[(int(i), int(j))] = c
        self.terms = t

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(c) -> "BivarPoly":
        return BivarPoly({(0, 0): _frac(c)})

    @staticmethod
    def x() -> "BivarPoly":
        return BivarPoly({(1, 0): Fraction(1)})

    @staticmethod
    def y() -> "BivarPoly":
        return BivarPoly({(0, 1): Fraction(1)})

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, Fraction(0)) + c
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
                t[k] = t.get(k, Fraction(0)) + c1 * c2
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

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    @property
    def deg_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

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

    def subs_y(self, yv) -> UniPoly:
        """Substitute y = yv, returning a univariate polynomial in x."""
        yv = _frac(yv)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            out[i] = out.get(i, Fraction(0)) + c * yv ** j
        deg = max(out, default=-1)
        return UniPoly([out.get(i, Fraction(0)) for i in range(deg + 1)])

    def subs_x(self, xv) -> UniPoly:
        """Substitute x = xv, returning a univariate polynomial in y."""
        xv = _frac(xv)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            out[j] = out.get(j, Fraction(0)) + c * xv ** i
        deg = max(out, default=-1)
        return UniPoly([out.get(j, Fraction(0)) for j in range(deg + 1)])

    # -- division in (Q[y])[x] ---------------------------------------------------

    def divmod_x(self, divisor: "BivarPoly") -> tuple["BivarPoly", "BivarPoly"]:
        """Polynomial division along x when the divisor's leading x-coefficient
        is a nonzero constant (true for every constraint polynomial, whose
        leading coefficient is N!)."""
        d = divisor.deg_x
        lead_term = {j for (i, j) in divisor.terms if i == d}
        if lead_term != {0}:
            raise ValueError("divisor leading x-coefficient must be constant in y")
        lc = divisor.coefficient(d, 0)
        rem = self
        quot = BivarPoly()
        while not rem.is_zero() and rem.deg_x >= d:
            rd = rem.deg_x
            piece = BivarPoly({(rd - d, j): c / lc
                               for (i, j), c in rem.terms.items() if i == rd})
            quot = quot + piece
            rem = rem - piece * divisor
        return quot, rem

    # -- serialization -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[int, int, Fraction]]:
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
    for (i, j), v in terms.items():
        key = (i + di, j + dj)
        acc[key] = acc.get(key, 0) + w * v


def _scaled_family(N: int, eps: Fraction, k_max: int):
    """Yield (R_k, q^k) for k = 0..k_max, where R_k = q^k P_k^(N,eps) as an
    integer-coefficient term dict and eps = p/q in lowest terms:
        R_k = (q k x + q y - k(k q + 2 p)) R_{k-1} - q^2 lambda_k x R_{k-2}."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    p, q = eps.numerator, eps.denominator
    prev2: dict = {}
    prev1: dict = {(0, 0): 1}
    yield prev1, 1
    for k in range(1, k_max + 1):
        acc: dict = {}
        _add_shifted(acc, prev1, q * k, 1, 0)
        _add_shifted(acc, prev1, q, 0, 1)
        _add_shifted(acc, prev1, -k * (k * q + 2 * p))
        _add_shifted(acc, prev2, -q * q * lambda_weight(k, N), 1, 0)
        prev2, prev1 = prev1, {key: v for key, v in acc.items() if v}
        yield prev1, q ** k


def _unscaled(scaled: dict, den: int) -> BivarPoly:
    out = BivarPoly()
    out.terms = {key: Fraction(v, den) for key, v in scaled.items()}
    return out


def constraint_family(N: int, eps, k_max: int) -> list[BivarPoly]:
    """[P_0^(N,eps), ..., P_{k_max}^(N,eps)] in one pass of the three-term
    recurrence

        P_k = (k x + y - k(k + 2 eps)) P_{k-1} - k(k-1)(N-k+1) x P_{k-2},

    with P_0 = 1 and P_{-1} = 0, so P_1 = x + y - 1 - 2 eps. The step runs on
    integer-scaled members (see _scaled_family); each is divided by q^k once,
    when it is stored.
    """
    return [_unscaled(r, den) for r, den in _scaled_family(N, _frac(eps), k_max)]


def constraint_poly(N: int, eps, k: int) -> BivarPoly:
    """P_k^(N,eps)(x,y), the last member of constraint_family(N, eps, k); only
    that member is converted to Fractions."""
    *_, (last, den) = _scaled_family(N, _frac(eps), k)
    return _unscaled(last, den)


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
    for float, Fraction or BivarPoly x and y."""
    diag = tuple(x + y / (N + i) - ell + 2 * i - 1 for i in range(1, ell + 1))
    prods = tuple(i * (i - ell) for i in range(1, ell))
    return TridiagMatrix(diag, prods, (1,) * len(prods))


def a_poly(N: int, ell: int) -> BivarPoly:
    """The degree-l quotient A_N^l(x,y) = P_{N+l}^(N+l,-l/2) / P_N^(N,l/2),
    built from its own tridiagonal determinant: the factor (N+l)!/N! times the
    continuant of _a_tridiag. All coefficients are integers (checked)."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    scale = math.factorial(N + ell) // math.factorial(N)
    out = BivarPoly._coerce(continuant(_a_tridiag(N, ell, _X, _Y))) * scale
    if not out.has_integer_coefficients():
        raise DivisibilityError(f"A_{N}^{ell} has a non-integer coefficient")
    return out


def a_value(N: int, ell: int, x, y):
    """A_N^l evaluated numerically through the same continuant."""
    scale = math.factorial(N + ell) // math.factorial(N)
    return continuant(_a_tridiag(N, ell, x, y)) * scale


def verify_divisibility(N: int, ell: int) -> tuple[BivarPoly, bool]:
    """Exact division of P_{N+l}^(N+l,-l/2) by P_N^(N,l/2).

    Returns (quotient, exact). A nonzero remainder, or a quotient different
    from a_poly(N, ell), raises DivisibilityError since either would falsify
    a proven identity.
    """
    big = constraint_poly(N + ell, Fraction(-ell, 2), N + ell)
    small = constraint_poly(N, Fraction(ell, 2), N)
    quot, rem = big.divmod_x(small)
    if not rem.is_zero():
        raise DivisibilityError(f"nonzero remainder for N={N}, ell={ell}")
    if quot != a_poly(N, ell):
        raise DivisibilityError(f"quotient mismatch for N={N}, ell={ell}")
    return quot, True


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

    Checked on the unnormalized families after multiplying by k! (k+1)!, which
    turns each weight into the integer binom(l, k-i) k! (k+1)! / (i! (i+1)!).
    """
    left = constraint_family(N + ell, Fraction(-ell, 2), k_max)
    right = constraint_family(N, Fraction(ell, 2), k_max)
    for k in range(k_max + 1):
        norm_k = math.factorial(k) * math.factorial(k + 1)
        acc: dict = {}
        for i in range(max(0, k - ell), k + 1):
            w = math.comb(ell, k - i) * norm_k \
                // (math.factorial(i) * math.factorial(i + 1))
            _add_shifted(acc, right[i].terms, w)
        if {key: v for key, v in acc.items() if v} != left[k].terms:
            return False
    return True


def ode_coefficient_check(N: int, eps, k_max: int) -> bool:
    """The normalized sequence Ptilde_k solves the second-order ODE of its
    generating function; checked as the exact vanishing, for 2 <= k <= k_max,
    of the t^(k-1) coefficient of the ODE applied to the series.

    With m = k - 1 that coefficient is
        (m+1)(m+2) Pt_{m+1} + (m(m-1) - m(x - 3 - 2 eps) - (x + y - 1 - 2 eps)) Pt_m
        + (N-m) x Pt_{m-1},
    tested after multiplying by the nonzero constant m! (m+1)!, which turns
    every Pt_i into the unnormalized P_i."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    eps = _frac(eps)
    p = constraint_family(N, eps, k_max)
    for k in range(2, k_max + 1):
        m = k - 1
        acc = dict(p[m + 1].terms)
        _add_shifted(acc, p[m].terms, -m - 1, 1, 0)
        _add_shifted(acc, p[m].terms, -1, 0, 1)
        _add_shifted(acc, p[m].terms, m * (m - 1) + m * (3 + 2 * eps) + 1 + 2 * eps)
        _add_shifted(acc, p[m - 1].terms, m * (m + 1) * (N - m), 1, 0)
        if any(acc.values()):
            return False
    return True

