"""Every polynomial family attached to the model: the constraint polynomials
P_k^(N,eps), their determinant form, the integer quotient A_N^l, the Q_k
variant, the Laguerre limit, and the exact identities between them. Each
exact family is written once, as the integer rows of a three-term
recurrence, and runs through one packed-integer loop. With eps = p/q the
constraint family runs on the integer members R_k = q^k P_k. Each identity
check builds the rows of its families once, takes one digit width from
their l1 bounds, and compares packed integers without unpacking either side;
the x-slices for root counting unpack R_N once."""

from __future__ import annotations

import math
from fractions import Fraction


class DivisibilityError(ArithmeticError):
    """Raised when the proven divisibility of constraint polynomials fails.

    This would falsify an exact theorem, so it must never fire on valid input.
    """


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class BivarPoly:
    """A computed member of a polynomial family, as the finite map
    terms: (deg_x, deg_y) -> coefficient, an int or a Fraction, with zero
    coefficients never stored; equal to another BivarPoly with the same
    terms, and written out as text or JSON. It holds results and does no
    arithmetic: every family is computed on the integer rows of _packed.
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

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

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
# the packed three-term recurrence, shared by every exact family
# ---------------------------------------------------------------------------
#
# A family is a tuple of integer rows (a_k, b_k, c_k, d_k, e_k), k >= 1, of
#     M_k = (a_k x + b_k y + c_k) M_{k-1} - (d_k x + e_k) M_{k-2},
# M_0 = 1, M_{-1} = 0: the constraint members R_k = q^k P_k, the rows of
# q (I_N y + D_N x + C_N), the row-scaled A_N^l rows and the Laguerre rows.

def _row_bounds(rows) -> list[int]:
    """[B_0, ..., B_K]: B_k bounds the sum of the absolute coefficients of
    M_k, by the triangle inequality on the recurrence:
        B_k = (|a_k| + |b_k| + |c_k|) B_{k-1} + (|d_k| + |e_k|) B_{k-2}."""
    out, prev, cur = [1], 0, 1
    for a, b, c, d, e in rows:
        prev, cur = cur, (abs(a) + abs(b) + abs(c)) * cur + (abs(d) + abs(e)) * prev
        out.append(cur)
    return out


def _packed(rows, s: int, w: int) -> list[int]:
    """[m_0, ..., m_K], m_k = M_k(2^s, 2^(s w)), by Kronecker substitution
    into the recurrence, where x and y are shifts. Packing is a ring map, so
    each m_k is exact for any s and w. A polynomial combination of members
    is 0 exactly when its packed integer is, once 2^(s-1) exceeds its l1
    bound and w its x-degree: its balanced base-2^s digits, the coefficients
    of x^i y^j at digit i + w j, are then unique."""
    fam, prev, r, sw = [1], 0, 1, s * w
    for a, b, c, d, e in rows:
        prev, r = r, ((a * r - d * prev) << s) + ((b * r) << sw) + c * r - e * prev
        fam.append(r)
    return fam


def _width(bound: int) -> int:
    """The digit width s, a whole number of bytes, with 2^(s-1) > bound."""
    return (bound.bit_length() // 8 + 1) * 8


def _unpack(v: int, s: int, w: int, n: int) -> dict:
    """The nonzero coefficients {(i, j): c} of the polynomial packed as
    v = sum c_ij 2^(s (i + w j)), i < w, j < n, |c_ij| < 2^(s-1), s a multiple
    of 8. Adding the geometric sum of 2^(s-1) over all w n digits makes every
    digit nonnegative without a carry, so the bytes of the sum are the digits."""
    nb, half = s // 8, 1 << (s - 1)
    raw = (v + int.from_bytes(half.to_bytes(nb, "little") * (w * n), "little")
           ).to_bytes(nb * w * n, "little")
    return {(t % w, t // w): c for t in range(w * n)
            if (c := int.from_bytes(raw[t * nb:(t + 1) * nb], "little") - half)}


def _last(rows) -> dict:
    """The integer coefficients {(i, j): c} of M_K, K = len(rows), which has
    degree at most K in x and in y."""
    n, s = len(rows) + 1, _width(_row_bounds(rows)[-1])
    return _unpack(_packed(rows, s, n)[-1], s, n, n)


def _divided(terms: dict, den: int) -> BivarPoly:
    out = BivarPoly()
    out.terms = {key: Fraction(v, den) for key, v in terms.items()}
    return out


# ---------------------------------------------------------------------------
# constraint polynomials
# ---------------------------------------------------------------------------

def _constraint_rows(N: int, eps: Fraction, k_max: int) -> tuple:
    """The rows of R_k = q^k P_k^(N,eps), eps = p/q in lowest terms:
        R_k = (q k x + q y - k(k q + 2 p)) R_{k-1} - q^2 lambda_k x R_{k-2}."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    p, q = eps.numerator, eps.denominator
    return tuple((q * k, q, -k * (k * q + 2 * p), q * q * lambda_weight(k, N), 0)
                 for k in range(1, k_max + 1))


def constraint_poly(N: int, eps, k: int) -> BivarPoly:
    """P_k^(N,eps)(x,y) by the three-term recurrence

        P_k = (k x + y - k(k + 2 eps)) P_{k-1} - k(k-1)(N-k+1) x P_{k-2},

    with P_0 = 1 and P_{-1} = 0, so P_1 = x + y - 1 - 2 eps, run on the packed
    integer members R_k = q^k P_k; only the last is unpacked and divided."""
    eps = _frac(eps)
    return _divided(_last(_constraint_rows(N, eps, k)), eps.denominator ** k)


def constraint_slice(N: int, eps, y) -> tuple[int, ...]:
    """b^N R_N(x, a/b) for y = a/b as integer coefficients in x, ascending
    (R_N has degree N in y): a positive multiple of P_N^(N,eps)(x, y), which
    is all root counting and isolation need."""
    y = _frac(y)
    a, b = y.numerator, y.denominator
    powers = [a ** j * b ** (N - j) for j in range(N + 1)]
    out = [0] * (N + 1)
    for (i, j), v in _last(_constraint_rows(N, _frac(eps), N)).items():
        out[i] += v * powers[j]
    return tuple(out)


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


def _det_rows(N: int, eps: Fraction) -> tuple:
    """The rows of q (I_N y + D_N x + C_N), eps = p/q, whose determinant is
    q^N P_N^(N,eps): row i has diagonal q (i x + y) - i((2(N-i) + 1) q + 2 p),
    and rows i-1 and i have off-diagonal product q^2 (i-1) i c_k =
    q (i-1) i k (k q + 2 p), k = N-i+1."""
    p, q = eps.numerator, eps.denominator
    return tuple((q * i, q, -i * ((2 * (N - i) + 1) * q + 2 * p), 0,
                  q * (i - 1) * i * (N - i + 1) * ((N - i + 1) * q + 2 * p))
                 for i in range(1, N + 1))


def determinant_check(N: int, eps) -> bool:
    """Exact identity R_N = q^N det(I_N y + D_N x + C_N), eps = p/q: the top
    constraint member against the determinant of _det_rows, as two packed
    integers at one width, taken from the sum of their row bounds."""
    eps = _frac(eps)
    left, right = _constraint_rows(N, eps, N), _det_rows(N, eps)
    s = _width(_row_bounds(left)[-1] + _row_bounds(right)[-1])
    return _packed(left, s, N + 1)[-1] == _packed(right, s, N + 1)[-1]


def q_poly(N: int, eps, k: int) -> BivarPoly:
    """Q_k^(N,eps)(x,y): the determinant of the leading k x k block of
    I_N y + D_N x + C_N (the first k of _det_rows, divided by q^k);
    Q_N = P_N^(N,eps).

    Q_0 = 1, Q_1 = x + y - (2N - 1 + 2 eps),
    Q_k = (k x + y - k(2(N+1-k) - 1 + 2 eps)) Q_{k-1}
          - k(k-1)(N+1-k)(N+1-k+2 eps) Q_{k-2}.
    """
    if not 0 <= k <= N:
        raise ValueError("need 0 <= k <= N")
    eps = _frac(eps)
    return _divided(_last(_det_rows(N, eps)[:k]), eps.denominator ** k)


def constraint_poly_det(N: int, eps) -> BivarPoly:
    """P_N^(N,eps)(x,y) from its tridiagonal determinant form,
    q_poly(N, eps, N); must agree with constraint_poly(N, eps, N)
    identically."""
    return q_poly(N, eps, N)


# ---------------------------------------------------------------------------
# the quotient A_N^l and divisibility
# ---------------------------------------------------------------------------

def _a_rows(N: int, ell: int) -> tuple:
    """The rows of A_N^l's own tridiagonal determinant with row i times N + i,
    which scales it by (N+l)!/N! and leaves integer entries: diagonal
    (N+i)(x - l + 2i - 1) + y, off-diagonal product of rows i-1 and i
    (i-1)(i-1-l)(N+i-1)(N+i)."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return tuple((N + i, 1, -(N + i) * (ell - 2 * i + 1), 0,
                  (i - 1) * (i - 1 - ell) * (N + i - 1) * (N + i))
                 for i in range(1, ell + 1))


def a_poly(N: int, ell: int) -> BivarPoly:
    """The degree-l quotient A_N^l(x,y) = P_{N+l}^(N+l,-l/2) / P_N^(N,l/2),
    the last member of _a_rows."""
    return BivarPoly(_last(_a_rows(N, ell)))


def a_value(N: int, ell: int, x, y):
    """A_N^l in floats: the leading minors of the unscaled determinant,
    diagonal x + y/(N+i) - l + 2i - 1 and off-diagonal products
    (i-1)(i-1-l), times (N+l)!/N!."""
    m, prev = 1, 0
    for i in range(1, ell + 1):
        m, prev = (x + y / (N + i) - ell + 2 * i - 1) * m - (i - 1) * (i - 1 - ell) * prev, m
    return m * (math.factorial(N + ell) // math.factorial(N))


def verify_divisibility(N: int, ell: int) -> tuple[BivarPoly, bool]:
    """Exact division of P_{N+l}^(N+l,-l/2) by P_N^(N,l/2), checked as the
    product identity R_{N+l} = q^l A_N^l R_N of the integer members (q the
    denominator of l/2), each family's rows (_a_rows for A_N^l) built once
    and packed at one width s, taken from their row bounds. The divisor's
    leading x-coefficient is the constant N! q^N, so division by it is
    unique: the identity holds exactly when the remainder is 0 and the
    quotient is q^l A_N^l.

    Returns (quotient, exact). A failed identity raises DivisibilityError
    since it would falsify a proven theorem.
    """
    a = _a_rows(N, ell)
    half = Fraction(ell, 2)
    scale = half.denominator ** ell
    big, small = _constraint_rows(N + ell, -half, N + ell), _constraint_rows(N, half, N)
    s, w = _width(_row_bounds(big)[-1] + scale * _row_bounds(a)[-1]
                  * _row_bounds(small)[-1]), N + ell + 1
    if _packed(big, s, w)[-1] != scale * _packed(a, s, w)[-1] * _packed(small, s, w)[-1]:
        raise DivisibilityError(f"P_N does not divide P_(N+l) as q^l A_N^l "
                                f"for N={N}, ell={ell}")
    return BivarPoly(_last(a)), True


# ---------------------------------------------------------------------------
# Laguerre limit (Delta = 0)
# ---------------------------------------------------------------------------

def _laguerre_rows(k: int, alpha: Fraction) -> tuple:
    """The rows of M_j = b^j j! L_j^(alpha)(x), alpha = a/b, j <= k: the
    standard Laguerre recurrence (independent of the constraint recurrence)
    (j+1) L_{j+1} = (2j+1+alpha-x) L_j - (j+alpha) L_{j-1} on integer
    polynomials,
        M_{j+1} = ((2j+1) b + a - b x) M_j - b j (j b + a) M_{j-1}."""
    a, b = alpha.numerator, alpha.denominator
    return tuple((-b, 0, (2 * j + 1) * b + a, 0, b * j * (j * b + a)) for j in range(k))


def laguerre_check(k: int, eps) -> bool:
    """Exact identity P_k^(k,eps)(x,0) = (-1)^k (k!)^2 L_k^(2 eps)(x) in Q[x],
    eps = p/q, 2 eps = a/b: b^k k! R_k(x, 0), from the constraint rows with
    their y entry dropped, against (-1)^k (k!)^2 q^k M_k, from _laguerre_rows,
    as two packed integers at one width."""
    eps = _frac(eps)
    alpha, fk = 2 * eps, math.factorial(k)
    left = tuple((a, 0, c, d, e) for a, _, c, d, e in _constraint_rows(k, eps, k))
    right = _laguerre_rows(k, alpha)
    ls, rs = alpha.denominator ** k * fk, (-1) ** k * fk * fk * eps.denominator ** k
    s = _width(ls * _row_bounds(left)[-1] + abs(rs) * _row_bounds(right)[-1])
    return ls * _packed(left, s, k + 1)[-1] == rs * _packed(right, s, k + 1)[-1]


# ---------------------------------------------------------------------------
# generating-function identities
# ---------------------------------------------------------------------------

def generating_identity_check(N: int, ell: int, k_max: int) -> bool:
    """Binomial transfer between normalized families: for every k <= k_max,
    Ptilde_k^(N+l,-l/2) = sum_i binom(l, k-i) Ptilde_i^(N,l/2), exactly.

    Checked on the packed integer members R_k = q^k P_k (q the denominator
    of l/2) after multiplying by q^k k! (k+1)!, which turns each weight into
    the integer binom(l, k-i) q^(k-i) k! (k+1)! / (i! (i+1)!). The l1 bound
    of the difference grows with k (the row bounds do, and going from k to
    k+1 multiplies the weight of each shifted term by
    (k+1)(k+2) / ((i+1)(i+2)) >= 1), so its value at k_max sets the width.
    """
    half = Fraction(ell, 2)
    q = half.denominator
    f = [1]                                     # f_i = i! (i+1)!
    for i in range(1, k_max + 1):
        f.append(f[-1] * i * (i + 1))
    weights = [[(i, math.comb(ell, k - i) * f[k] // f[i] * q ** (k - i))
                for i in range(max(0, k - ell), k + 1)] for k in range(k_max + 1)]
    lrows, rrows = _constraint_rows(N + ell, -half, k_max), _constraint_rows(N, half, k_max)
    lb, rb = _row_bounds(lrows), _row_bounds(rrows)
    s = _width(lb[-1] + sum(v * rb[i] for i, v in weights[-1]))
    left, right = _packed(lrows, s, k_max + 1), _packed(rrows, s, k_max + 1)
    return all(left[k] == sum(v * right[i] for i, v in ws) for k, ws in enumerate(weights))


def ode_coefficient_check(N: int, eps, k_max: int) -> bool:
    """The normalized sequence Ptilde_k solves the second-order ODE of its
    generating function; checked as the exact vanishing, for 2 <= k <= k_max,
    of the t^(k-1) coefficient of the ODE applied to the series.

    With m = k - 1 that coefficient is
        (m+1)(m+2) Pt_{m+1} + (m(m-1) - m(x - 3 - 2 eps) - (x + y - 1 - 2 eps)) Pt_m
        + (N-m) x Pt_{m-1},
    tested after multiplying by the nonzero constant q^(m+1) m! (m+1)!
    (eps = p/q), which turns every Pt_i into the integer member
    R_i = q^i P_i, times q^(m+1-i), on the packed members."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    eps = _frac(eps)
    p, q = eps.numerator, eps.denominator
    # R_{m+1} - (a x + q y - c) R_m + d x R_{m-1}
    steps = [(m, (m + 1) * q, q * (m * (m - 1) + 3 * m + 1) + 2 * p * (m + 1),
              q * q * m * (m + 1) * (N - m)) for m in range(1, k_max)]
    rows = _constraint_rows(N, eps, k_max)
    bd = _row_bounds(rows)
    s = _width(max(bd[m + 1] + (a + q + abs(c)) * bd[m] + abs(d) * bd[m - 1]
                   for m, a, c, d in steps))
    r = _packed(rows, s, k_max + 1)
    return all(r[m + 1] + c * r[m] == ((a * r[m] - d * r[m - 1]) << s)
               + ((q * r[m]) << s * (k_max + 1)) for m, a, c, d in steps)
