"""Exact polynomial families: recurrences, determinant forms, divisibility,
Laguerre limit, generating-function identities."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqrm.poly import (
    BivarPoly,
    a_poly,
    a_value,
    DivisibilityError,
    _constraint_rows,
    _laguerre_rows,
    _last,
    _packed,
    _row_bounds,
    _unpack,
    _width,
    c_weight,
    constraint_poly,
    constraint_poly_det,
    constraint_slice,
    constraint_value,
    determinant_check,
    generating_identity_check,
    laguerre_check,
    lambda_weight,
    ode_coefficient_check,
    q_poly,
    verify_divisibility,
)
from aqrm.roots import (
    count_real_roots,
    isolate_real_roots,
    refine_root,
    squarefree_part,
)

ONE = BivarPoly({(0, 0): 1})

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def times_linear(terms, a, b, c) -> dict:
    """(a x + b y + c) times the polynomial with these terms, as terms: the
    one product the reference recurrences below take."""
    out = {}
    for (i, j), v in terms.items():
        for key, f in (((i + 1, j), a), ((i, j + 1), b), ((i, j), c)):
            out[key] = out.get(key, 0) + f * v
    return out


def recur(p1, p0, a, b, c, d, e) -> dict:
    """(a x + b y + c) p1 - (d x + e) p0 on term dicts, zero terms dropped."""
    out = times_linear(p1, a, b, c)
    for key, v in times_linear(p0, -d, 0, -e).items():
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def evaluate(terms, x, y):
    return sum(c * x ** i * y ** j for (i, j), c in terms.items())


def trim(cs: list) -> list:
    """Coefficients without their trailing zeros."""
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    return cs


def from_roots(roots, lead=1) -> list:
    """The coefficients of lead prod (t - r) over the roots, ascending, by
    coefficient convolution."""
    cs = [lead]
    for r in roots:
        cs = [a - r * b for a, b in zip([0] + cs, cs + [0])]
    return cs


def y_poly(p, xv) -> list:
    """The coefficients of p(xv, y) in y, ascending, trailing zeros dropped."""
    out = [0] * (max(j for _, j in p.terms) + 1)
    for (i, j), c in p.terms.items():
        out[j] += c * Fraction(xv) ** i
    return trim(out)


class TestConstraintPoly:
    def test_base_cases(self):
        assert constraint_poly(5, Fraction(1, 3), 0) == ONE
        eps = Fraction(1, 3)
        assert constraint_poly(5, eps, 1) == BivarPoly({(1, 0): 1, (0, 1): 1,
                                                        (0, 0): -1 - 2 * eps})

    def test_paper_example_degree_two(self):
        # P_2 for N=6, eps=0: 2x^2 + 3xy + y^2 - 16x - 5y + 4
        expect = BivarPoly({(2, 0): 2, (1, 1): 3, (0, 2): 1,
                            (1, 0): -16, (0, 1): -5, (0, 0): 4})
        assert constraint_poly(6, 0, 2) == expect

    def test_general_degree_two(self):
        # 2x^2 + 3xy + y^2 - 2(N + 2(1+2e))x - (5+6e)y + 4(1+3e+2e^2)
        for N in (2, 5):
            for eps in (Fraction(0), Fraction(1, 2), Fraction(-1, 4)):
                expect = BivarPoly({
                    (2, 0): 2, (1, 1): 3, (0, 2): 1,
                    (1, 0): -2 * (N + 2 * (1 + 2 * eps)),
                    (0, 1): -(5 + 6 * eps),
                    (0, 0): 4 * (1 + 3 * eps + 2 * eps * eps)})
                assert constraint_poly(N, eps, 2) == expect

    def test_at_x_zero_factorization(self):
        # P_N(0, y) = prod_{i=1..N} (y - i(i+2eps))
        for N, eps in ((4, Fraction(0)), (5, Fraction(1, 2)), (3, Fraction(-1, 4))):
            p = constraint_poly(N, eps, N)
            prod = {(0, 0): 1}
            for i in range(1, N + 1):
                prod = times_linear(prod, 0, 1, -c_weight(i, eps))
            sliced = BivarPoly({(0, j): c for (i, j), c in p.terms.items() if i == 0})
            assert sliced == BivarPoly(prod)

    def test_total_degree_and_leading_coefficient(self):
        for N, eps, k in ((6, Fraction(1, 4), 4), (3, Fraction(0), 3)):
            p = constraint_poly(N, eps, k)
            assert max(i + j for i, j in p.terms) == k
            assert p.terms[(k, 0)] == math.factorial(k)

    def test_integer_coefficients_at_half_integer_bias(self):
        for twice_eps in (-3, -1, 0, 1, 2, 5):
            for N, k in ((4, 4), (6, 3), (3, 2)):
                p = constraint_poly(N, Fraction(twice_eps, 2), k)
                assert all(c.denominator == 1 for c in p.terms.values()), (twice_eps, N, k)

    @given(eps=small_fracs, N=st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_float_evaluator_matches_exact(self, eps, N):
        p = constraint_poly(N, eps, N)
        x, y = Fraction(7, 5), Fraction(9, 4)
        exact = evaluate(p.terms, x, y)
        approx = constraint_value(N, float(eps), N, float(x), float(y))
        assert approx == pytest.approx(float(exact), rel=1e-10, abs=1e-9)


@lru_cache(maxsize=None)
def generic_recurrence_family(N, eps, k_max):
    """The three-term recurrence on rational term dicts, one step per member:
    the independent oracle for the packed integer members."""
    eps = Fraction(eps)
    fam, prev = [{(0, 0): 1}], {}
    for k in range(1, k_max + 1):
        fam.append(recur(fam[-1], prev, k, 1, -k * (k + 2 * eps),
                         k * (k - 1) * (N - k + 1), 0))
        prev = fam[-2]
    return [BivarPoly(t) for t in fam]


FAMILY_BIASES = (Fraction(0), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2),
                 Fraction(-1, 2), Fraction(1), Fraction(3, 2))


def scaled_family(N, eps, k_max):
    """P_0, ..., P_{k_max} unpacked from the packed integer members of
    R_k = q^k P_k."""
    eps = Fraction(eps)
    rows = _constraint_rows(N, eps, k_max)
    s, w = _width(max(_row_bounds(rows))), k_max + 1
    return [BivarPoly({key: Fraction(v, eps.denominator ** k)
                       for key, v in _unpack(r, s, w, w).items()})
            for k, r in enumerate(_packed(rows, s, w))]


class ConstraintRows(tuple):
    """Constraint rows that remember the (N, eps) they were built for."""


def corrupt_member(monkeypatch, target_N, k, delta):
    """Make _packed add delta(eps, s, w) to the packed member r_k of every
    constraint family with N = target_N (None: every one) that reaches k.
    Every identity check builds its rows once and packs them, so _packed is
    the seam they all read."""
    import aqrm.poly as poly_mod

    real_rows, real_packed = poly_mod._constraint_rows, poly_mod._packed

    def tagged(N, eps, k_max):
        rows = ConstraintRows(real_rows(N, eps, k_max))
        rows.family = (N, eps)
        return rows

    def corrupted(rows, s, w):
        fam = real_packed(rows, s, w)
        N, eps = getattr(rows, "family", (None, None))
        if N is not None and target_N in (None, N) and len(rows) >= k:
            fam[k] += delta(eps, s, w)
        return fam

    monkeypatch.setattr(poly_mod, "_constraint_rows", tagged)
    monkeypatch.setattr(poly_mod, "_packed", corrupted)


class TestConstraintFamily:
    @pytest.mark.parametrize("eps", FAMILY_BIASES)
    def test_matches_generic_recurrence(self, eps):
        for N in range(11):
            oracle = generic_recurrence_family(N, eps, 12)
            assert scaled_family(N, eps, 12) == oracle, (N, eps)
            for k in range(13):
                assert constraint_poly(N, eps, k) == oracle[k], (N, eps, k)

    def test_constraint_poly_is_family_member(self):
        for N in (0, 3, 7):
            for eps in FAMILY_BIASES:
                fam = scaled_family(N, eps, 9)
                for k in range(10):
                    assert constraint_poly(N, eps, k) == fam[k]

    def test_rejects_negative_k_max(self):
        with pytest.raises(ValueError):
            constraint_poly(3, 0, -1)

    def test_corrupted_family_fails_identity_checks(self, monkeypatch, capsys):
        from aqrm.cli import main

        # P_3 + 1, i.e. R_3 + q^3
        corrupt_member(monkeypatch, None, 3, lambda eps, s, w: eps.denominator ** 3)
        assert not generating_identity_check(2, 2, 8)
        assert not ode_coefficient_check(2, Fraction(1, 2), 8)
        assert main(["verify", "generating"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @given(eps=small_fracs, N=st.integers(0, 7), y=small_fracs)
    @settings(max_examples=30, deadline=None)
    def test_slice_is_scaled_member_at_y(self, eps, N, y):
        # constraint_slice(N, eps, y) = b^N q^N P_N^(N,eps)(x, y), y = a/b
        s = constraint_slice(N, eps, y)
        assert type(s) is tuple and all(type(c) is int for c in s)
        scale = (y.denominator * eps.denominator) ** N
        p = constraint_poly(N, eps, N)
        for xv in (Fraction(0), Fraction(-2, 3), Fraction(7, 5)):
            assert sum(c * xv ** i for i, c in enumerate(s)) \
                == scale * evaluate(p.terms, xv, y)

    def test_corrupted_member_fails_root_counts(self, monkeypatch, capsys):
        from aqrm.cli import main

        # P_3 + 1, i.e. R_3 + q^3, in the top member of the N = 3 family
        corrupt_member(monkeypatch, 3, 3, lambda eps, s, w: eps.denominator ** 3)
        assert main(["verify", "rootcounts"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestPackedMembers:
    @pytest.mark.parametrize("eps", FAMILY_BIASES)
    def test_bound_covers_every_member(self, eps):
        # B_k >= sum |c| over the coefficients of R_k = q^k P_k, so every
        # coefficient is at most B_k in absolute value
        for N in range(13):
            bounds = _row_bounds(_constraint_rows(N, eps, 12))
            for k, p in enumerate(generic_recurrence_family(N, eps, 12)):
                l1 = sum(abs(c) for c in p.terms.values()) * eps.denominator ** k
                assert l1 <= bounds[k], (N, eps, k)

    @given(st.integers(8, 40), st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_unpack_inverts_packing(self, s, w, n, data):
        s -= s % 8
        half = 1 << (s - 1)
        coeffs = data.draw(st.dictionaries(
            st.tuples(st.integers(0, w - 1), st.integers(0, n - 1)),
            st.integers(-half, half - 1).filter(bool)))
        packed = sum(c << s * (i + w * j) for (i, j), c in coeffs.items())
        assert _unpack(packed, s, w, n) == coeffs

    @given(st.lists(st.tuples(*[st.integers(-4, 4)] * 3,
                              *[st.integers(-4, 4).filter(bool)] * 2), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_packed_rows_match_bivariate_recurrence(self, rows):
        # M_k = (a x + b y + c) M_{k-1} - (d x + e) M_{k-2} on term dicts
        # against the packed loop, member by member
        ref, prev = [{(0, 0): 1}], {}
        for row in rows:
            ref.append(recur(ref[-1], prev, *row))
            prev = ref[-2]
        bounds = _row_bounds(rows)
        for p, bound in zip(ref, bounds):
            assert sum(map(abs, p.values())) <= bound
        s, w = _width(max(bounds)), len(rows) + 1
        assert [_unpack(v, s, w, w) for v in _packed(rows, s, w)] == ref
        assert _last(rows) == ref[-1]

    CHECKS = {
        "generating": (2, lambda: generating_identity_check(2, 2, 8)),
        "ode": (2, lambda: ode_coefficient_check(2, Fraction(1, 2), 8)),
        "divisibility": (3, lambda: verify_divisibility(1, 2)[1]),
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_single_slot_corruption_fails(self, check, monkeypatch):
        # +-1 at any one (i, j) slot of member 3 of one family: each check fails
        target_N, run = self.CHECKS[check]
        assert run()
        for i in range(4):
            for j in range(4):
                for sign in (1, -1):
                    with monkeypatch.context() as m:
                        corrupt_member(m, target_N, 3,
                                       lambda eps, s, w: sign << s * (i + w * j))
                        try:
                            held = run()
                        except DivisibilityError:
                            held = False
                        assert not held, (check, i, j, sign)


def l1(terms) -> int:
    return sum(abs(v) for v in terms.values())


def x_degree(terms) -> int:
    return max((i for i, _ in terms), default=0)


def member(N, eps, k) -> dict:
    """R_k = q^k P_k^(N,eps) as integer term dicts, from the reference
    recurrence on rationals."""
    eps = Fraction(eps)
    return {key: int(v * eps.denominator ** k)
            for key, v in generic_recurrence_family(N, eps, k)[k].terms.items()}


def added(p, r, f=1) -> dict:
    """p + f r on term dicts."""
    out = dict(p)
    for key, v in r.items():
        out[key] = out.get(key, 0) + f * v
    return out


class TestPackingWidths:
    """Each identity check compares two packed integers at one (s, w). That
    decides the polynomial identity only if 2^(s-1) exceeds the l1 norm of
    the difference of the two sides, here bounded by the sum of their l1
    norms, and w exceeds their x-degree. The sides are computed from the
    reference recurrences on term dicts, and (s, w) is recorded from the
    check's own calls to _packed: the pair most of them use, since
    verify_divisibility packs its quotient once more to unpack it."""

    @staticmethod
    def width(monkeypatch, run):
        import aqrm.poly as poly_mod

        real, seen = poly_mod._packed, []

        def recorded(rows, s, w):
            seen.append((s, w))
            return real(rows, s, w)

        with monkeypatch.context() as m:
            m.setattr(poly_mod, "_packed", recorded)
            assert run()
        return max(seen, key=seen.count)

    @staticmethod
    def assert_covers(s, w, sides):
        for left, right in sides:
            assert 2 ** (s - 1) > l1(left) + l1(right)
            assert w > max(x_degree(left), x_degree(right))

    @pytest.mark.parametrize("N,eps", [(3, Fraction(3, 10)), (4, Fraction(-1, 4)),
                                       (8, Fraction(-7, 3)), (10, Fraction(1))])
    def test_determinant(self, N, eps, monkeypatch):
        # R_N against q^N det(I_N y + D_N x + C_N), both R_N
        s, w = self.width(monkeypatch, lambda: determinant_check(N, eps))
        r = member(N, eps, N)
        self.assert_covers(s, w, [(r, r)])

    @pytest.mark.parametrize("k,eps", [(3, Fraction(1, 2)), (3, Fraction(-1, 4)),
                                       (8, Fraction(3, 4)), (8, Fraction(-1, 4))])
    def test_laguerre(self, k, eps, monkeypatch):
        # b^k k! R_k(x, 0) against (-1)^k (k!)^2 q^k b^k k! L_k^(2 eps)
        s, w = self.width(monkeypatch, lambda: laguerre_check(k, eps))
        alpha, fk = 2 * eps, math.factorial(k)
        left = {key: alpha.denominator ** k * fk * v
                for key, v in member(k, eps, k).items() if key[1] == 0}
        right = {key: int((-1) ** k * fk ** 3 * (eps.denominator * alpha.denominator) ** k * v)
                 for key, v in TestLaguerre.reference_laguerre(k, alpha).terms.items()}
        self.assert_covers(s, w, [(left, right)])

    @pytest.mark.parametrize("N,ell,k_max", [(2, 2, 8), (4, 3, 12), (1, 4, 10), (3, 0, 6)])
    def test_generating(self, N, ell, k_max, monkeypatch):
        # for each k: R_k^(N+l,-l/2) against the sum over i of
        # binom(l, k-i) q^(k-i) k! (k+1)! / (i! (i+1)!) R_i^(N,l/2)
        s, w = self.width(monkeypatch, lambda: generating_identity_check(N, ell, k_max))
        half = Fraction(ell, 2)
        q, f = half.denominator, [math.factorial(i) * math.factorial(i + 1)
                                  for i in range(k_max + 1)]
        sides = []
        for k in range(k_max + 1):
            right = {}
            for i in range(max(0, k - ell), k + 1):
                right = added(right, member(N, half, i),
                              math.comb(ell, k - i) * q ** (k - i) * f[k] // f[i])
            sides.append((member(N + ell, -half, k), right))
        self.assert_covers(s, w, sides)

    @pytest.mark.parametrize("N,eps,k_max", [(2, Fraction(1, 2), 8), (4, Fraction(-1, 2), 12),
                                             (3, Fraction(2, 3), 12)])
    def test_ode(self, N, eps, k_max, monkeypatch):
        # at m: R_(m+1) + q c_(m+1) R_m against (q (m+1) x + q y) R_m
        # - q^2 lambda_(m+1) x R_(m-1), both R_(m+1) + q c_(m+1) R_m
        s, w = self.width(monkeypatch, lambda: ode_coefficient_check(N, eps, k_max))
        q = eps.denominator
        sides = []
        for m in range(1, k_max):
            side = added(member(N, eps, m + 1), member(N, eps, m), int(q * c_weight(m + 1, eps)))
            sides.append((side, side))
        self.assert_covers(s, w, sides)

    @pytest.mark.parametrize("N,ell", [(1, 2), (5, 3), (4, 4), (10, 4)])
    def test_divisibility(self, N, ell, monkeypatch):
        # R_(N+l)^(N+l,-l/2) against q^l A_N^l R_N^(N,l/2), both R_(N+l)
        s, w = self.width(monkeypatch, lambda: verify_divisibility(N, ell)[1])
        r = member(N + ell, Fraction(-ell, 2), N + ell)
        self.assert_covers(s, w, [(r, r)])


class TestDeterminantForm:
    def test_one_by_one(self):
        eps = Fraction(2, 7)
        assert constraint_poly_det(1, eps) == BivarPoly({(1, 0): 1, (0, 1): 1,
                                                         (0, 0): -1 - 2 * eps})

    def test_n_zero(self):
        assert constraint_poly_det(0, Fraction(1, 2)) == ONE

    def test_matches_recurrence_exactly(self):
        # exhaustive agreement over the stated parameter block
        eps_set = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1),
                   Fraction(-1), Fraction(1, 4), Fraction(-1, 4)]
        for N in range(1, 13):
            for eps in eps_set:
                assert constraint_poly_det(N, eps) == constraint_poly(N, eps, N), \
                    f"determinant form mismatch at N={N}, eps={eps}"

    @pytest.mark.parametrize("eps", FAMILY_BIASES + (Fraction(3, 10), Fraction(-1, 4),
                                                      Fraction(-7, 3)))
    def test_packed_check_holds(self, eps):
        for N in range(13):
            assert determinant_check(N, eps), (N, eps)

    def test_packed_check_fails_on_a_corrupted_member(self, monkeypatch):
        # +-1 at any one (i, j) slot, i <= N, j <= 4, of R_3 or R_4: the
        # packed image of R_N +- x^i y^j, since packing is a ring map (at
        # w = N + 1 a slot i > N would be the slot (i - w, j + 1))
        for N, eps in ((3, Fraction(3, 10)), (4, Fraction(-1, 4))):
            for i in range(N + 1):
                for j in range(5):
                    for sign in (1, -1):
                        with monkeypatch.context() as m:
                            corrupt_member(m, N, N, lambda eps, s, w: sign << s * (i + w * j))
                            assert not determinant_check(N, eps), (N, eps, i, j, sign)

    def test_corrupted_row_table_fails_root_counts(self, monkeypatch, capsys):
        # +-1 on c_i (1 <= i <= 4) or on e_i (2 <= i <= 4; e_1 multiplies 0)
        # of the one table the count and the check read: the check against
        # the constraint recurrence must refuse it
        import aqrm.poly as poly_mod
        import aqrm.spectrum as spectrum_mod
        from aqrm.cli import main

        real_rows = poly_mod._det_rows
        slots = [(i, 2) for i in range(1, 5)] + [(i, 4) for i in range(2, 5)]
        for i, col in slots:
            for sign in (1, -1):
                def corrupted(N, eps, i=i, col=col, sign=sign):
                    rows = [list(r) for r in real_rows(N, eps)]
                    if N >= i:
                        rows[i - 1][col] += sign
                    return tuple(map(tuple, rows))

                with monkeypatch.context() as m:
                    m.setattr(poly_mod, "_det_rows", corrupted)
                    m.setattr(spectrum_mod, "_det_rows", corrupted)
                    assert main(["verify", "rootcounts"]) == 1, (i, col, sign)
                assert "FAIL" in capsys.readouterr().out


class TestEigenMatrixIdentity:
    @staticmethod
    def _matrices(N, eps):
        # A, U (N x N), E eigenvector matrix, D diag, C companion; 0-indexed
        A = [[Fraction(0)] * N for _ in range(N)]
        U = [[Fraction(0)] * N for _ in range(N)]
        C = [[Fraction(0)] * N for _ in range(N)]
        E = [[Fraction(0)] * N for _ in range(N)]
        D = [[Fraction(0)] * N for _ in range(N)]
        for r in range(1, N + 1):
            A[r - 1][r - 1] = Fraction(r)
            D[r - 1][r - 1] = Fraction(r)
            U[r - 1][r - 1] = -c_weight(r, eps)
            C[r - 1][r - 1] = Fraction(-r * (2 * (N - r) + 1 + 2 * eps))
            if r < N:
                U[r - 1][r] = Fraction(1)
                C[r - 1][r] = Fraction(1)
                A[r][r - 1] = Fraction((r + 1) * r * (N - r))   # lambda_{r+1}
                C[r][r - 1] = r * (r + 1) * c_weight(N - r, eps)
            for c in range(1, r + 1):
                E[r - 1][c - 1] = (Fraction((-1) ** (r - c)) * math.comb(r, c)
                                   * math.factorial(r - 1) * math.factorial(N - c)
                                   // (math.factorial(c - 1) * math.factorial(N - r)))
        return A, U, C, D, E

    @staticmethod
    def _matmul(P, Q):
        n = len(P)
        return [[sum(P[i][k] * Q[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2), Fraction(-1, 4)])
    @pytest.mark.parametrize("N", [2, 5, 8, 10])
    def test_conjugation_identities(self, N, eps):
        A, U, C, D, E = self._matrices(N, eps)
        assert self._matmul(A, E) == self._matmul(E, D)
        assert self._matmul(U, E) == self._matmul(E, C)


class TestAPoly:
    def test_ell_zero_and_one(self):
        assert a_poly(4, 0) == ONE
        for N in (0, 3, 7):
            assert a_poly(N, 1) == BivarPoly({(1, 0): N + 1, (0, 1): 1})

    def test_ell_two_closed_form(self):
        for N in (0, 2, 5):
            expect = {(2, 0): (N + 1) * (N + 2), (1, 1): 2 * N + 3, (0, 2): 1, (0, 1): 1}
            assert a_poly(N, 2) == BivarPoly(expect)

    def test_y_zero_leading_slice(self):
        for N, ell in ((2, 3), (4, 2), (1, 4)):
            p = a_poly(N, ell)
            at_y0 = BivarPoly({(i, 0): c for (i, j), c in p.terms.items() if j == 0})
            scale = math.factorial(N + ell) // math.factorial(N)
            assert at_y0 == BivarPoly({(ell, 0): scale})

    def test_n_zero_reduces_to_constraint_poly(self):
        for ell in (1, 2, 3, 4):
            assert a_poly(0, ell) == constraint_poly(ell, Fraction(-ell, 2), ell)

    def test_integer_coefficients(self):
        for N, ell in ((3, 4), (5, 3), (2, 5)):
            assert all(type(c) is int for c in a_poly(N, ell).terms.values())

    def test_numeric_evaluator(self):
        p = a_poly(3, 3)
        assert a_value(3, 3, 1.25, 0.75) == pytest.approx(
            float(evaluate(p.terms, Fraction(5, 4), Fraction(3, 4))), rel=1e-12)

    def test_positivity_on_grid(self):
        # strict positivity on (0, 4N(N+l)]^2, >= 10^4 grid points
        N, ell = 3, 3
        p = a_poly(N, ell)
        hi = 4 * N * (N + ell)
        pts = 100
        vals = []
        for a in range(1, pts + 1):
            xv = hi * a / pts
            for b in range(1, pts + 1):
                vals.append(evaluate(p.terms, xv, hi * b / pts))
        assert min(vals) > 0

    def test_char_matrix_spectrum_at_zero(self):
        # the quotient's companion matrix at x = 0 has eigenvalues {i(l-i)},
        # so A_2^4(0, y) = c y (y+3)^2 (y+4), and A(0, 0) = det(M) = 0
        slice_y = y_poly(a_poly(2, 4), 0)
        assert slice_y == from_roots((0, -3, -3, -4), slice_y[-1])
        assert slice_y[0] == 0

    def test_small_constraint_positivity(self):
        # P_k^(k,-l/2) > 0 on the positive quadrant for 1 <= k <= l
        ell = 4
        for k in range(1, ell + 1):
            p = constraint_poly(k, Fraction(-ell, 2), k)
            for a in range(1, 26):
                for b in range(1, 26):
                    assert evaluate(p.terms, Fraction(a, 2), Fraction(b, 2)) > 0

    def test_companion_eigenvalues_positive_for_positive_x(self):
        # every eigenvalue of the quotient's companion matrix is positive for
        # x > 0 (these are the negated y-roots of the quotient's x-slice)
        N, ell = 2, 4
        p = a_poly(N, ell)
        for xv in (Fraction(1, 4), Fraction(2), Fraction(7)):
            yslice = y_poly(p, xv)
            # ell distinct roots in (-inf, 0], none at 0: all simple and negative
            assert count_real_roots(yslice, hi=Fraction(0)) == ell
            assert yslice[0] != 0


class TestDivisibility:
    def test_trivial_ell_zero(self):
        quot, exact = verify_divisibility(1, 0)
        assert exact and quot == ONE

    def test_base_n_zero(self):
        quot, exact = verify_divisibility(0, 2)
        assert exact and quot == constraint_poly(2, Fraction(-1), 2)

    def test_exactness_small_block(self):
        for total in range(1, 10):
            for ell in range(total + 1):
                quot, exact = verify_divisibility(total - ell, ell)
                assert exact

    def test_example_five_three(self):
        quot, exact = verify_divisibility(5, 3)
        assert exact and quot == a_poly(5, 3)

    def test_corrupted_divisor_raises(self, monkeypatch):
        # P_N + 1 no longer divides P_{N+l}: the product identity of the
        # members must refuse, not return a quotient
        corrupt_member(monkeypatch, 2, 2, lambda eps, s, w: eps.denominator ** 2)  # P_2 + 1
        with pytest.raises(DivisibilityError):
            verify_divisibility(2, 1)


class TestQPoly:
    def test_base_cases(self):
        assert q_poly(5, Fraction(1, 3), 0) == ONE
        N, eps = 4, Fraction(1, 2)
        assert q_poly(N, eps, 1) == BivarPoly({(1, 0): 1, (0, 1): 1,
                                               (0, 0): 1 - 2 * N - 2 * eps})

    def test_full_index_equals_constraint(self):
        for N, eps in ((4, Fraction(1, 2)), (3, Fraction(0)), (5, Fraction(-1, 4))):
            assert q_poly(N, eps, N) == constraint_poly(N, eps, N)

    def test_index_bound(self):
        with pytest.raises(ValueError):
            q_poly(3, Fraction(0), 4)


def laguerre_from_rows(k, alpha):
    """L_k^(alpha) from the last member M_k = b^k k! L_k of _laguerre_rows,
    alpha = a/b."""
    alpha = Fraction(alpha)
    den = alpha.denominator ** k * math.factorial(k)
    return BivarPoly({key: Fraction(v, den)
                      for key, v in _last(_laguerre_rows(k, alpha)).items()})


class TestLaguerre:
    def test_first_two(self):
        assert laguerre_check(0, Fraction(1, 5))
        eps = Fraction(2, 3)
        # L_1^(2e) = 1 + 2e - x, and P_1(x, 0) = x - 1 - 2e
        assert laguerre_from_rows(1, 2 * eps) == BivarPoly({(0, 0): 1 + 2 * eps, (1, 0): -1})
        assert laguerre_check(1, eps)

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(3, 4), Fraction(-1, 4), Fraction(2)])
    def test_up_to_seven(self, eps):
        for k in range(8):
            assert laguerre_check(k, eps)

    @staticmethod
    def reference_laguerre(k, alpha):
        """The recurrence on rational term dicts, one division per step:
        (j+1) L_{j+1} = (2j+1+alpha-x) L_j - (j+alpha) L_{j-1}."""
        alpha = Fraction(alpha)
        p0, p1 = {}, {(0, 0): 1}
        for j in range(k):
            p0, p1 = p1, recur(p1, p0, Fraction(-1, j + 1), 0, (2 * j + 1 + alpha) / (j + 1),
                               0, (j + alpha) / (j + 1))
        return BivarPoly(p1)

    @given(st.integers(0, 10), small_fracs)
    @settings(max_examples=40, deadline=None)
    def test_integer_recurrence_matches_rational_one(self, k, alpha):
        assert laguerre_from_rows(k, alpha) == self.reference_laguerre(k, alpha)

    @pytest.mark.parametrize("side", ("constraint", "laguerre"))
    @pytest.mark.parametrize("eps", (Fraction(1, 2), Fraction(-1, 4)))
    def test_single_slot_corruption_fails(self, eps, side, monkeypatch):
        # +-1 at any x-slot i <= 3 of either packed side of the k = 3 check
        import aqrm.poly as poly_mod

        real_packed, laguerre_rows = poly_mod._packed, _laguerre_rows(3, 2 * eps)
        assert laguerre_check(3, eps)
        for i in range(4):
            for sign in (1, -1):
                hit = []

                def corrupted(rows, s, w, i=i, sign=sign):
                    fam = real_packed(rows, s, w)
                    if (rows == laguerre_rows) == (side == "laguerre"):
                        fam[-1] += sign << s * i
                        hit.append(rows)
                    return fam

                with monkeypatch.context() as m:
                    m.setattr(poly_mod, "_packed", corrupted)
                    assert not laguerre_check(3, eps), (side, i, sign)
                assert len(hit) == 1


class TestGeneratingIdentities:
    def test_normalized_first_terms(self):
        # Ptilde_1 for the (N+l, -l/2) family is (x + y - 1 + l)/2
        for N, ell in ((3, 2), (0, 1), (2, 4)):
            p = constraint_poly(N + ell, Fraction(-ell, 2), 1)
            normalized = BivarPoly({key: c / (1 * 2) for key, c in p.terms.items()})  # / (1! 2!)
            assert normalized == BivarPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2),
                                            (0, 0): Fraction(ell - 1, 2)})

    @pytest.mark.parametrize("N,ell", [(3, 2), (0, 3), (2, 1), (1, 4)])
    def test_binomial_identity(self, N, ell):
        assert generating_identity_check(N, ell, 10)

    @pytest.mark.parametrize("N,eps", [(4, Fraction(-1, 2)), (0, Fraction(0)),
                                       (3, Fraction(2, 3))])
    def test_ode_recurrence(self, N, eps):
        assert ode_coefficient_check(N, eps, 12)

    def test_ode_requires_k_two(self):
        with pytest.raises(ValueError):
            ode_coefficient_check(2, Fraction(0), 1)


def coefficient_slices(N, eps):
    """The N+1 coefficient polynomials a_i(y) with P_N^(N,eps) = sum a_i(y) x^i."""
    p = constraint_poly(N, eps, N)
    return [trim([p.terms.get((i, j), 0) for j in range(N + 1)]) for i in range(N + 1)]


class TestCoefficientSlices:
    def test_n_one(self):
        eps = Fraction(1, 4)
        slices = coefficient_slices(1, eps)
        assert len(slices) == 2
        assert slices[1] == [1]
        assert slices[0] == [-1 - 2 * eps, 1]

    def test_degrees_and_extremes(self):
        N, eps = 6, Fraction(2, 5)
        slices = coefficient_slices(N, eps)
        assert len(slices) == N + 1
        for i, s in enumerate(slices):
            assert len(s) - 1 == N - i
        assert slices[N] == [math.factorial(N)]
        assert slices[0] == from_roots(c_weight(i, eps) for i in range(1, N + 1))

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2)])
    @pytest.mark.parametrize("N", [3, 5, 8])
    def test_interlacing(self, N, eps):
        # roots of consecutive slices strictly interlace
        slices = coefficient_slices(N, eps)
        tol = Fraction(1, 2 ** 40)
        all_roots = [[refine_root(squarefree_part(s), iv, tol) for iv in isolate_real_roots(s)]
                     for s in slices[:-1]]
        for j in range(N - 1):
            lo_r, hi_r = all_roots[j], all_roots[j + 1]
            assert len(lo_r) == N - j
            assert len(hi_r) == N - j - 1
            for i in range(len(hi_r)):
                assert lo_r[i] < hi_r[i] < lo_r[i + 1]


class TestRecurrenceConstants:
    def test_weights(self):
        assert c_weight(3, Fraction(1, 2)) == 12
        assert lambda_weight(3, 5) == 3 * 2 * 3


class TestBivarPolyContract:
    """Normalization, equality, text and JSON: all that a computed family
    member promises."""

    def test_normalization_text_and_json(self):
        assert str(BivarPoly()) == "0" and BivarPoly().is_zero()
        p = BivarPoly({(1, 0): 0, (0, 1): 3, (2, 1): Fraction(0), (0, 0): Fraction(-3, 4)})
        assert p.terms == {(0, 1): 3, (0, 0): Fraction(-3, 4)}
        assert type(p.terms[(0, 1)]) is int
        assert p == BivarPoly({(0, 0): Fraction(-6, 8), (0, 1): 3}) != BivarPoly({(0, 1): 3})
        assert str(p) == "3*y - 3/4"
        assert p.to_json_obj() == {"terms": [[0, 0, "-3/4"], [0, 1, "3/1"]]}
        q = BivarPoly({(1, 1): Fraction(-2, 3), (0, 0): 1})
        assert str(q) == "-2/3*x*y + 1"
        assert q.to_json_obj() == {"terms": [[0, 0, "1/1"], [1, 1, "-2/3"]]}

    def test_serialization_round_trip_forms(self):
        p = constraint_poly(6, 0, 2)
        obj = p.to_json_obj()
        assert obj["terms"] == [[0, 0, "4/1"], [0, 1, "-5/1"], [0, 2, "1/1"],
                                [1, 0, "-16/1"], [1, 1, "3/1"], [2, 0, "2/1"]]
        assert str(p) == "2*x^2 + 3*x*y + y^2 - 16*x - 5*y + 4"
