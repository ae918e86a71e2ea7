"""Exact polynomial families: recurrences, determinant forms, divisibility,
Laguerre limit, generating-function identities."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqrm.poly import (
    BivarPoly,
    a_poly,
    a_value,
    DivisibilityError,
    _scaled_family,
    c_weight,
    constraint_poly,
    constraint_poly_det,
    constraint_slice,
    constraint_tridiag,
    constraint_value,
    generating_identity_check,
    laguerre_check,
    laguerre_poly,
    lambda_weight,
    ode_coefficient_check,
    q_poly,
    verify_divisibility,
)
from aqrm.roots import (
    UniPoly,
    continuant,
    count_real_roots,
    isolate_real_roots,
    refine_root,
    squarefree_part,
)

X = BivarPoly.x()
Y = BivarPoly.y()
ONE = BivarPoly.const(1)

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def y_poly(p, xv) -> UniPoly:
    """p(xv, y) as a polynomial in y."""
    out = [0] * (max(j for _, j in p.terms) + 1)
    for (i, j), c in p.terms.items():
        out[j] += c * Fraction(xv) ** i
    return UniPoly(out)


class TestConstraintPoly:
    def test_base_cases(self):
        assert constraint_poly(5, Fraction(1, 3), 0) == ONE
        eps = Fraction(1, 3)
        assert constraint_poly(5, eps, 1) == X + Y - BivarPoly.const(1 + 2 * eps)

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
            prod = ONE
            for i in range(1, N + 1):
                prod = prod * (Y - BivarPoly.const(c_weight(i, eps)))
            sliced = BivarPoly({(0, j): c for (i, j), c in p.terms.items() if i == 0})
            assert sliced == prod

    def test_total_degree_and_leading_coefficient(self):
        for N, eps, k in ((6, Fraction(1, 4), 4), (3, Fraction(0), 3)):
            p = constraint_poly(N, eps, k)
            assert max(i + j for i, j in p.terms) == k
            assert p.coefficient(k, 0) == math.factorial(k)

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
        exact = p.evaluate(x, y)
        approx = constraint_value(N, float(eps), N, float(x), float(y))
        assert approx == pytest.approx(float(exact), rel=1e-10, abs=1e-9)


def generic_recurrence_family(N, eps, k_max):
    """The three-term recurrence in general BivarPoly arithmetic, one product
    per step: the independent oracle for the shift-based integer members."""
    eps = Fraction(eps)
    fam = [ONE]
    if k_max >= 1:
        fam.append(X + Y - BivarPoly.const(1 + 2 * eps))
    for k in range(2, k_max + 1):
        fam.append((k * X + Y - BivarPoly.const(k * (k + 2 * eps))) * fam[-1]
                   - (k * (k - 1) * (N - k + 1) * X) * fam[-2])
    return fam


FAMILY_BIASES = (Fraction(0), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2),
                 Fraction(-1, 2), Fraction(1), Fraction(3, 2))


def scaled_family(N, eps, k_max):
    """P_0, ..., P_{k_max} read off the integer members R_k = q^k P_k."""
    eps = Fraction(eps)
    return [BivarPoly({key: Fraction(v, eps.denominator ** k) for key, v in r.items()})
            for k, r in enumerate(_scaled_family(N, eps, k_max))]


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
        import aqrm.poly as poly_mod
        from aqrm.cli import main

        real_family = poly_mod._scaled_family

        def corrupted(N, eps, k_max):
            fam = real_family(N, eps, k_max)
            if k_max >= 3:              # P_3 + 1, i.e. R_3 + q^3
                fam[3] = {**fam[3], (0, 0): fam[3].get((0, 0), 0) + eps.denominator ** 3}
            return fam

        monkeypatch.setattr(poly_mod, "_scaled_family", corrupted)
        assert not generating_identity_check(2, 2, 8)
        assert not ode_coefficient_check(2, Fraction(1, 2), 8)
        assert main(["verify", "generating"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @given(eps=small_fracs, N=st.integers(0, 7), y=small_fracs)
    @settings(max_examples=30, deadline=None)
    def test_slice_is_scaled_member_at_y(self, eps, N, y):
        # constraint_slice(N, eps, y) = b^N q^N P_N^(N,eps)(x, y), y = a/b
        s = constraint_slice(N, eps, y)
        assert all(type(c) is int for c in s.coeffs)
        scale = (y.denominator * eps.denominator) ** N
        p = constraint_poly(N, eps, N)
        for xv in (Fraction(0), Fraction(-2, 3), Fraction(7, 5)):
            assert s(xv) == scale * p.evaluate(xv, y)

    def test_corrupted_member_fails_root_counts(self, monkeypatch, capsys):
        import aqrm.poly as poly_mod
        from aqrm.cli import main

        real_member = poly_mod._top_member

        def corrupted(N, eps):
            r = dict(real_member(N, eps))
            if N == 3:                  # P_3 + 1, i.e. R_3 + q^3
                r[(0, 0)] = r.get((0, 0), 0) + eps.denominator ** 3
            return tuple(r.items())

        monkeypatch.setattr(poly_mod, "_top_member", corrupted)
        assert main(["verify", "rootcounts"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestDeterminantForm:
    def test_one_by_one(self):
        eps = Fraction(2, 7)
        assert constraint_poly_det(1, eps) == X + Y - BivarPoly.const(1 + 2 * eps)

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

    def test_symmetrized_products_equivalence(self):
        # continuants agree whenever off-diagonal products agree
        N, eps = 5, Fraction(1, 3)
        m = constraint_tridiag(N, eps)
        alt_upper = tuple(BivarPoly.const(i * (i + 1)) for i in range(1, N))
        alt_lower = tuple(BivarPoly.const(c_weight(N - i, eps)) for i in range(1, N))
        from aqrm.roots import TridiagMatrix
        alt = TridiagMatrix(m.diag, alt_upper, alt_lower)
        assert continuant(m) == continuant(alt)


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
            assert a_poly(N, 1) == (N + 1) * X + Y

    def test_ell_two_closed_form(self):
        for N in (0, 2, 5):
            expect = ((N + 1) * (N + 2)) * X * X + (2 * N + 3) * X * Y + Y * Y + Y
            assert a_poly(N, 2) == expect

    def test_y_zero_leading_slice(self):
        for N, ell in ((2, 3), (4, 2), (1, 4)):
            p = a_poly(N, ell)
            at_y0 = BivarPoly({(i, 0): c for (i, j), c in p.terms.items() if j == 0})
            scale = math.factorial(N + ell) // math.factorial(N)
            assert at_y0 == scale * BivarPoly({(ell, 0): 1})

    def test_n_zero_reduces_to_constraint_poly(self):
        for ell in (1, 2, 3, 4):
            assert a_poly(0, ell) == constraint_poly(ell, Fraction(-ell, 2), ell)

    def test_integer_coefficients(self):
        for N, ell in ((3, 4), (5, 3), (2, 5)):
            assert all(type(c) is int for c in a_poly(N, ell).terms.values())

    def test_numeric_evaluator(self):
        p = a_poly(3, 3)
        assert a_value(3, 3, 1.25, 0.75) == pytest.approx(
            float(p.evaluate(Fraction(5, 4), Fraction(3, 4))), rel=1e-12)

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
                vals.append(p.evaluate(xv, hi * b / pts))
        assert min(vals) > 0

    def test_char_matrix_spectrum_at_zero(self):
        # the quotient's companion matrix at x = 0 has eigenvalues {i(l-i)},
        # so A_2^4(0, y) = c y (y+3)^2 (y+4), and A(0, 0) = det(M) = 0
        slice_y = y_poly(a_poly(2, 4), 0)
        expect = UniPoly([0, 1]) * UniPoly([3, 1]) * UniPoly([3, 1]) * UniPoly([4, 1])
        assert slice_y == expect * slice_y.lc
        assert slice_y(0) == 0

    def test_small_constraint_positivity(self):
        # P_k^(k,-l/2) > 0 on the positive quadrant for 1 <= k <= l
        ell = 4
        for k in range(1, ell + 1):
            p = constraint_poly(k, Fraction(-ell, 2), k)
            for a in range(1, 26):
                for b in range(1, 26):
                    assert p.evaluate(Fraction(a, 2), Fraction(b, 2)) > 0

    def test_companion_eigenvalues_positive_for_positive_x(self):
        # every eigenvalue of the quotient's companion matrix is positive for
        # x > 0 (these are the negated y-roots of the quotient's x-slice)
        N, ell = 2, 4
        p = a_poly(N, ell)
        for xv in (Fraction(1, 4), Fraction(2), Fraction(7)):
            yslice = y_poly(p, xv)
            # ell distinct roots in (-inf, 0], none at 0: all simple and negative
            assert count_real_roots(yslice, hi=Fraction(0)) == ell
            assert yslice(0) != 0


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
        # P_N + 1 no longer divides P_{N+l}: the exact integer division of the
        # members must refuse, not return a rounded quotient
        import aqrm.poly as poly_mod

        real_family = poly_mod._scaled_family

        def corrupted(N, eps, k_max):
            fam = real_family(N, eps, k_max)
            if N == 2:                  # P_2 + 1
                fam[2] = {**fam[2], (0, 0): fam[2].get((0, 0), 0) + eps.denominator ** 2}
            return fam

        monkeypatch.setattr(poly_mod, "_scaled_family", corrupted)
        with pytest.raises(DivisibilityError):
            verify_divisibility(2, 1)


class TestQPoly:
    def test_base_cases(self):
        assert q_poly(5, Fraction(1, 3), 0) == ONE
        N, eps = 4, Fraction(1, 2)
        assert q_poly(N, eps, 1) == X + Y - BivarPoly.const(2 * N - 1 + 2 * eps)

    def test_full_index_equals_constraint(self):
        for N, eps in ((4, Fraction(1, 2)), (3, Fraction(0)), (5, Fraction(-1, 4))):
            assert q_poly(N, eps, N) == constraint_poly(N, eps, N)

    def test_index_bound(self):
        with pytest.raises(ValueError):
            q_poly(3, Fraction(0), 4)


class TestLaguerre:
    def test_first_two(self):
        assert laguerre_check(0, Fraction(1, 5))
        eps = Fraction(2, 3)
        # L_1^(2e) = 1 + 2e - x, and P_1(x, 0) = x - 1 - 2e
        assert laguerre_poly(1, 2 * eps) == BivarPoly.const(1 + 2 * eps) - X
        assert laguerre_check(1, eps)

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(3, 4), Fraction(-1, 4), Fraction(2)])
    def test_up_to_seven(self, eps):
        for k in range(8):
            assert laguerre_check(k, eps)


class TestGeneratingIdentities:
    def test_normalized_first_terms(self):
        # Ptilde_1 for the (N+l, -l/2) family is (x + y - 1 + l)/2
        for N, ell in ((3, 2), (0, 1), (2, 4)):
            p = constraint_poly(N + ell, Fraction(-ell, 2), 1) * Fraction(1, 1 * 2)   # / (1! 2!)
            assert p == (X + Y + BivarPoly.const(ell - 1)) * Fraction(1, 2)

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
    return [UniPoly([p.coefficient(i, j) for j in range(N + 1)]) for i in range(N + 1)]


class TestCoefficientSlices:
    def test_n_one(self):
        eps = Fraction(1, 4)
        slices = coefficient_slices(1, eps)
        assert len(slices) == 2
        assert slices[1] == UniPoly([1])
        assert slices[0] == UniPoly([-1 - 2 * eps, 1])

    def test_degrees_and_extremes(self):
        N, eps = 6, Fraction(2, 5)
        slices = coefficient_slices(N, eps)
        assert len(slices) == N + 1
        for i, s in enumerate(slices):
            assert s.degree == N - i
        assert slices[N] == UniPoly([math.factorial(N)])
        prod = UniPoly([1])
        for i in range(1, N + 1):
            prod = prod * UniPoly([-c_weight(i, eps), 1])
        assert slices[0] == prod

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


class TestBivarPolyRing:
    @given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           small_fracs, max_size=5),
           st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           small_fracs, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_commutativity_and_distribution(self, t1, t2):
        p, q = BivarPoly(t1), BivarPoly(t2)
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + ONE) == p * q + p

    def test_serialization_round_trip_forms(self):
        p = constraint_poly(6, 0, 2)
        obj = p.to_json_obj()
        assert obj["terms"] == [[0, 0, "4/1"], [0, 1, "-5/1"], [0, 2, "1/1"],
                                [1, 0, "-16/1"], [1, 1, "3/1"], [2, 0, "2/1"]]
        assert str(p) == "2*x^2 + 3*x*y + y^2 - 16*x - 5*y + 4"
