"""Series machinery: K-coefficients, G-function, calG, Frobenius solutions,
T-functions, residues and pole coefficients, regularized sums."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import aqrm.series as series_mod
from aqrm.poly import constraint_value
from aqrm.series import (
    ModelParams,
    NonConvergent,
    PoleEncountered,
    WrongPoleOrder,
    b_function,
    b_residual,
    double_pole_coefficients,
    g_function,
    k_sequence,
    regularized_g,
    residue_numeric,
    residue_simple,
    t_function,
)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def rgamma(z):
    return 1.0 / math.gamma(z)


class TestModelParams:
    @pytest.mark.parametrize("g,delta,eps", [(math.inf, 1.0, 0.3), (0.5, math.inf, 0.3),
                                             (0.5, 1.0, math.nan), (0.5, 1.0, -math.inf)])
    def test_rejects_non_finite(self, g, delta, eps):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(g, delta, eps)


class TestKCoefficients:
    def test_initial_terms(self):
        p = ModelParams(0.8, 1.0, 0.3)
        x = 0.55
        ks = k_sequence(x, p, "plus", 3)
        assert ks[0] == 1.0
        f0 = 2 * p.g + (0 - x + p.eps + p.delta ** 2 / (x + p.eps)) / (2 * p.g)
        assert ks[1] == pytest.approx(f0, rel=1e-15)

    @given(st.floats(0.05, 0.9), st.floats(0.3, 2.0), st.floats(0.3, 2.5),
           st.floats(0.01, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_sign_symmetry_exact(self, x, g, delta, eps):
        # flipping the bias swaps the two branches, coefficient by coefficient
        assume(all(abs(x - n + s) > 1e-6 for n in range(13) for s in (eps, -eps)))
        p1 = ModelParams(g, delta, eps)
        p2 = ModelParams(g, delta, -eps)
        assert k_sequence(x, p1, "plus", 12) == k_sequence(x, p2, "minus", 12)
        assert k_sequence(x, p1, "minus", 12) == k_sequence(x, p2, "plus", 12)

    def test_pole_guard(self):
        # x - 2 - eps ~ 0: d_2 is checked before K_3 is formed and before
        # term 2 is summed, never for K_2 itself
        p = ModelParams(0.8, 1.0, 0.3)
        x = 2.3 + 1e-12
        assert len(k_sequence(x, p, "minus", 2)) == 3
        for call in (lambda: k_sequence(x, p, "minus", 3),
                     lambda: k_sequence(x, p, "minus", 8),
                     lambda: series_mod._summed(x, p, -p.eps)):
            with pytest.raises(PoleEncountered) as info:
                call()
            assert info.value.n == 2

    @given(st.floats(-3.0, 9.0), st.floats(0.05, 3.0), st.floats(0.2, 2.5),
           st.floats(-1.5, 1.5), st.sampled_from(["plus", "minus"]))
    @settings(max_examples=60, deadline=None)
    def test_sum_is_the_sequence_summed(self, x, g, delta, eps, sign):
        # _summed and k_sequence each run the K recurrence; the sum R is the
        # sequence times g^n added in order, to the last bit: one of its
        # partial sums
        s = eps if sign == "plus" else -eps
        assume(all(abs(x - n + s) > 1e-6 for n in range(14)))
        p = ModelParams(g, delta, eps)
        try:
            R_summed, _ = series_mod._summed(x, p, s)
        except NonConvergent:
            assume(False)
        partial, R, gn = set(), 0.0, 1.0
        for k in k_sequence(x, p, sign, series_mod._MAX_TERMS):
            R += k * gn
            gn *= g
            partial.add(R)
        assert R_summed in partial

    def test_series_bridge_to_constraint_poly(self):
        # (N!)^2 (2g)^N K_N^-(N+eps) = P_N((2g)^2, Delta^2)
        N, eps, g, delta = 3, 0.25, 0.7, 1.1
        p = ModelParams(g, delta, eps)
        ks = k_sequence(N + eps, p, "minus", N)
        lhs = math.factorial(N) ** 2 * (2 * g) ** N * ks[N]
        rhs = float(constraint_value(N, Fraction(1, 4), N,
                                     Fraction(49, 25) * 4 / 4, Fraction(121, 100)))
        rhs = constraint_value(N, 0.25, N, (2 * g) ** 2, delta ** 2)
        assert rel_close(lhs, rhs, 1e-12)

    def test_state_contract(self, monkeypatch):
        # _summed returns the pair (R, Rbar) once the stop rule holds, and
        # raises where it cannot hold within the term cap
        p = ModelParams(0.8, 1.0, 0.3)
        R, Rbar = series_mod._summed(0.55, p, p.eps)
        assert math.isfinite(R) and math.isfinite(Rbar)
        monkeypatch.setattr(series_mod, "_MAX_TERMS", 4)
        with pytest.raises(NonConvergent, match=r"not converged at x=0\.55$"):
            series_mod._summed(0.55, p, p.eps)


class TestGFunction:
    def test_bias_sign_symmetry(self):
        x, g, delta, eps = 0.37, 0.8, 1.0, 0.45
        a = g_function(x, ModelParams(g, delta, eps))
        b = g_function(x, ModelParams(g, delta, -eps))
        assert rel_close(a, b, 1e-10)

    def test_zero_bias_parity_factorization(self):
        # the symmetric model's function splits into the two parity pieces;
        # with these conventions the product carries an overall minus sign
        # (G = Delta^2 Rbar^2 - R^2 while G+ G- = R^2 - Delta^2 Rbar^2);
        # the zero sets coincide either way
        x, g, delta = 0.45, 0.7, 1.0
        p = ModelParams(g, delta, 0.0)
        ks = k_sequence(x, p, "plus", 400)
        gp = sum(ks[n] * (1 - delta / (x - n)) * g ** n for n in range(400))
        gm = sum(ks[n] * (1 + delta / (x - n)) * g ** n for n in range(400))
        assert rel_close(g_function(x, p), -(gp * gm), 1e-10)

    def test_truncation_robustness(self, monkeypatch):
        p = ModelParams(0.9, 1.2, 0.35)
        monkeypatch.setattr(series_mod, "_MAX_TERMS", 400)
        v1 = g_function(0.6, p)
        monkeypatch.setattr(series_mod, "_MAX_TERMS", 800)
        v2 = g_function(0.6, p)
        assert rel_close(v1, v2, 1e-13)

    def test_sign_change_across_oracle_eigenvalues(self):
        # G changes sign across each regular eigenvalue point x = lambda + g^2
        from aqrm import oracle
        p = ModelParams(1.0, 1.0, 0.2)
        eigs = oracle.lowest_eigenvalues(p, 90, 5)
        d = 1e-4
        for lam in eigs:
            x = lam + p.g ** 2
            assert g_function(x - d, p) * g_function(x + d, p) < 0.0


# T at (N, g, Delta, eps, sign) from a 50-digit mpmath sum of the paper's
# Frobenius solutions phi1 and phi2 matched at z = 1/2
MATCHED_T = (
    ((0, 0.7, 1.0, 0.3, "plus"), -2.4936973013100734985),
    ((1, 0.9, 1.0, 0.5, "plus"), 0.35369055304371482269),
    ((2, 0.9, 1.3, 0.41, "plus"), 0.31813503999347416817),
    ((2, 1.1, 1.4, 1.5, "plus"), 0.0362988978633742139),
    ((3, 1.2, 0.8, -0.25, "plus"), 1.0327894905979386586),
    ((1, 0.8, 1.0, 0.0, "plus"), 0.35559110476780318079),
    ((2, 0.8, 1.1, 0.37, "minus"), 1.0825889053067858709),
    ((0, 1.3, 0.6, -0.8, "minus"), -66.575743824267325292),
)


class TestFrobenius:
    """The Frobenius solutions behind T are G's two branches at its pole
    x = N +/- eps, summed past the pole (series._branch_sums)."""

    @pytest.mark.parametrize("point,expected", MATCHED_T, ids=[
        "-".join(map(str, pt[:4] if pt[4] == "plus" else pt)) for pt, _ in MATCHED_T])
    def test_t_function_is_matched_solutions(self, point, expected):
        # eps = 1/2 and 3/2 start phi2 past its pole at N + 2 eps
        N, g, delta, eps, sign = point
        assert rel_close(t_function(N, ModelParams(g, delta, eps), sign), expected, 1e-13)

    def test_nonconvergent_when_capped(self, monkeypatch):
        # 32 terms of a tail decaying like 2^-n cannot reach the streak bound
        monkeypatch.setattr(series_mod, "_MAX_TERMS", 32)
        with pytest.raises(NonConvergent):
            t_function(1, ModelParams(0.9, 1.0, 0.25), "plus")

    def test_pole_not_summed_past_is_refused(self):
        # N + 2 eps = 2 + 6e-9 is inside POLE_GUARD of the far branch's pole
        # but outside _HALF_INT_TOL, so that branch is summed from 0; within
        # _HALF_INT_TOL it is summed past the pole and T is the value at 1/2
        with pytest.raises(PoleEncountered):
            t_function(1, ModelParams(0.9, 1.0, 0.5 + 3e-9), "plus")
        with pytest.raises(PoleEncountered):
            t_function(1, ModelParams(0.9, 1.0, -0.5 - 3e-9), "minus")
        near = t_function(1, ModelParams(0.9, 1.0, 0.5 + 3e-10), "plus")
        assert rel_close(near, MATCHED_T[1][1], 1e-8)


class TestTFunction:
    @pytest.mark.parametrize("ell", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("N", [0, 1, 3, 5])
    def test_shift_identity(self, N, ell):
        # T-tilde at level N+l with bias l/2 equals T at level N
        g, delta = 0.9, 1.3
        p = ModelParams(g, delta, ell / 2)
        lhs = t_function(N + ell, p, "minus")
        rhs = t_function(N, p, "plus")
        assert lhs == rhs

    @given(N=st.integers(0, 8), ell=st.integers(0, 5), g=st.floats(0.05, 3.0),
           delta=st.floats(0.1, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_shift_identity_is_exact(self, N, ell, g, delta):
        # both sides are the branches +l/2 and -l/2 of G at x = N + l/2
        p = ModelParams(g, delta, ell / 2)
        assert t_function(N + ell, p, "minus") == t_function(N, p, "plus")

    def test_minus_sign_is_bias_flip(self):
        N, g, delta, eps = 2, 0.8, 1.1, 0.37
        a = t_function(N, ModelParams(g, delta, eps), "minus")
        b = t_function(N, ModelParams(g, delta, -eps), "plus")
        assert rel_close(a, b, 1e-13)

    def test_zero_bias_factorization(self):
        # at eps = 0 both branches are one series, summed from N + 1
        from aqrm.series import _branch_sums
        N, g, delta = 1, 0.8, 1.0
        p = ModelParams(g, delta, 0.0)
        R, Rbar = _branch_sums(float(N), p, 0.0)
        tv = t_function(N, p, "plus")
        assert rel_close(tv, (delta * Rbar - R) * (delta * Rbar + R), 1e-13)

    def test_memory_is_kept_to_the_terms(self):
        # at N = 10^7 the tails start past 10^7 but take a few terms: one pass
        # keeps those terms only, with no list padded up to the start; each
        # value is about 2^-N, so both products underflow and T is refused
        p = ModelParams(0.5, 1.0, 0.5)
        tracemalloc.start()
        try:
            for sign in ("plus", "minus"):
                with pytest.raises(ArithmeticError, match="underflow at N=10000000"):
                    t_function(10 ** 7, p, sign)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_underflowing_products_are_refused(self):
        # at N = 540 the product R^+ R^- is 0.0 while both factors are about
        # 1e-163; at N = 500 the smaller product, 1.2e-302, is still normal
        p = ModelParams(0.5, 1.0, 0.5)
        assert t_function(500, p, "plus") != 0.0
        for N in (540, 560):
            with pytest.raises(ArithmeticError, match=f"underflow at N={N}"):
                t_function(N, p, "plus")

    def test_zero_location_with_unit_delta(self):
        # the non-Juddian point for bias 1/2, level 1; the zero verified by
        # independent diagonalization sits near 1.39303
        f = lambda g: t_function(1, ModelParams(g, 1.0, 0.5), "plus")
        assert f(1.38) > 0 > f(1.40)
        lo, hi = 1.38, 1.40
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(1.39303, abs=2e-4)


class TestRegularizedG:
    # README gfunc grid points (g, Delta, eps) = (0.5809, 0.5, 0.3) and calG
    # there from a 60-digit mpmath sum of the same pole-free series; 0.7 and
    # -0.29999999999999993 lie 6e-17 from the poles 1 - eps and -eps of the
    # plus branch. The removable point near 1.3 is left out: there calG is
    # about 1e-5 and cancellation costs digits.
    README_GRID = (
        (-1.0, -9.2649109459434506195),
        (-0.29999999999999993, 0.55831855390669532915),
        (0.0, 0.2823093294674895449),
        (0.7, -0.043514591543916060413),
        (1.0, 0.067392321375023029883),
        (1.7000000000000002, 0.010201914668030272836),
        (3.0, 0.1637831500984895988),
        (4.0, 0.49480712938348288122),
    )

    @pytest.mark.parametrize("x,expected", README_GRID)
    def test_readme_grid_against_a_60_digit_sum(self, x, expected):
        p = ModelParams(0.5809, 0.5, 0.3)
        assert rel_close(regularized_g(x, p), expected, 1e-13)

    def test_continuity_across_simple_pole(self):
        # the regularized function is continuous through x = n +/- eps
        p = ModelParams(0.8, 1.0, 0.3)
        for x0 in (1.3, 0.7, 2.3):
            left = regularized_g(x0 - 1e-7, p)
            right = regularized_g(x0 + 1e-7, p)
            center = regularized_g(x0, p)
            assert abs(left - center) < 1e-6 * (1 + abs(center))
            assert abs(right - center) < 1e-6 * (1 + abs(center))

    @given(g=st.floats(0.05, 3.0), delta=st.floats(0.2, 2.0), eps=st.floats(-1.0, 1.0),
           x=st.floats(-3.0, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_product_off_the_poles(self, g, delta, eps, x):
        # both sides lose digits to cancellation among the series terms (at
        # small g and larger x, calG is ~1e-7 of them), so the bound is set by
        # the sizes of the terms, |1/Gamma 1/Gamma| (Delta^2 |Rbar+||Rbar-| +
        # |R+||R-|) with each sum taken over |terms|, not by |calG|
        assume(all(abs(x - n - s) >= 1e-3 for n in range(12) for s in (eps, -eps)))
        p = ModelParams(g, delta, eps)
        w = rgamma(eps - x) * rgamma(-eps - x)
        sizes = []
        for sign, s in (("plus", eps), ("minus", -eps)):
            terms = [abs(k) * g ** n for n, k in enumerate(k_sequence(x, p, sign, 80))]
            sizes.append((sum(terms), sum(t / abs(x - n + s) for n, t in enumerate(terms))))
        (a, abar), (b, bbar) = sizes
        scale = abs(w) * (delta ** 2 * abar * bbar + a * b)
        assert abs(regularized_g(x, p) - g_function(x, p) * w) <= 1e-11 * (1 + scale)

    @pytest.mark.parametrize("g,delta,eps", [(0.8, 1.0, 0.3), (0.6, 1.2, 0.5),
                                             (0.7, 0.9, 0.0), (0.9, 1.4, 1.5)])
    def test_expansion_matches_direct_product(self, g, delta, eps):
        # just off every singular point, simple and double, the pole-free
        # series and the raw product G/(Gamma Gamma) must agree where the raw
        # product is still well conditioned
        p = ModelParams(g, delta, eps)
        x0s = {n + s for n in range(4) for s in (eps, -eps) if n + s > -1}
        for x0 in sorted(x0s):
            for u in (1.5e-3, 3e-3, -1.5e-3, -3e-3):
                direct = (g_function(x0 + u, p) * rgamma(eps - x0 - u)
                          * rgamma(-eps - x0 - u))
                assert rel_close(regularized_g(x0 + u, p), direct, 1e-6), (x0, u)

    @given(N=st.integers(0, 5), g=st.floats(0.05, 3.0), delta=st.floats(0.2, 2.0),
           eps=st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_simple_pole_value_is_the_residue(self, N, g, delta, eps):
        # G ~ Res/u and 1/Gamma(eps - x) ~ (-1)^(N+1) N! u at x = N + eps + u
        assume(abs(2 * eps - round(2 * eps)) > 1e-3)
        p = ModelParams(g, delta, eps)
        v = regularized_g(N + eps, p)
        expect = ((-1) ** (N + 1) * math.factorial(N) * residue_simple(N, p, "plus")
                  * rgamma(-2 * eps - N))
        assert abs(v - expect) <= 1e-10 * (1 + abs(v))

    @given(N=st.integers(0, 8), ell=st.integers(0, 3), g=st.floats(0.05, 3.0),
           delta=st.floats(0.2, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_double_pole_value_is_the_leading_coefficient(self, N, ell, g, delta):
        # G ~ A/u^2 and each 1/Gamma factor vanishes linearly at x = N + ell/2;
        # for N >= 8 a branch's first N terms are exact zeros, which must not
        # end the series
        p = ModelParams(g, delta, ell / 2)
        v = regularized_g(N + ell / 2, p)
        A, _ = double_pole_coefficients(N, ell, p)
        expect = (-1) ** ell * math.factorial(N) * math.factorial(N + ell) * A
        assert abs(v - expect) <= 1e-10 * (1 + abs(v))

    @given(ell=st.sampled_from((-1, 1, 3)), t=st.floats(-12.0, -6.0),
           eps_sign=st.sampled_from((1, -1)), N=st.integers(0, 4),
           branch=st.sampled_from((1, -1)), u=st.floats(-13.0, -3.0),
           x_sign=st.sampled_from((1, -1)), g=st.floats(0.1, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_finite_just_off_a_half_integer_bias(self, ell, t, eps_sign, N, branch,
                                                 u, x_sign, g):
        # eps = ell/2 +/- 10^t puts two poles N +/- eps within 2e-6 of each
        # other; x within 10^u of one of them
        eps = ell / 2 + eps_sign * 10.0 ** t
        v = regularized_g(N + branch * eps + x_sign * 10.0 ** u, ModelParams(g, 1.0, eps))
        assert math.isfinite(v)

    def test_term_cap_refused_before_the_work(self):
        # at x = 1e12 the series' tail starts past _MAX_TERMS
        with pytest.raises(NonConvergent):
            regularized_g(1e12, ModelParams(0.5, 1.0, 0.3))

    def test_underflowing_products_are_refused(self):
        # far to the left the branch products shrink below the normal floats,
        # one of them from x = -102.25 and both to 0 from -107.25: calG is
        # refused there, not read as a zero; at -100 both are still normal
        p = ModelParams(0.5, 1.0, 0.3)
        assert rel_close(regularized_g(-100.0, p), -6.2331410791840095e-296, 1e-12)
        for x in (-102.25, -107.25, -110.0):
            with pytest.raises(ArithmeticError, match="products underflow"):
                regularized_g(x, p)

    def test_vanishes_at_juddian_point(self):
        p = ModelParams(0.5, 1.0, 0.5)
        assert abs(regularized_g(1.5, p)) < 1e-12

    def test_matches_direct_product_away_from_poles(self):
        p = ModelParams(0.9, 1.2, 0.27)
        x = 0.61
        direct = g_function(x, p) * rgamma(p.eps - x) * rgamma(-p.eps - x)
        assert rel_close(regularized_g(x, p), direct, 1e-12)

    def test_double_pole_value_from_expansion(self):
        # at half-integer bias the removable value is A times the quadratic
        # coefficient of the gamma factor
        p = ModelParams(0.9, 1.0, 0.5)
        x0 = 1.5
        v = regularized_g(x0, p)
        left = regularized_g(x0 - 1e-6, p)
        assert abs(v - left) < 1e-4 * (1 + abs(v))


class TestResidues:
    def test_simple_pole_formula_vs_numeric(self):
        p = ModelParams(0.7, 1.0, 0.2)
        N = 2
        closed = residue_simple(N, p, "plus")
        numeric = residue_numeric(N + p.eps, p, order=1)
        assert rel_close(closed, numeric, 1e-6)

    def test_minus_branch(self):
        p = ModelParams(0.6, 0.9, 0.31)
        closed = residue_simple(1, p, "minus")
        numeric = residue_numeric(1 - p.eps, p, order=1)
        assert rel_close(closed, numeric, 1e-6)

    def test_juddian_kills_the_pole(self):
        g = math.sqrt(27.0 / 20.0) / 2.0
        p = ModelParams(g, 0.5, 0.3)
        closed = residue_simple(1, p, "plus")
        probe = residue_simple(1, ModelParams(g * 1.05, 0.5, 0.3), "plus")
        assert abs(closed) < 1e-10 * max(1.0, abs(probe) / 0.05)

    def test_prop_simple_pole_below_half_integer(self):
        # bias 3/2: x = 1 - 3/2 is a simple pole; its residue vanishes at the
        # T-zero near g = 1.6318 (level 1, minus branch, Delta = 3)
        f = lambda g: t_function(1, ModelParams(g, 3.0, 1.5), "minus")
        lo, hi = 1.55, 1.70
        flo = f(lo)
        assert flo * f(hi) < 0
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            if (f(mid) > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
        gstar = 0.5 * (lo + hi)
        assert gstar == pytest.approx(1.6318, abs=2e-4)
        p = ModelParams(gstar, 3.0, 1.5)
        res = residue_simple(1, p, "minus")
        scale = abs(residue_simple(1, ModelParams(gstar * 1.05, 3.0, 1.5), "minus"))
        assert abs(res) < 1e-7 * max(1.0, scale / 0.05)

    def test_wrong_pole_order_raises(self):
        p = ModelParams(0.9, 1.0, 0.5)
        with pytest.raises(WrongPoleOrder):
            residue_simple(1, p, "plus")
        with pytest.raises(WrongPoleOrder):
            residue_simple(0, ModelParams(0.7, 1.0, 0.0), "plus")


def _branch_laurent(x0, p, sign):
    """(Res R, Q, Res Rbar, Qbar) of one branch at its pole x0: the residue
    is -c S(x0) with c = (-1)^N'/N'! at y0 = x0 +/- eps = N'."""
    from aqrm.series import _branch_jets, _finite_parts
    s = p.eps if sign == "plus" else -p.eps
    S, _, Sb, _ = _branch_jets(x0, p, s)
    n = round(x0 + s)
    c = (-1) ** n / math.factorial(n)
    q, qb = _finite_parts(x0, p, s)
    return -c * S, q, -c * Sb, qb


class TestDoublePole:
    def test_coefficients_match_numeric_and_jet(self):
        # (0, 0) exercises the pole at the origin, hit by the first term; the
        # closed form is checked against G's Laurent expansion built from the
        # residues and finite parts of the two branches
        for (N, ell, g, delta) in ((1, 1, 0.9, 1.0), (0, 2, 0.7, 1.2),
                                   (2, 0, 0.8, 0.9), (0, 0, 0.7, 1.1)):
            p = ModelParams(g, delta, ell / 2.0)
            A, B = double_pole_coefficients(N, ell, p)
            An, Bn = residue_numeric(N + ell / 2.0, p, order=2)
            assert rel_close(A, An, 1e-6)
            assert rel_close(B, Bn, 1e-6)
            rp, qp, rbp, qbp = _branch_laurent(N + ell / 2.0, p, "plus")
            rm, qm, rbm, qbm = _branch_laurent(N + ell / 2.0, p, "minus")
            assert rel_close(A, delta ** 2 * rbp * rbm - rp * rm, 1e-10)
            assert rel_close(B, delta ** 2 * (rbp * qbm + qbp * rbm)
                             - (rp * qm + qp * rm), 1e-10)

    def test_juddian_point_kills_both(self):
        p = ModelParams(0.5, 1.0, 0.5)
        A, B = double_pole_coefficients(1, 1, p)
        assert abs(A) <= 1e-8 and abs(B) <= 1e-8

    def test_non_juddian_leaves_simple_pole(self):
        # at the T-zero the squared term vanishes but the residue survives
        f = lambda g: t_function(1, ModelParams(g, 1.0, 0.5), "plus")
        lo, hi = 1.38, 1.40
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        gstar = 0.5 * (lo + hi)
        A, B = double_pole_coefficients(1, 1, ModelParams(gstar, 1.0, 0.5))
        assert abs(A) < 1e-9
        assert abs(B) > 1e-3

    def test_requires_half_integer_bias(self):
        with pytest.raises(ValueError):
            double_pole_coefficients(1, 1, ModelParams(0.9, 1.0, 0.4))


class TestQFunctions:
    """The finite parts Q, Qbar of a branch's R and Rbar at its pole, read
    from the scaled series' 1-jet (_finite_parts)."""

    def test_zero_bias_symmetry(self):
        p = ModelParams(0.8, 1.0, 0.0)
        _, qm, _, qbm = _branch_laurent(1.0, p, "minus")
        _, qp, _, qbp = _branch_laurent(1.0, p, "plus")
        assert qm == pytest.approx(qp, rel=1e-12)
        assert qbm == pytest.approx(qbp, rel=1e-12)

    def test_finite_where_raw_series_diverges(self):
        p = ModelParams(0.8, 1.0, 0.5)
        with pytest.raises(PoleEncountered):
            g_function(1.5, p)
        vals = _branch_laurent(1.5, p, "minus") + _branch_laurent(1.5, p, "plus")
        assert all(math.isfinite(v) for v in vals)

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    @pytest.mark.parametrize("N,ell", [(1, 1), (0, 2), (0, 0)])
    def test_finite_part_against_numeric_limit(self, N, ell, sign):
        # Q = lim (R - Res/(x - x0)), checked with an off-axis probe
        p = ModelParams(0.8, 1.0, ell / 2.0)
        x0 = N + ell / 2.0
        res, q, res_bar, q_bar = _branch_laurent(x0, p, sign)
        h, s = 1e-4, ell / 2.0 if sign == "plus" else -ell / 2.0
        Rp, Rbp = series_mod._summed(x0 + h, p, s)
        Rm, Rbm = series_mod._summed(x0 - h, p, s)
        assert rel_close(q, (Rp + Rm) / 2.0, 1e-5)
        assert rel_close(res, (h * Rp - h * Rm) / 2.0, 1e-5)
        assert rel_close(q_bar, (Rbp + Rbm) / 2.0, 1e-5)
        assert rel_close(res_bar, (h * Rbp - h * Rbm) / 2.0, 1e-5)

    @pytest.mark.parametrize("g", [10.0, 11.0, 13.0])
    def test_overflowing_jet_raises(self, g):
        # the scaled sums overflow at this coupling; no inf or nan may pass
        p = ModelParams(g, 1.0, 0.5)
        for sign in ("minus", "plus"):
            with pytest.raises(NonConvergent):
                _branch_laurent(1.5, p, sign)
        for f in (b_function, double_pole_coefficients):
            with pytest.raises(NonConvergent):
                f(1, 1, p)

    def test_finite_below_the_overflow(self):
        p = ModelParams(9.5, 1.0, 0.5)
        vals = (*_branch_laurent(1.5, p, "minus"), *_branch_laurent(1.5, p, "plus"),
                b_function(1, 1, p), *double_pole_coefficients(1, 1, p))
        assert all(math.isfinite(v) for v in vals)


_EULER_GAMMA = 0.5772156649015329


def pole_draws(test):
    # (N, ell, sign, g, Delta), the pole at the origin always among them
    for sign in ("plus", "minus"):
        test = example(0, 0, sign, 0.7, 1.1)(test)
    return given(st.integers(0, 4), st.integers(-3, 3), st.sampled_from(["plus", "minus"]),
                 st.floats(0.05, 3.0), st.floats(0.05, 2.0))(test)


class TestBranchJets:
    """The 1-jets at a pole x0 = N + ell/2 with eps = ell/2, against the
    float scaled series of the same branch."""

    @pole_draws
    @settings(max_examples=80, deadline=None)
    def test_values_are_the_float_sums(self, N, ell, sign, g, delta):
        from aqrm.series import _branch_jets, _scaled_sums
        x0, p = N + ell / 2.0, ModelParams(g, delta, ell / 2.0)
        s = p.eps if sign == "plus" else -p.eps
        assert _branch_jets(x0, p, s)[0::2] == _scaled_sums(x0, p, s)

    @pole_draws
    @settings(max_examples=80, deadline=None)
    def test_derivatives_match_a_central_difference(self, N, ell, sign, g, delta):
        # the jet holds the seed w_m = 1/Gamma(m - y) fixed, so it lacks the
        # term psi(m - y0) S of the true derivative; at these points m - y0
        # is a positive integer k, where psi(k) = H_(k-1) - Euler's gamma
        from aqrm.series import _branch_jets, _scaled_sums
        x0, p = N + ell / 2.0, ModelParams(g, delta, ell / 2.0)
        s = p.eps if sign == "plus" else -p.eps
        y0 = round(x0 + s)
        k = max(0, y0 + 1) - y0
        psi = sum(1.0 / j for j in range(1, k)) - _EULER_GAMMA

        def central(h):
            (R1, Rb1), (R0, Rb0) = _scaled_sums(x0 + h, p, s), _scaled_sums(x0 - h, p, s)
            return ((R1 - R0) / (2 * h), (Rb1 - Rb0) / (2 * h))

        S, dS, Sb, dSb = _branch_jets(x0, p, s)
        for value, jet, d1, d2 in zip((S, Sb), (dS, dSb), central(1e-3), central(5e-4)):
            ref = (4.0 * d2 - d1) / 3.0 - psi * value
            assert abs(jet - ref) <= 1e-8 * max(1.0, abs(value), abs(jet))

    def test_unreachable_tail_names_the_real_point(self):
        with pytest.raises(NonConvergent) as info:
            b_function(2100, 1, ModelParams(0.5, 1.0, 0.5))
        # the jet runs the series at a complex x; the message keeps its real part
        assert str(info.value).endswith("=2100.5")


class TestBFunction:
    def test_consistency_with_double_pole_residue(self):
        from aqrm.series import _C
        N, ell, g, delta = 1, 1, 0.9, 1.0
        p = ModelParams(g, delta, 0.5)
        _, B = double_pole_coefficients(N, ell, p)
        pn = constraint_value(N, ell / 2.0, N, (2 * g) ** 2, delta ** 2)
        resid = b_residual(N, ell, p)
        assert rel_close(B, _C(N) * _C(N + ell) * delta ** 2 * pn * resid, 1e-10)

    @given(st.integers(0, 6), st.integers(0, 4), st.floats(0.05, 3.0), st.floats(0.05, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_residue_is_the_scaled_residual(self, N, ell, g, delta):
        # B = c b_residual, c = C(N) C(N+l) Delta^2 P_N, to the last bit: the
        # bracket is summed once, by b_residual, not again from the finite parts
        from aqrm.series import _C
        p = ModelParams(g, delta, ell / 2.0)
        _, B = double_pole_coefficients(N, ell, p)
        pn = constraint_value(N, ell / 2.0, N, 4.0 * g ** 2, delta ** 2)
        assert B == _C(N) * _C(N + ell) * delta ** 2 * pn * b_residual(N, ell, p)

    def test_residual_zero_curve_point(self):
        # bisect a residue-vanishing point in g at fixed Delta (level 1, l=2)
        delta = 2.0
        f = lambda g: b_residual(1, 2, ModelParams(g, delta, 1.0))
        lo, hi = 0.3, 1.6
        flo = f(lo)
        assert flo * f(hi) < 0
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            if (f(mid) > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
        gstar = 0.5 * (lo + hi)
        assert abs(f(gstar)) < 1e-8 * max(abs(flo), abs(f(hi)), 1.0)
        # the G-function residue vanishes there as well
        _, B = double_pole_coefficients(1, 2, ModelParams(gstar, delta, 1.0))
        assert abs(B) < 1e-8 * max(1.0, abs(flo))

    def test_finite_on_parameter_box(self):
        for g in (0.1, 0.8, 1.7, 3.0):
            for delta in (0.1, 1.0, 4.0, 10.0):
                v = b_function(1, 2, ModelParams(g, delta, 1.0))
                assert math.isfinite(v)

    def test_symmetric_case_residual_degenerates(self):
        # at l = 0 the two residual summands coincide (quotient is 1)
        p = ModelParams(0.8, 1.0, 0.0)
        assert b_residual(1, 0, p) == pytest.approx(2 * b_function(1, 0, p), rel=1e-12)

    def test_t_function_truncation_robustness(self, monkeypatch):
        p = ModelParams(1.1, 1.0, 0.5)
        monkeypatch.setattr(series_mod, "_MAX_TERMS", 300)
        v1 = t_function(1, p, "plus")
        monkeypatch.setattr(series_mod, "_MAX_TERMS", 600)
        v2 = t_function(1, p, "plus")
        assert rel_close(v1, v2, 1e-12)
