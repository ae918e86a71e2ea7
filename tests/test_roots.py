"""Root machinery: continuants, exact Sturm isolation, bisection refinement,
and the same bisection on a level count, with tridiagonal eigenvalues from
tests/_dense.py as the reference."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aqrm.roots as roots_mod
from _dense import sym_tridiag_eigenvalues, tridiag_count_below
from aqrm.poly import c_weight, constraint_poly, constraint_slice, constraint_value
from aqrm.roots import (
    TridiagMatrix,
    UniPoly,
    ZeroPolynomialError,
    bisect_sign_change,
    continuant,
    count_real_roots,
    isolate_real_roots,
    refine_root,
    squarefree_part,
    sturm_chain,
)

fr = st.fractions(min_value=-4, max_value=4, max_denominator=5)

# rational roots with repeats, and a leading factor of either sign; mirrored
# root sets give even and odd polynomials, whose remainders skip degrees
root_mults = st.builds(
    lambda mults, mirror: {**mults, **{-r: m for r, m in mults.items()}} if mirror else mults,
    st.dictionaries(
        st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 5, 7))),
        st.integers(1, 3), min_size=1, max_size=4),
    st.booleans())
leading = st.sampled_from((1, -1, 3, Fraction(-5, 2), Fraction(7, 3)))
# 52-bit dyadic points, the denominators a float coupling brings in
dyadic = st.builds(Fraction, st.integers(-13 * 2 ** 52, 13 * 2 ** 52), st.just(2 ** 52))


def reference_neg_prem(a, b):
    """The pseudo-remainder loop roots._neg_prem replaced: a rescale pass and
    an indexed subtract per division step."""
    r = list(a)
    db = len(b) - 1
    s = abs(b[-1])
    while len(r) > db:
        c = r[-1]
        if c:
            f = c if b[-1] > 0 else -c
            k = len(r) - 1 - db
            if s != 1:
                r = [s * v for v in r]
            for j, bj in enumerate(b):
                r[k + j] -= f * bj
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return roots_mod._primitive([-v for v in r]) if r else []


int_polys = st.lists(st.integers(-60, 60), min_size=1, max_size=9).filter(lambda cs: cs[-1])


def exact_roots(p, tol=Fraction(1, 2 ** 48)):
    """Every distinct real root of p, refined on its square-free part."""
    sf = squarefree_part(p)
    return [refine_root(sf, iv, tol) for iv in isolate_real_roots(p)]


def y_poly(p, xv) -> UniPoly:
    """p(xv, y) as a polynomial in y."""
    out = [0] * (max(j for _, j in p.terms) + 1)
    for (i, j), c in p.terms.items():
        out[j] += c * Fraction(xv) ** i
    return UniPoly(out)


def from_roots(mults) -> UniPoly:
    """prod (x - r)^m over the (root, multiplicity) pairs."""
    p = UniPoly([1])
    for r, m in mults:
        for _ in range(m):
            p = p * UniPoly([-r, 1])
    return p


def dense_det(rows):
    """Fraction-free Gaussian elimination determinant, as an independent oracle."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det


def tridiag_to_dense(t: TridiagMatrix):
    n = t.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(t.diag[i])
        if i < n - 1:
            rows[i][i + 1] = Fraction(t.upper[i])
            rows[i + 1][i] = Fraction(t.lower[i])
    return rows


class TestContinuant:
    def test_small(self):
        assert continuant(TridiagMatrix((Fraction(7),), (), ())) == 7
        m = TridiagMatrix((Fraction(2), Fraction(5)), (Fraction(3),), (Fraction(4),))
        assert continuant(m) == 2 * 5 - 3 * 4

    @given(st.lists(fr, min_size=1, max_size=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_determinant(self, diag, data):
        n = len(diag)
        upper = data.draw(st.lists(fr, min_size=n - 1, max_size=n - 1))
        lower = data.draw(st.lists(fr, min_size=n - 1, max_size=n - 1))
        m = TridiagMatrix(tuple(diag), tuple(upper), tuple(lower))
        assert continuant(m) == dense_det(tridiag_to_dense(m))

    @given(st.lists(fr, min_size=2, max_size=6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_depends_only_on_products(self, diag, data):
        n = len(diag)
        upper = data.draw(st.lists(fr.filter(lambda v: v != 0),
                                   min_size=n - 1, max_size=n - 1))
        lower = data.draw(st.lists(fr, min_size=n - 1, max_size=n - 1))
        m1 = TridiagMatrix(tuple(diag), tuple(upper), tuple(lower))
        m2 = TridiagMatrix(tuple(diag),
                           tuple(Fraction(1) for _ in upper),
                           tuple(u * l for u, l in zip(upper, lower)))
        assert continuant(m1) == continuant(m2)

    def test_constraint_cross_module(self):
        # determinant-form matrix for N=3, eps=0 at (x, y) = (1, 1)
        from aqrm.poly import constraint_tridiag
        m = constraint_tridiag(3, Fraction(0))
        val = continuant(m).evaluate(Fraction(1), Fraction(1))
        assert val == constraint_value(3, Fraction(0), 3, Fraction(1), Fraction(1))


class TestIsolation:
    def test_rejects_zero(self):
        with pytest.raises(ZeroPolynomialError):
            isolate_real_roots(UniPoly([]))

    def test_quadratic(self):
        (lo0, hi0), (lo1, hi1) = isolate_real_roots(UniPoly([-1, 0, 1]))  # x^2 - 1
        assert lo0 < -1 < hi0 <= lo1 < 1 < hi1

    def test_one_chain_per_isolation(self, monkeypatch):
        import aqrm.roots as roots_mod
        from aqrm.spectrum import juddian_roots

        real_chain = roots_mod.sturm_chain
        calls = []

        def counting_chain(p):
            calls.append(p)
            return real_chain(p)

        monkeypatch.setattr(roots_mod, "sturm_chain", counting_chain)
        # (x-1)^2 (x-2) (x+3)^3: one chain for its square-free part
        p = from_roots(((1, 2), (2, 1), (-3, 3)))
        assert isolate_real_roots(p) == [
            (Fraction(-8), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(25, 16)),
            (Fraction(25, 16), Fraction(21, 8))]
        assert len(calls) == 1
        # P_2^(2,-1/2)(x, 2^2) = 2 (x + 2)^2: a negative double root
        calls.clear()
        q = constraint_slice(2, Fraction(-1, 2), 4)
        assert isolate_real_roots(q) == [(Fraction(-3), Fraction(4))]
        assert len(calls) == 1
        assert juddian_roots(2, Fraction(-1, 2), 2) == []

    def test_no_real_roots(self):
        assert isolate_real_roots(UniPoly([1, 0, 1])) == []

    @given(st.dictionaries(
        st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 5, 8))),
        st.integers(1, 3), min_size=1, max_size=5))
    # roots that land on split points, once and twice in a row
    @example({Fraction(0): 3, Fraction(1, 2): 2})
    @example({Fraction(-3, 8): 3, Fraction(-1, 4): 2, Fraction(-1, 8): 3,
              Fraction(1): 3, Fraction(5, 4): 2})
    @example({Fraction(-1): 1, Fraction(3, 8): 1, Fraction(1, 2): 3, Fraction(3, 2): 2})
    @settings(max_examples=60, deadline=None)
    def test_isolates_and_refines_rational_roots(self, mults):
        p = from_roots(mults.items())
        sf = squarefree_part(p)
        ivs = isolate_real_roots(p)
        roots = sorted(mults)
        assert len(ivs) == len(roots)
        for (lo, hi), r in zip(ivs, roots):
            assert lo < r < hi
            assert sf(lo) * sf(hi) < 0
            assert refine_root(sf, (lo, hi), Fraction(1, 2 ** 48)) == r

    def test_exact_rational_roots(self):
        # roots at 0, 1/2, -3 exactly
        p = UniPoly([0, 1]) * UniPoly([Fraction(-1, 2), 1]) * UniPoly([3, 1])
        assert exact_roots(p, Fraction(1, 2 ** 30)) == [Fraction(-3), Fraction(0), Fraction(1, 2)]

    def test_juddian_linear_case(self):
        # P_1 for eps=3/10 at y=1/4 has the single root x = 27/20
        p = constraint_slice(1, Fraction(3, 10), Fraction(1, 4))
        ivs = isolate_real_roots(p)
        assert len(ivs) == 1
        (lo, hi), = ivs
        mid = bisect_sign_change(p, lo, hi, p(lo), Fraction(1, 2 ** 40))
        assert abs(mid - Fraction(27, 20)) <= Fraction(1, 2 ** 41)
        r = refine_root(p, ivs[0], Fraction(1, 2 ** 40))
        assert r == Fraction(27, 20)
        g = (float(r) ** 0.5) / 2
        assert g == pytest.approx(0.58095, abs=5e-5)

    def test_quadratic_juddian_case(self):
        # P_2 for eps=1 at y=9/4: roots 0.52605 and 4.09891
        p = constraint_slice(2, Fraction(1), Fraction(9, 4))
        rs = [float(r) for r in exact_roots(p, Fraction(1, 2 ** 40))]
        assert rs == pytest.approx([0.526051, 4.098949], abs=2e-5)
        assert (rs[1] ** 0.5) / 2 == pytest.approx(1.01229, abs=5e-5)

    def test_fig3_larger_root(self):
        p = constraint_slice(2, Fraction(2), Fraction(9, 4))
        rs = [float(r) for r in exact_roots(p, Fraction(1, 10 ** 7))]
        assert (rs[-1] ** 0.5) / 2 == pytest.approx(1.2836, abs=5e-4)

    @given(st.sets(st.integers(-8, 8), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_counts_products_of_distinct_linears(self, roots_set):
        p = UniPoly([1])
        for r in roots_set:
            p = p * UniPoly([-r, 1])
        assert count_real_roots(p) == len(roots_set)
        ivs = isolate_real_roots(p)
        assert len(ivs) == len(roots_set)
        assert all(sum(lo < r < hi for r in roots_set) == 1 for lo, hi in ivs)

    def test_all_roots_real_for_nonneg_x_slice(self):
        # fixing x >= 0 in P_N^(N,eps), every root in y is real (eps > -1/2)
        for N, eps, xv in ((5, Fraction(1, 4), Fraction(2)),
                           (4, Fraction(0), Fraction(0)),
                           (6, Fraction(-1, 4), Fraction(7, 2))):
            q = y_poly(constraint_poly(N, eps, N), xv)
            assert count_real_roots(q) == N

    def test_all_roots_real_for_fixed_y_slice(self):
        # the transposed statement: fixing any real y, every root in x is real
        for N, eps, yv in ((5, Fraction(1, 4), Fraction(3)),
                           (4, Fraction(1, 2), Fraction(-2)),
                           (6, Fraction(0), Fraction(1, 2))):
            q = constraint_slice(N, eps, yv)
            assert count_real_roots(q) == N


class TestIntegerSturm:
    @staticmethod
    def end(data, roots):
        # a root itself, a 2^-52 neighbour of one, or any dyadic point
        near = st.builds(lambda r, k: r + Fraction(k, 2 ** 52),
                         st.sampled_from(roots), st.integers(-2, 2))
        return data.draw(st.one_of(st.sampled_from(roots), near, dyadic))

    @given(root_mults, leading, st.data())
    @example({Fraction(0): 2, Fraction(1, 3): 3}, -1, None)
    @example({Fraction(-3): 1, Fraction(0): 1, Fraction(3): 1}, -1, None)
    @settings(max_examples=80, deadline=None)
    def test_counts_distinct_roots_in_half_open_interval(self, mults, lead, data):
        p = from_roots(mults.items()) * lead
        roots = sorted(mults)
        if data is None:
            lo, hi = roots[0], roots[-1]
        else:
            lo, hi = sorted((self.end(data, roots), self.end(data, roots)))
        assert count_real_roots(p, lo, hi) == sum(lo < r <= hi for r in roots)
        assert count_real_roots(p, lo=lo) == sum(lo < r for r in roots)
        assert count_real_roots(p, hi=hi) == sum(r <= hi for r in roots)
        assert count_real_roots(p) == len(roots)

    @given(root_mults, leading)
    @example({Fraction(-2): 1, Fraction(-1): 1, Fraction(1): 1, Fraction(2): 1}, -1)
    @settings(max_examples=60, deadline=None)
    def test_one_sign_changing_interval_per_distinct_root(self, mults, lead):
        p = from_roots(mults.items()) * lead
        sf = squarefree_part(p)
        assert all(type(c) is int for c in sf.coeffs)
        assert sf.degree == len(mults)
        ivs = isolate_real_roots(p)
        assert [sum(lo < r < hi for r in mults) for lo, hi in ivs] == [1] * len(mults)
        assert all(sf(lo) * sf(hi) < 0 for lo, hi in ivs)

    @given(int_polys, int_polys)
    @settings(max_examples=80, deadline=None)
    def test_pseudo_remainder_matches_reference(self, a, b):
        if len(b) > len(a):
            a, b = b, a
        assert roots_mod._neg_prem(a, b) == reference_neg_prem(a, b)

    @given(st.one_of(int_polys.map(UniPoly),
                     st.builds(lambda m, lead: from_roots(m.items()) * lead, root_mults, leading)))
    @settings(max_examples=80, deadline=None)
    def test_chain_matches_reference_chain(self, p):
        # _chain uncached, once on each pseudo-remainder
        a = roots_mod._integer_coeffs(p)
        chain = roots_mod._chain.__wrapped__(a)
        real = roots_mod._neg_prem
        roots_mod._neg_prem = reference_neg_prem
        try:
            assert chain == roots_mod._chain.__wrapped__(a)
        finally:
            roots_mod._neg_prem = real

    def test_chain_is_primitive_and_keeps_signs(self):
        # -2 (x - 1)(x + 2)(x - 3/2): the chain starts with the primitive
        # multiple of a positive rescaling, so its leading sign stays negative
        p = from_roots(((1, 1), (-2, 1), (Fraction(3, 2), 1))) * -2
        chain = sturm_chain(p)
        assert chain[0].coeffs == (-6, 7, 1, -2)
        assert all(type(c) is int for q in chain for c in q.coeffs)
        assert [q.degree for q in chain] == [3, 2, 1, 0]


class TestRefine:
    def test_linear(self):
        p = UniPoly([Fraction(-1, 2), 1])
        r = refine_root(p, (Fraction(0), Fraction(1)), Fraction(1, 2 ** 20))
        assert abs(r - Fraction(1, 2)) <= Fraction(1, 2 ** 20)

    def test_width_contract(self):
        p = UniPoly([-2, 0, 1])  # sqrt(2)
        iv = isolate_real_roots(p)[1]
        tol = Fraction(1, 2 ** 40)
        r = refine_root(p, iv, tol)
        assert abs(float(r) - 2 ** 0.5) < 2 ** -38

    def test_sign_change_bisection_is_exact_on_fractions(self):
        def f(x):
            return 3 * x - 1

        x = bisect_sign_change(f, Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2 ** 30))
        assert isinstance(x, Fraction) and abs(x - Fraction(1, 3)) <= Fraction(1, 2 ** 31)
        assert bisect_sign_change(f, Fraction(0), Fraction(2, 3), Fraction(-1), 0) == Fraction(1, 3)


class TestTridiagEigen:
    def test_tiny_cases(self):
        assert sym_tridiag_eigenvalues([0.0, 0.0], [1.0]) == pytest.approx([-1.0, 1.0])
        assert sym_tridiag_eigenvalues([1.0, 2.0, 3.0], [0.0, 0.0]) == pytest.approx(
            [1.0, 2.0, 3.0])

    def test_count_below_consistency(self):
        diag = [2.0, -1.0, 0.5, 3.0]
        off = [0.7, -0.3, 1.1]
        eigs = sym_tridiag_eigenvalues(diag, off, tol=1e-13)
        for sigma in (-2.0, 0.0, 0.6, 2.5, 5.0):
            assert tridiag_count_below(diag, off, sigma) == sum(e < sigma for e in eigs)

    def test_bisect_count_brackets_each_level(self):
        levels = [-1.5, 0.25, 0.25, 2.0]
        probes = []

        def count_below(sigma):
            probes.append(sigma)
            return sum(e < sigma for e in levels)

        for k, e in enumerate(levels):
            probes.clear()
            lam = bisect_sign_change(lambda s: count_below(s) - k - 0.5, -4.0, 4.0, -1, 1e-12)
            assert lam == pytest.approx(e, abs=1e-12)
            assert len(probes) == 43          # ceil(log2(8 / 1e-12)) halvings
        assert bisect_sign_change(lambda s: count_below(s) - 0.5, 0.0, 1.0, -1, 2.0) == 0.5

    def test_bisect_count_stops_at_float_spacing(self):
        # near 1e4 neighbouring floats are 1.8e-12 apart, so a 1e-12 bracket
        # is never reached; the bisection must stop when no float midpoint
        # is left strictly inside, not probe forever
        level = 1e4 + 0.1
        probes = []

        def count_below(sigma):
            probes.append(sigma)
            if len(probes) > 200:
                raise AssertionError("bisection does not terminate")
            return int(level < sigma)

        lam = bisect_sign_change(lambda s: count_below(s) - 0.5, 9000.0, 11000.0, -1, 1e-12)
        assert abs(lam - level) <= 2e-12
        assert len(probes) < 60

    def test_constraint_y_roots_match_matrix(self):
        # eigenvalues of -(D alpha + S) against exact y-roots of P_N(alpha, y)
        N, eps, alpha = 4, Fraction(1, 2), Fraction(2)
        import math as _m
        diag = [-float(i) * float(alpha) + float(i * (2 * (N - i) + 1 + 2 * eps))
                for i in range(1, N + 1)]
        off = [-_m.sqrt(i * (i + 1) * float(c_weight(N - i, eps))) for i in range(1, N)]
        eigs = sym_tridiag_eigenvalues(diag, off, tol=1e-13)
        yslice = y_poly(constraint_poly(N, eps, N), alpha)
        exact = [float(r) for r in exact_roots(yslice)]
        assert eigs == pytest.approx(exact, abs=1e-9)
