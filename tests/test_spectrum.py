"""Spectrum assembly: Juddian roots, root counts, T-function zeros, the
count-bracketed full spectrum, sweeps."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _dense import band_count_exact
from aqrm import oracle
from aqrm import spectrum as spectrum_mod
from aqrm.poly import c_weight, constraint_slice
from aqrm.roots import count_real_roots
from aqrm.series import ModelParams, is_half_integer, regularized_g
from aqrm.spectrum import (
    _FLOOR,
    KIND_JUDDIAN,
    KIND_NON_JUDDIAN,
    KIND_REGULAR,
    EigenvalueRecord,
    IncompleteSpectrum,
    count_positive_roots,
    exact_bias,
    expand_multiplicities,
    fmt_float,
    full_spectrum,
    juddian_roots,
    non_juddian_roots,
    records_to_rows,
    rows_to_csv,
    spectral_sweep,
)


def counter(p):
    """The level count of full_spectrum in x = lambda + g^2."""
    count = oracle.certified_count(p)
    return lambda x: count(x - p.g ** 2)


def t_zeros(N, delta, eps, sign):
    return non_juddian_roots(N, delta, eps, sign, 0.05, 3.0)


def assert_complete(p, x_max, recs):
    """recs are every level below x_max, within 1e-7 of the certified oracle."""
    lams = expand_multiplicities(recs)
    ev, _ = oracle.certified_eigenvalues(p, len(lams) + 1)
    assert lams == pytest.approx(ev[:-1], abs=1e-7)
    assert ev[-1] > x_max - p.g ** 2 - 1e-7


class TestJuddianRoots:
    def test_figure_anchor_half_integer(self):
        roots = juddian_roots(1, Fraction(1, 2), 1)
        assert roots == [(0.5, 2)]

    def test_figure_anchor_integer_bias(self):
        roots = juddian_roots(2, Fraction(1), Fraction(3, 2))
        gs = [g for g, _ in roots]
        assert len(gs) == 2
        assert min(abs(g - 1.01229) for g in gs) < 5e-5
        assert all(m == 2 for _, m in roots)

    def test_level_zero_empty(self):
        assert juddian_roots(0, Fraction(1, 2), 1.0) == []

    def test_non_half_integer_multiplicity_one(self):
        roots = juddian_roots(1, Fraction(3, 10), Fraction(1, 2))
        assert len(roots) == 1
        g, m = roots[0]
        assert m == 1
        assert g == pytest.approx(math.sqrt(27 / 20) / 2, abs=1e-12)

    def test_no_juddian_below_half_integer_bias(self):
        # P_k with bias -l/2 is positive on the positive quadrant for k <= l
        for ell in range(1, 7):
            for k in range(ell + 1):
                for delta in (Fraction(1, 2), 1, 2):
                    assert juddian_roots(k, Fraction(-ell, 2), delta) == []

    def test_root_isolation_and_counting_agree(self):
        # two different exact paths over the same polynomial
        for N, eps, delta in ((5, Fraction(1, 4), Fraction(3, 2)),
                              (6, Fraction(-1, 4), Fraction(1)),
                              (4, Fraction(2), Fraction(5, 2))):
            n_roots = len(juddian_roots(N, eps, delta))
            assert n_roots == count_positive_roots(N, eps, delta ** 2)


class TestRootCounts:
    def test_above_top_interval(self):
        for N, eps in ((4, Fraction(0)), (6, Fraction(2, 5))):
            top = c_weight(N, eps)
            assert count_positive_roots(N, eps, top) == 0
            assert count_positive_roots(N, eps, top + 3) == 0

    def test_linear_case(self):
        assert count_positive_roots(1, 0, Fraction(1, 2)) == 1

    def test_interval_staircase(self):
        N, eps = 6, Fraction(2, 5)
        for k in range(N):
            lo, hi = c_weight(k, eps), c_weight(k + 1, eps)
            for y in (lo, lo + (hi - lo) / 4, lo + (hi - lo) / 2):
                assert count_positive_roots(N, eps, y) == N - k

    def test_half_integer_negative_bias_matches_divided_family(self):
        N, ell = 4, 2
        for y in (Fraction(0), Fraction(3, 2), Fraction(5), Fraction(12), Fraction(33)):
            big = count_positive_roots(N + ell, Fraction(-ell, 2), y)
            small = count_positive_roots(N, Fraction(ell, 2), y)
            assert big == small

    @given(st.integers(0, 12), st.integers(1, 1000), st.data())
    @settings(max_examples=150, deadline=None)
    def test_inertia_count_matches_sturm_count(self, N, q, data):
        # the determinant-form count for eps > -1/2, at y = c_k, y = 0 and
        # random y, against the Sturm count of the constraint slice
        eps = Fraction(data.draw(st.integers(-((q - 1) // 2), 400 * q)), q)
        k = data.draw(st.integers(0, N))
        y = data.draw(st.sampled_from((c_weight(k, eps), Fraction(0))) | st.fractions(
            min_value=-50, max_value=c_weight(N, eps) + 50, max_denominator=1000))
        assert count_positive_roots(N, eps, y) == count_real_roots(
            constraint_slice(N, eps, y), lo=0)

    @given(N=st.integers(0, 12), q=st.integers(1, 1000), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sturm_count_at_bias_at_most_minus_half(self, N, q, data):
        # an off-diagonal product of the determinant form can be 0 or negative
        # there, so from N = 2 on the count is the Sturm count of the slice
        eps = Fraction(data.draw(st.integers(-20 * q, -((q + 1) // 2))), q)
        y = data.draw(st.fractions(min_value=-50, max_value=200, max_denominator=1000))
        calls = []

        def counted(p, lo=None, hi=None):
            calls.append(lo)
            return count_real_roots(p, lo, hi)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(spectrum_mod, "count_real_roots", counted)
            n = count_positive_roots(N, eps, y)
        assert n == count_real_roots(constraint_slice(N, eps, y), lo=0)
        assert calls == ([0] if N >= 2 else [])

    @given(N=st.integers(0, 7),
           eps=st.sampled_from((Fraction(0), Fraction(1, 4), Fraction(-1, 3), Fraction(-1, 2),
                                Fraction(-3, 4), Fraction(-7, 3))),
           points=st.lists(st.tuples(st.integers(-300, 600), st.integers(1, 12)), max_size=6))
    @example(N=3, eps=Fraction(-3, 4), points=[(5, 3), (15, 9), (1, 1)])
    @settings(max_examples=40, deadline=None)
    def test_grid_counts_are_the_sturm_counts(self, N, eps, points):
        # y = u/v on either side of the determinant form's guard 1 + 2 eps > 0,
        # v > 0 and (u, v) not always in lowest terms; at the example the
        # sign changes of the determinant form's minors would give 3 for y = 5/3
        assert spectrum_mod.positive_root_counts(N, eps, points) == [
            count_real_roots(constraint_slice(N, eps, Fraction(u, v)), lo=0)
            for u, v in points]

    def test_exploratory_negative_bias_lower_bound(self):
        # negative non-half-integer bias: at least N-k positive roots of the
        # shifted polynomial on each shifted interval (exploratory range)
        eps = Fraction(-2, 5)
        m = 1   # -floor(2 eps)
        N = 4
        for k in range(N):
            lo = c_weight(m + k, eps)
            hi = c_weight(m + k + 1, eps)
            y = lo + (hi - lo) / 3
            assert count_positive_roots(N + m, eps, y) >= N - k


class TestNonJuddian:
    def test_half_integer_anchor(self):
        zeros = non_juddian_roots(1, 1.0, 0.5, "plus", 1.0, 2.0)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(1.39303, abs=2e-4)

    def test_fig_anchor_non_half_integer(self):
        zeros = non_juddian_roots(1, 0.5, 0.3, "plus", 0.1, 2.0)
        assert min(abs(z - 0.8695) for z in zeros) < 2e-4

    def test_underflowing_t_is_refused(self):
        # T underflows to 0 at every scan point at N = 560, which read as a
        # zero at each of the 10 points
        with pytest.raises(ArithmeticError, match="underflow at N=560"):
            non_juddian_roots(560, 1.0, 0.5, "plus", 0.4, 0.5)

    def test_disjoint_from_juddian(self):
        zeros = non_juddian_roots(1, 0.5, 0.3, "plus", 0.1, 2.0)
        juds = [g for g, _ in juddian_roots(1, Fraction(3, 10), Fraction(1, 2))]
        for z in zeros:
            assert min(abs(z - g) for g in juds) > 1e-6


class TestSpectra:
    def test_full_spectrum_matches_oracle_with_degeneracy(self):
        p = ModelParams(0.5, 1.0, 0.5)
        recs = full_spectrum(p, 5.0)
        jud = [r for r in recs if r.kind == KIND_JUDDIAN]
        assert len(jud) == 1
        assert jud[0].x == pytest.approx(1.5, abs=1e-9)
        assert jud[0].multiplicity == 2
        lams = expand_multiplicities(recs)[:8]
        ev = oracle.lowest_eigenvalues(p, 100, 8)
        assert lams == pytest.approx(ev, abs=1e-7)

    def test_regular_spectrum_against_oracle(self):
        p = ModelParams(1.0, 1.0, 0.2)
        recs = full_spectrum(p, 4.0, x_lo=-1.0)
        assert all(r.kind == KIND_REGULAR for r in recs)
        ev = oracle.lowest_eigenvalues(p, 110, len(recs))
        assert [r.lam for r in recs] == pytest.approx(ev, abs=1e-7)

    def test_no_regular_record_on_exceptional_point(self):
        p = ModelParams(1.0, 1.0, 0.2)
        recs = [r for r in full_spectrum(p, 4.0) if r.kind == KIND_REGULAR]
        for r in recs:
            for e in (p.eps, -p.eps):
                n = round(r.x - e)
                if n >= 0:
                    assert abs(r.x - (n + e)) > 1e-6

    def test_non_half_integer_all_simple(self):
        p = ModelParams(0.8695928362384437, 0.5, 0.3)
        recs = full_spectrum(p, 4.0)
        assert all(r.multiplicity == 1 for r in recs)
        njs = [r for r in recs if r.kind == KIND_NON_JUDDIAN]
        assert len(njs) == 1 and njs[0].x == pytest.approx(1.3, abs=1e-9)

    def test_symmetric_model_degenerate_level(self):
        # zero bias: every exceptional point is a double pole; the level-1
        # root at delta = 4/5 is g = 3/10 exactly and the level is degenerate
        assert juddian_roots(1, Fraction(0), Fraction(4, 5)) == [(0.3, 2)]
        p = ModelParams(0.3, 0.8, 0.0)
        recs = full_spectrum(p, 4.0)
        jud = [r for r in recs if r.kind == KIND_JUDDIAN]
        assert len(jud) == 1
        assert jud[0].x == pytest.approx(1.0, abs=1e-9)
        assert jud[0].multiplicity == 2
        lams = expand_multiplicities(recs)[:7]
        ev = oracle.lowest_eigenvalues(p, 90, 7)
        assert lams == pytest.approx(ev, abs=1e-7)

    def test_integer_bias_degenerate_level(self):
        # larger quasi-exact root at (N=2, eps=2, delta=3/2): level x = 4
        # carries the double degeneracy and the rest of the spectrum tracks
        # the truncated-basis values
        g = juddian_roots(2, Fraction(2), Fraction(3, 2))[-1][0]
        p = ModelParams(g, 1.5, 2.0)
        recs = full_spectrum(p, 5.5)
        jud = [r for r in recs if r.kind == KIND_JUDDIAN]
        assert len(jud) == 1
        assert jud[0].x == pytest.approx(4.0, abs=1e-9)
        assert jud[0].multiplicity == 2 and jud[0].level_N == 2
        lams = expand_multiplicities(recs)[:9]
        ev = oracle.lowest_eigenvalues(p, 110, 9)
        assert lams == pytest.approx(ev, abs=1e-7)

    def test_bias_flip_symmetry(self):
        for (g, d, e) in ((0.9, 1.1, 0.27), (0.6, 0.8, 0.45)):
            a = full_spectrum(ModelParams(g, d, e), 4.0)
            b = full_spectrum(ModelParams(g, d, -e), 4.0)
            assert len(a) == len(b)
            for ra, rb in zip(a, b):
                assert ra.x == pytest.approx(rb.x, abs=1e-8)
                assert ra.kind == rb.kind
                assert ra.multiplicity == rb.multiplicity

    def test_exceptional_records_juddian_constructed(self):
        # bias 3/10: place the coupling exactly on the level-1 Juddian root
        p = ModelParams(math.sqrt(27 / 20) / 2, 0.5, 0.3)
        recs = full_spectrum(p, 4.0, x_lo=-2.0)
        assert any(r.kind == KIND_JUDDIAN and r.level_N == 1
                   and r.multiplicity == 1 for r in recs)

    def test_irrational_bias_classifies_exactly(self):
        # the kind test runs only where the count jumps: put the coupling on
        # the level-1 root (2g)^2 = 2 eps of P_1 = x + y - 1 - 2 eps at y = 1
        import warnings as w
        eps = math.sqrt(2) / 4
        p = ModelParams(math.sqrt(2 * eps) / 2, 1.0, eps)
        with w.catch_warnings():
            w.simplefilter("error")
            recs = full_spectrum(p, 3.0)
        assert [(r.level_N, r.multiplicity) for r in recs if r.kind == KIND_JUDDIAN] == [(1, 1)]
        ev = oracle.lowest_eigenvalues(p, 90, len(recs))
        assert [r.lam for r in recs] == pytest.approx(ev, abs=1e-7)

    def test_tiny_coupling_exceptional_scan(self):
        p = ModelParams(1e-5, 1.0, 0.3)
        assert all(r.kind == KIND_REGULAR for r in full_spectrum(p, 2.5, x_lo=-2.0))

    def test_k_sequence_vanishes_at_juddian_root(self):
        # at a quasi-exact coupling the level-N K coefficient vanishes
        from aqrm.series import k_sequence
        from fractions import Fraction as F
        for (N, eps, delta) in ((2, F(1), F(3, 2)), (1, F(3, 10), F(1, 2))):
            for g, _ in juddian_roots(N, eps, delta):
                p = ModelParams(g, float(delta), -float(eps))     # the branch -eps
                bs = k_sequence(N + float(eps), p, N)
                assert abs(bs[N]) < 1e-8


class TestCountBrackets:
    """The level count of the parity ladder brackets every regular level;
    where it and the located levels disagree the spectrum raises."""

    @pytest.mark.parametrize("params", (ModelParams(3.0, 1.0, 0.0),
                                        ModelParams(3.0, 0.5, 0.5)))
    def test_close_pairs_resolved(self, params):
        # strong-coupling doublets 3.4e-8 and 1.2e-6 apart at (3, 1, 0)
        lams = expand_multiplicities(full_spectrum(params, 12.0))
        assert len(lams) == 25
        assert lams == pytest.approx(oracle.lowest_eigenvalues(params, 150, 25), abs=1e-7)

    def test_unresolved_pair_raises(self):
        # two levels 5e-11 apart, closer than the narrowest bracket
        with pytest.raises(IncompleteSpectrum, match="levels within"):
            full_spectrum(ModelParams(3.5, 1.0, 0.0), 14.0)

    def test_record_must_match_count(self, monkeypatch):
        # the count must jump by exactly a record's multiplicity at the record:
        # at the half-integer T-zero a Juddian claim needs a jump of 2, the
        # count shows 1, so no record is made and the level stays regular
        import aqrm.spectrum as spectrum_mod
        (g,) = t_zeros(1, 1.0, 0.5, "plus")
        p = ModelParams(g, 1.0, 0.5)
        assert [(r.kind, r.x) for r in full_spectrum(p, 3.0)
                if r.kind != KIND_REGULAR] == [(KIND_NON_JUDDIAN, 1.5)]
        monkeypatch.setattr(spectrum_mod, "_juddian_here", lambda *args: True)
        recs = full_spectrum(p, 3.0)
        assert all(r.kind == KIND_REGULAR for r in recs)
        assert min(abs(r.x - 1.5) for r in recs) < 1e-9
        ev = oracle.lowest_eigenvalues(p, 100, len(recs))
        assert [r.lam for r in recs] == pytest.approx(ev, abs=1e-7)

    def test_doublet_on_a_first_block_level(self):
        # at (1, 2, 3/2) the Juddian doublet x = 7/2 sits on the level 5/2 of
        # the first rung's block, where the float count can be wrong about
        # 1e-9 from the level; the reads at 7/2 -/+ _FLOOR must still match
        # the exact count of the same M = 60 ladder
        p = ModelParams(1.0, 2.0, 1.5)
        assert EigenvalueRecord(3.5, 2.5, KIND_JUDDIAN, 2, 2, "plus_eps") in full_spectrum(p, 4.0)
        count, ladder = counter(p), oracle._ladder(p, 60)
        reads = [(count(x), band_count_exact(ladder, x - p.g ** 2))
                 for x in (3.5 - _FLOOR, 3.5 + _FLOOR)]
        assert reads == [(7, 7), (9, 9)]

    def test_capped_rungs_raise(self, monkeypatch):
        # at g = 3 the count below x = 12 certifies only past rung 40
        monkeypatch.setattr(oracle, "M_MAX", 40)
        with pytest.raises(IncompleteSpectrum, match="not certified by M=40$"):
            full_spectrum(ModelParams(3.0, 1.0, 0.0), 12.0)

    def test_hopeless_window_refuses_before_listing_candidates(self):
        # no rung certifies the count at x_max = 1e6, so the refusal must
        # come before the 2e6 candidates N +/- eps of the window, some
        # hundreds of MB, are listed
        import tracemalloc
        tracemalloc.start()
        try:
            with pytest.raises(IncompleteSpectrum, match="not certified"):
                full_spectrum(ModelParams(0.5, 1.0, 0.3), 1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_rejects_window_below_floor(self):
        # non-finite x_max is covered through the CLI input-range cases
        with pytest.raises(ValueError, match="x_max above x_lo"):
            full_spectrum(ModelParams(0.5, 1.0, 0.3), -4.0)

    @settings(max_examples=25, deadline=None)
    @given(g=st.floats(0.1, 2.5), delta=st.floats(0.3, 2.0),
           eps=st.one_of(st.sampled_from((0.0, 0.5, -0.5)), st.floats(-1.0, 1.0)))
    def test_matches_certified_oracle(self, g, delta, eps):
        p = ModelParams(g, delta, eps)
        lams = expand_multiplicities(full_spectrum(p, g * g + 4.0))
        ev, _ = oracle.certified_eigenvalues(p, len(lams) + 1)
        assert lams == pytest.approx(ev[:-1], abs=1e-7)
        assert ev[-1] > 4.0 - 1e-7


@functools.lru_cache(maxsize=None)
def near_exceptional_anchors():
    """(g*, delta, eps, x*) with an exceptional level x* = N +/- eps at the
    coupling g*: the Juddian roots of four (N, eps, delta) and the T-zeros of
    N <= 2 on both signs at delta = 1, eps = 0.3 and 1/2."""
    out = [(g, float(delta), float(eps), N + float(eps))
           for N, eps, delta in ((1, Fraction(1, 2), 1), (2, Fraction(1, 2), 1),
                                 (2, Fraction(1), Fraction(1, 2)), (3, Fraction(3, 2), 1))
           for g, _ in juddian_roots(N, eps, delta)]
    out += [(g, 1.0, eps, N + s * eps) for eps in (0.3, 0.5) for N in range(3)
            for sign, s in (("plus", 1), ("minus", -1)) for g in t_zeros(N, 1.0, eps, sign)]
    return out


class TestNearExceptional:
    """Couplings just off an exceptional point: the count alone decides
    whether a level sits on N +/- eps, so nothing raises and every level
    matches the certified oracle."""

    @pytest.mark.parametrize("dg", (1e-9, 1e-8, 5e-8))
    def test_near_degenerate_juddian(self, dg):
        p = ModelParams(0.5 + dg, 1.0, 0.5)
        assert_complete(p, 3.0, full_spectrum(p, 3.0))

    @pytest.mark.parametrize("sign", ("plus", "minus"))
    @pytest.mark.parametrize("rel", (1e-8, 1e-7, 5e-7))
    def test_near_t_zero(self, sign, rel):
        (g,) = t_zeros(1, 1.0, 0.3, sign)
        p = ModelParams(g * (1 + rel), 1.0, 0.3)
        assert_complete(p, 3.0, full_spectrum(p, 3.0))

    @pytest.mark.parametrize("eps", (0.3, 0.5))
    def test_sweep_without_t_function(self, monkeypatch, eps):
        import aqrm.spectrum as spectrum_mod

        def forbidden(*args):
            raise AssertionError("T-function on the sweep path")

        (g_t,) = t_zeros(1, 1.0, eps, "plus")
        monkeypatch.setattr(spectrum_mod, "t_function", forbidden)
        rows = spectral_sweep(1.0, eps, (0.5, g_t), 8)
        assert len(rows) == 16
        assert [r["g"] for r in rows if r["kind"] == KIND_NON_JUDDIAN] == [g_t]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), side=st.sampled_from((1, -1)), u=st.floats(-12.0, -5.0))
    def test_matches_certified_oracle(self, data, side, u):
        g0, delta, eps, x0 = data.draw(st.sampled_from(near_exceptional_anchors()))
        p = ModelParams(g0 * (1 + side * 10 ** u), delta, eps)
        assert_complete(p, x0 + 1.25, full_spectrum(p, x0 + 1.25))


class TestJuddianMembership:
    """`_juddian_here` is one exact `count_real_roots` on the constraint
    slice for every bias, a float bias with no low-denominator match taken
    as its exact dyadic value; checked against the refined-root predicate it
    replaced."""

    @staticmethod
    def _old_predicate(roots, g):
        return any(abs(gj - g) <= 1e-7 * max(1.0, g) for gj, _ in roots)

    def _check(self, rng, N, eps, delta):
        from aqrm.spectrum import _juddian_here
        roots = juddian_roots(N, Fraction(eps), Fraction(delta))

        def here(g):
            return _juddian_here(N, ModelParams(g, delta, float(eps)), float(eps))

        for gj, _ in roots:
            s = max(1.0, gj)
            assert here(gj)
            assert here(gj + 3e-8 * s) and here(gj - 3e-8 * s)
            assert not here(gj + 3e-7 * s)
            assert not here(gj - 3e-7 * s)
        for _ in range(10):
            g = rng.uniform(0.01, 3.0)
            assert here(g) == self._old_predicate(roots, g)
        for _ in range(10 if roots else 0):
            gj = rng.choice(roots)[0]
            g = gj + rng.uniform(-2e-7, 2e-7) * max(1.0, gj)
            assert here(g) == self._old_predicate(roots, g)
        return len(roots)

    def test_matches_refined_root_predicate(self):
        import random
        from aqrm.spectrum import exact_bias
        rng = random.Random(20171211)
        checked = 0
        for N in range(9):
            for eps in (Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                        Fraction(1), Fraction(3, 2), Fraction(3, 10)):
                for delta in (0.5, 1.0, 1.5):
                    checked += self._check(rng, N, eps, delta)
        assert checked > 100
        # biases with no low-denominator match, N <= 6
        checked = 0
        for eps in (math.sqrt(2) / 4, 0.123456789, 0.30000001):
            assert exact_bias(eps) is None
            for N in range(7):
                for delta in (0.5, 1.0, 1.5):
                    checked += self._check(rng, N, eps, delta)
        assert checked > 30

    def test_sweep_asks_only_where_the_count_jumps(self, monkeypatch):
        from aqrm import roots as roots_mod
        from aqrm import spectrum as spectrum_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("root isolation on the spectrum path")

        for mod in (roots_mod, spectrum_mod):
            monkeypatch.setattr(mod, "isolate_real_roots", forbidden)
            monkeypatch.setattr(mod, "refine_root", forbidden)
        monkeypatch.setattr(spectrum_mod, "juddian_roots", forbidden)

        seen = []
        real_here = spectrum_mod._juddian_here

        def spy(N, params, branch_eps, *args, **kwargs):
            seen.append((N, params.g, exact_bias(branch_eps)))
            return real_here(N, params, branch_eps, *args, **kwargs)

        monkeypatch.setattr(spectrum_mod, "_juddian_here", spy)
        # the exact test is consulted only where the count jumps at a
        # candidate: x = 3/2 jumps at g = 1/2 (Juddian) and at the level-1
        # T-zero g_t (non-Juddian), both tested against the level-1 slice
        (g_t,) = t_zeros(1, 1.0, 0.5, "plus")
        rows = spectral_sweep(1.0, 0.5, (0.5, 0.8, 1.1, g_t, 1.4), 6)
        assert seen == [(1, 0.5, Fraction(1, 2)), (1, g_t, Fraction(1, 2))]
        assert any(r["kind"] == KIND_JUDDIAN and r["g"] == 0.5 for r in rows)


class TestSweep:
    def test_small_sweep_degeneracy_flags(self):
        rows = spectral_sweep(1.0, 0.5, (0.45, 0.5, 0.55), 6)
        assert {r["g"] for r in rows} == {0.45, 0.5, 0.55}
        jud = [r for r in rows if r["kind"] == KIND_JUDDIAN]
        assert all(abs(r["g"] - 0.5) < 1e-12 for r in jud)
        assert len(jud) == 2  # the degenerate pair expanded
        for g in (0.45, 0.5, 0.55):
            assert sum(1 for r in rows if r["g"] == g) == 6

    @given(g=st.floats(0.01, 3), delta=st.floats(0.1, 3),
           eps=st.one_of(st.floats(-2, 2), st.sampled_from((0.5, -0.5, 1.5, -1.5))),
           n_levels=st.integers(0, 12))
    @settings(max_examples=30, deadline=None)
    def test_level_cap_changes_no_record(self, g, delta, eps, n_levels):
        # the sweep assembles only up to level n_levels; full_spectrum on the
        # same window, cut there, gives the same rows
        p = ModelParams(g, delta, eps)
        x_max = oracle.level_bracket(p, n_levels - 1)[1]
        try:
            rows = spectral_sweep(delta, eps, [g], n_levels)
        except IncompleteSpectrum:
            with pytest.raises(IncompleteSpectrum):
                full_spectrum(p, x_max)
            return
        try:
            recs = full_spectrum(p, x_max)
        except IncompleteSpectrum:
            return          # two levels closer than _FLOOR above the cap
        flat = [r for r in recs for _ in range(r.multiplicity)]
        assert rows == records_to_rows(flat[:n_levels], g)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            spectral_sweep(1.0, 0.5, (0.5, 0.5), 4)

    def test_small_coupling_limit(self):
        rows = spectral_sweep(1.0, 0.3, (0.01,), 5)
        r = math.sqrt(1.0 + 0.09)
        expect = sorted([n + s * r for n in range(4) for s in (+1, -1)])[:5]
        got = [row["lambda"] for row in rows]
        assert got == pytest.approx(expect, abs=1e-3)


class TestHelpers:
    def test_exact_bias_detection(self):
        assert exact_bias(0.5) == Fraction(1, 2)
        assert exact_bias(0.2) == Fraction(1, 5)
        assert exact_bias(1.4) == Fraction(7, 5)
        assert exact_bias(math.sqrt(2) / 3) is None

    def test_csv_shape(self):
        p = ModelParams(0.5, 1.0, 0.5)
        rows = records_to_rows(full_spectrum(p, 3.0), p.g)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "g,index,lambda,x,kind,multiplicity,level_N,branch"
        assert all(len(line.split(",")) == 8 for line in lines[1:])


class TestFloatBisection:
    """The sign-change bisection behind the T-function scan and the count
    bisection behind each regular level both end whatever the tolerance: the
    first once no float is left strictly inside its bracket, the second on a
    grid no finer than 2^-34 and two float spacings. The T-function stub is
    a step function, so no probe ever lands on an exact zero."""

    @staticmethod
    def limited(f, cap=200):
        calls = []

        def stub(*args):
            calls.append(args)
            if len(calls) > cap:
                raise AssertionError("bisection does not terminate")
            return f(*args)

        return stub, calls

    def test_t_function_scan(self, monkeypatch):
        import aqrm.spectrum as spectrum_mod
        stub, calls = self.limited(lambda N, params: 1.0 if params.g >= 1.2345 else -1.0)
        monkeypatch.setattr(spectrum_mod, "t_function", stub)
        monkeypatch.setattr(spectrum_mod, "_T_SCAN_STEP", 0.1)
        monkeypatch.setattr(spectrum_mod, "_T_ZERO_TOL", 1e-20)
        zeros = non_juddian_roots(1, 1.0, 0.3, "plus", 1.0, 1.5)
        assert zeros == [pytest.approx(1.2345, abs=1e-15)]
        assert len(calls) < 80

    def test_regularized_g_scan(self, monkeypatch):
        # the grid of each level is 2^-34 wide, the finest the count
        # resolves. On a grid two float spacings wide, plain bisection from
        # the whole window took about 54 count probes per level and the
        # Newton-steered one 11.4; now 10.0
        import aqrm.spectrum as spectrum_mod
        p = ModelParams(0.5, 1.0, 0.3)
        level_count = spectrum_mod._level_count
        calls = []

        def limited_count(params):
            stub, probes = self.limited(level_count(params), cap=600)
            calls.append(probes)
            return stub

        monkeypatch.setattr(spectrum_mod, "_level_count", limited_count)
        recs = full_spectrum(p, 2.0)
        n_regular = sum(r.kind == KIND_REGULAR for r in recs)
        assert n_regular >= 3
        assert len(calls) == 1
        newton = [args for args in calls[0] if args[1:] == (True,)]
        assert newton and len(calls[0]) <= 16 * n_regular


class TestDyadicReporting:
    """A regular level is the midpoint of the dyadic cell [j h, (j + 1) h],
    h = 2^-34 (the largest power of two <= 1e-10), across which the level
    count jumps; the cell, not the bracket or the probes, fixes the printed
    value. calG, whose zeros the levels are, checks the cell."""

    H = 2.0 ** -34

    @settings(max_examples=20, deadline=None)
    @given(g=st.floats(0.1, 2.5), delta=st.floats(0.3, 2.0),
           eps=st.one_of(st.sampled_from((0.0, 0.5, -0.5)), st.floats(-1.0, 1.0)))
    def test_levels_are_certified_cell_midpoints(self, g, delta, eps):
        # here, below x = g^2 + 4, the sign of calG can be trusted
        p = ModelParams(g, delta, eps)
        n = counter(p)
        recs = full_spectrum(p, g * g + 4.0)
        for r in recs:
            if r.kind == KIND_REGULAR:
                j = math.floor(r.x / self.H)
                assert r.x == (j + 0.5) * self.H
                assert n(j * self.H) < n((j + 1) * self.H)
                assert regularized_g(j * self.H, p) * regularized_g((j + 1) * self.H, p) <= 0

    @pytest.mark.parametrize("g,eps,x_max", ((0.5, 0.5, 5.0), (0.5, 0.123456789, 5.0),
                                             (0.3, 0.3, 4.0)))
    def test_same_float_from_other_brackets(self, g, eps, x_max):
        # each window [x - below, x + above) holds only the level at x
        p = ModelParams(g, 1.0, eps)
        recs = full_spectrum(p, x_max)
        for r in recs:
            if r.kind != KIND_REGULAR:
                continue
            assert min(abs(o.x - r.x) for o in recs if o is not r) > 2e-3
            for below, above in ((3e-4, 7e-4), (1e-3, 2e-10), (5e-11, 1e-6)):
                assert full_spectrum(p, r.x + above, x_lo=r.x - below) == [r]

    def test_grid_no_finer_than_the_count(self):
        # here the float count reads 6, 7, 6, 6, 7, 6, 6, 7, 7, 7, 7, 6, 7, ...
        # on the 2^-44 grid next to the level near x = 2.606 (M = 240); on
        # the 2^-34 grid it steps once
        p = ModelParams(6.0, 1.0625, 0.6142757900593858)
        recs = full_spectrum(p, 3.0)
        assert any(r.kind == KIND_REGULAR and abs(r.x - 2.606073395) < 1e-9 for r in recs)

    @pytest.mark.parametrize("eps", (0.3, 0.5))
    def test_calg_evaluations_per_level(self, monkeypatch, eps):
        # the grid of 'sweep --delta 1 --eps ... --g 0.1:0.5:0.1 --levels 8':
        # the level count locates every level, and neither G nor calG is summed
        import aqrm.series as series_mod
        calls = []
        combined = series_mod._combined

        def counted(series, x, params):
            calls.append(x)
            return combined(series, x, params)

        monkeypatch.setattr(series_mod, "_combined", counted)
        rows = spectral_sweep(1.0, eps, [k * 0.1 for k in range(1, 6)], 8)
        assert sum(r["kind"] == KIND_REGULAR for r in rows) >= 35
        assert calls == []

    @pytest.mark.parametrize("eps", (0.3, 0.5))
    def test_count_probes_per_level(self, monkeypatch, eps):
        # the same grid: plain bisection from each level's bracket down to its
        # 2^-34 cell took about 38 count probes per regular level; steered
        # by Newton, 11.2 (eps = 0.3) and 10.4 (eps = 1/2); with the
        # candidates' probes splitting the window and no separate search for
        # the top level, 9.25 and 8.89
        plain, newton = [], []
        count = oracle._band_count_below

        def counted(ladder, sigma, *jet):
            (newton if jet and jet[0] else plain).append(sigma)
            return count(ladder, sigma, *jet)

        monkeypatch.setattr(oracle, "_band_count_below", counted)
        rows = spectral_sweep(1.0, eps, [k * 0.1 for k in range(1, 6)], 8)
        n_regular = sum(r["kind"] == KIND_REGULAR for r in rows)
        assert n_regular >= 35
        assert newton and len(plain) + len(newton) <= 10 * n_regular


def reference_assemble(params, n, x_lo, x_max, cap=math.inf):
    """spectrum._assemble with the plain grid loop it had before Newton
    steered it: the same edges, cap and order of probes, but every probe of
    a cell bisection at the midpoint of (lo, hi), with no jet."""
    import aqrm.spectrum as spectrum_mod
    cands = []
    for c in sorted(((N + e, N, e, branch)
                     for branch, e in (("plus_eps", params.eps), ("minus_eps", -params.eps))
                     for N in range(int(x_max - e) + 2)
                     if x_lo <= N + e - _FLOOR and N + e + _FLOOR <= x_max),
                    key=lambda c: c[0]):
        if not cands or c[0] - cands[-1][0] >= 2 * _FLOOR:
            cands.append(c)
    edges = [x_lo] + [x for c in cands for x in (c[0] - _FLOOR, c[0] + _FLOOR)] + [x_max]
    top, counts = n(x_max), []
    for x in edges[:-1]:
        counts.append(n(x))
        if counts[-1] >= cap:
            break
    else:
        counts.append(top)
    out, todo = [], []
    for i, (a, b, na, nb) in enumerate(zip(edges, edges[1:], counts, counts[1:])):
        if i % 2 and nb != na:
            x0, N, e, branch = cands[i // 2]
            jud = spectrum_mod._juddian_here(N, params, e)
            if nb - na == (2 if jud and is_half_integer(params.eps) else 1):
                kind = KIND_JUDDIAN if jud else KIND_NON_JUDDIAN
                out.append(EigenvalueRecord(x0, x0 - params.g ** 2, kind, nb - na, N, branch))
                continue
        todo.append((a, b, na, nb))
    while todo:
        a, b, na, nb = todo.pop()
        if nb == na + 1:
            h = max(spectrum_mod._H, 2.0 * math.ulp(max(abs(a), abs(b))))
            lo, hi = math.floor(a / h), math.ceil(b / h)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if n(mid * h) > na:
                    hi = mid
                else:
                    lo = mid
            x = (lo + 0.5) * h
            out.append(EigenvalueRecord(x=x, lam=x - params.g ** 2, kind=KIND_REGULAR))
        elif nb != na:
            if b - a <= _FLOOR:
                raise IncompleteSpectrum(
                    f"{nb - na} levels within {b - a:.1e} of x = {fmt_float(a)}")
            mid = 0.5 * (a + b)
            nm = n(mid)
            todo += [t for t in ((a, mid, na, nm), (mid, b, nm, nb)) if t[2] < cap]
    out.sort(key=lambda r: r.x)
    return out


def outcome(assemble, params, x_max):
    """The records, or the refusal, of assemble on full_spectrum's window."""
    import aqrm.spectrum as spectrum_mod
    try:
        return assemble(params, spectrum_mod._level_count(params),
                        spectrum_mod._x_floor(params), x_max)
    except IncompleteSpectrum as exc:
        return str(exc)


class TestNewtonSteering:
    """Newton only picks the grid points of each cell bisection; every count
    still moves an end, so the records are those of plain bisection."""

    @given(g=st.floats(0.05, 7), delta=st.floats(0.05, 3),
           eps=st.one_of(st.floats(-2, 2), st.sampled_from((0.0, 0.5, -0.5, 1.5))),
           x_max=st.floats(0.5, 8))
    @settings(max_examples=40, deadline=None)
    def test_same_records_as_plain_bisection(self, g, delta, eps, x_max):
        import aqrm.spectrum as spectrum_mod
        p = ModelParams(g, delta, eps)
        assert (outcome(spectrum_mod._assemble, p, x_max)
                == outcome(reference_assemble, p, x_max))

    @pytest.mark.parametrize("g,eps", ((0.5, 0.5), (1.3, 0.3), (2.5, 1.5)))
    def test_same_records_under_a_level_cap(self, g, eps):
        # a sweep's window: up to level 8, below the top of level 7's bracket
        import aqrm.spectrum as spectrum_mod
        p = ModelParams(g, 1.0, eps)
        args = (spectrum_mod._x_floor(p), oracle.level_bracket(p, 7)[1], 8)
        recs = spectrum_mod._assemble(p, spectrum_mod._level_count(p), *args)
        assert sum(r.multiplicity for r in recs) >= 8
        assert recs == reference_assemble(p, spectrum_mod._level_count(p), *args)

    @pytest.mark.parametrize("g,delta,eps,x_max", ((0.5, 1.0, 0.3, 6.0), (2.5, 0.7, 0.5, 8.0),
                                                   (6.0, 0.2, 1.5, 40.0)))
    def test_no_newton_correction(self, monkeypatch, g, delta, eps, x_max):
        # with every correction None the bisection takes midpoints only; the
        # last case is the g = 6 doublet, refused either way
        import aqrm.spectrum as spectrum_mod
        p = ModelParams(g, delta, eps)
        expected = outcome(reference_assemble, p, x_max)
        probe = oracle._band_count_below

        def no_step(ladder, sigma, newton=False):
            res = probe(ladder, sigma)
            return (*res, None) if newton else res

        monkeypatch.setattr(oracle, "_band_count_below", no_step)
        assert outcome(spectrum_mod._assemble, p, x_max) == expected


# Every regular level below x_max of five spectra at small g and large x, as
# zeros of G = Delta^2 Rbar+ Rbar- - R+ R- rounded to 20 digits: each zero was
# bisected to 1e-60 on the K-coefficient series in 90-digit arithmetic, at the
# exact binary values of the float inputs, and holds its first 45 digits at
# 130. Float calG has lost its digits here: placed by its sign changes, these
# levels were off by up to 3.7e-9, 2.3e-9, 5.3e-10, 2.2e-10 and 4.1e-11.
LARGE_X_ZEROS = {
    (0.3, 1.0, 0.3, 20.0): """
        -0.98912165301877552626 -0.081652305069825917294 0.82951954162707852714 1.2031093563106249889
        1.7520720263661464511 2.2885099237970765174 2.6835307085087731771 3.3604144092049543779
        3.6240257009505043584 4.4150297456298943644 4.5789493874855127231 5.4329804070440275154
        5.5685288480357764129 6.4076854505187146316 6.5998315646186149763 7.3674228093108133919
        7.6448543911908437565 8.3250743568861214072 8.6908415044806108796 9.2840010147662059836
        9.7344247156018912648 10.245515828479724973 10.774132026398300255 11.210615563459542798
        11.808616943781883535 12.180540660186132129 12.836100804873819214 13.157064524913598902
        13.854339925672643830 14.142453394152312285 14.861445347218946722 15.138623544232986617
        15.857368832127789915 16.145647168884551093 16.844273492568952122 17.161378388894316771
        17.825141822809737135 18.182843143301592903 18.802478240487129568 19.207534367660993979
        19.778010466393656230
        """,
    (0.25, 2.6, -0.1, 18.5): """
        -2.5496630922572331990 -1.5745462914073069527 -0.59906187084217343841 0.37677145508023979215
        1.3529366979795143244 2.3294183316277079498 2.6789235360662888574 3.3062021083862256354
        3.7031472384062786851 4.2832749109809187260 4.7270439370066927864 5.2606246278052974930
        5.7506283367146258101 6.2382400464517235861 6.7739139799502803285 7.2161107622496150071
        7.7969133716809775336 8.1942270996321173726 8.8196380855956011402 9.1725800449634427025
        9.8420988532268971483 10.151161190434132564 10.864305635742134371 11.129962690364489930
        11.886267673792319854 12.108977235369248859 12.907993498526213472 13.088198061954322782
        13.929490842610800172 14.067619059250898061 14.950766177658147527 15.047235246931023767
        15.971821981410462499 16.027045521314079224 16.992607236777487856 17.007102167863902054
        17.987099867036871359 18.013428436003959376
        """,
    (0.5, 1.0, 0.3, 20.0): """
        -0.89653209904260078300 -0.11791238704488345157 0.68862989737989899197 1.4267825120040238396
        1.5644086492370188335 2.3720616423105389536 2.6644752256555710446 3.2641003099775098839
        3.7907027446480028310 4.1762424238796969078 4.8594898522306237965 5.1370121536603088330
        5.8439454152111425245 6.1744280461596554588 6.7845806962084136416 7.2488184176115764146
        7.7178206758272951404 8.3221061365511879160 8.6583388468903805801 9.3725599191255053455
        9.6213728446195894151 10.378751026640209432 10.626764742925209006 11.347040751424813720
        11.667513444395057221 12.301741226144242702 12.718603997191271660 13.256244729924580028
        13.765479084461977877 14.217696363757633904 14.799488005879346986 15.192314297198535655
        15.814302275412359222 16.185592634261372069 16.808502696102220142 17.198580757730095314
        17.786886786448388165 18.226204662388685307 18.756342802925026092 19.261212485238647929
        19.722518667706136597
        """,
    (0.2, 2.0, 0.0, 16.0): """
        -1.9680517445387644138 -0.98930258010312654982 -0.010192416307785659088 0.96925569518126786228
        1.9490216908859792078 2.0531096206875005805 2.9290879423457529818 3.0738310453805510747
        3.9094388355012168468 4.0942336637927345677 4.8900604467901906958 5.1143340724292745136
        5.8709402913663000234 6.1341470720765558511 6.8520671263942611873 7.1536859227631950375
        7.8334307976030617127 8.1729625405709533936 8.8150221210642953906 9.1919876473907287107
        9.7968327950933531412 10.210770880458582610 10.778855339682779757 11.229320864832248006
        11.761083063359976109 12.247645248247465588 12.743510060256818761 13.265750693279050765
        13.726131244112661278 14.283642815308880358 14.708942431940673856 15.301326044527741033
        15.691940500063344288
        """,
    (1.0, 1.0, 0.3, 20.0): """
        -0.58059510997035213009 -0.063241702795711493557 0.46272820396910263607 1.1091873670577434563
        1.7542429731069422161 2.3909140595554467801 2.6236996144639079809 3.2523243280141596045
        3.8196954629982076135 4.1889183962404583639 4.7417731036482191342 5.3384919465778084557
        5.6398638533651368476 6.3306348102912881615 6.7103262768418501238 7.2368419467613422924
        7.7915609130101612934 8.2137041139833346648 8.7526995173470876210 9.2932119730641460364
        9.6770374654053110675 10.348499529593278012 10.655708371659548206 11.310243572580775506
        11.717791336415347203 12.249193532224849079 12.771143319152464812 13.225134602133509887
        13.762486309427188758 14.260676427844403591 14.713878318186008443 15.317956686725462845
        15.668615314643961511 16.339312875070561404 16.665995982751166338 17.310720072092465216
        17.707807493134016141 18.266632796498132763 18.751014022689172833 19.238466827730643871
        19.763006136123983936
        """,
}


@pytest.mark.parametrize("g,delta,eps,x_max", LARGE_X_ZEROS)
def test_large_x_levels_within_half_a_cell_of_the_zeros(g, delta, eps, x_max):
    recs = full_spectrum(ModelParams(g, delta, eps), x_max)
    xs = [r.x for r in recs if r.kind == KIND_REGULAR]
    zeros = LARGE_X_ZEROS[g, delta, eps, x_max].split()
    assert len(xs) == len(zeros)
    bound = Fraction(2.0 ** -35) + Fraction(1, 10 ** 12)
    for x, z in zip(xs, zeros):
        assert abs(Fraction(x) - Fraction(z)) <= bound, (x, z)
