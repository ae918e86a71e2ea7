"""Spectrum assembly: Juddian roots, root counts, T-function zeros, the
count-bracketed full spectrum, sweeps."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqrm import oracle
from aqrm.poly import c_weight
from aqrm.roots import dyadic_root
from aqrm.series import ModelParams, regularized_g
from aqrm.spectrum import (
    KIND_JUDDIAN,
    KIND_NON_JUDDIAN,
    KIND_REGULAR,
    IncompleteSpectrum,
    count_positive_roots,
    exact_bias,
    exceptional_records,
    expand_multiplicities,
    full_spectrum,
    juddian_roots,
    non_juddian_roots,
    records_to_rows,
    rows_to_csv,
    spectral_sweep,
)


def counter(p, M=80):
    """The level count of full_spectrum in x = lambda + g^2 at truncation M."""
    count = oracle.level_counter(p, M)
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
        recs = exceptional_records(p, counter(p), -2.0, 4.0)
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
        assert exceptional_records(p, counter(p), -2.0, 2.5) == []

    def test_k_sequence_vanishes_at_juddian_root(self):
        # at a quasi-exact coupling the level-N K coefficient vanishes
        from aqrm.series import k_sequence
        from fractions import Fraction as F
        for (N, eps, delta) in ((2, F(1), F(3, 2)), (1, F(3, 10), F(1, 2))):
            for g, _ in juddian_roots(N, eps, delta):
                p = ModelParams(g, float(delta), float(eps))
                ks = k_sequence(N + float(eps), p, "minus", N)
                assert abs(ks[N]) < 1e-8


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

    def test_capped_truncation_raises(self, monkeypatch):
        import aqrm.spectrum as spectrum_mod
        monkeypatch.setattr(spectrum_mod, "_M_CAP", 40)
        with pytest.raises(IncompleteSpectrum, match="not converged at M=40"):
            full_spectrum(ModelParams(3.0, 1.0, 0.0), 12.0)

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
    """`_juddian_here` is one exact Sturm count on a cached chain for every
    bias, a float bias with no low-denominator match taken as its exact
    dyadic value; checked against the refined-root predicate it replaced."""

    @staticmethod
    def _old_predicate(roots, g):
        return any(abs(gj - g) <= 1e-7 * max(1.0, g) for gj, _ in roots)

    def _check(self, rng, N, eps, delta):
        from aqrm.spectrum import _juddian_here
        roots = juddian_roots(N, Fraction(eps), Fraction(delta), Fraction(1, 2 ** 52))

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

    def test_sweep_builds_each_chain_once(self, monkeypatch):
        from aqrm import roots as roots_mod
        from aqrm import spectrum as spectrum_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("root isolation on the spectrum path")

        for mod in (roots_mod, spectrum_mod):
            monkeypatch.setattr(mod, "isolate_real_roots", forbidden)
            monkeypatch.setattr(mod, "refine_root", forbidden)
        monkeypatch.setattr(spectrum_mod, "juddian_roots", forbidden)

        seen = set()
        real_here = spectrum_mod._juddian_here

        def spy(N, params, branch_eps, *args, **kwargs):
            seen.add((N, exact_bias(branch_eps)))
            return real_here(N, params, branch_eps, *args, **kwargs)

        monkeypatch.setattr(spectrum_mod, "_juddian_here", spy)
        spectrum_mod._juddian_chain.cache_clear()
        # a chain is consulted only where the count jumps at a candidate:
        # x = 3/2 jumps at g = 1/2 (Juddian) and at the level-1 T-zero g_t
        # (non-Juddian), both tested against the level-1 chain
        (g_t,) = t_zeros(1, 1.0, 0.5, "plus")
        rows = spectral_sweep(1.0, 0.5, (0.5, 0.8, 1.1, g_t, 1.4), 6)
        info = spectrum_mod._juddian_chain.cache_info()
        assert seen and info.misses == len(seen)
        assert info.hits > 0
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
    """The sign-change bisection behind the T-function scan and the calG
    refinement stops once no float midpoint is left strictly inside its
    bracket, whatever the tolerance. The T-function stub is a step function,
    so no probe ever lands on an exact zero."""

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
        stub, calls = self.limited(lambda N, params, sign: 1.0 if params.g >= 1.2345 else -1.0)
        monkeypatch.setattr(spectrum_mod, "t_function", stub)
        zeros = non_juddian_roots(1, 1.0, 0.3, "plus", 1.0, 1.5,
                                  scan_step=0.1, refine_tol=1e-20)
        assert zeros == [pytest.approx(1.2345, abs=1e-15)]
        assert len(calls) < 80

    def test_regularized_g_scan(self, monkeypatch):
        # a tolerance below float spacing: each level's refinement stops at
        # adjacent floats, about 45 calG calls from a 1e-3 bracket
        import aqrm.spectrum as spectrum_mod
        p = ModelParams(0.5, 1.0, 0.3)
        stub, calls = self.limited(spectrum_mod.regularized_g, cap=600)
        monkeypatch.setattr(spectrum_mod, "regularized_g", stub)
        recs = full_spectrum(p, 2.0, refine_tol=1e-20)
        monkeypatch.undo()
        coarse = full_spectrum(p, 2.0)
        assert [r.kind for r in recs] == [r.kind for r in coarse]
        assert [r.x for r in recs] == pytest.approx([r.x for r in coarse], abs=1e-10)
        n_regular = sum(r.kind == KIND_REGULAR for r in recs)
        assert n_regular >= 3
        assert len(calls) <= 60 * n_regular


class TestDyadicReporting:
    """A regular level is the midpoint of the dyadic cell [j h, (j + 1) h],
    h = 2^-34 (the largest power of two <= 1e-10), across which calG changes
    sign; the cell, not the bracket or the probes, fixes the printed value."""

    H = 2.0 ** -34

    @settings(max_examples=20, deadline=None)
    @given(g=st.floats(0.1, 2.5), delta=st.floats(0.3, 2.0),
           eps=st.one_of(st.sampled_from((0.0, 0.5, -0.5)), st.floats(-1.0, 1.0)))
    def test_levels_are_certified_cell_midpoints(self, g, delta, eps):
        p = ModelParams(g, delta, eps)
        recs = full_spectrum(p, g * g + 4.0)
        for r in recs:
            if r.kind == KIND_REGULAR:
                j = math.floor(r.x / self.H)
                assert r.x == (j + 0.5) * self.H
                assert regularized_g(j * self.H, p) * regularized_g((j + 1) * self.H, p) <= 0

    @pytest.mark.parametrize("g,eps,x_max", ((0.5, 0.5, 5.0), (0.5, 0.123456789, 5.0),
                                             (0.3, 0.3, 4.0)))
    def test_same_float_from_other_brackets(self, g, eps, x_max):
        p = ModelParams(g, 1.0, eps)

        def f(x):
            return regularized_g(x, p)

        recs = full_spectrum(p, x_max)
        for r in recs:
            if r.kind != KIND_REGULAR:
                continue
            assert min(abs(o.x - r.x) for o in recs if o is not r) > 2e-3
            for below, above in ((3e-4, 7e-4), (1e-3, 2e-10), (5e-11, 1e-6)):
                a, b = r.x - below, r.x + above
                assert dyadic_root(f, a, b, f(a), f(b), 1e-10) == r.x

    @pytest.mark.parametrize("eps", (0.3, 0.5))
    def test_calg_evaluations_per_level(self, monkeypatch, eps):
        # the grid of 'sweep --delta 1 --eps ... --g 0:0.5:0.1 --levels 8'
        import aqrm.spectrum as spectrum_mod
        calls = []

        def counted(x, params):
            calls.append(x)
            return regularized_g(x, params)

        monkeypatch.setattr(spectrum_mod, "regularized_g", counted)
        rows = spectral_sweep(1.0, eps, [k * 0.1 for k in range(1, 6)], 8)
        n_regular = sum(r["kind"] == KIND_REGULAR for r in rows)
        assert n_regular >= 35
        assert len(calls) <= 10 * n_regular
