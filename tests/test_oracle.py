"""Truncated-basis oracle: the parity-ladder inertia count and bisection,
checked against the dense Jacobi reference in tests/_dense.py."""

import math
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _dense import (
    band_count_exact,
    band_count_full,
    eigenvalues,
    sym_tridiag_eigenvalues,
    truncated_hamiltonian,
)
from aqrm import oracle
from aqrm.oracle import (
    _WIDTH,
    M_MAX,
    IncompleteSpectrum,
    _band_count_below,
    _ladder,
    certified_count,
    certified_eigenvalues,
    lowest_eigenvalues,
    truncation_warning,
)
from aqrm.roots import bisect_sign_change
from aqrm.series import ModelParams
from aqrm.spectrum import juddian_roots


class TestAssembly:
    def test_hermitian_by_construction(self):
        rows = truncated_hamiltonian(ModelParams(1.3, 0.7, 0.4), 20)
        assert len(rows) == 42 and all(len(r) == 42 for r in rows)
        assert all(rows[i][j] == rows[j][i] for i in range(42) for j in range(i))

    def test_decoupled_limit(self):
        # g ~ 0, eps = 0: spectrum is {n +/- delta}
        p = ModelParams(1e-14, 1.5, 0.0)
        eigs = eigenvalues(truncated_hamiltonian(p, 12), 6)
        expect = sorted([n + s * 1.5 for n in range(4) for s in (+1, -1)])[:6]
        assert eigs == pytest.approx(expect, abs=1e-10)

    def test_zero_coupling_block_spectrum(self):
        # g ~ 0 with bias: blocks give n +/- sqrt(delta^2 + eps^2)
        p = ModelParams(1e-14, 1.0, 0.3)
        r = math.sqrt(1.0 + 0.09)
        eigs = lowest_eigenvalues(p, 15, 4)
        assert eigs == pytest.approx([-r, 1 - r, r, 1 + r][:4] if r < 1 else
                                     sorted([-r, 1 - r, r, 2 - r]), abs=1e-9)

    def test_displaced_oscillator_limit(self):
        # delta -> 0: eigenvalues n - g^2 +/- eps after truncation convergence
        g, eps = 0.6, 0.3
        p = ModelParams(g, 1e-13, eps)
        eigs = lowest_eigenvalues(p, 70, 6)
        expect = sorted(n - g * g + s * eps for n in range(3) for s in (+1, -1))
        assert eigs == pytest.approx(expect, abs=1e-9)


class TestEigensolvers:
    def test_diagonal(self):
        m = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
        assert eigenvalues(m, 3) == pytest.approx([1.0, 2.0, 3.0])

    def test_two_by_two(self):
        m = [[0.0, 1.0], [1.0, 0.0]]
        assert eigenvalues(m, 2) == pytest.approx([-1.0, 1.0])

    def test_count_bound(self):
        m = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValueError):
            eigenvalues(m, 3)

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=20, deadline=None)
    def test_jacobi_matches_tridiagonal_bisection(self, n, data):
        vals = data.draw(st.lists(st.floats(-3, 3), min_size=2 * n - 1,
                                  max_size=2 * n - 1))
        diag, off = vals[:n], vals[n:]
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = diag[i]
            if i < n - 1:
                rows[i][i + 1] = rows[i + 1][i] = off[i]
        dense = eigenvalues(rows, n)
        bisect = sym_tridiag_eigenvalues(diag, off, tol=1e-13)
        assert dense == pytest.approx(bisect, abs=1e-9)

    def test_dense_vs_ladder_at_dim_82(self):
        p = ModelParams(0.9, 1.1, 0.25)
        dense = eigenvalues(truncated_hamiltonian(p, 40), 8)
        ladder = lowest_eigenvalues(p, 40, 8)
        assert dense == pytest.approx(ladder, abs=1e-10)

    def test_invariance_under_bias_flip(self):
        a = lowest_eigenvalues(ModelParams(1.0, 1.0, 0.4), 60, 8)
        b = lowest_eigenvalues(ModelParams(1.0, 1.0, -0.4), 60, 8)
        assert a == pytest.approx(b, abs=1e-9)

    def test_ground_state_simple(self):
        for (g, d, e) in ((0.5, 1.0, 0.5), (1.0, 1.0, 0.2), (1.5, 2.0, 1.0)):
            eigs = lowest_eigenvalues(ModelParams(g, d, e), 70, 2)
            assert eigs[1] - eigs[0] > 1e-6


def drifts(params, M_list, count):
    """Largest eigenvalue change between successive truncations."""
    eigs = [lowest_eigenvalues(params, M, count) for M in M_list]
    return [max(abs(a - b) for a, b in zip(cur, prev)) for prev, cur in zip(eigs, eigs[1:])]


class TestConvergence:
    def test_drift_decreases(self):
        # 1.1e-2, 9.7e-7, 4.5e-12: from M = 30 on the levels sit in their
        # final 2^-40 cells, and the drift reads 0
        d = drifts(ModelParams(1.0, 1.0, 0.2), [10, 15, 20, 30], 8)
        assert len(d) == 3
        assert d[-1] < d[0]
        assert d[-1] < 1e-8

    def test_zero_coupling_no_drift(self):
        assert all(d < 1e-12 for d in drifts(ModelParams(1e-14, 1.0, 0.1), [20, 32, 40], 6))

    def test_requires_truncation_of_at_least_eight(self):
        with pytest.raises(ValueError, match="at least 8"):
            lowest_eigenvalues(ModelParams(1.0, 1.0, 0.0), 7, 4)

    def test_negative_count_before_the_ladder(self, monkeypatch):
        # a ladder for M = 100000 holds 100001 rungs; the count is refused first
        built = []
        ladder = oracle._ladder

        def recorded(params, M):
            built.append(M)
            return ladder(params, M)

        monkeypatch.setattr(oracle, "_ladder", recorded)
        with pytest.raises(ValueError, match="count must be nonnegative"):
            lowest_eigenvalues(ModelParams(1.0, 1.0, 0.2), 100_000, -1)
        assert built == []

    def test_count_below_matches_levels(self):
        p = ModelParams(1.0, 1.0, 0.2)
        eigs = lowest_eigenvalues(p, 40, 6)
        assert certified_count(p)(eigs[-1] + 1e-6) == 6
        for M in (40, 60):
            assert _band_count_below(_ladder(p, M), eigs[-1] + 1e-6)[0] == 6
            assert truncation_warning(p, M, eigs[-1] + 1e-6) is None
        # the ground state at g = 1000 lies near -1e6, far below what M = 80 holds
        p = ModelParams(1000.0, 1.0, 0.2)
        sigma = lowest_eigenvalues(p, 80, 1)[0] + 1e-6
        assert _band_count_below(_ladder(p, 100), sigma)[0] == 8
        with pytest.raises(IncompleteSpectrum, match=f"not certified by M={M_MAX}$"):
            certified_count(p)(sigma)
        assert truncation_warning(p, 80, sigma) == (
            f"truncation M=80 not converged: 1 eigenvalues below "
            f"{format(sigma, '.17g')} at M=80, level count not certified by M={M_MAX}")

    def test_certified(self):
        eigs, M = certified_eigenvalues(ModelParams(1.0, 1.0, 0.2), 6)
        again = lowest_eigenvalues(ModelParams(1.0, 1.0, 0.2), M + 40, 6)
        assert eigs == pytest.approx(again, abs=1e-7)


class TestDegeneracyStructure:
    def test_near_degenerate_pair_at_juddian_point(self):
        # bias 1/2, g = 1/2, delta 1: doubly degenerate level at 1.5 - 0.25
        eigs = lowest_eigenvalues(ModelParams(0.5, 1.0, 0.5), 80, 6)
        pairs = [(a, b) for a, b in zip(eigs, eigs[1:]) if b - a < 1e-8]
        assert len(pairs) == 1
        mean = (pairs[0][0] + pairs[0][1]) / 2
        assert mean == pytest.approx(1.25, abs=1e-8)


def reference_lowest_eigenvalues(params, M, count):
    """The per-level loop lowest_eigenvalues replaced: every bisection midpoint
    of every level is probed, with no count shared between levels."""
    ladder = _ladder(params, M)
    d, e = params.delta, abs(params.eps)
    count = min(count, 2 * (M + 1))
    c = [0.0] + [abs(params.g * math.sqrt(k + 1.0)) for k in range(M)] + [0.0]
    rows = [(k + d, c[k] + (e + c[k + 1])) for k in range(M + 1)]
    rows += [(k - d, (e + c[k]) + c[k + 1]) for k in range(M + 1)]
    lo = min(a - r for a, r in rows) - 1.0
    hi = max(a + r for a, r in rows) + 1.0
    out = []
    for k in range(count):
        out.append(bisect_sign_change(lambda s: _band_count_below(ladder, s)[0] - k - 0.5,
                                      lo, hi, -1, _WIDTH))
        lo = out[-1] - 1e-9
    return out


def assert_near_reference(params, M, count):
    """Each level within max(2e-12, 4 ulp) of reference_lowest_eigenvalues:
    half a grid step 2^-40 (or twice the float spacing, where that is
    coarser) from the cell midpoint, plus the reference's bisection width."""
    levels = lowest_eigenvalues(params, M, count)
    ref = reference_lowest_eigenvalues(params, M, count)
    assert len(levels) == len(ref)
    for lam, r in zip(levels, ref):
        assert abs(lam - r) <= max(2e-12, 4 * math.ulp(r)), (lam, r)


def assert_within_the_band(params, M, count):
    """Each level k within w = 3e-9 max(1, g), the band the float count can be
    wrong in next to a level (_band_count_below), of the exact level k of the
    ladder's floats: band_count_exact is at most k at lam - w and more than k
    at lam + w, the two counts that open an exact bisection."""
    ladder = _ladder(params, M)
    for k, lam in enumerate(lowest_eigenvalues(params, M, count)):
        assert_in_band(ladder, params, k, lam)


def assert_in_band(ladder, params, k, lam):
    w = 3e-9 * max(1.0, params.g)
    assert band_count_exact(ladder, lam - w) <= k < band_count_exact(ladder, lam + w), (k, lam)


def float_count_flips(ladder, a, b):
    """Whether the float count steps down somewhere on the 2.5e-13 grid from
    min(a, b) - 5e-12 to max(a, b) + 5e-12: rounding makes it non-monotone
    there, so two bisections may stop on either side of a flip."""
    lo = min(a, b) - 5e-12
    n = round((max(a, b) + 5e-12 - lo) / 2.5e-13)
    counts = [_band_count_below(ladder, lo + j * 2.5e-13)[0] for j in range(n + 1)]
    return any(c > d for c, d in zip(counts, counts[1:]))


def assert_matches_reference(params, M, count):
    """Each level within max(2e-12, 4 ulp) of reference_lowest_eigenvalues,
    or, where the float count is non-monotone between the two, within
    3e-9 max(1, g) of it and inside the band of the exact count: there two
    bisections may stop on either side of a flip, and either may be off."""
    ladder = _ladder(params, M)
    levels = lowest_eigenvalues(params, M, count)
    ref = reference_lowest_eigenvalues(params, M, count)
    assert len(levels) == len(ref)
    for k, (lam, r) in enumerate(zip(levels, ref)):
        if abs(lam - r) > max(2e-12, 4 * math.ulp(r)):
            assert abs(lam - r) < 3e-9 * max(1.0, params.g), (lam, r)
            assert float_count_flips(ladder, lam, r), (lam, r)
            assert_in_band(ladder, params, k, lam)


class TestSharedProbes:
    """lowest_eigenvalues is oracle.locate_levels on the truncated count, each
    count shared by every level of the bracket it splits. Away from a
    coincidence each level is within a grid step of the unguided per-level
    bisection; where the float count flips next to a level, within the
    count's rounding band of the exact level."""

    @given(g=st.floats(0.05, 4), delta=st.floats(0.02, 3),
           eps=st.one_of(st.floats(-2, 2), st.sampled_from((0.0, 0.5, -0.5, 1.0, 1.5))),
           M=st.integers(8, 20), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_unshared_loop(self, g, delta, eps, M, data):
        # a level off the unguided reference must sit where the float count
        # is non-monotone, within the band of the exact count
        count = data.draw(st.integers(0, 2 * (M + 1)))
        assert_matches_reference(ModelParams(g, delta, eps), M, count)

    def test_juddian_doublet(self):
        # g = 1/2, delta = 1, eps = 1/2: levels 3 and 4 meet at lambda = 1.25,
        # on one float of the M = 80 ladder, so both come back at the
        # midpoint of the grid cell that holds it
        params = ModelParams(0.5, 1.0, 0.5)
        assert_near_reference(params, 80, 6)
        levels = lowest_eigenvalues(params, 80, 6)
        assert levels[3] == levels[4] == 1.25 + 0.5 * 2.0 ** -40
        assert lowest_eigenvalues(params, 80, 4) == levels[:4]     # the cap splits the cell

    def test_probes_and_rungs(self, monkeypatch):
        # the oracle-bands case of the benchmark (seed 1): 26 plain and 165
        # Newton probes over 7443 rungs, against 393 and 68 over 17882 with a
        # Newton search per level and a probe table shared between levels;
        # the README line: 69 probes, against 253
        probes, rungs = [], []
        count = oracle._band_count_below

        def counted(ladder, sigma, *jet):
            res = count(ladder, sigma, *jet)
            probes.append(sigma)
            rungs.append(res[1] + 1)
            return res

        monkeypatch.setattr(oracle, "_band_count_below", counted)
        lowest_eigenvalues(ModelParams(2.3154, 0.8471, 0.32791), 300, 20)
        assert len(probes) <= 200 and sum(rungs) <= 8000
        probes.clear()
        lowest_eigenvalues(ModelParams(1.0, 1.0, 0.2), 80, 8)
        assert len(probes) <= 80

    def test_every_level_counted_to_the_last_rung(self):
        # strong coupling on the smallest truncation: no probe stops early
        params = ModelParams(3.2991453333582546, 0.02, 0.5630532564211108)
        assert_near_reference(params, 8, 8)

    @pytest.mark.parametrize("g", (3e6, 2e7))
    def test_search_ends_where_floats_are_coarse(self, g):
        # levels near -1.4e7 and -9e7 at M = 8, where floats lie 2e-9 and
        # 1.5e-8 apart: the grid step is twice that, and each cell bisection
        # must end there
        assert_near_reference(ModelParams(g, 1.0, 0.2), 8, 4)

    @pytest.mark.parametrize("args,M,count", (
        ((2.9258935019351076, 2.301748741848879, 0.5), 20, 28),
        ((3.9486859580024896, 0.02, 0.5), 22, 27),
        ((2.00001, 2.5416535587978317, -1.4613800076079562), 8, 18),
        ((1.0, 2.0, 1.5), 15, 10),
        ((2.3422309708257387, 2.1721568997373164, 1.5), 16, 16),
        ((2.9808340809752476, 1.01953125, 1.02), 16, 6)))
    def test_count_flips_next_to_a_level(self, args, M, count):
        # draws where rounding flips the count within 1e-13 to 1.6e-9 of a
        # level: the cell found there is one of those in the band. In the
        # last, the float count reads 5, 6, 5, 5, 6 at level 5 + (-2..2) 1e-12
        # and the exact count 5 at lam - 1e-12 and 6 at lam, so the unguided
        # reference, 2.76e-12 above, is the one off
        assert_within_the_band(ModelParams(*args), M, count)

    @pytest.mark.parametrize("args,M,count,shared", (((2.3154, 0.8471, 0.32791), 300, 20, 833),
                                                     ((0.5, 1.0, 0.5), 80, 6, 219),
                                                     ((1.0, 1.0, 0.2), 12, 26, 1073)))
    def test_no_newton_correction(self, monkeypatch, args, M, count, shared):
        # with every correction None each cell is bisected at its midpoints:
        # the cells, so every bit, are those Newton's probes find, and the
        # probes (805, 215 and 1050) are at most those of a probe table
        # shared between levels with no Newton search (shared)
        params = ModelParams(*args)
        expected = lowest_eigenvalues(params, M, count)
        probe = oracle._band_count_below
        probes = []

        def no_step(ladder, sigma, newton=False):
            res = probe(ladder, sigma)
            probes.append(sigma)
            return (*res, None) if newton else res

        monkeypatch.setattr(oracle, "_band_count_below", no_step)
        assert lowest_eigenvalues(params, M, count) == expected
        assert len(probes) <= shared

    @given(N=st.integers(1, 4), eps=st.sampled_from((0.5, 1.0, 1.5, 2.0)),
           delta=st.floats(0.1, 2.5), sign=st.sampled_from((1.0, -1.0)),
           M=st.integers(15, 30), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_juddian_doublets(self, N, eps, delta, sign, M, data):
        # half-integer bias at a root g of the constraint polynomial: two
        # levels meet at x = N + eps, split only by the truncation
        roots = juddian_roots(N, eps, delta)
        assume(roots)
        g = data.draw(st.sampled_from([r for r, _ in roots]))
        assert_matches_reference(ModelParams(g, delta, sign * eps), M, 2 * N + 6)

    @pytest.mark.parametrize("N,eps,delta,M", ((2, 1.5, 2.0, 15), (2, 1.5, 2.5, 15)))
    def test_juddian_doublets_at_a_leading_block(self, N, eps, delta, M):
        # draws of the test above where the float count flips next to a level
        # of the leading block: at delta = 2, g = 1, level 7 comes back
        # 2.4999999996839506 and the unguided reference 2.500000001472617,
        # 7.9e-10 below and 1.0e-9 above the exact level; at delta = 2.5,
        # g = 0.77299680906914..., level 8 is 2.5e-11 off the reference
        for g, _ in juddian_roots(N, eps, delta):
            for sign in (1.0, -1.0):
                assert_matches_reference(ModelParams(g, delta, sign * eps), M, 2 * N + 6)

    @pytest.mark.parametrize("args,level", (
        ((0.9847084463043705, 0.56, 0.651), 7),
        ((0.972811706429143, 0.7, -0.4), 4),
        ((0.5985210816812905, 1.0, 0.3), 3)))
    def test_level_on_a_level_of_a_leading_block(self, args, level):
        # g solved so that level `level` of the M = 20 ladder sits on a level
        # of the leading block 0..j (j = 1, 0, 0): the float count flips up
        # to 5.6e-10, 1.8e-9 and 3.2e-10 from it
        assert_within_the_band(ModelParams(*args), 20, level + 2)

    def test_exact_bisection_at_a_leading_block(self):
        # level 7 of (1, 2, 3/2) at M = 15, near 5/2, sits on a level of the
        # first block: bisection on the exact count puts it 7.9e-10 above the
        # level returned (1.0e-9 below the one a Newton search per level
        # returned)
        params = ModelParams(1.0, 2.0, 1.5)
        ladder = _ladder(params, 15)
        lam = lowest_eigenvalues(params, 15, 10)[7]
        w = 3e-9
        exact = bisect_sign_change(lambda s: band_count_exact(ladder, s) - 7.5,
                                   lam - w, lam + w, -1, 1e-13)
        assert abs(lam - exact) < w


def ladder_count(g, delta, eps, M, sigma):
    """Ladder inertia count; a namespace stands in for ModelParams so that
    g <= 0 and delta = 0 can be probed too."""
    params = SimpleNamespace(g=g, delta=delta, eps=eps)
    return _band_count_below(_ladder(params, M), sigma)[0]


def dense_count(g, delta, eps, M, sigma):
    eigs = eigenvalues(truncated_hamiltonian(SimpleNamespace(g=g, delta=delta, eps=eps), M))
    return sum(e < sigma for e in eigs)


class TestLadderCount:
    @given(g=st.floats(0, 3), delta=st.floats(0, 2),
           eps=st.one_of(st.just(0.0), st.floats(-2, 2)), M=st.integers(8, 30),
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_count(self, g, delta, eps, M, data):
        params = SimpleNamespace(g=g, delta=delta, eps=eps)
        eigs = eigenvalues(truncated_hamiltonian(params, M))
        sigmas = data.draw(st.lists(st.floats(eigs[0] - 1.0, eigs[-1] + 1.0),
                                    min_size=1, max_size=5))
        sigmas = [s for s in sigmas if all(abs(s - e) > 1e-9 for e in eigs)]
        assume(sigmas)
        ladder = _ladder(params, M)
        for s in sigmas:
            assert _band_count_below(ladder, s)[0] == sum(e < s for e in eigs), s

    @pytest.mark.parametrize("g", (1e-14, 0.0))
    @pytest.mark.parametrize("sign", (+1, -1))
    def test_exactly_singular_block(self, g, sign):
        # eps = 0, sigma = +/-delta: the first block is exactly singular. The
        # nudged pivot counts the level at sigma (exactly there for g = 0,
        # about g^2 below for g = 1e-14) as below, and nothing overflows
        delta, M = 0.3, 12
        sigma = sign * delta
        below = dense_count(g, delta, 0.0, M, sigma - 1e-9)
        assert dense_count(g, delta, 0.0, M, sigma + 1e-9) == below + 1
        assert ladder_count(g, delta, 0.0, M, sigma) == below + 1
        assert ladder_count(g, delta, 0.0, M, sigma - 1e-9) == below
        assert ladder_count(g, delta, 0.0, M, sigma + 1e-9) == below + 1

    @pytest.mark.parametrize("delta,eps", ((5e-324, 0.0), (1e-310, 0.0),
                                           (1e-160, 0.0), (5e-324, 5e-324)))
    def test_underflowing_determinant(self, delta, eps):
        # g = 1, sigma = 0: S_0 = diag(delta, -delta) + eps rung, whose
        # determinant underflows to zero although the block is regular, and
        # whose inverse overflows; the level nearest sigma is 4e-4 away
        M = 8
        assert ladder_count(1.0, delta, eps, M, 0.0) == dense_count(1.0, delta, eps, M, 0.0) == 2

    @pytest.mark.parametrize("g", (0.5, 1.0, 2.0))
    def test_exactly_singular_coupled_block(self, g):
        # delta = 0, eps = 1, sigma = 1: S_0 = [[-1, 1], [1, -1]] is singular
        # along (1, 1), not along an axis; the nudged pivot must leave the
        # next blocks readable
        M = 8
        below = dense_count(g, 0.0, 1.0, M, 1.0)
        assert dense_count(g, 0.0, 1.0, M, 1.0 - 1e-6) == below
        assert ladder_count(g, 0.0, 1.0, M, 1.0) == below

    def test_zero_leading_entry_of_regular_block(self):
        # delta = 0, sigma = 0: S_0 = [[0, eps], [eps, 0]] is regular although
        # its leading entry vanishes; no pivot nudge may enter the count
        for eps in (1.0, -0.6):
            assert ladder_count(0.5, 0.0, eps, 8, 0.0) == dense_count(0.5, 0.0, eps, 8, 0.0)

    def test_coupling_sign_invariance(self):
        # (-1)^(a^dag a) maps g to -g: the spectrum, hence every count, is even in g
        for g, delta, eps in ((0.8, 1.2, 0.3), (2.1, 0.5, -1.1), (1.4, 0.9, 0.0)):
            for sigma in (-3.1, -0.45, 0.2, 1.7, 4.3):
                n = ladder_count(g, delta, eps, 20, sigma)
                assert ladder_count(-g, delta, eps, 20, sigma) == n
                assert dense_count(-g, delta, eps, 20, sigma) == n


class TestTailCertificate:
    """The count stops at a rung whose Schur complement certifies every later
    rung positive definite; band_count_full runs the same recursion over all
    rungs."""

    @given(g=st.floats(0, 4), delta=st.floats(0, 2), eps=st.floats(-2, 2),
           M=st.integers(8, 400), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_stop_keeps_the_full_count(self, g, delta, eps, M, data):
        params = SimpleNamespace(g=g, delta=delta, eps=eps)
        sigma = data.draw(st.floats(-g * g - 3.0, M + 10.0))
        ladder, longer = _ladder(params, M), _ladder(params, M + 200)
        n, k = _band_count_below(ladder, sigma)
        assert n == band_count_full(ladder, sigma) and k <= M
        n_long, k_long = _band_count_below(longer, sigma)
        assert n_long == band_count_full(longer, sigma)
        if k_long <= M:
            # stopped by rung M: the count holds for both truncations
            assert (n, k) == (n_long, k_long)

    def test_both_kinds_of_probe(self):
        # low sigma stops within a few rungs, sigma above the truncation runs
        # the whole ladder
        ladder = _ladder(ModelParams(1.0, 1.0, 0.2), 40)
        for sigma, stops in ((-2.0, True), (3.5, True), (45.0, False)):
            n, k = _band_count_below(ladder, sigma)
            assert n == band_count_full(ladder, sigma)
            assert (k < 40) == stops

    def test_zero_coupling(self):
        # g = 0: the rungs decouple into levels j +/- r; the stop comes right
        # after the last rung with a level below sigma
        delta, eps = 0.7, 0.3
        r = math.hypot(delta, eps)
        ladder = _ladder(SimpleNamespace(g=0.0, delta=delta, eps=eps), 30)
        for sigma in (-1.0, 0.5, 2.5, 7.9):
            n, k = _band_count_below(ladder, sigma)
            assert n == band_count_full(ladder, sigma)
            assert n == sum(j + s * r < sigma for j in range(31) for s in (-1, 1))
            assert k < 30

    def test_negative_coupling(self):
        # the ladder holds c^2 only, so -g gives the same count and stop as g
        for sigma in (-4.0, 0.3, 6.2):
            ladders = [_ladder(SimpleNamespace(g=g, delta=0.9, eps=-0.4), 60)
                       for g in (1.7, -1.7)]
            counts = [_band_count_below(lad, sigma) for lad in ladders]
            assert counts[0] == counts[1]
            assert counts[0][0] == band_count_full(ladders[1], sigma)
            assert counts[0][1] < 60

    def test_one_rung_ladder(self):
        # M = 0: the 2x2 block alone, levels +/- sqrt(delta^2 + eps^2) = 0.5
        ladder = _ladder(SimpleNamespace(g=1.0, delta=0.3, eps=0.4), 0)
        assert len(ladder) == 1
        for sigma, n in ((-1.0, 0), (0.0, 1), (1.0, 2)):
            assert _band_count_below(ladder, sigma) == (n, 0)

    def test_never_stops_on_nan(self):
        ladder = _ladder(ModelParams(1.0, 1.0, 0.2), 40)
        n, k = _band_count_below(ladder, math.nan)
        assert k == 40 and n == band_count_full(ladder, math.nan)


class TestNewtonJet:
    """A Newton probe returns the plain probe's (n, k) bit for bit, and the
    Newton correction of det(H_K - sigma) on the ladder cut at K = k + 2."""

    @given(g=st.floats(0, 3), delta=st.one_of(st.just(0.0), st.floats(0, 2)),
           eps=st.one_of(st.just(0.0), st.floats(-2, 2)), M=st.integers(0, 60),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_count_as_the_plain_probe(self, g, delta, eps, M, data):
        # delta = eps = 0 puts sigma on a diagonal entry at integer sigma,
        # where the scalar pivots run
        ladder = _ladder(SimpleNamespace(g=g, delta=delta, eps=eps), M)
        sigma = data.draw(st.one_of(st.floats(-g * g - 3.0, M + 10.0),
                                    st.integers(0, M).map(float), st.just(math.nan)))
        n, k, t = _band_count_below(ladder, sigma, True)
        assert (n, k) == _band_count_below(ladder, sigma)
        assert t is None or t == t
        if sigma != sigma:
            assert t is None

    @pytest.mark.parametrize("g", (0.0, 0.7))
    def test_no_correction_through_a_pivot(self, g):
        # delta = eps = 0, sigma = 0: S_0 = 0 takes the scalar pivots; at
        # g = 0 every rung j is singular at sigma = j
        ladder = _ladder(SimpleNamespace(g=g, delta=0.0, eps=0.0), 12)
        for sigma in (0.0,) + ((3.0, 7.0) if g == 0.0 else ()):
            n, k, t = _band_count_below(ladder, sigma, True)
            assert (n, k) == _band_count_below(ladder, sigma) and t is None

    @given(g=st.floats(0.05, 2), delta=st.floats(0.05, 2), eps=st.floats(-1.5, 1.5),
           M=st.integers(1, 8), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_correction_on_the_cut_ladder(self, g, delta, eps, M, data):
        # the jet sums the log-derivatives of the S_j, which cancel where
        # sigma nears a level of a leading block 0..j (a nearly singular S_j;
        # the count does not suffer there): draws stay 1e-3 from every such
        # level, where the cancellation costs under 1e-9 of the sum
        params = ModelParams(g, delta, eps)
        ladder = _ladder(params, M)
        sigma = data.draw(st.floats(-g * g - 2.0, M + 2.0))
        n, k, t = _band_count_below(ladder, sigma, True)
        K = min(k + 2, M)
        for j in range(K + 1):
            assume(all(abs(sigma - e) > 1e-3
                       for e in eigenvalues(truncated_hamiltonian(params, j))))
        terms = [1.0 / (sigma - e) for e in eigenvalues(truncated_hamiltonian(params, K))]
        # t is None where L = sum(terms) is 0 (test_no_correction_where_L_vanishes)
        L = 0.0 if t is None else 1.0 / t
        assert abs(L - sum(terms)) <= 1e-9 * sum(map(abs, terms))

    def test_no_correction_where_L_vanishes(self):
        # (g, delta, eps) = (1, 3/2, 0), M = 1: the levels of H_1 are
        # 1/2 +/- sqrt(5) and 1/2 +/- sqrt(2), symmetric about sigma = 1/2,
        # so L sums to exactly 0 and there is no Newton step
        ladder = _ladder(ModelParams(1.0, 1.5, 0.0), 1)
        assert _band_count_below(ladder, 0.5, True) == (2, 1, None)


class TestExactCount:
    """The float count against band_count_exact, the same recursion in exact
    rationals on the ladder's floats, at the points 2^-34 and 2^-33 on both
    sides of each of the lowest six levels: the grid points a spectrum's
    cell bisection reads next to a level. The rationals grow with M and with
    the binary exponents of the entries, so M stays at most 24 and a nonzero
    bias at least 2^-20 in magnitude (eps = -3.9e-260 took 1.3 s)."""

    H = 2.0 ** -34

    @given(g=st.floats(0.05, 3), delta=st.floats(0.02, 3),
           eps=st.one_of(st.just(0.0), st.floats(2.0 ** -20, 2.0), st.floats(-2.0, -2.0 ** -20)),
           M=st.integers(8, 24))
    @settings(max_examples=20, deadline=None)
    def test_float_count_is_exact_next_to_each_level(self, g, delta, eps, M):
        params = ModelParams(g, delta, eps)
        ladder = _ladder(params, M)
        for lam in lowest_eigenvalues(params, M, 6):
            for sigma in (lam + j * self.H for j in (-2, -1, 1, 2)):
                assert _band_count_below(ladder, sigma)[0] == band_count_exact(ladder, sigma), sigma


class TestLevelCounter:
    """truncation_warning: the level count at a user's truncation M against
    N(sigma), as `aqrm oracle` checks it."""

    def counting_calls(self, monkeypatch):
        calls = []
        count = oracle._band_count_below

        def counted(ladder, sigma, *jet):
            calls.append(len(ladder))
            return count(ladder, sigma, *jet)

        monkeypatch.setattr(oracle, "_band_count_below", counted)
        return calls

    def test_one_pass_when_the_count_stops_by_rung_M(self, monkeypatch):
        # a count that stops at a certified rung below M is N(sigma) already
        p = ModelParams(1.0, 1.0, 0.2)
        sigmas = (-3.0, 0.4, 4.2, 12.5)
        assert all(_band_count_below(_ladder(p, 40), s)[1] < 40 for s in sigmas)
        calls = self.counting_calls(monkeypatch)
        assert [truncation_warning(p, 40, s) for s in sigmas] == [None] * len(sigmas)
        assert calls == [41] * len(sigmas)
        assert [certified_count(p)(s) for s in sigmas] == [
            band_count_full(_ladder(p, 40), s) for s in sigmas]

    def test_two_passes_past_rung_M(self, monkeypatch):
        # at g = 3 the count at M = 12 runs to rung 12 and misses a level that
        # the certified count finds on its first rung list
        p = ModelParams(3.0, 1.0, 0.2)
        sigma = lowest_eigenvalues(p, 12, 4)[-1] + 1e-6
        calls = self.counting_calls(monkeypatch)
        assert truncation_warning(p, 12, sigma) == (
            f"truncation M=12 not converged: 4 eigenvalues below "
            f"{format(sigma, '.17g')} at M=12, 5 without truncation")
        assert calls == [13, 61]
        # the ground state at g = 1000 lies near -1e6: certified_count refuses
        # before it builds a rung list, so the probe counts only at M = 80
        p = ModelParams(1000.0, 1.0, 0.2)
        sigma = lowest_eigenvalues(p, 80, 1)[0] + 1e-6
        calls.clear()
        assert truncation_warning(p, 80, sigma).endswith(
            f"1 eigenvalues below {format(sigma, '.17g')} at M=80, "
            f"level count not certified by M={M_MAX}")
        assert calls == [81]

    def test_truncation_cap_comes_first(self, monkeypatch):
        # the cap is checked before a single rung is built: a ladder for
        # M = 10^9 would hold 10^9 tuples
        def no_ladder(params, M):
            raise AssertionError(f"ladder built for M={M}")

        monkeypatch.setattr(oracle, "_ladder", no_ladder)
        p = ModelParams(1.0, 1.0, 0.2)
        tracemalloc.start()
        try:
            for call in (lambda: lowest_eigenvalues(p, 10 ** 9, 1),
                         lambda: truncation_warning(p, 10 ** 9, 0.0),
                         lambda: truncation_warning(p, M_MAX + 1, 0.0)):
                with pytest.raises(ValueError, match=f"at most {M_MAX}$"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestCertifiedCount:
    """certified_count is the count of the untruncated Hamiltonian: the count
    of every truncation from its certified rung on."""

    @given(g=st.floats(0, 1.5), delta=st.floats(0, 2), eps=st.floats(-2, 2),
           extra=st.integers(0, 6), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_count_past_the_certified_rung(self, g, delta, eps, extra, data):
        params = SimpleNamespace(g=g, delta=delta, eps=eps)
        sigma = data.draw(st.floats(-g * g - 3.0, 8.0))
        k = _band_count_below(_ladder(params, 400), sigma)[1]
        assume(k + extra <= 24)
        eigs = eigenvalues(truncated_hamiltonian(params, k + extra))
        assume(all(abs(sigma - e) > 1e-9 for e in eigs))
        assert certified_count(params)(sigma) == sum(e < sigma for e in eigs)

    @given(g=st.floats(0, 1.5), delta=st.floats(0, 2), eps=st.floats(-2, 2),
           count=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_eigenvalues_match_dense_past_the_certified_rung(self, g, delta, eps, count):
        # a truncation at or past the rung that certifies the count just above
        # a level holds that level to within the probe offset
        params = SimpleNamespace(g=g, delta=delta, eps=eps)
        ev, _ = certified_eigenvalues(params, count)
        k = max(_band_count_below(_ladder(params, 400), e + 1e-10)[1] for e in ev)
        assume(k + 4 <= 24)
        dense = eigenvalues(truncated_hamiltonian(params, k + 4), count)
        assert ev == pytest.approx(dense, abs=1e-9)

    @given(g=st.floats(0, 2), delta=st.floats(0, 2), eps=st.floats(-2, 2),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_truncated_counter(self, g, delta, eps, data):
        # wherever a truncation's count stops at a certified rung below M,
        # it is N(sigma), and truncation_warning stays silent
        params = SimpleNamespace(g=g, delta=delta, eps=eps)
        sigma = data.draw(st.floats(-g * g - 3.0, 30.0))
        n = certified_count(params)(sigma)
        for M in (40, 80):
            truncated, k = _band_count_below(_ladder(params, M), sigma)
            if k < M:
                assert truncated == n, M
            assert (truncation_warning(params, M, sigma) is None) == (truncated == n), M

    @given(g=st.floats(0.01, 6), delta=st.floats(0, 2), eps=st.floats(-2, 2),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_rung_certifies_below_the_refusal_bound(self, g, delta, eps, data):
        # certified_count refuses at once when 2 g^2 + r + sigma >= M_MAX + 2,
        # which is sound only if every certified rung k has k + 1 > 2 g^2 + r + sigma
        params = SimpleNamespace(g=g, delta=delta, eps=eps)
        r = math.hypot(delta, eps)
        sigma = data.draw(st.floats(-g * g - r, 40.0))
        k = _band_count_below(_ladder(params, 400), sigma)[1]
        assume(k < 400 and sigma + r + g * g > 0)
        assert k + 1 > 2 * g * g + r + sigma

    def test_rungs_double_until_certified_then_refuse(self, monkeypatch):
        built = []
        ladder = oracle._ladder

        def recorded(params, M):
            built.append(M)
            return ladder(params, M)

        monkeypatch.setattr(oracle, "_ladder", recorded)
        # at g = 3 the probes below sigma = -5 certify by rung 60, sigma = 3
        # only at rung 64
        p = ModelParams(3.0, 1.0, 0.0)
        n = certified_count(p)
        full = ladder(p, 400)
        for sigma in (-9.0, -5.0):
            assert n(sigma) == band_count_full(full, sigma)
        assert built == [60]
        assert n(3.0) == band_count_full(full, 3.0) and built == [60, 120]
        # g = 1000: no rung up to M_MAX can certify, so none is built
        monkeypatch.setattr(oracle, "M_MAX", 200)
        built.clear()
        with pytest.raises(IncompleteSpectrum, match="not certified by M=200$"):
            certified_count(ModelParams(1000.0, 1.0, 0.2))(-1e6)
        assert built == []


class TestParitySplit:
    @pytest.mark.parametrize("g,delta", ((0.5, 1.0), (1.3, 0.7), (2.2, 1.4)))
    def test_unbiased_spectrum_is_two_parity_chains(self, g, delta):
        # eps = 0: H splits into the Z2 parity chains with diagonal
        # k +/- (-1)^k delta and off-diagonal g sqrt(k+1)
        M, n = 60, 12
        off = [g * math.sqrt(k + 1.0) for k in range(M)]
        chains = [sym_tridiag_eigenvalues([k + s * (-1) ** k * delta for k in range(M + 1)], off)
                  for s in (+1, -1)]
        merged = sorted(chains[0] + chains[1])[:n]
        eigs = lowest_eigenvalues(ModelParams(g, delta, 0.0), M, n)
        assert eigs == pytest.approx(merged, abs=1e-10)
