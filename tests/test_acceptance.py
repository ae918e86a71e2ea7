"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion report.
Criterion 4 is split in two; its first anchor value is kept as stated even
though two independent computations of the same zero contradict it, so that
sub-test is expected to fail (details in its docstring).
"""

import math
import random
import time
from fractions import Fraction

from aqrm import oracle
from aqrm.poly import (
    c_weight,
    constraint_value,
    generating_identity_check,
    ode_coefficient_check,
    verify_divisibility,
)
from aqrm.series import (
    ModelParams,
    double_pole_coefficients,
    g_function,
    k_sequence,
    residue_numeric,
    residue_simple,
)
from aqrm.spectrum import (
    count_positive_roots,
    expand_multiplicities,
    full_spectrum,
    juddian_roots,
    non_juddian_roots,
)


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def timed(t0):
    return f"({time.time() - t0:.1f}s)"


def test_criterion_01_divisibility_exact():
    """Exact divisibility P_{N+l} = A_N^l P_N for all N+l <= 14."""
    t0 = time.time()
    checked = 0
    for total in range(0, 15):
        for ell in range(0, total + 1):
            _, exact = verify_divisibility(total - ell, ell)
            assert exact
            checked += 1
    report(1, True, f"divisibility exact on {checked} (N, ell) pairs {timed(t0)}")


def test_criterion_02_figure_juddian_roots():
    """Figure-anchored Juddian couplings to |dg| <= 5e-4."""
    t0 = time.time()
    cases = [
        (1, Fraction(1, 2), Fraction(1), 0.5),
        (2, Fraction(1), Fraction(3, 2), 1.01229),
        (1, Fraction(3, 10), Fraction(1, 2), 0.58095),
        (2, Fraction(2), Fraction(3, 2), 1.2836),
    ]
    worst = 0.0
    for N, eps, delta, g_ref in cases:
        gs = [g for g, _ in juddian_roots(N, eps, delta)]
        err = min(abs(g - g_ref) for g in gs)
        worst = max(worst, err)
        assert err <= 5e-4, (N, eps, delta, g_ref, gs)
    report(2, True, f"4 Juddian anchors, worst |dg| = {worst:.2e} {timed(t0)}")


def test_criterion_03_root_count_theorem():
    """Exact positive-root counts N-k on every bias interval, N <= 10."""
    t0 = time.time()
    eps_set = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    checked = 0
    for N in range(1, 11):
        for eps in eps_set:
            for k in range(N):
                lo, hi = c_weight(k, eps), c_weight(k + 1, eps)
                w = hi - lo
                for y in (lo, lo + w / 4, lo + w / 2, lo + 3 * w / 4):
                    assert count_positive_roots(N, eps, y) == N - k, (N, eps, k, y)
                    checked += 1
            top = c_weight(N, eps)
            for y in (top, top + 1):
                assert count_positive_roots(N, eps, y) == 0
                checked += 1
    report(3, True, f"{checked} exact interval counts {timed(t0)}")


def test_criterion_04a_t_zero_half_integer_anchor():
    """T-function zero for (eps=1/2, Delta=1, N=1) at the stated g = 1.3903
    within 1e-3.

    Kept exactly as stated, and expected to fail: the T-function's own sign
    change puts the zero at 1.393031, and independent truncated-basis
    diagonalization puts the eigenvalue crossing of lambda = 1.5 - g^2 at
    1.3930311, so the stated anchor (2.7e-3 away, transposed digits) cannot
    be met. Note T(1.3903) = 4.6e-3, far from zero at that coupling.
    """
    t0 = time.time()
    zeros = non_juddian_roots(1, 1.0, 0.5, "plus", 0.1, 2.0)
    err = min(abs(z - 1.3903) for z in zeros)
    report(4, err <= 1e-3,
           f"T-zero anchor (1/2, 1, 1): zeros={[f'{z:.5f}' for z in zeros]}, "
           f"|dg to 1.3903| = {err:.2e} {timed(t0)}")


def test_criterion_04b_t_zero_non_half_integer_anchor():
    """T-function zero for (eps=3/10, Delta=1/2, N=1) at g = 0.8695 +- 1e-3."""
    t0 = time.time()
    zeros = non_juddian_roots(1, 0.5, 0.3, "plus", 0.1, 2.0)
    err = min(abs(z - 0.8695) for z in zeros)
    report(4, err <= 1e-3, f"T-zero anchor (3/10, 1/2, 1): |dg| = {err:.2e} {timed(t0)}")


def test_criterion_05_series_polynomial_bridge():
    """(N!)^2 (2g)^N K_N^-(N+eps) = (N!)^2 2^N b_N (b_N = K_N g^N of the
    branch -eps, the bias -eps) vs the exact constraint polynomial, relative
    1e-9 over 50 random points with N <= 8."""
    t0 = time.time()
    rng = random.Random(20250808)
    worst = 0.0
    for _ in range(50):
        N = rng.randint(1, 8)
        eps = Fraction(rng.randint(-8, 16), rng.randint(1, 8))
        g = rng.uniform(0.05, 2.0)
        delta = rng.uniform(0.05, 3.0)
        bs = k_sequence(N + float(eps), ModelParams(g, delta, -float(eps)), N)
        lhs = math.factorial(N) ** 2 * 2 ** N * bs[N]
        rhs = float(constraint_value(N, eps, N, Fraction(2 * g) ** 2,
                                     Fraction(delta) ** 2))
        err = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        worst = max(worst, err)
        assert err <= 1e-9, (N, eps, g, delta, err)
    report(5, True, f"50 bridge points, worst rel err = {worst:.2e} {timed(t0)}")


def test_criterion_06_residue_formulas():
    """Closed-form pole coefficients vs Richardson limits, relative 1e-5 on 20
    points; both coefficients vanish at the Juddian point."""
    t0 = time.time()
    rng = random.Random(11)
    worst = 0.0
    checked = 0
    # 12 simple poles, bias away from half-integers
    while checked < 12:
        N = rng.randint(0, 3)
        eps = rng.uniform(0.06, 0.44)
        g = rng.uniform(0.4, 1.2)
        delta = rng.uniform(0.6, 1.8)
        sign = rng.choice(["plus", "minus"])
        # the pole N - eps is the pole N + eps' at the bias eps' = -eps
        params = ModelParams(g, delta, eps if sign == "plus" else -eps)
        x0 = N + params.eps
        closed = residue_simple(N, params)
        numeric = residue_numeric(x0, params, order=1, h0=5e-3)
        if abs(closed) < 1e-4:      # stay away from accidental zeros
            continue
        err = abs(closed - numeric) / abs(closed)
        worst = max(worst, err)
        assert err <= 1e-5, (N, eps, g, delta, sign, err)
        checked += 1
    # 8 double poles across the small (N, ell) block
    for (N, ell, g, delta) in ((0, 1, 0.8, 1.1), (1, 1, 0.9, 1.0), (0, 2, 0.7, 1.2),
                               (1, 2, 0.6, 0.9), (2, 0, 0.8, 0.9), (0, 3, 0.9, 1.4),
                               (1, 0, 0.7, 1.1), (2, 1, 0.5, 1.3)):
        params = ModelParams(g, delta, ell / 2.0)
        A, B = double_pole_coefficients(N, ell, params)
        An, Bn = residue_numeric(N + ell / 2.0, params, order=2, h0=5e-3)
        errA = abs(A - An) / max(abs(A), 1e-300)
        errB = abs(B - Bn) / max(abs(B), 1e-300)
        worst = max(worst, errA, errB)
        assert errA <= 1e-5 and errB <= 1e-5, (N, ell, errA, errB)
        checked += 1
    # Juddian point: both coefficients vanish after slope normalization
    pj = ModelParams(0.5, 1.0, 0.5)
    A, B = double_pole_coefficients(1, 1, pj)
    h = 1e-3
    Ap, Bp = double_pole_coefficients(1, 1, ModelParams(0.5 + h, 1.0, 0.5))
    Am, Bm = double_pole_coefficients(1, 1, ModelParams(0.5 - h, 1.0, 0.5))
    slope_a = abs(Ap - Am) / (2 * h)
    slope_b = abs(Bp - Bm) / (2 * h)
    assert abs(A) <= 1e-8 * max(1.0, slope_a)
    assert abs(B) <= 1e-8 * max(1.0, slope_b)
    report(6, True, f"{checked} pole points, worst rel err = {worst:.2e}; "
                    f"Juddian A={A:.1e}, B={B:.1e} {timed(t0)}")


def test_criterion_07_oracle_agreement():
    """Lowest 6 eigenvalues from zero bracketing of the regularized function
    vs certified truncated diagonalization, |dlambda| <= 1e-6."""
    t0 = time.time()
    worst = 0.0
    for (g, delta, eps) in ((1.0, 1.0, 0.2), (0.5, 1.0, 0.5), (1.5, 2.0, 1.0)):
        params = ModelParams(g, delta, eps)
        ev, M = oracle.certified_eigenvalues(params, 6)
        recs = full_spectrum(params, x_max=ev[-1] + g * g + 0.5)
        lams = expand_multiplicities(recs)[:6]
        assert len(lams) == 6, (g, delta, eps, lams)
        err = max(abs(a - b) for a, b in zip(lams, ev))
        worst = max(worst, err)
        assert err <= 1e-6, (g, delta, eps, err, M)
    report(7, True, f"3 parameter sets, worst |dlambda| = {worst:.2e} {timed(t0)}")


def test_criterion_08_degeneracy_law():
    """Near-degenerate Juddian pair at half-integer bias; no near-crossings
    anywhere on the scanned grid for the two non-half-integer biases."""
    t0 = time.time()
    eigs = oracle.lowest_eigenvalues(ModelParams(0.5, 1.0, 0.5), 80, 6)
    gap = min(b - a for a, b in zip(eigs, eigs[1:]))
    assert gap <= 1e-8, gap
    min_gap = math.inf
    for eps in (0.2, 1.4):
        # analytic block spectrum at g = 0
        r = math.sqrt(1.0 + eps * eps)
        levels = sorted(n + s * r for n in range(8) for s in (+1, -1))[:8]
        min_gap = min(min_gap, min(b - a for a, b in zip(levels, levels[1:])))
        for i in range(1, 28):
            g = 2.7 * i / 27
            ev = oracle.lowest_eigenvalues(ModelParams(g, 1.0, eps), 70, 8)
            min_gap = min(min_gap, min(b - a for a, b in zip(ev, ev[1:])))
    assert min_gap >= 1e-4, min_gap
    report(8, True, f"Juddian pair gap = {gap:.1e}; "
                    f"non-half-integer min gap = {min_gap:.2e} {timed(t0)}")


def test_criterion_09_generating_function_identities():
    """Binomial transfer and ODE coefficient recurrence, exact, N <= 6,
    l <= 4, k <= 15."""
    t0 = time.time()
    for N in range(0, 7):
        for ell in range(0, 5):
            assert generating_identity_check(N, ell, 15), (N, ell)
    for N in range(0, 7):
        for eps in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4),
                    Fraction(1), Fraction(3, 2)):
            assert ode_coefficient_check(N, eps, 15), (N, eps)
    report(9, True, f"35 transfer pairs and 42 ODE families exact {timed(t0)}")


def test_criterion_10_symmetry_suite():
    """Bias sign symmetry of the G-function and of the full spectrum, 1e-8."""
    t0 = time.time()
    rng = random.Random(7)
    worst = 0.0
    for _ in range(10):
        g = rng.uniform(0.3, 1.5)
        delta = rng.uniform(0.4, 2.0)
        eps = rng.uniform(0.05, 0.95)
        x = rng.uniform(-0.5, 3.0)
        if any(abs(x - n + s) < 0.02 for n in range(8) for s in (eps, -eps)):
            x += 0.05
        a = g_function(x, ModelParams(g, delta, eps))
        b = g_function(x, ModelParams(g, delta, -eps))
        err = abs(a - b) / max(abs(a), abs(b), 1e-300)
        worst = max(worst, err)
        assert err <= 1e-8
    for (g, delta, eps) in ((0.9, 1.1, 0.27), (0.6, 0.8, 0.45), (1.2, 1.5, 0.8),
                            (0.8, 1.0, 0.35)):
        ra = full_spectrum(ModelParams(g, delta, eps), 3.5)
        rb = full_spectrum(ModelParams(g, delta, -eps), 3.5)
        assert len(ra) == len(rb)
        for u, v in zip(ra, rb):
            assert abs(u.x - v.x) <= 1e-8 * max(1.0, abs(u.x))
            assert u.kind == v.kind and u.multiplicity == v.multiplicity
        worst = max(worst, max(abs(u.x - v.x) for u, v in zip(ra, rb)))
    report(10, True, f"sign symmetry, worst deviation = {worst:.2e} {timed(t0)}")
