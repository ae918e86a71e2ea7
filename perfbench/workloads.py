"""Seeded workload generator.

Each workload is a list of `aqrm` CLI invocations (argv after
`python -m aqrm.cli`). The program sees only the generated argv; the seed,
the draw ranges and the reasons below live here. The same seed always gives
the same argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1

# `aqrm.spectrum._RATIONAL_EPS_CAP`: a bias whose reduced denominator exceeds
# this is never recognized as exact, so Juddian membership takes the float path.
EXACT_BIAS_DENOMINATOR_CAP = 10 ** 4

# Sweep grid shared by both sweeps: four couplings 1/2, 1/2+h, 1/2+2h, 1/2+3h
# from weak to strong coupling (g up to about 2), with the seed drawing the step
# h from [SWEEP_STEP_MIN, SWEEP_STEP_MAX]. The grid starts on g = 1/2, where
# P_1^(1,1/2)((2g)^2, 1) = (2g)^2 - 1 vanishes: at eps = 1/2 that is a doubly
# degenerate Juddian crossing, which a seeded start offset would step over.
# The work of a sweep coupling steps up where g^2 + 10 +/- 1/2 crosses an
# integer, i.e. at g^2 = k + 1/2; every drawn grid point stays strictly between
# the same two such thresholds, so each seed does the same amount of work and
# seed-to-seed spread measures the machine, not the draw.
SWEEP_START = "0.5"
SWEEP_STEP_MIN = 500     # in thousandths
SWEEP_STEP_MAX = 530
SWEEP_POINTS = 4
SWEEP_DELTA = "1"
SWEEP_LEVELS = 8

# Generic bias eps = k / 10^5 with k coprime to 10 (reduced denominator 10^5),
# in a narrow band so that the scan window, which grows with |eps|, has the
# same length on every seed.
GENERIC_K_RANGE = (30001, 39999)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: tuple[str, ...]          # layers this workload is meant to load
    invocations: tuple[tuple[str, ...], ...]
    params: dict            # what the checks need to know about the draw


WHY = {
    "sweep-half": "README sweep at eps=1/2 from the degenerate Juddian crossing "
                  "g=1/2: exact Juddian checks (roots, poly) repeat at every "
                  "coupling for few distinct (N, eps, Delta)",
    "sweep-generic": "same grid at eps=k/1e5: the exact layer is bypassed and "
                     "series calG evaluations plus the spectrum scan do the work",
    "identities": "verify all plus poly, divide, count-roots: builds exact "
                  "bivariate families; no series work at all",
    "oracle-bands": "oracle at strong coupling, M=300, 20 levels: banded "
                    "inertia probes, the only load on the oracle layer",
}

LAYERS = {
    "sweep-half": ("roots", "poly", "spectrum"),
    "sweep-generic": ("series", "spectrum"),
    "identities": ("poly", "roots"),
    "oracle-bands": ("oracle",),
}

NAMES = tuple(WHY)


def sweep_grid(seed: int) -> tuple[str, list[float]]:
    """The `--g a:b:step` argument and the couplings the CLI expands it to."""
    rng = random.Random(f"sweep-grid/{seed}")
    step = rng.randint(SWEEP_STEP_MIN, SWEEP_STEP_MAX) / 1000
    a = float(SWEEP_START)
    b = f"{a + step * (SWEEP_POINTS - 1):.3f}"
    # the same float arithmetic as the CLI's a:b:step expansion
    grid = [a + k * step for k in range(SWEEP_POINTS)]
    return f"{SWEEP_START}:{b}:{step}", grid


def generic_bias(seed: int) -> str:
    """A bias k/10^5 that the exact path can never accept."""
    rng = random.Random(f"generic-bias/{seed}")
    while True:
        k = rng.randint(*GENERIC_K_RANGE)
        if k % 2 and k % 5:
            break
    text = f"0.{k:05d}"
    if Fraction(text).denominator <= EXACT_BIAS_DENOMINATOR_CAP:
        raise AssertionError(f"bias {text} would take the exact path")
    return text


def _sweep(seed: int, eps: str) -> tuple[tuple[str, ...], dict]:
    g_arg, grid = sweep_grid(seed)
    argv = ("sweep", "--delta", SWEEP_DELTA, "--eps", eps, "--g", g_arg,
            "--levels", str(SWEEP_LEVELS))
    return argv, {"grid": grid, "delta": float(SWEEP_DELTA), "eps": eps,
                  "levels": SWEEP_LEVELS}


def _identities(seed: int) -> tuple[tuple[tuple[str, ...], ...], dict]:
    rng = random.Random(f"identities/{seed}")
    biases = ("0", "1/4", "2/5", "1/2", "1")
    n_poly = rng.randint(3, 8)
    poly = ("poly", "--N", str(n_poly), "--eps", rng.choice(biases),
            "--k", str(rng.randint(1, n_poly)))
    divide = ("divide", "--N", str(rng.randint(2, 7)),
              "--ell", str(rng.randint(1, 4)), "--format", "json")
    n_cnt = rng.randint(4, 8)
    eps = Fraction(rng.choice(biases))
    top = n_cnt * (n_cnt + 2 * eps)             # c_N: no positive root above
    weights = {k * (k + 2 * eps) for k in range(n_cnt + 1)}
    while True:                                  # y strictly between weights
        y = Fraction(rng.randint(1, int(top * 10) - 1), 10)
        if y not in weights:
            break
    count = ("count-roots", "--N", str(n_cnt), "--eps", str(eps), "--y", str(y))
    verify = ("verify", "all", "--max-N", "10", "--max-ell", "4")
    return (verify, poly, divide, count), {}


def _oracle(seed: int) -> tuple[tuple[str, ...], dict]:
    rng = random.Random(f"oracle-bands/{seed}")
    g = f"{rng.uniform(2.0, 2.6):.4f}"
    delta = f"{rng.uniform(0.6, 1.4):.4f}"
    eps = generic_bias(seed)
    argv = ("oracle", "--g", g, "--delta", delta, "--eps", eps,
            "--M", "300", "--count", "20")
    return argv, {"g": float(g), "delta": float(delta), "eps": eps, "count": 20}


def generate(name: str, seed: int) -> Workload:
    """The workload's invocation list for this seed."""
    if name == "sweep-half":
        argv, params = _sweep(seed, "1/2")
        invocations = (argv,)
    elif name == "sweep-generic":
        argv, params = _sweep(seed, generic_bias(seed))
        invocations = (argv,)
    elif name == "identities":
        invocations, params = _identities(seed)
    elif name == "oracle-bands":
        argv, params = _oracle(seed)
        invocations = (argv,)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, WHY[name], LAYERS[name], invocations, params)
