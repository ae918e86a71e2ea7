"""Correctness checks behind `failed`.

Every invocation's exit code and stdout are checked against expectations that
are computed once per run, outside the timed passes: the certified
truncated-basis oracle for the sweeps, the series spectrum for the oracle dump,
and the paper's defining recurrence and root-count theorem (evaluated here, not
through the package) for the exact commands. For the default seed the output
is also compared with the committed reference: exact columns must match
exactly, float columns within FLOAT_TOL.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from fractions import Fraction

# |lambda_series - lambda_oracle| allowed per level; both sides converge to
# 1e-10 or better, so agreement to 1e-7 certifies every printed level.
LAMBDA_TOL = 1e-7
# float columns against the committed default-seed reference
FLOAT_TOL = 1e-8
# x = N +/- eps for exceptional rows, and lambda = x - g^2 on every row
IDENTITY_TOL = 1e-12

SPECTRUM_HEADER = ["g", "index", "lambda", "x", "kind", "multiplicity",
                   "level_N", "branch"]
SPECTRUM_FLOATS = ("lambda", "x")
SWEEP_KINDS = {"regular", "juddian", "non-juddian-exceptional"}
VERIFY_SUITES = {"divisibility", "laguerre", "generating", "ode", "tidentity",
                 "gsymmetry", "rootcounts"}

# rational test points for identities between exact polynomials
_POINTS = ((Fraction(2, 3), Fraction(5, 7)), (Fraction(-3), Fraction(11, 2)),
           (Fraction(7), Fraction(-1, 3)), (Fraction(13, 4), Fraction(9)))


# ---------------------------------------------------------------------------
# expectations (computed outside the timed passes)
# ---------------------------------------------------------------------------

def expectations(workload) -> dict:
    """Per-run ground truth for the workload's invocations."""
    from aqrm import oracle, spectrum
    from aqrm.series import ModelParams

    p = workload.params
    if workload.name.startswith("sweep"):
        eps = float(Fraction(p["eps"]))
        return {"lambdas": [oracle.certified_eigenvalues(
            ModelParams(g, p["delta"], eps), p["levels"])[0] for g in p["grid"]]}
    if workload.name == "oracle-bands":
        params = ModelParams(p["g"], p["delta"], float(Fraction(p["eps"])))
        x_max = 8.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            while True:
                lams = spectrum.expand_multiplicities(
                    spectrum.full_spectrum(params, x_max))
                # two spare levels keep the window edge away from level `count`
                if len(lams) >= p["count"] + 2:
                    return {"lambdas": lams[:p["count"]]}
                x_max += 4.0
    return {}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check(workload, argv, rc: int, out: str, expect: dict) -> list[str]:
    """Problems with one invocation's result; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if workload.name.startswith("sweep"):
            return _check_sweep(workload.params, out, expect)
        if workload.name == "oracle-bands":
            return _check_oracle(workload.params, out, expect)
        return _check_identity_command(argv, out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"unparseable output: {exc!r}"]


def parse_spectrum_csv(out: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != SPECTRUM_HEADER:
        raise ValueError("missing spectrum CSV header")
    body = [dict(zip(SPECTRUM_HEADER, r)) for r in rows[1:]]
    if any(len(r) != len(SPECTRUM_HEADER) for r in rows[1:]):
        raise ValueError("ragged spectrum CSV row")
    return body


def _check_levels(tag: str, rows: list[dict], g: float,
                  truth: list[float]) -> list[str]:
    bad = []
    if [int(r["index"]) for r in rows] != list(range(len(truth))):
        bad.append(f"{tag}: indices {[r['index'] for r in rows]}")
        return bad
    for r, lam_true in zip(rows, truth):
        lam, x = float(r["lambda"]), float(r["x"])
        if abs(lam - lam_true) > LAMBDA_TOL:
            bad.append(f"{tag} level {r['index']}: lambda {lam!r}, "
                       f"oracle {lam_true!r}")
        if abs(lam - (x - g * g)) > IDENTITY_TOL * max(1.0, abs(x)):
            bad.append(f"{tag} level {r['index']}: lambda != x - g^2")
    return bad


def _check_sweep(p: dict, out: str, expect: dict) -> list[str]:
    rows = parse_spectrum_csv(out)
    levels, grid = p["levels"], p["grid"]
    if len(rows) != levels * len(grid):
        return [f"{len(rows)} rows, expected {levels * len(grid)}"]
    eps = Fraction(p["eps"])
    half = (2 * eps).denominator == 1
    bad = []
    for i, g in enumerate(grid):
        block = rows[i * levels:(i + 1) * levels]
        if any(abs(float(r["g"]) - g) > IDENTITY_TOL for r in block):
            bad.append(f"g={g}: rows carry another coupling")
            continue
        bad += _check_levels(f"g={g}", block, g, expect["lambdas"][i])
        for r in block:
            kind, mult = r["kind"], int(r["multiplicity"])
            if kind not in SWEEP_KINDS:
                bad.append(f"g={g}: unknown kind {kind!r}")
            elif kind == "regular":
                if mult != 1 or r["level_N"] or r["branch"]:
                    bad.append(f"g={g}: regular row with exceptional fields")
            else:
                sign = {"plus_eps": 1, "minus_eps": -1}.get(r["branch"])
                if sign is None:
                    bad.append(f"g={g}: exceptional row without branch")
                elif abs(float(r["x"]) - (int(r["level_N"]) + sign * float(eps))) \
                        > IDENTITY_TOL * max(1.0, float(r["x"])):
                    bad.append(f"g={g}: {kind} row off x = N +/- eps")
            if mult == 2 and not (half and kind == "juddian"):
                bad.append(f"g={g}: multiplicity 2 on a {kind} row "
                           f"at eps={p['eps']}")
            elif mult not in (1, 2):
                bad.append(f"g={g}: multiplicity {mult}")
    return bad


def _check_oracle(p: dict, out: str, expect: dict) -> list[str]:
    rows = parse_spectrum_csv(out)
    bad = []
    if len(rows) != p["count"]:
        return [f"{len(rows)} rows, expected {p['count']}"]
    for r in rows:
        if r["kind"] != "oracle" or r["multiplicity"] != "1" or r["level_N"] \
                or r["branch"] or abs(float(r["g"]) - p["g"]) > IDENTITY_TOL:
            bad.append(f"malformed oracle row {r}")
    return bad + _check_levels("oracle", rows, p["g"], expect["lambdas"])


# ---------------------------------------------------------------------------
# exact commands, checked against the paper's definitions
# ---------------------------------------------------------------------------

def constraint_value(N: int, eps: Fraction, k: int, x: Fraction, y: Fraction) -> Fraction:
    """P_k^(N,eps)(x, y) by the defining three-term recurrence."""
    p0, p1 = Fraction(1), x + y - 1 - 2 * eps
    if k == 0:
        return p0
    for j in range(2, k + 1):
        p0, p1 = p1, (j * x + y - j * (j + 2 * eps)) * p1 \
            - j * (j - 1) * (N - j + 1) * x * p0
    return p1


def positive_root_count(N: int, eps: Fraction, y: Fraction) -> int:
    """N - k for c_k <= y < c_{k+1}, c_k = k(k + 2 eps); 0 above c_N."""
    below = [k for k in range(N + 1) if k * (k + 2 * eps) <= y]
    return N - max(below) if below else N


def parse_bivar(text: str) -> dict[tuple[int, int], Fraction]:
    """Terms of a polynomial printed as e.g. `2*x^2 - 5/3*x*y + y^2 - 4`."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    first = -1 if text.startswith("-") else 1
    pieces = re.split(r" ([+-]) ", text.lstrip("-"))
    signs = [first] + [1 if s == "+" else -1 for s in pieces[1::2]]
    terms: dict[tuple[int, int], Fraction] = {}
    for sign, body in zip(signs, pieces[0::2]):
        c, i, j = Fraction(1), 0, 0
        for factor in body.split("*"):
            if factor[0] in "xy":
                if factor[1:2] not in ("", "^"):
                    raise ValueError(f"bad factor {factor!r}")
                power = int(factor[2:]) if factor[1:2] == "^" else 1
                i, j = (power, j) if factor[0] == "x" else (i, power)
            else:
                c = Fraction(factor)
        terms[(i, j)] = terms.get((i, j), Fraction(0)) + sign * c
    return terms


def eval_terms(terms: dict, x: Fraction, y: Fraction) -> Fraction:
    return sum((c * x ** i * y ** j for (i, j), c in terms.items()), Fraction(0))


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_identity_command(argv, out: str) -> list[str]:
    cmd = argv[0]
    if cmd == "verify":
        lines = out.splitlines()
        seen = {ln.split()[0] for ln in lines if ln.split()}
        bad = [f"suite not PASS: {ln!r}" for ln in lines
               if len(ln.split()) < 2 or ln.split()[1] != "PASS"]
        if seen != VERIFY_SUITES or len(lines) != len(VERIFY_SUITES):
            bad.append(f"suites {sorted(seen)}")
        return bad
    if cmd == "poly":
        N, k = int(_flag(argv, "--N")), int(_flag(argv, "--k"))
        eps = Fraction(_flag(argv, "--eps"))
        terms = parse_bivar(out)
        return [f"P_{k}^({N},{eps}) wrong at {pt}" for pt in _POINTS
                if eval_terms(terms, *pt) != constraint_value(N, eps, k, *pt)]
    if cmd == "divide":
        N, ell = int(_flag(argv, "--N")), int(_flag(argv, "--ell"))
        obj = json.loads(out)
        if obj.get("exact") is not True or obj["N"] != N or obj["ell"] != ell:
            return [f"divide N={N} ell={ell} not reported exact: {obj}"]
        quot = {(i, j): Fraction(c) for i, j, c in obj["quotient"]["terms"]}
        half = Fraction(ell, 2)
        return [f"A_{N}^{ell} * P_N != P_(N+ell) at {pt}" for pt in _POINTS
                if eval_terms(quot, *pt) * constraint_value(N, half, N, *pt)
                != constraint_value(N + ell, -half, N + ell, *pt)]
    if cmd == "count-roots":
        N, eps, y = int(_flag(argv, "--N")), Fraction(_flag(argv, "--eps")), \
            Fraction(_flag(argv, "--y"))
        want = positive_root_count(N, eps, y)
        got = int(out.strip())
        return [] if got == want else [f"count-roots {got}, theorem says {want}"]
    return [f"no check for command {cmd!r}"]


# ---------------------------------------------------------------------------
# committed default-seed reference
# ---------------------------------------------------------------------------

def compare_reference(argv, out: str, ref: dict) -> list[str]:
    """Exact columns equal, float columns within FLOAT_TOL."""
    if list(argv) != ref["argv"]:
        return [f"argv {list(argv)} differs from reference {ref['argv']}"]
    want = ref["stdout"]
    if argv[0] not in ("sweep", "oracle"):
        return [] if out == want else ["stdout differs from reference"]
    got_rows, want_rows = parse_spectrum_csv(out), parse_spectrum_csv(want)
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows, reference has {len(want_rows)}"]
    bad = []
    for n, (a, b) in enumerate(zip(got_rows, want_rows)):
        for col in SPECTRUM_HEADER:
            if col in SPECTRUM_FLOATS:
                if not math.isclose(float(a[col]), float(b[col]),
                                    rel_tol=0.0, abs_tol=FLOAT_TOL):
                    bad.append(f"row {n} {col}: {a[col]} vs reference {b[col]}")
            elif a[col] != b[col]:
                bad.append(f"row {n} {col}: {a[col]!r} vs reference {b[col]!r}")
    return bad
