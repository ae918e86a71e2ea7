"""Command-line surface: compute polynomial families, verify the exact
identities, trace G/T functions, locate spectra, run coupling sweeps, and dump
oracle eigenvalues. Exit codes: 0 success, 1 a verified identity failed,
2 usage error, an input out of range, an `--out` file that cannot be written,
or a spectrum the level count shows to be incomplete."""

from __future__ import annotations

import argparse
import gc
import math
import sys
from fractions import Fraction

from . import oracle, poly, spectrum
from .series import (
    ModelParams,
    PoleEncountered,
    b_residual,
    double_pole_coefficients,
    g_function,
    is_half_integer,
    regularized_g,
    residue_numeric,
    residue_simple,
    t_function,
)
from .spectrum import fmt_float, rows_to_csv, rows_to_json


def parse_eps(text: str):
    """Bias argument: 'p/q' and plain decimals parse exactly as rationals
    (so exact subcommands see 0.3 as 3/10); anything else falls back to a
    float for the series paths."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):     # 'p/0' is a usage error
        return float(text)


def nonneg_int(text: str) -> int:
    """Level number, index or bound: an integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return n


def parse_range(text: str) -> list[float]:
    """Grid syntax 'a:b:step' (inclusive ends, within half a step; a, b and
    step finite); a bare number gives a single-point grid."""
    if ":" not in text:
        return [float(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("range must be a:b:step")
    a, b, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError("range ends and step must be finite")
    if step <= 0 or b < a:
        raise ValueError("need step > 0 and b >= a")
    out = []
    k = 0
    while True:
        v = a + k * step
        if v > b + step / 2:
            break
        out.append(v)
        k += 1
    return out


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(rows: list[dict], args, fields=spectrum.SPECTRUM_FIELDS):
    _emit(rows_to_json(rows) if args.format == "json" else rows_to_csv(rows, fields),
          args.out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_poly(args) -> int:
    eps = Fraction(args.eps) if not isinstance(args.eps, Fraction) else args.eps
    k = args.N if args.k is None else args.k
    if args.family == "constraint":
        p = poly.constraint_poly(args.N, eps, k)
    elif args.family == "quotient":
        p = poly.a_poly(args.N, args.ell)
    else:
        p = poly.q_poly(args.N, eps, k)
    if args.format == "json":
        import json
        _emit(json.dumps(p.to_json_obj()) + "\n", args.out)
    else:
        _emit(str(p) + "\n", args.out)
    return 0


def cmd_divide(args) -> int:
    try:
        quot, exact = poly.verify_divisibility(args.N, args.ell)
    except poly.DivisibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        quot, exact = None, False
    obj = {"N": args.N, "ell": args.ell, "exact": exact,
           "quotient": quot.to_json_obj() if exact else None}
    if args.format == "json":
        import json
        _emit(json.dumps(obj, sort_keys=True) + "\n", args.out)
    else:
        _emit(f"exact={exact}\nquotient={quot}\n", args.out)
    return 0 if exact else 1


def cmd_count_roots(args) -> int:
    n = spectrum.count_positive_roots(args.N, Fraction(args.eps), Fraction(args.y))
    _emit(f"{n}\n", args.out)
    return 0


def cmd_gfunc(args) -> int:
    params = ModelParams(args.g, args.delta, float(args.eps))
    rows = []
    for x in parse_range(args.x):
        try:
            gval = g_function(x, params)
        except PoleEncountered:
            gval = float("nan")
        rows.append({"x": x, "G": gval, "calG": regularized_g(x, params)})
    _emit_rows(rows, args, ("x", "G", "calG"))
    return 0


def cmd_tfunc(args) -> int:
    rows = []
    for g in parse_range(args.g):
        params = ModelParams(g, args.delta, float(args.eps))
        rows.append({"g": g, "T": t_function(args.N, params, args.sign)})
    _emit_rows(rows, args, ("g", "T"))
    return 0


def cmd_residue(args) -> int:
    eps = float(args.eps)
    params = ModelParams(args.g, args.delta, eps)
    out = {}
    if is_half_integer(eps) and args.sign == "plus":
        ell = round(2 * eps)
        if ell < 0:
            raise ValueError("use the minus sign for negative bias poles")
        A, B = double_pole_coefficients(args.N, ell, params)
        x0 = args.N + ell / 2.0
        An, Bn = residue_numeric(x0, params, order=2)
        out = {"x0": x0, "order": 2, "A": A, "B": B,
               "A_numeric": An, "B_numeric": Bn,
               "b_residual": b_residual(args.N, ell, params)}
    else:
        x0 = args.N + (eps if args.sign == "plus" else -eps)
        res = residue_simple(args.N, params, args.sign)
        out = {"x0": x0, "order": 1, "residue": res,
               "residue_numeric": residue_numeric(x0, params, order=1)}
    if args.format == "json":
        import json
        _emit(json.dumps(out, sort_keys=True) + "\n", args.out)
    else:
        _emit("".join(f"{k}={fmt_float(v) if isinstance(v, float) else v}\n"
                      for k, v in out.items()), args.out)
    return 0


def cmd_spectrum(args) -> int:
    params = ModelParams(args.g, args.delta, float(args.eps))
    recs = spectrum.full_spectrum(params, args.x_max, args.tol)
    _emit_rows(spectrum.records_to_rows(recs, args.g), args)
    return 0


def cmd_sweep(args) -> int:
    grid = tuple(g for g in parse_range(args.g) if g > 0)
    if not grid:
        raise ValueError("sweep grid needs at least one positive coupling")
    _emit_rows(spectrum.spectral_sweep(args.delta, float(args.eps), grid, args.levels,
                                       args.tol), args)
    return 0


def cmd_oracle(args) -> int:
    params = ModelParams(args.g, args.delta, float(args.eps))
    eigs = oracle.lowest_eigenvalues(params, args.M, args.count)
    warning = eigs and oracle.truncation_warning(params, args.M, eigs[-1] + 1e-6)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    _emit_rows([{"g": args.g, "index": i, "lambda": lam, "x": lam + args.g ** 2,
                 "kind": "oracle", "multiplicity": 1, "level_N": None, "branch": None}
                for i, lam in enumerate(eigs)], args)
    return 0


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _verify_divisibility(max_n: int, max_ell: int):
    for N in range(0, max_n + 1):
        for ell in range(0, max_ell + 1):
            try:
                poly.verify_divisibility(N, ell)
            except poly.DivisibilityError:
                return False, f"N={N} ell={ell}"
    return True, f"N<={max_n}, ell<={max_ell}"


def _verify_laguerre(max_k: int):
    for k in range(max_k + 1):
        for eps in (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(-1, 4)):
            if not poly.laguerre_check(k, eps):
                return False, f"k={k} eps={eps}"
    return True, f"k<={max_k}"


def _verify_generating(max_n: int, max_ell: int, k_max: int):
    for N in range(max_n + 1):
        for ell in range(max_ell + 1):
            if not poly.generating_identity_check(N, ell, k_max):
                return False, f"N={N} ell={ell}"
    return True, f"N<={max_n}, ell<={max_ell}, k<={k_max}"


def _verify_ode(max_n: int, k_max: int):
    for N in range(max_n + 1):
        for eps in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4)):
            if not poly.ode_coefficient_check(N, eps, k_max):
                return False, f"N={N} eps={eps}"
    return True, f"N<={max_n}, k<={k_max}"


def _verify_t_identity():
    for (N, ell, g, d) in ((2, 1, 0.9, 1.3), (1, 2, 0.7, 0.8), (3, 3, 1.1, 2.0)):
        lhs = t_function(N + ell, ModelParams(g, d, ell / 2.0), "minus")
        rhs = t_function(N, ModelParams(g, d, ell / 2.0), "plus")
        if abs(lhs - rhs) > 1e-8 * max(abs(lhs), abs(rhs), 1e-30):
            return False, f"N={N} ell={ell}"
    return True, "shift identity at 3 parameter points"


def _verify_g_symmetry():
    pts = ((0.37, 0.8, 1.0, 0.45), (1.2, 0.6, 1.4, 0.27), (2.3, 1.1, 0.7, 0.81))
    for (x, g, d, e) in pts:
        a = g_function(x, ModelParams(g, d, e))
        b = g_function(x, ModelParams(g, d, -e))
        if abs(a - b) > 1e-10 * max(abs(a), abs(b), 1e-30):
            return False, f"x={x}"
    return True, "bias sign symmetry at 3 points"


def _verify_root_counts(max_n: int):
    for N in range(1, max_n + 1):
        for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            for k in range(N):
                lo = poly.c_weight(k, eps)
                hi = poly.c_weight(k + 1, eps)
                for y in (lo, lo + (hi - lo) / 3, lo + Fraction(2, 3) * (hi - lo)):
                    if spectrum.count_positive_roots(N, eps, y) != N - k:
                        return False, f"N={N} eps={eps} y={y}"
            if spectrum.count_positive_roots(N, eps, poly.c_weight(N, eps)) != 0:
                return False, f"N={N} eps={eps} top"
    return True, f"N<={max_n}"


def cmd_verify(args) -> int:
    suites = {
        "divisibility": lambda: _verify_divisibility(args.max_N, args.max_ell),
        "laguerre": lambda: _verify_laguerre(8),
        "generating": lambda: _verify_generating(min(args.max_N, 4), min(args.max_ell, 3), 12),
        "ode": lambda: _verify_ode(min(args.max_N, 4), 12),
        "tidentity": _verify_t_identity,
        "gsymmetry": _verify_g_symmetry,
        "rootcounts": lambda: _verify_root_counts(min(args.max_N, 8)),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failed = False
    lines = []
    for name in names:
        ok, detail = suites[name]()
        lines.append(f"{name:<14} {'PASS' if ok else 'FAIL'}  {detail}")
        failed = failed or not ok
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="aqrm",
        description="Spectral toolkit for the asymmetric quantum Rabi model.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, g=False, delta=False, eps=False, N=False, ell=False):
        if g:
            p.add_argument("--g", type=float, required=True)
        if delta:
            p.add_argument("--delta", type=float, required=True)
        if eps:
            p.add_argument("--eps", type=parse_eps, required=True,
                           help="bias; 'p/q' and decimals parse exactly")
        if N:
            p.add_argument("--N", type=nonneg_int, required=True)
        if ell:
            p.add_argument("--ell", type=nonneg_int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("poly", help="print a polynomial family member")
    common(p, eps=True, N=True, ell=True)
    p.add_argument("--k", type=nonneg_int, default=None)
    p.add_argument("--family", choices=("constraint", "quotient", "q"),
                   default="constraint")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("divide", help="exact constraint-polynomial division")
    common(p, N=True, ell=True)
    p.set_defaults(fn=cmd_divide)

    p = sub.add_parser("count-roots", help="positive-root count of P_N(x, y)")
    common(p, eps=True, N=True)
    p.add_argument("--y", required=True, help="rational 'p/q' or decimal, exact")
    p.set_defaults(fn=cmd_count_roots)

    p = sub.add_parser("gfunc", help="table of G and regularized G over x")
    common(p, g=True, delta=True, eps=True)
    p.add_argument("--x", required=True, help="grid a:b:step or single value")
    p.set_defaults(fn=cmd_gfunc)

    p = sub.add_parser("tfunc", help="table of the constraint T-function over g")
    common(p, delta=True, eps=True, N=True)
    p.add_argument("--g", required=True, help="grid a:b:step or single value")
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p.set_defaults(fn=cmd_tfunc)

    p = sub.add_parser("residue", help="pole coefficients of G at x = N +/- eps")
    common(p, g=True, delta=True, eps=True, N=True)
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p.set_defaults(fn=cmd_residue)

    p = sub.add_parser("spectrum", help="full classified spectrum at one coupling")
    common(p, g=True, delta=True, eps=True)
    p.add_argument("--x-max", type=float, default=6.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("sweep", help="spectral curves over a coupling grid")
    common(p, delta=True, eps=True)
    p.add_argument("--g", required=True, help="grid a:b:step")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("oracle", help="truncated-basis eigenvalues")
    common(p, g=True, delta=True, eps=True)
    p.add_argument("--M", type=int, default=80)
    p.add_argument("--count", type=int, default=8)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="run the exact-identity suites")
    p.add_argument("suite", choices=("all", "divisibility", "laguerre",
                                     "generating", "ode", "tidentity",
                                     "gsymmetry", "rootcounts"))
    p.add_argument("--max-N", type=nonneg_int, default=10)
    p.add_argument("--max-ell", type=nonneg_int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    # argparse reads a negative 'p/q' such as '-1/2', or a grid such as
    # '-1:4:0.002', as an option, so each --eps and --x value is attached to
    # its flag: '--eps -1/2' means '--eps=-1/2'
    attached: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if attached and attached[-1] in ("--eps", "--x"):
            attached[-1] += f"={arg}"
        else:
            attached.append(arg)
    ap = build_parser()
    try:
        args = ap.parse_args(attached)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Process entry point (`aqrm` and `python -m aqrm.cli`): `main` on the
    command line, then `gc.freeze()`. Freezing moves every object the cyclic
    collector tracks to its permanent generation, which the collections at
    interpreter exit skip, so exit does not walk the ~13k objects alive after
    `import aqrm.cli`. `main` itself changes no process-wide state: the tests
    call it in process."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    raise SystemExit(run())
