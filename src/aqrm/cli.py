"""Command-line surface: compute polynomial families, verify the exact
identities, trace G/T functions, locate spectra, run coupling sweeps, and dump
oracle eigenvalues. Exit codes: 0 success, 1 a verified identity failed,
2 usage error (an option value '--' among them), an input out of range, an
`--out` file that cannot be written, or a spectrum the level count shows to
be incomplete (the level count's one refusal, IncompleteSpectrum).

Every command writes its result through one writer, `_emit`: its text, or
under --format json its object as JSON with sorted keys and each non-finite
float as null, importing json only then.

The commands are described once, in a table (`_commands`). A well-formed
command line is parsed from it directly (`_parse_strict`); argparse, built
from the same table by `build_parser`, is imported only for help, usage
errors and the spellings the strict reader declines, so a plain command
pays for neither argparse nor the gettext and locale imports it brings.

Only `poly` is imported here: each command imports the layers it runs
(`series`, `spectrum`, `oracle`) in its own body, so `poly` and `divide` load
none of them. A process ends in `run`, which exits without interpreter
teardown once its output is flushed."""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import poly


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
        import argparse
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return n


MAX_GRID_STEPS = 10 ** 6     # parse_range refuses a longer grid before building it


def parse_range(text: str) -> list[float]:
    """Grid syntax 'a:b:step' (inclusive ends, within half a step; a, b and
    step finite; at most MAX_GRID_STEPS steps from a to b); a bare finite
    number gives a single-point grid."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError("range must be a:b:step")
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise ValueError("range ends and step must be finite")
    if len(values) == 1:
        return values
    a, b, step = values
    if step <= 0 or b < a:
        raise ValueError("need step > 0 and b >= a")
    if step < math.ulp(max(abs(a), abs(b))):
        raise ValueError("step is below the float spacing of the range ends")
    if (b - a) / step > MAX_GRID_STEPS:
        raise ValueError(f"grid spans more than {MAX_GRID_STEPS} steps")
    out = []
    k = 0
    while True:
        v = a + k * step
        if v > b + step / 2:
            break
        out.append(v)
        k += 1
    return out


def _finite(v):
    """v with every non-finite float in it as None: JSON (RFC 8259) has no NaN."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    return [_finite(x) for x in v] if isinstance(v, list) else v


def _emit(text: str, args, obj=None, indent: int | None = None):
    """To --out or else stdout: obj as JSON under --format json, else text."""
    if obj is not None and args.format == "json":
        import json
        text = json.dumps(_finite(obj), indent=indent, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(rows: list[dict], args, fields=None):
    from .spectrum import SPECTRUM_FIELDS, rows_to_csv
    _emit(rows_to_csv(rows, fields or SPECTRUM_FIELDS), args, rows, indent=2)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_poly(args) -> int:
    eps = Fraction(args.eps)
    k = args.N if args.k is None else args.k
    if args.family == "constraint":
        p = poly.constraint_poly(args.N, eps, k)
    elif args.family == "quotient":
        p = poly.a_poly(args.N, args.ell)
    else:
        p = poly.q_poly(args.N, eps, k)
    _emit(f"{p}\n", args, p.to_json_obj())
    return 0


def cmd_divide(args) -> int:
    try:
        quot, exact = poly.verify_divisibility(args.N, args.ell)
    except poly.DivisibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        quot, exact = None, False
    obj = {"N": args.N, "ell": args.ell, "exact": exact,
           "quotient": quot.to_json_obj() if exact else None}
    _emit(f"exact={exact}\nquotient={quot}\n", args, obj)
    return 0 if exact else 1


def cmd_count_roots(args) -> int:
    from . import spectrum
    n = spectrum.count_positive_roots(args.N, Fraction(args.eps), Fraction(args.y))
    _emit(f"{n}\n", args)
    return 0


def cmd_gfunc(args) -> int:
    from .series import ModelParams, PoleEncountered, g_function, regularized_g
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
    from .series import ModelParams, t_function
    rows = []
    for g in parse_range(args.g):
        params = ModelParams(g, args.delta, float(args.eps))
        rows.append({"g": g, "T": t_function(args.N, params)})
    _emit_rows(rows, args, ("g", "T"))
    return 0


def cmd_residue(args) -> int:
    from .series import (ModelParams, b_residual, double_pole_coefficients,
                         is_half_integer, residue_numeric, residue_simple)
    from .spectrum import fmt_float
    eps = float(args.eps)
    params = ModelParams(args.g, args.delta, eps)
    out = {}
    if is_half_integer(eps) and round(2 * eps) >= 0:
        ell = round(2 * eps)
        A, B = double_pole_coefficients(args.N, ell, params)
        x0 = args.N + ell / 2.0
        An, Bn = residue_numeric(x0, params, order=2)
        out = {"x0": x0, "order": 2, "A": A, "B": B,
               "A_numeric": An, "B_numeric": Bn,
               "b_residual": b_residual(args.N, ell, params)}
    else:
        x0 = args.N + eps
        res = residue_simple(args.N, params)
        out = {"x0": x0, "order": 1, "residue": res,
               "residue_numeric": residue_numeric(x0, params, order=1)}
    _emit("".join(f"{k}={fmt_float(v) if isinstance(v, float) else v}\n"
                  for k, v in out.items()), args, out)
    return 0


def cmd_spectrum(args) -> int:
    from . import spectrum
    from .series import ModelParams
    params = ModelParams(args.g, args.delta, float(args.eps))
    recs = spectrum.full_spectrum(params, args.x_max)
    _emit_rows(spectrum.records_to_rows(recs, args.g), args)
    return 0


def cmd_sweep(args) -> int:
    from . import spectrum
    grid = tuple(g for g in parse_range(args.g) if g > 0)
    if not grid:
        raise ValueError("sweep grid needs at least one positive coupling")
    _emit_rows(spectrum.spectral_sweep(args.delta, float(args.eps), grid, args.levels), args)
    return 0


def cmd_oracle(args) -> int:
    from . import oracle, spectrum
    from .series import ModelParams
    params = ModelParams(args.g, args.delta, float(args.eps))
    eigs = oracle.lowest_eigenvalues(params, args.M, args.count)
    warning = eigs and oracle.truncation_warning(params, args.M, eigs[-1] + 1e-6)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    recs = [spectrum.EigenvalueRecord(lam + args.g ** 2, lam, "oracle") for lam in eigs]
    _emit_rows(spectrum.records_to_rows(recs, args.g), args)
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
    from .series import ModelParams, t_function
    for (N, ell, g, d) in ((2, 1, 0.9, 1.3), (1, 2, 0.7, 0.8), (3, 3, 1.1, 2.0)):
        lhs = t_function(N + ell, ModelParams(g, d, -ell / 2.0))
        rhs = t_function(N, ModelParams(g, d, ell / 2.0))
        if abs(lhs - rhs) > 1e-8 * max(abs(lhs), abs(rhs), 1e-30):
            return False, f"N={N} ell={ell}"
    return True, "shift identity at 3 parameter points"


def _verify_g_symmetry():
    from .series import ModelParams, g_function
    pts = ((0.37, 0.8, 1.0, 0.45), (1.2, 0.6, 1.4, 0.27), (2.3, 1.1, 0.7, 0.81))
    for (x, g, d, e) in pts:
        a = g_function(x, ModelParams(g, d, e))
        b = g_function(x, ModelParams(g, d, -e))
        if abs(a - b) > 1e-10 * max(abs(a), abs(b), 1e-30):
            return False, f"x={x}"
    return True, "bias sign symmetry at 3 points"


def _verify_root_counts(max_n: int):
    from . import spectrum
    # P_N(x, y) has N - k positive roots for y in [c_k, c_{k+1}) and none at
    # c_N, checked at c_k and a third and two thirds of the way to c_{k+1}:
    # y = u/(3q) on the integers q c_k = c_weight(k q, p)/q, eps = p/q, as
    # c_weight(k, eps) = k(k + 2 eps) is homogeneous of degree 2
    biases = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
    scaled = {eps: [poly.c_weight(k * eps.denominator, eps.numerator) // eps.denominator
                    for k in range(max_n + 1)] for eps in biases}
    for N in range(1, max_n + 1):
        for eps in biases:
            if not poly.determinant_check(N, eps):
                return False, f"N={N} eps={eps} determinant"
            c, q = scaled[eps], eps.denominator
            points = [(u, 3 * q) for k in range(N)
                      for u in (3 * c[k], 2 * c[k] + c[k + 1], c[k] + 2 * c[k + 1])]
            counts = spectrum.positive_root_counts(N, eps, points + [(c[N], q)])
            for i, (u, v) in enumerate(points):
                if counts[i] != N - i // 3:
                    return False, f"N={N} eps={eps} y={Fraction(u, v)}"
            if counts[-1] != 0:
                return False, f"N={N} eps={eps} top"
    return True, f"N<={max_n}"


# verify's size bounds, refused before any suite runs. The divisibility suite,
# the only one that grows with them, takes about 2.3 s at (40, 10) (Python
# 3.11, one core, 20 MiB peak), and its time grows about as max_N^4.5
MAX_VERIFY_N, MAX_VERIFY_ELL = 40, 10


def cmd_verify(args) -> int:
    if args.max_N > MAX_VERIFY_N or args.max_ell > MAX_VERIFY_ELL:
        raise ValueError(f"verify takes --max-N up to {MAX_VERIFY_N} "
                         f"and --max-ell up to {MAX_VERIFY_ELL}")
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
    _emit("\n".join(lines) + "\n", args)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _commands() -> dict:
    """The command table that both parsers read: command -> (help, function,
    options), each option a (flag, `add_argument` keywords) pair in argparse's
    order, which its help and usage text follow. It is built on each call, so
    it holds the module's current functions: a caller that rebinds `cmd_*`,
    `parse_eps` or `nonneg_int` sees them, and argparse quotes a `type=`
    function's name in its errors."""
    def opt(flag, type=None, required=False, **kw):
        if type:
            kw["type"] = type
        if required:
            kw["required"] = True
        return flag, kw

    g, delta = opt("--g", float, True), opt("--delta", float, True)
    eps = opt("--eps", parse_eps, True, help="bias; 'p/q' and decimals parse exactly")
    N, ell = opt("--N", nonneg_int, True), opt("--ell", nonneg_int, default=0)
    out = opt("--out", default=None)
    emit = (out, opt("--format", choices=("csv", "json"), default="csv"))
    sign = opt("--sign", choices=("plus", "minus"), default="plus")
    return {
        "poly": ("print a polynomial family member", cmd_poly, (
            eps, N, ell, *emit, opt("--k", nonneg_int, default=None),
            opt("--family", choices=("constraint", "quotient", "q"),
                default="constraint"))),
        "divide": ("exact constraint-polynomial division", cmd_divide, (N, ell, *emit)),
        "count-roots": ("positive-root count of P_N(x, y)", cmd_count_roots, (
            eps, N, *emit, opt("--y", required=True,
                               help="rational 'p/q' or decimal, exact"))),
        "gfunc": ("table of G and regularized G over x", cmd_gfunc, (
            g, delta, eps, *emit,
            opt("--x", required=True, help="grid a:b:step or single value"))),
        "tfunc": ("table of the constraint T-function over g", cmd_tfunc, (
            delta, eps, N, *emit,
            opt("--g", required=True, help="grid a:b:step or single value"), sign)),
        "residue": ("pole coefficients of G at x = N +/- eps", cmd_residue, (
            g, delta, eps, N, *emit, sign)),
        "spectrum": ("full classified spectrum at one coupling", cmd_spectrum, (
            g, delta, eps, *emit, opt("--x-max", float, default=6.0))),
        "sweep": ("spectral curves over a coupling grid", cmd_sweep, (
            delta, eps, *emit, opt("--g", required=True, help="grid a:b:step"),
            opt("--levels", int, default=8))),
        "oracle": ("truncated-basis eigenvalues", cmd_oracle, (
            g, delta, eps, *emit, opt("--M", int, default=80),
            opt("--count", int, default=8))),
        "verify": ("run the exact-identity suites", cmd_verify, (
            opt("suite", choices=("all", "divisibility", "laguerre", "generating",
                                  "ode", "tidentity", "gsymmetry", "rootcounts")),
            opt("--max-N", nonneg_int, default=10),
            opt("--max-ell", nonneg_int, default=4), out)),
    }


def _parse_strict(argv: list[str]):
    """The namespace argparse would return for `argv`, built without it, or
    None when that is not certain. It accepts a known command followed by
    exact long flags, each at most once, as '--f v' (v not starting with '-')
    or '--f=v', plus `verify`'s positional; every required argument present,
    every `type=` call succeeding and every choice held. Everything else
    (help, abbreviations, repeats, '--', usage errors) is left to argparse."""
    table = _commands()
    if not argv or argv[0] not in table:
        return None
    _, fn, options = table[argv[0]]
    spec = dict(options)
    positionals = [flag for flag in spec if not flag.startswith("-")]
    given: dict[str, str] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            flag, eq, value = token.partition("=")
            if not eq:
                value = next(tokens, "-")       # a missing value declines too
                if value.startswith("-"):
                    return None
        elif positionals:
            flag, value = positionals.pop(0), token
        else:
            return None
        if flag not in spec or flag in given or value == "--":
            return None
        given[flag] = value
    ns = {"command": argv[0], "fn": fn}
    for flag, kw in options:
        if flag in given:
            try:
                value = kw["type"](given[flag]) if "type" in kw else given[flag]
            except Exception:   # argparse makes the call again, then reports or raises
                return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        elif kw.get("required") or not flag.startswith("-"):
            return None
        else:
            value = kw.get("default")
        ns[flag.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**ns)


def build_parser():
    """The full argparse parser, built from the command table. `main` uses it
    only for the command lines `_parse_strict` declines: help, usage errors,
    abbreviated or repeated flags."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="aqrm",
        description="Spectral toolkit for the asymmetric quantum Rabi model.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, fn, options) in _commands().items():
        p = sub.add_parser(name, help=text)
        for flag, kw in options:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return ap


def main(argv: list[str] | None = None) -> int:
    # argparse reads a negative 'p/q' such as '-1/2', or a grid such as
    # '-1:4:0.002', as an option, so each --eps and --x value is attached to
    # its flag: '--eps -1/2' means '--eps=-1/2'. A '--' stays a token of its
    # own, and an option '--f=--' (before any bare '--') is split into '--f',
    # '--', which argparse would read as f = [], so the command's parser
    # finds the value missing
    attached: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        flag, _, value = arg.partition("=")
        if attached and attached[-1] in ("--eps", "--x") and arg != "--":
            attached[-1] += f"={arg}"
        elif flag.startswith("--") and len(flag) > 2 and value == "--" and "--" not in attached:
            attached += [flag, value]
        else:
            attached.append(arg)
    args = _parse_strict(attached)
    if args is None:
        try:
            args = build_parser().parse_args(attached)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    if getattr(args, "sign", "plus") == "minus":
        args.eps = -args.eps        # N - eps is N + eps' at eps' = -eps (G is even in eps)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Process entry point (`aqrm` and `python -m aqrm.cli`): `main` on the
    command line, then stdout and stderr flushed and the process ended with
    `main`'s status by `os._exit`, which skips interpreter teardown (module
    and heap clean-up the output no longer needs). Where a flush fails (a
    closed stdout), the status is returned instead, so the interpreter's own
    exit reports the failure. `main` itself changes no process-wide state:
    the tests call it in process."""
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return status
    os._exit(status)


if __name__ == "__main__":
    raise SystemExit(run())
