"""Command-line surface: argument handling, output schemas, determinism,
exit-code contract."""

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqrm.cli import _commands, _parse_strict, build_parser, main, parse_eps, parse_range


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which RFC 8259 does not allow."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestParsing:
    def test_eps_exact_fraction(self):
        from fractions import Fraction
        assert parse_eps("1/2") == Fraction(1, 2)
        assert parse_eps("-3/10") == Fraction(-3, 10)
        assert parse_eps("0.3") == Fraction(3, 10)
        assert parse_eps("nan") != parse_eps("nan")  # float fallback

    @pytest.mark.parametrize("cmd", ("poly --N 2", "count-roots --N 2 --y 1",
                                     "spectrum --g 0.5 --delta 1 --x-max 2"))
    def test_negative_fraction_bias_with_a_space(self, capsys, cmd):
        # argparse would read '-1/2' as an option; both spellings parse alike
        code, out, _ = run(capsys, *cmd.split(), "--eps", "-1/2")
        assert code == 0 and out
        assert run(capsys, *cmd.split(), "--eps=-1/2") == (0, out, "")

    def test_range(self):
        assert parse_range("0:1:0.25") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert parse_range("1.5") == [1.5]
        assert parse_range("1e15:1e15:1") == [1e15]     # a step of 8 ulp
        for text in ("1:0:0.1", "0:nan:0.1", "0:inf:0.5", "0:1:nan"):
            with pytest.raises(ValueError):
                parse_range(text)

    @pytest.mark.parametrize("text", ("1e16:1e16:1", "1e17:1e17:1", "1e300:1e300:1",
                                      "-1e300:-1e300:1"))
    def test_step_below_the_float_spacing_is_refused(self, capsys, text):
        # a + k step would stall on one float: 2 or 9 copies of one point, or
        # (at 1e300) a loop that never passes b + step / 2
        with pytest.raises(ValueError, match="below the float spacing"):
            parse_range(text)
        code, out, err = run(capsys, "gfunc", "--g", "0.5", "--delta", "1", "--eps", "0.3",
                             f"--x={text}")
        assert (code, out) == (2, "") and "below the float spacing" in err

    def test_grid_past_the_step_cap_is_refused_before_it_is_built(self, capsys):
        # checked first on a grid one step past the cap, which costs 32 MB if
        # built, so that a parse_range that builds first stops here and not
        # on the 10^9 points (about 32 GB) of the command line below
        import tracemalloc
        with pytest.raises(ValueError, match="more than 1000000 steps"):
            parse_range("0:1000001:1")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "gfunc", "--g", "0.5", "--delta", "1",
                                 "--eps", "0.3", "--x", "0:1e9:1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", "error: grid spans more than 1000000 steps\n")
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("x", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("cmd", ("gfunc --g 1 --delta 1 --eps 0.3 --x=",
                                     "sweep --delta 1 --eps 1/2 --g=",
                                     "tfunc --N 1 --eps 1/2 --delta 1 --g="))
    def test_bare_grid_value_must_be_finite(self, capsys, cmd, x):
        # a domain error, not "G-function series not converged at x=nan",
        # "sweep grid needs at least one positive coupling" or "g, delta and
        # eps must be finite"
        with pytest.raises(ValueError, match="must be finite"):
            parse_range(x)
        argv = (cmd + x).split()
        assert run(capsys, *argv) == (2, "", "error: range ends and step must be finite\n")

    @pytest.mark.parametrize("argv,prog,flag", (
        ("sweep --delta 1 --eps -- --g 0.5", "aqrm sweep", "--eps"),
        ("gfunc --g 0.5 --delta 1 --eps 0.3 --x --", "aqrm gfunc", "--x"),
        ("oracle --g 1 --delta=-- --eps 0.2", "aqrm oracle", "--delta"),
        ("count-roots --N 3 --eps 0 --y=--", "aqrm count-roots", "--y"),
        ("oracle --g 1 --delta 1 --eps 0.2 --out=--", "aqrm oracle", "--out"),
    ))
    def test_dash_dash_is_no_value(self, capsys, argv, prog, flag):
        # '--' is never attached to --eps or --x, and an explicit '--f=--',
        # which argparse reads as f = [], is split into '--f --': the
        # command's own parser finds the value missing, alike in both spellings
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err.endswith(f"\n{prog}: error: argument {flag}: expected one argument\n")
        spelled = argv.replace(f"{flag}=--", f"{flag} --").split()
        assert run(capsys, *spelled) == (code, out, err)


def argparse_namespace(argv):
    """`vars` of argparse's namespace for argv, or None where argparse exits
    (help, usage errors)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


def reprs(namespace: dict) -> dict:
    return {k: repr(v) for k, v in namespace.items()}     # NaN equals itself


# values that pass and fail each `type=` and `choices` check of the table
VALUES = ("0", "3", "-2", "2.5", "1/2", "-1/2", "1/0", "0:1:0.5", "nan", "inf",
          "1e400", " 4", "x", "", "-", "--", "all", "plus", "json", "q")
NOISE = ("-h", "--help", "--", "stray", "--bogus", "-1", "all", "--out")


def _valid(kw: dict, value: str) -> bool:
    try:
        value = kw.get("type", str)(value)
    except Exception:
        return False
    return value in kw.get("choices", (value,))


@st.composite
def command_lines(draw):
    """A command line drawn from the command table: each option present or
    not (a required one mostly present), in any order, spelled '--f v' or
    '--f=v', with valid and invalid values; then maybe an abbreviated or
    repeated flag, help, a stray token, or an unknown command."""
    table = _commands()
    command = draw(st.sampled_from([*table, "bogus", "-h"]))
    options = table[command][2] if command in table else ()
    parts = []
    for flag, kw in options:
        if not draw(st.integers(0, 9) if kw.get("required") or not flag.startswith("-")
                    else st.integers(0, 1)):
            continue
        values = [*kw.get("choices", ()), *VALUES]
        valid = [v for v in values if _valid(kw, v)]
        value = draw(st.sampled_from(valid if valid and draw(st.integers(0, 4)) else values))
        if not flag.startswith("-"):
            parts.append([value])
        elif draw(st.booleans()):
            parts.append([f"{flag}={value}"])
        else:
            parts.append([flag, value])
    parts = draw(st.permutations(parts))
    argv = [command] + [token for part in parts for token in part]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        flags = [flag for flag, _ in options if flag.startswith("--")] or ["--g"]
        flag = draw(st.sampled_from(flags))
        extra = draw(st.sampled_from([[flag[:-1], "1"], [flag, "1"], [f"{flag}=2"],
                                      [draw(st.sampled_from(NOISE))]]))
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = extra
    return argv


class TestStrictParser:
    @given(command_lines())
    @settings(max_examples=400, deadline=None)
    def test_declines_or_matches_argparse(self, argv):
        strict = _parse_strict(argv)
        if strict is not None:
            assert reprs(vars(strict)) == reprs(argparse_namespace(argv) or {})

    @pytest.mark.parametrize("argv", (
        "count-roots --N 3 --eps 0 --y 1 --del 1",      # abbreviation (an error here)
        "oracle --g 1 --del 1 --eps 0.2",               # abbreviation
        "oracle --g 1 --delta 1 --delta 2 --eps 0.2",   # repeat: argparse keeps the last
        "oracle --g 1 --delta 1 --eps 0.2 --",
        "oracle --g 1 --delta 1 --eps=--",
        "divide --N 2 --out=--",                        # argparse drops it: out == []
        "oracle --g 1 --delta 1 --eps",
        "oracle --g -1 --delta 1 --eps 0.2",            # argparse reads '-1' as a value
        "verify all all", "verify --max-N 2", "verify", "bogus --g 1", "-h", "poly -h",
        "poly --N notanint --eps 0", "count-roots --N 3", "poly --N -1 --eps 0",
        "spectrum --g 1 --delta 1 --eps 0 --format xml",
    ))
    def test_declines_what_argparse_must_read(self, argv):
        assert _parse_strict(argv.split()) is None

    def test_well_formed_lines_are_read(self):
        argv = "verify --max-N 3 rootcounts --max-ell=1 --out="
        strict = vars(_parse_strict(argv.split()))
        assert strict == argparse_namespace(argv.split())
        assert (strict["suite"], strict["max_N"], strict["out"]) == ("rootcounts", 3, "")

    def test_table_is_read_when_called(self, monkeypatch):
        # a caller that rebinds a `type=` function (as a tracer does) is seen
        import aqrm.cli
        monkeypatch.setattr(aqrm.cli, "parse_eps", lambda text: ("traced", text))
        assert _parse_strict("poly --N 1 --eps 1/3".split()).eps == ("traced", "1/3")


class TestSubcommands:
    def test_poly_string(self, capsys):
        code, out, _ = run(capsys, "poly", "--N", "6", "--eps", "0", "--k", "2")
        assert code == 0
        assert out.strip() == "2*x^2 + 3*x*y + y^2 - 16*x - 5*y + 4"

    def test_poly_json(self, capsys):
        code, out, _ = run(capsys, "poly", "--N", "1", "--eps", "1/2",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["terms"] == [[0, 0, "-2/1"], [0, 1, "1/1"], [1, 0, "1/1"]]

    def test_poly_other_families(self, capsys):
        from aqrm.poly import a_poly, q_poly
        base = ("poly", "--N", "3", "--eps", "1/2")
        assert run(capsys, *base, "--ell", "2", "--family", "quotient") == (
            0, f"{a_poly(3, 2)}\n", "")
        assert run(capsys, *base, "--k", "2", "--family", "q") == (
            0, f"{q_poly(3, Fraction(1, 2), 2)}\n", "")

    @pytest.mark.parametrize("cmd", (
        "gfunc --g 0.5809 --delta 0.5 --eps 0.3 --x=-1:1:0.25",
        "tfunc --N 1 --eps 1/2 --delta 1 --g 0.1:2:0.1",
        "spectrum --g 0.5 --delta 1 --eps 1/2 --x-max 5",
        "sweep --delta 1 --eps 0.3 --g 0:0.5:0.1 --levels 8",
        "oracle --g 1 --delta 1 --eps 0.2 --M 80 --count 8",
    ))
    def test_json_rows_are_the_csv_rows(self, capsys, cmd):
        code, text, _ = run(capsys, *cmd.split())
        json_code, json_text, _ = run(capsys, *cmd.split(), "--format", "json")
        header, *lines = text.splitlines()
        fields = header.split(",")
        rows = strict_json(json_text)
        assert code == json_code == 0 and len(rows) == len(lines) > 0

        def cell(v):
            return "" if v is None else format(v, ".17g") if isinstance(v, float) else str(v)

        for row, line in zip(rows, lines):
            assert sorted(row) == sorted(fields)
            assert ",".join(cell(row[k]) for k in fields) == line

    def test_json_writes_a_pole_as_null(self, capsys):
        # CSV keeps its 'nan'; JSON has no NaN
        argv = ("gfunc", "--g", "0.5", "--delta", "1", "--eps", "0.3", "--x", "1.3")
        _, text, _ = run(capsys, *argv)
        code, json_text, _ = run(capsys, *argv, "--format", "json")
        x, gval, calg = text.splitlines()[1].split(",")
        assert code == 0 and gval == "nan"
        assert strict_json(json_text) == [{"x": float(x), "G": None, "calG": float(calg)}]

    def test_divide(self, capsys):
        code, out, _ = run(capsys, "divide", "--N", "2", "--ell", "1")
        assert code == 0
        assert "exact=True" in out

    def test_count_roots(self, capsys):
        code, out, _ = run(capsys, "count-roots", "--N", "6", "--eps", "2/5",
                           "--y", "209/10")
        assert code == 0 and out.strip() == "2"

    def test_count_roots_at_scale(self, capsys):
        # c_40 = 40 * 41 at eps = 1/2, so y = c_40 + 1/3 leaves N - 40 roots
        code, out, _ = run(capsys, "count-roots", "--N", "120", "--eps", "1/2",
                           "--y", str(40 * 41 + Fraction(1, 3)))
        assert code == 0 and out == "80\n"

    def test_gfunc_removable_point(self, capsys):
        code, out, _ = run(capsys, "gfunc", "--g", "0.58094750193111251",
                           "--delta", "0.5", "--eps", "0.3",
                           "--x", "1.2:1.4:0.05")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,G,calG"
        row_13 = [l for l in lines if l.startswith("1.3")][0]
        _, gval, calg = row_13.split(",")
        assert gval == "nan"                  # raw series has a pole marker
        assert abs(float(calg)) < 1e30        # regularized value is finite

    def test_gfunc_negative_range_readme_form(self, capsys):
        # the README form: a range that starts with '-', attached with '='
        code, out, _ = run(capsys, "gfunc", "--g", "0.5809", "--delta", "0.5",
                           "--eps", "0.3", "--x=-1:-0.9:0.05")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,G,calG" and len(lines) == 4

    def test_tfunc_table(self, capsys):
        code, out, _ = run(capsys, "tfunc", "--N", "1", "--eps", "1/2",
                           "--delta", "1", "--g", "1.3:1.5:0.1")
        assert code == 0
        assert out.startswith("g,T\n")
        assert len(out.strip().split("\n")) == 4

    def test_spectrum_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--g", "0.5", "--delta", "1",
                           "--eps", "1/2", "--x-max", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "g,index,lambda,x,kind,multiplicity,level_N,branch"
        assert any(",juddian,2,1,plus_eps" in l for l in lines)

    def test_oracle_csv(self, capsys):
        code, out, _ = run(capsys, "oracle", "--g", "1", "--delta", "1",
                           "--eps", "0.2", "--M", "30", "--count", "4")
        assert code == 0
        assert all(",oracle," in l for l in out.strip().split("\n")[1:])

    def test_sweep_runs(self, capsys):
        code, out, _ = run(capsys, "sweep", "--delta", "1", "--eps", "0.2",
                           "--g", "0.4:0.6:0.1", "--levels", "3")
        assert code == 0
        assert len(out.strip().split("\n")) == 10  # header + 3 levels x 3 g

    def test_byte_identical_reruns(self, capsys):
        args = ("spectrum", "--g", "0.9", "--delta", "1", "--eps", "0.45",
                "--x-max", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_residue_double_pole_fields(self, capsys):
        code, out, _ = run(capsys, "residue", "--N", "1", "--eps", "1/2",
                           "--g", "0.9", "--delta", "1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == 2
        assert obj["A"] == pytest.approx(obj["A_numeric"], rel=1e-5)
        assert obj["B"] == pytest.approx(obj["B_numeric"], rel=1e-5)

    @pytest.mark.parametrize("argv,mirror", (
        ("--N 1 --eps -1/2 --sign minus", "--N 1 --eps 1/2"),
        ("--N 0 --eps -1/2", "--N 0 --eps 1/2 --sign minus"),
        ("--N 2 --eps -3/2 --sign minus", "--N 2 --eps 3/2"),
        ("--N 1 --eps 0 --sign minus", "--N 1 --eps 0"),
    ))
    def test_residue_at_a_negative_half_integer_bias(self, capsys, argv, mirror):
        # G(x; eps) = G(x; -eps): each pole of the negative bias is a pole of
        # the positive one with the other sign, printed alike; at eps = 0
        # both signs name the double pole x = N
        tail = ("--g", "0.9", "--delta", "1")
        code, out, err = run(capsys, "residue", *argv.split(), *tail)
        assert (code, err) == (0, "")
        assert run(capsys, "residue", *mirror.split(), *tail) == (0, out, "")

    def test_double_pole_at_a_negative_bias_matches_its_own_series(self, capsys):
        from aqrm.series import ModelParams, residue_numeric
        code, out, _ = run(capsys, "residue", "--N", "1", "--eps", "-1/2", "--sign", "minus",
                           "--g", "0.9", "--delta", "1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert (obj["order"], obj["x0"]) == (2, 1.5)
        A, B = residue_numeric(1.5, ModelParams(0.9, 1, -0.5), order=2)
        assert obj["A"] == pytest.approx(A, rel=1e-9)
        assert obj["B"] == pytest.approx(B, rel=1e-9)

    def test_residue_simple_fields(self, capsys):
        code, out, _ = run(capsys, "residue", "--N", "2", "--eps", "0.2",
                           "--g", "0.7", "--delta", "1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == 1
        assert obj["residue"] == pytest.approx(obj["residue_numeric"], rel=1e-5)


class TestVerifyAndExitCodes:
    def test_verify_all_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-N", "6", "--max-ell", "3")
        assert code == 0
        assert "FAIL" not in out
        for name in ("divisibility", "laguerre", "generating", "ode",
                     "tidentity", "gsymmetry", "rootcounts"):
            assert name in out

    def test_root_counts_build_no_sturm_chain(self, capsys, monkeypatch):
        import aqrm.spectrum as spectrum_mod
        calls = []
        real = spectrum_mod.count_real_roots

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(spectrum_mod, "count_real_roots", counted)
        code, out, _ = run(capsys, "verify", "rootcounts")
        assert code == 0 and out == "rootcounts     PASS  N<=8\n"
        assert calls == []

    def test_root_counts_check_the_fraction_grid(self, capsys, monkeypatch):
        # the integer points u/(3q) are the rational grid the suite has always
        # checked: for each (N, eps), lo, lo + (hi - lo)/3 and lo + 2(hi - lo)/3
        # with lo, hi = c_k, c_{k+1}, expecting N - k roots, then the top c_N,
        # expecting none; recorded through the one count
        import aqrm.spectrum as spectrum_mod
        from aqrm.poly import c_weight

        built, seen = [], []
        real_rows, real_count = spectrum_mod._det_rows, spectrum_mod._sign_changes

        def rows(N, eps):
            out = real_rows(N, eps)
            built.append((out, (N, eps)))
            return out

        def count(rows, u, v):
            n = real_count(rows, u, v)
            N, eps = next(key for r, key in built if r is rows)
            seen.append((N, eps, Fraction(u, v), n))
            return n

        monkeypatch.setattr(spectrum_mod, "_det_rows", rows)
        monkeypatch.setattr(spectrum_mod, "_sign_changes", count)
        code, out, _ = run(capsys, "verify", "rootcounts")
        assert code == 0 and out == "rootcounts     PASS  N<=8\n"
        expected = []
        for N in range(1, 9):
            for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                for k in range(N):
                    lo, hi = c_weight(k, eps), c_weight(k + 1, eps)
                    expected += [(N, eps, y, N - k) for y in
                                 (lo, lo + (hi - lo) / 3, lo + Fraction(2, 3) * (hi - lo))]
                expected.append((N, eps, c_weight(N, eps), 0))
        assert len(expected) == 464
        assert seen == expected

    def test_verify_failure_exit_one(self, capsys, monkeypatch):
        import aqrm.cli as cli_mod
        monkeypatch.setattr(cli_mod, "_verify_g_symmetry",
                            lambda: (False, "forced failure"))
        code, out, _ = run(capsys, "verify", "gsymmetry")
        assert code == 1
        assert "FAIL" in out

    def test_divisibility_failure_exit_one(self, capsys, monkeypatch):
        import aqrm.poly as poly_mod

        def broken(N, ell):
            raise poly_mod.DivisibilityError(f"forced failure N={N} ell={ell}")

        monkeypatch.setattr(poly_mod, "verify_divisibility", broken)
        code, out, _ = run(capsys, "verify", "divisibility", "--max-N", "2",
                           "--max-ell", "1")
        assert code == 1
        assert "FAIL" in out and "N=0 ell=0" in out

    def test_divide_failure_exit_one(self, capsys, monkeypatch):
        import aqrm.poly as poly_mod

        def broken(N, ell):
            raise poly_mod.DivisibilityError(f"forced failure N={N} ell={ell}")

        monkeypatch.setattr(poly_mod, "verify_divisibility", broken)
        code, out, err = run(capsys, "divide", "--N", "2", "--ell", "1",
                             "--format", "json")
        assert code == 1
        obj = json.loads(out)
        assert obj["exact"] is False and obj["quotient"] is None
        assert "forced failure" in err

    def test_usage_error_exit_two(self, capsys):
        assert run(capsys, "poly", "--N", "notanint", "--eps", "0")[0] == 2
        assert run(capsys, "count-roots", "--N", "3")[0] == 2

    def test_domain_error_exit_two(self, capsys):
        code, _, err = run(capsys, "spectrum", "--g", "-1", "--delta", "1",
                           "--eps", "0", "--x-max", "2")
        assert code == 2
        assert "error" in err

    def test_write_to_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run(capsys, "oracle", "--g", "1", "--delta", "1",
                           "--eps", "0", "--M", "20", "--count", "2",
                           "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("g,index,lambda")

    def test_unwritable_out_exit_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "count-roots", "--N", "3", "--eps", "0",
                             "--y", "1", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err
        assert not path.parent.exists()


def test_json_is_imported_only_where_json_is_written():
    # site is skipped (-S) so that no .pth file imports json on its own
    import aqrm
    src = str(Path(aqrm.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import aqrm.cli; print('json' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "False\n"


class TestInputRange:
    SPEC = ("spectrum", "--g", "0.5", "--delta", "1", "--eps", "0.3", "--x-max", "3")
    SWEEP = ("sweep", "--delta", "1", "--eps", "0.3", "--g", "0.5")
    ORACLE = ("oracle", "--g", "1", "--delta", "1", "--eps", "0.2", "--M", "20")

    @pytest.mark.parametrize("argv", (
        SPEC + ("--tol", "0"),           # removed flags: argparse rejects them
        SPEC + ("--tol", "-1e-10"),
        SPEC + ("--scan-step", "-1"),
        SPEC + ("--scan-step", "0"),
        SPEC + ("--x-max", "inf"),
        SPEC + ("--x-max", "nan"),
        SWEEP + ("--tol", "0"),          # removed flag, as in spectrum
        SWEEP + ("--tol", "inf"),
        SWEEP + ("--levels", "-3"),
        ORACLE + ("--count", "-2"),
        ORACLE[:-1] + ("7",),
        ("oracle", "--g", "0.5", "--delta", "1", "--eps", "nan"),
        ("oracle", "--g", "0.5", "--eps", "0.3", "--delta", "inf"),
        SPEC[:1] + SPEC[3:] + ("--g", "inf"),
        ("spectrum", "--g", "1", "--delta", "1", "--eps", "1/0"),   # Fraction('1/0') raises
        ("sweep", "--delta", "1", "--g", "0.5", "--eps", "1/0"),
        ("poly", "--N", "1", "--eps", "1/0"),
        SWEEP[:-2] + ("--g", "0:nan:0.1"),     # non-finite grids never end
        ("gfunc", "--g", "0.5", "--delta", "1", "--eps", "0.3", "--x", "0:inf:0.5"),
        ("tfunc", "--N", "1", "--delta", "1", "--eps", "0.3", "--g", "0:1:nan"),
    ), ids=lambda argv: " ".join((argv[0],) + argv[-2:]))
    def test_out_of_range_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error" in err


    @pytest.mark.parametrize("argv", (
        "tfunc --N -1 --delta 1 --eps 0.3 --g 0.5",
        "residue --N -1 --g 0.5 --delta 1 --eps 0.3",
        "divide --N -1",
        "divide --N 2 --ell -1",
        "poly --N 3 --k -1 --eps 0",
        "count-roots --N -2 --eps 0 --y 1",
        "verify divisibility --max-N -1 --max-ell 2",
        "verify divisibility --max-N 2 --max-ell -1",
    ))
    def test_negative_level_number_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert "is negative" in err

    @pytest.mark.parametrize("argv,message", (
        ("gfunc --g 0.5 --delta 1 --eps 0.3 --x 1:2", "range must be a:b:step"),
        ("residue --N 1 --eps -1/2 --g 0.9 --delta 1",    # read as --eps 1/2 --sign minus
         "x = 0.5 is in the double-pole regime"),
        ("sweep --delta 1 --eps 0.3 --g=-1:0:0.5",
         "sweep grid needs at least one positive coupling"),
        ("tfunc --N 600 --eps 1/2 --delta 1 --g 0.5:0.6:0.05",   # printed T = 0
         "T-function products underflow at N=600, g=0.5"),
        ("tfunc --N 1 --eps 1/2 --delta 1 --g 14",   # printed T = nan
         "T-function overflows at N=1, g=14.0"),
        ("gfunc --g 0.5 --delta 1 --eps 0.3 --x=-110:-100:1",   # printed calG = 0
         "G-function products underflow at x=-110.0"),
        ("residue --N 60 --eps 1/2 --g 0.5 --delta 1",   # printed A = B = 0
         "1/(N!(N+1)!) factors underflow at N=60"),
        ("residue --N 98 --eps 0.3 --g 0.5 --delta 1",   # N!(N+1)! is past the floats
         "1/(N!(N+1)!) factors underflow at N=98"),
    ))
    def test_refusal_message(self, capsys, argv, message):
        assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", ("verify all --max-N 41",
                                      "verify divisibility --max-ell 11",
                                      "verify laguerre --max-N 41 --max-ell 11"))
    def test_verify_above_its_bound_exit_two(self, capsys, monkeypatch, argv):
        # refused before any suite runs
        import aqrm.cli as cli_mod

        def no_suite(*args):
            raise AssertionError("a suite ran")

        for name in ("_verify_divisibility", "_verify_laguerre", "_verify_generating",
                     "_verify_ode", "_verify_t_identity", "_verify_g_symmetry",
                     "_verify_root_counts"):
            monkeypatch.setattr(cli_mod, name, no_suite)
        assert run(capsys, *argv.split()) == (
            2, "", "error: verify takes --max-N up to 40 and --max-ell up to 10\n")

    def test_verify_at_its_bound_runs(self, capsys):
        # the suites that do not grow with the bounds, at the bounds themselves
        code, out, _ = run(capsys, "verify", "laguerre", "--max-N", "40", "--max-ell", "10")
        assert (code, out) == (0, "laguerre       PASS  k<=8\n")
        code, out, _ = run(capsys, "verify", "rootcounts", "--max-N", "40", "--max-ell", "10")
        assert (code, out) == (0, "rootcounts     PASS  N<=8\n")

    def test_truncation_above_the_cap_exit_two(self, capsys, monkeypatch):
        # refused before any rung is built: a ladder for M = 10^9 would need
        # about 10^9 tuples, so building one fails this test instead
        from aqrm import oracle

        def no_ladder(params, M):
            raise AssertionError(f"ladder built for M={M}")

        monkeypatch.setattr(oracle, "_ladder", no_ladder)
        code, out, err = run(capsys, "oracle", "--g", "1", "--delta", "1", "--eps", "0.2",
                             "--M", "1000000000", "--count", "1")
        assert code == 2 and out == ""
        assert err == f"error: M must be at least 8 and at most {oracle.M_MAX}\n"

    def test_overflowing_series_exit_two(self, capsys):
        # at g = 19 the terms b_n = K_n g^n overflow before the series
        # converges, and at g = 13.5 the sums converge but a product of two
        # overflows: each is refused instead of printed as calG = nan
        code, out, err = run(capsys, "gfunc", "--g", "19", "--delta", "1",
                             "--eps", "0.3", "--x", "7:8:0.5")
        assert code == 2 and out == ""
        assert err == "error: G-function series not converged at x=7.0\n"
        code, out, err = run(capsys, *"gfunc --g 13.5 --delta 1 --eps 0.3 --x 2.37".split())
        assert code == 2 and out == ""
        assert err == "error: G-function products overflow at x=2.37\n"

    def test_incomplete_spectrum_exit_two(self, capsys):
        # two levels 5e-11 apart: the level count cannot separate them
        code, out, err = run(capsys, "spectrum", "--g", "3.5", "--delta", "1",
                             "--eps", "0", "--x-max", "14")
        assert code == 2 and out == ""
        assert err.startswith("error: 2 levels within")

    @pytest.mark.parametrize("argv", (
        "spectrum --g 0.50000001 --delta 1 --eps 1/2 --x-max 3",   # Juddian g = 1/2
        "spectrum --g 0.7185851 --delta 1 --eps 0.3 --x-max 4",    # T-zero g = 0.71858511...
    ))
    def test_near_exceptional_coupling_exit_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and err == ""
        assert out.startswith("g,index,lambda") and len(out.strip().split("\n")) > 5

    @pytest.mark.parametrize("argv", (
        "spectrum --g 0.5 --delta 1 --eps 0.50000001 --x-max 3",
        "sweep --delta 1 --eps 0.50000001 --g 0.1:1.5:0.1 --levels 6",
    ))
    def test_bias_just_off_a_half_integer(self, capsys, argv):
        # poles N + eps and N + 1 - eps 2e-8 apart, with levels between them
        from aqrm import oracle
        from aqrm.series import ModelParams
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and err == ""
        levels = {}
        for row in out.strip().split("\n")[1:]:
            g, _, lam, _, _, mult = row.split(",")[:6]
            levels.setdefault(float(g), []).extend([float(lam)] * int(mult))
        for g, lams in levels.items():
            ev, _ = oracle.certified_eigenvalues(ModelParams(g, 1.0, 0.50000001),
                                                 len(lams) + 1)
            assert lams == pytest.approx(ev[:-1], abs=1e-7)
            if argv.startswith("spectrum"):
                assert ev[-1] > 3.0 - g ** 2 - 1e-7     # every level below x-max
            else:
                assert len(lams) == 6


class TestOracleConvergence:
    def test_unconverged_truncation_warns(self, capsys):
        # the ground state lies near -g^2 = -1e6; at M = 80 the lowest level
        # is far above it, and no rung up to M_MAX can certify the count there
        from aqrm import oracle
        code, out, err = run(capsys, "oracle", "--g", "1000", "--delta", "1",
                             "--eps", "0.2", "--M", "80", "--count", "1")
        assert code == 0
        assert out.startswith("g,index,lambda") and len(out.strip().split("\n")) == 2
        assert err.startswith("warning: truncation M=80 not converged")
        assert "1 eigenvalues below" in err
        assert err.endswith(f"at M=80, level count not certified by M={oracle.M_MAX}\n")

    @pytest.mark.parametrize("argv,warns", (
        ("oracle --g 5 --delta 1 --eps 0.2 --M 80 --count 20", False),
        ("oracle --g 1 --delta 1 --eps 0.2 --M 8 --count 1", False),
        ("oracle --g 1 --delta 1 --eps 0.2 --M 80 --count 8", False),     # README
        ("oracle --g 1000 --delta 1 --eps 0.2 --M 80 --count 1", True),
    ))
    def test_warns_only_where_the_count_is_not_certified(self, capsys, argv, warns):
        # the truncated count just above the top printed level against N(sigma)
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and out.startswith("g,index,lambda")
        assert err.startswith("warning: truncation M=") if warns else err == ""

    def test_converged_truncation_is_silent(self, capsys):
        code, out, err = run(capsys, *"oracle --g 1 --delta 1 --eps 0.2 --M 80 --count 8".split())
        assert code == 0 and len(out.strip().split("\n")) == 9
        assert err == ""


class TestStrongCoupling:
    """At g >= 9 every truncation up to M = 60 counts no level in the window,
    so a count that only compares two truncations agrees on an empty spectrum.
    The certified count finds the levels, or refuses at its rung cap."""

    def test_spectrum_at_g_9(self, capsys):
        from aqrm import oracle
        from aqrm.series import ModelParams
        code, out, err = run(capsys, *"spectrum --g 9 --delta 1 --eps 0.3 --x-max 3".split())
        assert code == 0 and err == ""
        lams = [float(row.split(",")[2]) for row in out.strip().split("\n")[1:]]
        ev = oracle.lowest_eigenvalues(ModelParams(9.0, 1.0, 0.3), 300, 8)
        assert len(lams) == 7
        assert lams == pytest.approx(ev[:7], abs=1e-7)
        assert ev[7] > 3.0 - 81.0                   # every level below x-max

    def test_sweep_at_g_9(self, capsys):
        from aqrm import oracle
        from aqrm.series import ModelParams
        code, out, err = run(capsys, *"sweep --delta 1 --eps 0.3 --g 9:9.2:0.1 --levels 6".split())
        assert code == 0 and err == ""
        rows = [row.split(",") for row in out.strip().split("\n")[1:]]
        assert len(rows) == 18
        for i in range(0, 18, 6):
            g = float(rows[i][0])
            ev = oracle.lowest_eigenvalues(ModelParams(g, 1.0, 0.3), 300, 6)
            assert [float(r[2]) for r in rows[i:i + 6]] == pytest.approx(ev, abs=1e-7)

    def test_uncertified_count_exit_two(self, capsys, monkeypatch):
        # the ground state at g = 1000 lies near -1e6: no rung up to M_MAX
        # can certify the count, and it refuses before it builds a ladder
        from aqrm import oracle
        built = []
        ladder = oracle._ladder

        def recorded(params, M):
            built.append(M)
            return ladder(params, M)

        monkeypatch.setattr(oracle, "_ladder", recorded)
        code, out, err = run(capsys, *"spectrum --g 1000 --delta 1 --eps 0.3 --x-max 3".split())
        assert code == 2 and out == ""
        assert err == f"error: level count not certified by M={oracle.M_MAX}\n"
        assert built == []

    def test_uncertified_sweep_exit_two(self, capsys, monkeypatch):
        # the sweep probes the top of its window first, so it refuses there
        # as the spectrum does, before any ladder is built
        from aqrm import oracle
        built = []
        ladder = oracle._ladder

        def recorded(params, M):
            built.append(M)
            return ladder(params, M)

        monkeypatch.setattr(oracle, "_ladder", recorded)
        code, out, err = run(capsys, *"sweep --delta 1 --eps 0.3 --g 1000 --levels 8".split())
        assert code == 2 and out == ""
        assert err == f"error: level count not certified by M={oracle.M_MAX}\n"
        assert built == []


class TestSeriesAtStrongCoupling:
    """The series carry the terms b_n = K_n g^n, not K_n and g^n apart, so G,
    calG and the pole coefficients are printed past g = 10, up to where a
    product of two branch sums overflows (g = 13 to 14; see TestInputRange).
    The literals are from a 160-digit mpmath sum of the same series."""

    # G and calG at g = 10, Delta = 1, eps = 0.3 (the float 0.3); the terms
    # peak near 1e82, and a separate factor g^n would overflow at n = 309
    STRONG_COUPLING = (
        (7.0, -3.1220342157258953440049201992868382487254208994651e+169,
         5.3225471074364061645083924168417589512695234813863e+175),
        (7.5, -1.5613332585015034467459619508497873631432400980037e+169,
         -1.0886844270962460799416016961796998785212846338908e+176),
        (8.0, -7.8095306094382078501280600004278546584298707407232e+168,
         8.5089428061800301246624689649752186791260007592167e+176),
    )

    def test_strong_coupling_against_a_50_digit_sum(self, capsys):
        code, out, err = run(capsys, *"gfunc --g 10 --delta 1 --eps 0.3 --x 7:8:0.5".split())
        assert (code, err) == (0, "")
        rows = [tuple(map(float, line.split(","))) for line in out.split()[1:]]
        assert len(rows) == len(self.STRONG_COUPLING)
        for (x, G, calG), (x_ref, G_ref, calG_ref) in zip(rows, self.STRONG_COUPLING):
            assert x == x_ref
            assert G == pytest.approx(G_ref, rel=1e-12)
            assert calG == pytest.approx(calG_ref, rel=1e-12)

    def test_strong_coupling_double_pole(self, capsys):
        # A at x0 = 3/2, g = 12, read from the 160-digit G as the mean of
        # h^2 G(x0 + h) and h^2 G(x0 - h), h = 1e-70
        code, out, err = run(capsys, *"residue --N 1 --eps 1/2 --g 12 --delta 1".split())
        assert (code, err) == (0, "")
        fields = dict(line.split("=") for line in out.split())
        A_ref = -5.3351011275785796526097488970862136840316320536648e+243
        assert float(fields["A"]) == pytest.approx(A_ref, rel=1e-12)


class TestCountLocatesLevels:
    """The level count alone locates every regular level, also where float
    calG is of no help: at g = 10 its values reach 1e175, and in the large-x
    draw its zero had drifted out of the level's count bracket."""

    @pytest.mark.parametrize("argv", (
        "spectrum --g 10 --delta 1 --eps 0.3 --x-max 3",
        "spectrum --g 0.25898567264210165 --delta 0.5958659746072057"
        " --eps -1.947248092984792 --x-max 23",
    ))
    def test_levels_match_the_certified_oracle(self, capsys, argv):
        from aqrm import oracle
        from aqrm.series import ModelParams
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and err == ""
        rows = [row.split(",") for row in out.strip().split("\n")[1:]]
        lams = [float(r[2]) for r in rows for _ in range(int(r[5]))]
        opts = dict(zip(argv.split()[1::2], argv.split()[2::2]))
        p = ModelParams(float(opts["--g"]), float(opts["--delta"]), float(opts["--eps"]))
        ev, _ = oracle.certified_eigenvalues(p, len(lams) + 1)
        assert lams and lams == pytest.approx(ev[:-1], abs=1e-9)
        assert ev[-1] > float(opts["--x-max"]) - p.g ** 2 - 1e-9     # every level

    def test_doublet_closer_than_the_floor_exit_two(self, capsys):
        # two levels 6.3e-10 apart near x = 18.4996, closer than the 1e-9
        # floor of the count split; splitting below the floor only moves the
        # refusal to another pair, 3.9e-11 apart near x = 15.4996
        code, out, err = run(capsys, *"spectrum --g 6 --delta 0.2 --eps 1.5 --x-max 40".split())
        assert code == 2 and out == ""
        assert err.startswith("error: 2 levels within")

# SHA-256 of stdout for each README command line, the sweeps both in full and
# shortened to g = 0..0.5, plus two irrational-bias spectra (one on a Juddian
# coupling), a simple-pole residue and a determinant-form member Q_k in text
# and JSON. The digests pin CPython's 17-digit float output on
# x86-64 Linux; a libm that rounds exp or sin differently in the last bit
# changes them.
GOLDEN = (
    ("poly --N 6 --eps 0 --k 2",
     "a1197efb01158a381e3f5d86b9b7bcafdd51e6f464b63dad86daaeedbe653c4c"),
    ("poly --N 6 --eps 1/3 --family q --k 4",
     "ad445ed31913b036ae67bd7d56f484608087603bc66547f643e0b603463c1d68"),
    ("poly --N 6 --eps 1/3 --family q --k 4 --format json",
     "e152bc475389d403e1fb4276db0bf7d894f2bac4321bd1b8ab95566e01a6c76c"),
    ("divide --N 5 --ell 3 --format json",
     "b79638c70de0c5dab3d9febfacd28865cc19f7c1613835959eb75a46c2a482ca"),
    ("count-roots --N 6 --eps 2/5 --y 209/10",
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("gfunc --g 0.5809 --delta 0.5 --eps 0.3 --x=-1:4:0.002",
     "b7977c9e17eee8ce1863917185aa4bc6fe879d52f3c2b0cf13ea28f37150a015"),
    ("tfunc --N 1 --eps 1/2 --delta 1 --g 0.1:2:0.01",
     "d2cf92bffc8516c1fad26886151baff5174a821d5adb81c7d4e819bf073e32fc"),
    ("residue --N 1 --eps 1/2 --g 0.9 --delta 1",
     "aa210013a2ee912d4450f09d23e80929e8b309775c193e39ac2236a792c3d4d2"),
    ("residue --N 1 --eps 0.3 --g 0.9 --delta 1",
     "fd33afab2af4dc7fa0d2a093120267ab7024e0f792e3d1342202a92a025265ed"),
    ("spectrum --g 0.5 --delta 1 --eps 1/2 --x-max 5",
     "3e08d8bc497a56388b6dcce80e2a2e12676327b8b343d6eafdaaefbd607d0250"),
    ("spectrum --g 0.5 --delta 1 --eps 0.123456789 --x-max 5",
     "783d03d140b52e573dc308fa825877cde21b5fc3f649fdf107e9e9e492da912a"),
    ("spectrum --g 0.24845199636952003 --delta 1 --eps 0.123456789 --x-max 3",
     "3c0e05d1e8043f9354ba65ca169d118d175597190e0629ea5dcf4bab30fdba3e"),
    ("sweep --delta 1 --eps 1/2 --g 0:0.5:0.1 --levels 8",
     "c8a87f0a851807e9b37988d9e8a02906154389cd1c4d9982a1027aac300f66c8"),
    ("sweep --delta 1 --eps 0.3 --g 0:0.5:0.1 --levels 8",
     "4a6f04cc7bb1660d2ce3d185d3a1a61f7f1919fc51850042fb86c181a5a3f68e"),
    ("sweep --delta 1 --eps 1/2 --g 0:2.7:0.01 --levels 8",
     "15ca2ab5f5bd8a5ad10152912a9527b65a0499c920cdcc15406e1b2f7bab1acf"),
    ("sweep --delta 1 --eps 0.3 --g 0:2.7:0.01 --levels 8",
     "4ddcb6d3de0b646af5a7c0e3843918f5054efb0cbac2e5c89223aae312d74b87"),
    ("oracle --g 1 --delta 1 --eps 0.2 --M 80 --count 8",
     "55144eed03d689943f86037a3a4a8fea2ea078a2f0f6c2fc50f8a79dd9fc7f18"),
    ("verify all --max-N 10 --max-ell 4",
     "e103e59f651a064ade795d9fd072b9818ed978c2c866f3301e1f295b9925e6b1"),
)


@pytest.mark.parametrize("cmd,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_readme_stdout_is_byte_identical(capsys, cmd, digest):
    code, out, _ = run(capsys, *cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_negative_grid_with_a_space_gives_the_golden_digest(capsys):
    # argparse would read '-1:4:0.002' as an option; both spellings parse alike
    cmd = "gfunc --g 0.5809 --delta 0.5 --eps 0.3 --x=-1:4:0.002"
    for argv in (cmd.split(), cmd.replace("--x=", "--x ").split()):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == dict(GOLDEN)[cmd]


# ---------------------------------------------------------------------------
# the process path: `python -m aqrm.cli` in a fresh interpreter, entered
# through `run`, which ends the process once `main` returns
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
PROCESS_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# stdout block-buffered even where the caller runs unbuffered, so that output
# left unflushed at exit goes missing
BUFFERED_ENV = {k: v for k, v in PROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}


def imports_of(*args):
    """Exit code and the names of the modules imported by `python -S -X
    importtime args...` with PYTHONPATH=src (-S: no site .pth file imports
    anything on its own), read from the import-time lines on stderr."""
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", *args], capture_output=True,
                          text=True, env=PROCESS_ENV, cwd=ROOT, timeout=60)
    return proc.returncode, {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


def run_process(*argv):
    """Exit code, stdout and stderr of `python -m aqrm.cli argv...` with
    PYTHONPATH=src."""
    proc = subprocess.run([sys.executable, "-m", "aqrm.cli", *argv], capture_output=True,
                          text=True, env=PROCESS_ENV, cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestProcess:
    # the two 271-point README sweeps (about 0.4 s each) are left to the
    # in-process digests
    SHORT = [(cmd, digest) for cmd, digest in GOLDEN if "0:2.7:0.01" not in cmd]

    @pytest.mark.parametrize("cmd,digest", SHORT, ids=[c for c, _ in SHORT])
    def test_golden_digest(self, cmd, digest):
        code, out, err = run_process(*cmd.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_truncation_warning_on_stderr(self, capsys):
        argv = "oracle --g 1 --delta 1 --eps 0.2 --M 20 --count 30".split()
        code, out, err = run_process(*argv)
        assert code == 0
        assert err.startswith("warning: truncation M=20 not converged")
        assert (code, out, err) == run(capsys, *argv)

    @pytest.mark.parametrize("argv,message", (
        ("poly --N notanint --eps 0", "usage: aqrm poly"),
        ("spectrum --g -1 --delta 1 --eps 0 --x-max 2", "error: "),
    ))
    def test_usage_and_domain_errors_exit_two(self, argv, message):
        code, out, err = run_process(*argv.split())
        assert code == 2 and out == ""
        assert err.startswith(message) and "Traceback" not in err

    def test_well_formed_line_imports_no_argparse(self):
        code, names = imports_of("-m", "aqrm.cli", "count-roots", "--N", "3", "--eps", "0",
                                 "--y", "1")
        assert code == 0
        assert names & {"argparse", "gettext", "locale", "json"} == set()

    @pytest.mark.parametrize("cmd", ("poly --N 3 --eps 1/2", "divide --N 3 --ell 2"))
    def test_exact_commands_load_no_other_layer(self, cmd):
        code, names = imports_of("-m", "aqrm.cli", *cmd.split())
        assert code == 0
        assert names & {"aqrm.roots", "aqrm.series", "aqrm.spectrum", "aqrm.oracle"} == set()

    def test_cli_import_loads_only_poly(self):
        code, names = imports_of("-c", "import aqrm.cli")
        assert code == 0
        package = {n for n in names if n.split(".")[0] == "aqrm"}
        assert package == {"aqrm", "aqrm.cli", "aqrm.poly"}

    # stdout is a pipe whose read end is closed before the child starts. The
    # poly line fits the stream's buffer, so only the flush at exit fails and
    # the interpreter reports it (exit 120); the gfunc table overflows the
    # buffer, so the command's own write fails (exit 2)
    @pytest.mark.parametrize("cmd,code,err", (
        ("poly --N 3 --eps 1/2", 120,
         "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n"
         "BrokenPipeError: [Errno 32] Broken pipe\n"),
        ("gfunc --g 1 --delta 1 --eps 0.3 --x 0:25:0.01", 2,
         "error: [Errno 32] Broken pipe\n"),
    ))
    def test_closed_stdout(self, cmd, code, err):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "aqrm.cli", *cmd.split()],
                                  stdout=write, stderr=subprocess.PIPE, text=True,
                                  env={**BUFFERED_ENV, "PYTHONIOENCODING": "utf-8"}, cwd=ROOT,
                                  timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (code, err)

    # SHA-256 of stdout + NUL + stderr on the argparse path, as recorded
    # before the command table existed; argparse words its help differently
    # across CPython minor versions, so the digests are those of 3.11
    FALLBACK = (
        ("-h", 0, "31166e34f91afcb66805d306ebb98057d67d8530c81a4d6973497f24e42c3121"),
        ("sweep -h", 0, "6869eeaa77ce8086701398de9b9f311a0d8e77d06b332c73b262605fc22025e5"),
        ("verify -h", 0, "f5792c37ff9b7b09da8bdadf0c9f1e3d61c9c898b27c7c6bb65cf9fa06cd29bc"),
        ("poly --N notanint --eps 0", 2,
         "1b8ff53013a2db454366bedce8352b8f0a933bd2045075389f6d9af56037ad1f"),
        ("count-roots --N 3", 2,
         "2199e331e125173b60bc34b7f8c2261f8ed1a6b7fdeb4c2664104f0dd2c64c92"),
        ("oracle --g 1 --del 1 --eps 0.2 --M 20 --count 2", 0,
         "08a431c8f5b74f2be6cb65edbedb9625f2fd6f8f629884c72890728cfa61c4b4"),
    )

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests of CPython 3.11's argparse")
    @pytest.mark.parametrize("cmd,code,digest", FALLBACK, ids=[c for c, _, _ in FALLBACK])
    def test_argparse_path_bytes(self, cmd, code, digest):
        proc = subprocess.run([sys.executable, "-m", "aqrm.cli", *cmd.split()],
                              capture_output=True, env={**PROCESS_ENV, "COLUMNS": "80"},
                              cwd=ROOT, timeout=120)
        assert proc.returncode == code
        assert hashlib.sha256(proc.stdout + b"\0" + proc.stderr).hexdigest() == digest

    def test_out_file_is_complete(self, tmp_path):
        cmd = "oracle --g 1 --delta 1 --eps 0.2 --M 80 --count 8"
        path = tmp_path / "oracle.csv"
        code, out, err = run_process(*cmd.split(), "--out", str(path))
        assert (code, out, err) == (0, "", "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == dict(GOLDEN)[cmd]


class TestFreezeScope:
    def test_main_in_process_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert run(capsys, "count-roots", "--N", "3", "--eps", "0", "--y", "1")[0] == 0
        assert gc.get_freeze_count() == before

    def test_run_ends_the_process_with_mains_status(self):
        # nothing after run() runs: it ends the process once the output is out
        code = "from aqrm.cli import run; run(); print('after run')"
        for cmd, status in (("count-roots --N 3 --eps 0 --y 1", 0),
                            ("poly --N notanint --eps 0", 2)):
            proc = subprocess.run([sys.executable, "-c", code, *cmd.split()], capture_output=True,
                                  text=True, env=BUFFERED_ENV, cwd=ROOT, timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == run_process(*cmd.split())
            assert proc.returncode == status and "after run" not in proc.stdout

    def test_script_entry_is_the_main_block_entry(self):
        # a regex, not tomllib, which Python 3.10 lacks
        script = re.search(r'^aqrm = "aqrm\.cli:(\w+)"$',
                           (ROOT / "pyproject.toml").read_text(), re.M)
        block = re.search(r'^if __name__ == "__main__":\n    raise SystemExit\((\w+)\(\)\)$',
                          (ROOT / "src" / "aqrm" / "cli.py").read_text(), re.M)
        assert script and block
        assert script[1] == block[1] == "run"
