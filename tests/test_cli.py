"""Command-line surface: argument handling, output schemas, determinism,
exit-code contract."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from aqrm.cli import main, parse_eps, parse_range


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        for text in ("1:0:0.1", "0:nan:0.1", "0:inf:0.5", "0:1:nan"):
            with pytest.raises(ValueError):
                parse_range(text)


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

    def test_divide(self, capsys):
        code, out, _ = run(capsys, "divide", "--N", "2", "--ell", "1")
        assert code == 0
        assert "exact=True" in out

    def test_count_roots(self, capsys):
        code, out, _ = run(capsys, "count-roots", "--N", "6", "--eps", "2/5",
                           "--y", "209/10")
        assert code == 0 and out.strip() == "2"

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
        SPEC + ("--tol", "0"),
        SPEC + ("--tol", "-1e-10"),
        SPEC + ("--scan-step", "-1"),    # removed flag: argparse rejects it
        SPEC + ("--scan-step", "0"),
        SPEC + ("--x-max", "inf"),
        SPEC + ("--x-max", "nan"),
        SWEEP + ("--tol", "0"),
        SWEEP + ("--tol", "inf"),      # no dyadic reporting grid
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
        # at g = 10 the term g^n overflows before the series converges: the
        # non-finite sum is refused instead of printed as calG = nan
        code, out, err = run(capsys, "gfunc", "--g", "10", "--delta", "1",
                             "--eps", "0.3", "--x", "7:8:0.5")
        assert code == 2 and out == ""
        assert err == "error: G-function series not converged at x=7.0\n"

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


class TestCountLocatesLevels:
    """The level count alone locates every regular level, also where float
    calG cannot: at g = 10 its series overflows below the first level, and in
    the large-x draw its zero had drifted out of the level's count bracket."""

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
# coupling) and a simple-pole residue. The digests pin CPython's 17-digit float output on
# x86-64 Linux; a libm that rounds exp or sin differently in the last bit
# changes them.
GOLDEN = (
    ("poly --N 6 --eps 0 --k 2",
     "a1197efb01158a381e3f5d86b9b7bcafdd51e6f464b63dad86daaeedbe653c4c"),
    ("divide --N 5 --ell 3 --format json",
     "b79638c70de0c5dab3d9febfacd28865cc19f7c1613835959eb75a46c2a482ca"),
    ("count-roots --N 6 --eps 2/5 --y 209/10",
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("gfunc --g 0.5809 --delta 0.5 --eps 0.3 --x=-1:4:0.002",
     "2328559a06e4060cff45dbd85026a859cb8743830c8c30b08bb47d5b65f61ae7"),
    ("tfunc --N 1 --eps 1/2 --delta 1 --g 0.1:2:0.01",
     "814d0a9e529d66e4dd367013b6b3d9159b55e8c1d9f9068c4f56f9f05c6e11bb"),
    ("residue --N 1 --eps 1/2 --g 0.9 --delta 1",
     "2e9fd32e3ca493d05337d5d2e2b0ffd8e1e84c790d5807f4e74a565472937fef"),
    ("residue --N 1 --eps 0.3 --g 0.9 --delta 1",
     "2716cedd84dc9669c5d51d41be3736b1ff9e62a11dbd2ab3d6752219c9c16835"),
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
     "2db7398b4a8ea98914c1bc1bfc5667e6da5076d8d6bc40e1b4faa5e1f7a4967c"),
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
# through `run`, which freezes the collector's heap once `main` returns
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
PROCESS_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


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

    def test_run_freezes_the_heap(self):
        code = ("import gc, sys; from aqrm.cli import run; "
                "sys.argv[1:] = ['count-roots', '--N', '3', '--eps', '0', '--y', '1']; "
                "before = gc.get_freeze_count(); status = run(); "
                "print(status, before, gc.get_freeze_count() > 0)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=PROCESS_ENV, check=True, timeout=60).stdout
        assert out.splitlines()[-1] == "0 0 True"

    def test_script_entry_is_the_main_block_entry(self):
        # a regex, not tomllib, which Python 3.10 lacks
        script = re.search(r'^aqrm = "aqrm\.cli:(\w+)"$',
                           (ROOT / "pyproject.toml").read_text(), re.M)
        block = re.search(r'^if __name__ == "__main__":\n    raise SystemExit\((\w+)\(\)\)$',
                          (ROOT / "src" / "aqrm" / "cli.py").read_text(), re.M)
        assert script and block
        assert script[1] == block[1] == "run"
