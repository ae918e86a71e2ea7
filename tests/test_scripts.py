"""The experiment scripts import cleanly: each is loaded as a module (their
`main` only runs under `__main__`), so a package name they use that is moved
or deleted fails here. The scripts that call into the package are also run
on a small grid, so a stale call fails too."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    assert callable(load(path).main)


def test_gfunction_profiles_are_aqrm_gfunc_tables(tmp_path, monkeypatch, capsys):
    mod = load(next(p for p in SCRIPTS if p.stem == "gfunction_profiles"))
    def argv(out, step):
        return ["gfunction_profiles.py", "--out", str(out), "--x-min", "1", "--x-max", "1.5",
                "--step", step]

    monkeypatch.setattr(sys, "argv", argv(tmp_path, "0.25"))
    assert mod.main() == 0
    for name, *_ in mod.CASES:
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "x,G,calG"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "1.25", "1.5"]
    capsys.readouterr()
    # a failed run stops the script with the run's exit code
    monkeypatch.setattr(sys, "argv", argv(tmp_path / "bad", "-1"))
    assert mod.main() == 2
    assert capsys.readouterr().err == "error: need step > 0 and b >= a\n"
    assert list((tmp_path / "bad").iterdir()) == []


def test_residue_vanishing_scan_runs(monkeypatch, capsys):
    mod = load(next(p for p in SCRIPTS if p.stem == "residue_vanishing_scan"))
    monkeypatch.setattr(sys, "argv", ["residue_vanishing_scan.py", "--g-min", "0.5",
                                      "--g-max", "0.6", "--g-step", "0.1", "--delta-min", "1",
                                      "--delta-max", "1.5", "--delta-step", "0.5"])
    assert mod.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "g,delta,b_residual,T,P"
    assert len(lines) == 1 + 2 * 2
