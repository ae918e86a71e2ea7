"""Public-surface ratchet: every public module-level function or class in
src/aqrm, and every public method or property of a public class, is used by
the package, the experiment scripts or the benchmark, not only by the tests;
and the package's classes are its exceptions and two namedtuples.

The check is a name search, so it cannot see operators: a dunder such as
__add__ runs without its name being written. Those are kept to what a line
trace of the CLI, the scripts and the benchmark shows running."""

import ast
import importlib
import re
from pathlib import Path

from aqrm.cli import _commands

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aqrm"

# Paper objects kept for the reproduction although only tests call them.
# This list may only shrink.
KEPT_FOR_THE_PAPER = {
    "constraint_poly_det",     # P_N^(N,eps) as its tridiagonal determinant
    "k_sequence",              # the terms b_n = K_n(x) g^n of a G-function branch
    "non_juddian_roots",       # T-function zeros over g (acceptance criterion 04)
}


def public_definitions(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def test_public_names_have_a_caller_outside_the_tests():
    modules = {p: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    outside = "\n".join(p.read_text() for d in ("scripts", "perfbench")
                        for p in sorted((ROOT / d).rglob("*.py")))
    unused, defined = [], set()
    for path, text in modules.items():
        lines = text.splitlines()
        for node in public_definitions(ast.parse(text)):
            defined.add(node.name)
            own = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            rest = [own, outside] + [t for p, t in modules.items() if p != path]
            if (node.name not in KEPT_FOR_THE_PAPER
                    and not any(re.search(rf"\b{node.name}\b", t) for t in rest)):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == [], "public, but only tests name it"
    assert KEPT_FOR_THE_PAPER <= defined, "a kept name is gone: shrink the list"


def public_methods(tree: ast.Module):
    for cls in public_definitions(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls, node


def test_public_methods_have_a_caller_outside_the_tests():
    # each must be named as an attribute, .name, outside its own definition
    texts = {p: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    texts.update({p: p.read_text() for d in ("scripts", "perfbench")
                  for p in sorted((ROOT / d).rglob("*.py"))})
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines()
        for cls, node in public_methods(ast.parse(texts[path])):
            start = min([d.lineno for d in node.decorator_list] + [node.lineno])
            own = "\n".join(lines[:start - 1] + lines[node.end_lineno:])
            rest = [own] + [t for p, t in texts.items() if p != path]
            if not any(re.search(rf"\.{node.name}\b", t) for t in rest):
                unused.append(f"{path.stem}.{cls.name}.{node.name}")
    assert unused == [], "public, but only tests name it"


def test_classes_are_exceptions_and_two_named_tuples():
    # results are plain data: a polynomial is its term dict, a spectrum its
    # records and rows, and the CLI writes them out. The package defines its
    # exceptions and the namedtuples ModelParams and EigenvalueRecord, and no
    # other class, at module level (a class statement or a namedtuple call)
    # or nested, so a result class with text of its own cannot come back
    classes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "aqrm" if path.stem == "__init__" else f"aqrm.{path.stem}"
        module = importlib.import_module(name)
        names = {node.name for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ClassDef)}
        names |= {k for k, v in vars(module).items()
                  if isinstance(v, type) and v.__module__ == name}
        classes.update({f"{path.stem}.{n}": getattr(module, n, None) for n in names})
    data = {n: cls for n, cls in classes.items()
            if not (isinstance(cls, type) and issubclass(cls, BaseException))}
    assert sorted(data) == ["series.ModelParams", "spectrum.EigenvalueRecord"]
    assert all(issubclass(cls, tuple) and hasattr(cls, "_fields") for cls in data.values())


def test_exact_families_do_not_import_the_root_finder():
    # poly builds the polynomials that roots reads, never the other way round
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "poly.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            if module in (".", "aqrm"):
                imported.update(f"{module.rstrip('.')}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {".roots", "aqrm.roots"} & imported


def test_branch_jets_reuse_the_scaled_series():
    # the jets are the scaled series run at a complex x: no loop of their own,
    # so a hand-differentiated copy of that series cannot come back
    tree = ast.parse((PACKAGE / "series.py").read_text())
    jets = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_branch_jets")
    loops = [type(node).__name__ for node in ast.walk(jets)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert loops == []


def test_one_adaptive_series_loop():
    # the stop rule is written once: _summed is the only function in series
    # that names _STREAK, so T's Frobenius tails cannot get a loop of their own
    tree = ast.parse((PACKAGE / "series.py").read_text())
    naming = {node.name for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and any(isinstance(n, ast.Name) and n.id == "_STREAK" for n in ast.walk(node))}
    assert naming == {"_summed"}


def test_one_exit_for_a_branch_sum():
    # _summed decides convergence: it and _scaled_sums (whose tail would start
    # past the term cap) are the only functions in series that raise
    # NonConvergent, so no caller tests a sum's convergence again
    tree = ast.parse((PACKAGE / "series.py").read_text())
    raising = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and any(isinstance(r, ast.Raise) and isinstance(r.exc, ast.Call)
                       and isinstance(r.exc.func, ast.Name)
                       and r.exc.func.id == "NonConvergent" for r in ast.walk(node))}
    assert raising == {"_summed", "_scaled_sums"}


def test_a_branch_is_named_by_its_bias():
    # the minus branch at eps is the call at the bias -eps, so no function in
    # series takes a sign, and each series term is b_n = K_n g^n, with no g^n
    # carried apart. spectrum.non_juddian_roots keeps a sign of its own,
    # mapped to the bias inside, because acceptance criterion 04a, which
    # stays as written, passes "plus"
    tree = ast.parse((PACKAGE / "series.py").read_text())
    params = {a.arg for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              for a in node.args.args + node.args.kwonlyargs}
    assert not {"sign", "gn"} & params
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "Literal" not in imported
    # at the command line too: the point N - eps is asked for as --eps -eps
    assert all(flag != "--sign" for _, _, options in _commands().values()
               for flag, _ in options)


def test_every_poly_option_changes_every_poly_run():
    # the quotient A_N^ell is divide's alone, so poly has no --ell, which
    # its constraint and q families would ignore
    options = dict(_commands()["poly"][2])
    assert list(options) == ["--eps", "--N", "--out", "--format", "--k", "--family"]
    assert options["--family"]["choices"] == ("constraint", "q")


def test_double_pole_coefficients_come_from_the_constraint_relations():
    # A from t_function and B from b_residual: no second Frobenius bracket
    # or finite-part combination beside theirs
    tree = ast.parse((PACKAGE / "series.py").read_text())
    body = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "double_pole_coefficients")
    called = {node.func.id for node in ast.walk(body)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"t_function", "b_residual"} <= called
    assert not {"_phi_tail", "_finite_parts", "a_value", "q_functions"} & called


def test_calg_seed_is_the_standard_library_gamma():
    # calG's series takes its one 1/Gamma seed from math.gamma: no gamma
    # function or coefficient table of the package's own beside it
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names += [node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        names += [target.id for node in tree.body if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)]
    assert [n for n in names if "gamma" in n.lower() or "LANCZOS" in n.upper()] == []
    tree = ast.parse((PACKAGE / "series.py").read_text())
    body = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "_scaled_sums")
    called = {(node.func.value.id, node.func.attr) for node in ast.walk(body)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)}
    assert ("math", "gamma") in called
