"""Public-surface ratchet: every public module-level function or class in
src/aqrm is used by the package, the experiment scripts or the benchmark, not
only by the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aqrm"

# Paper objects kept for the reproduction although only tests call them.
# This list may only shrink.
KEPT_FOR_THE_PAPER = {
    "constraint_poly_det",     # P_N^(N,eps) as its tridiagonal determinant
    "k_sequence",              # the K_n(x) coefficients of the G-function
    "frobenius_solution",      # the Frobenius solution at an exceptional point
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
