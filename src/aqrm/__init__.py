"""Spectral analysis of the asymmetric quantum Rabi model: exact constraint
polynomials, series-defined G- and T-functions, residue formulas at the
G-function poles, and an independent truncated-Hamiltonian oracle.

The top-level names resolve on first use (PEP 562), each importing only its
home module, so importing the package loads none of its modules."""

import importlib

__version__ = "0.1.0"

_HOME = {
    "a_poly": "poly", "constraint_poly": "poly", "constraint_poly_det": "poly",
    "verify_divisibility": "poly",
    "isolate_real_roots": "roots",
    "ModelParams": "series", "g_function": "series", "regularized_g": "series",
    "t_function": "series",
    "EigenvalueRecord": "spectrum", "full_spectrum": "spectrum",
    "juddian_roots": "spectrum",
    "lowest_eigenvalues": "oracle",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
