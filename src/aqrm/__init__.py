"""Spectral analysis of the asymmetric quantum Rabi model: exact constraint
polynomials, series-defined G- and T-functions, residue formulas at the
G-function poles, and an independent truncated-Hamiltonian oracle."""

from .poly import BivarPoly, a_poly, constraint_poly, constraint_poly_det, verify_divisibility
from .roots import TridiagMatrix, UniPoly, continuant, isolate_real_roots
from .series import (
    ModelParams,
    g_function,
    reciprocal_gamma,
    regularized_g,
    t_function,
)
from .spectrum import EigenvalueRecord, full_spectrum, juddian_roots
from .oracle import lowest_eigenvalues

__version__ = "0.1.0"

__all__ = [
    "BivarPoly", "EigenvalueRecord", "ModelParams", "TridiagMatrix", "UniPoly",
    "a_poly", "constraint_poly", "constraint_poly_det", "continuant",
    "full_spectrum", "g_function", "isolate_real_roots", "juddian_roots",
    "lowest_eigenvalues", "reciprocal_gamma", "regularized_g", "t_function",
    "verify_divisibility",
]
