"""Exact invariants of 3-manifolds presented as glued compression bodies.

Everything is exact arithmetic: truncated integer power series, integer
symplectic lattices, the MacDonald monomial model for the cohomology of
symmetric powers of a surface, Morse-complex torsion, the TQFT trace of the
monodromy endomorphism, and the graph-diagonal intersection reformulation.
"""
from .series import TruncSeries
from .surface import (CohClass, MappingClass, SurfaceModel, char_series,
                      exterior_power_trace, is_symplectic, pairing,
                      random_symplectic)
from .sympower import (Monomial, SymClass, SymEndo, SymSpace, contract_class,
                       dual_basis, duality_pair, enumerate_basis, graded_trace,
                       induced_endomorphism, lefschetz_number, top_evaluate,
                       wedge_class)
from .torsion import (MorseMatrix, RelPerm, VolumedComplex, collapse_perm,
                      complex_torsion, enumerate_relative_perms,
                      morse_differential_matrix, morse_torsion,
                      torsion_coefficient_direct, torsion_representative)
from .tqft import (CrossCheckError, Presentation, SWRow, SWTable,
                   VerificationReport, VerificationRow, ascend_map,
                   compute_b1, descend_map, kappa_matrix, kappa_trace,
                   rhs_series, sw_table, trace_kappa_coefficient,
                   validate_presentation, verify_main_identity, zeta_series)
from .intersection import (ProductClass, diagonal_class, graph_class,
                           intersection_number, product_evaluate)

__version__ = "0.1.0"

__all__ = [
    "TruncSeries",
    "SurfaceModel", "CohClass", "MappingClass", "pairing", "is_symplectic",
    "exterior_power_trace", "char_series", "random_symplectic",
    "Monomial", "SymSpace", "SymClass", "SymEndo", "enumerate_basis",
    "wedge_class", "contract_class", "induced_endomorphism", "graded_trace",
    "lefschetz_number", "top_evaluate", "duality_pair", "dual_basis",
    "VolumedComplex", "complex_torsion", "RelPerm", "enumerate_relative_perms",
    "collapse_perm", "MorseMatrix", "morse_differential_matrix",
    "torsion_representative", "morse_torsion", "torsion_coefficient_direct",
    "Presentation", "validate_presentation", "descend_map", "ascend_map",
    "kappa_matrix", "kappa_trace", "trace_kappa_coefficient", "zeta_series", "rhs_series",
    "verify_main_identity", "VerificationReport", "VerificationRow",
    "CrossCheckError",
    "compute_b1", "sw_table", "SWTable", "SWRow",
    "ProductClass", "diagonal_class", "graph_class", "product_evaluate",
    "intersection_number",
]
