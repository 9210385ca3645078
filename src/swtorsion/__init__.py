"""Exact invariants of 3-manifolds presented as glued compression bodies.

Everything is exact arithmetic: truncated integer power series, integer
symplectic lattices, the MacDonald monomial model for the cohomology of
symmetric powers of a surface, Morse-complex torsion, the TQFT trace of the
monodromy endomorphism, and the graph-diagonal intersection reformulation.

The production modules, which the commands run, are imported here.  The
reference routes of ``__all__`` live in ``swtorsion.reference`` and are
resolved on first access (PEP 562), so importing the package or running a
command never loads them.
"""
from .series import TruncSeries
from .surface import (CohClass, MappingClass, SurfaceModel, is_symplectic,
                      pairing, random_symplectic)
from .sympower import Monomial, SymSpace
from .torsion import (MorseMatrix, morse_differential_matrix, morse_torsion,
                      torsion_representative)
from .tqft import (CrossCheckError, Presentation, SWRow, SWTable,
                   VerificationReport, VerificationRow, compute_b1,
                   rhs_series, sw_table, trace_kappa_coefficient,
                   validate_presentation, verify_main_identity, zeta_series)
from .intersection import intersection_number

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


def __getattr__(name: str):
    # A name of __all__ that is not bound above is a reference route.
    if name in __all__:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
