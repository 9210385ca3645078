"""Exact invariants of 3-manifolds presented as glued compression bodies.

Everything is exact arithmetic: truncated integer power series, integer
symplectic lattices, the MacDonald monomial model for the cohomology of
symmetric powers of a surface, Morse-complex torsion, the TQFT trace of the
monodromy endomorphism, and the graph-diagonal intersection reformulation.

The production modules, which the commands run, are imported here.  The
reference routes of ``__all__``, and those of ``_FORWARDED`` on their
modules, live in ``swtorsion.reference`` and are resolved on first access
(PEP 562), so importing the package or running a command never loads them.
Each reference route checks a step that no other route checks.
"""
from .series import TruncSeries
from .surface import (MappingClass, SurfaceModel, is_symplectic,
                      random_symplectic)
from .sympower import SymSpace
from .torsion import (MorseMatrix, morse_differential_matrix, morse_torsion,
                      torsion_representative)
from .tqft import (Presentation, SWRow, SWTable, VerificationReport,
                   VerificationRow, compute_b1, rhs_series, sw_table,
                   trace_kappa_coefficient, verify_main_identity,
                   zeta_series)
from .intersection import intersection_number
from . import intersection, surface, sympower, torsion, tqft

__version__ = "0.1.0"

__all__ = [
    "TruncSeries",
    "SurfaceModel", "CohClass", "MappingClass", "pairing", "is_symplectic",
    "char_series", "random_symplectic",
    "Monomial", "SymSpace", "SymClass", "SymEndo", "enumerate_basis",
    "wedge_class", "contract_class", "induced_endomorphism", "graded_trace",
    "top_evaluate", "duality_pair", "dual_basis",
    "VolumedComplex", "complex_torsion", "RelPerm", "enumerate_relative_perms",
    "collapse_perm", "MorseMatrix", "morse_differential_matrix",
    "torsion_representative", "morse_torsion", "torsion_coefficient_direct",
    "Presentation", "descend_map", "ascend_map",
    "kappa_matrix", "kappa_trace", "trace_kappa_coefficient", "zeta_series", "rhs_series",
    "verify_main_identity", "VerificationReport", "VerificationRow",
    "compute_b1", "sw_table", "SWTable", "SWRow",
    "ProductClass", "diagonal_class", "graph_class", "product_evaluate",
    "intersection_number",
]


# Reference routes that the benchmark's tracer reads from a production module.
# ROADMAP item 5 retires the tracer's replay and deletes this table.
_FORWARDED = {
    tqft: {"kappa_matrix"},
    sympower: {"graded_trace", "gram_matrix", "dual_basis", "_lambda_image"},
    surface: {"char_series"},
    intersection: {"diagonal_class", "graph_class", "product_evaluate"},
    torsion: {"torsion_coefficient_direct"},
}


def _forwarder(module: str, names):
    # the __getattr__ of a module that serves names from swtorsion.reference
    def __getattr__(name: str):
        if name in names:
            from . import reference
            return getattr(reference, name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return __getattr__


# A name of __all__ that is not bound above is a reference route.
__getattr__ = _forwarder(__name__, __all__)
for _module, _names in _FORWARDED.items():
    _module.__getattr__ = _forwarder(_module.__name__, _names)
del _module, _names
