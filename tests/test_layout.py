"""The split between the production modules and ``swtorsion.reference``."""
import dataclasses
import inspect

import pytest

import swtorsion
from swtorsion import (cli, intersection, linalg, reference, surface,
                       sympower, torsion, tqft)
from swtorsion.series import TruncSeries
from swtorsion.surface import MappingClass, SurfaceModel
from swtorsion.sympower import SymSpace
from swtorsion.torsion import MorseMatrix
from swtorsion.tqft import Presentation, SWTable, VerificationReport

# The package's public names: the production API and the reference routes.
ALL = [
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
    "kappa_matrix", "kappa_trace", "trace_kappa_coefficient", "zeta_series",
    "rhs_series", "verify_main_identity", "VerificationReport",
    "VerificationRow",
    "compute_b1", "sw_table", "SWTable", "SWRow",
    "ProductClass", "diagonal_class", "graph_class", "product_evaluate",
    "intersection_number",
]

# The reference routes, by the production module they came from.  The
# methods among them (basis_class .. inverse, contains) are module functions
# in reference that take the surface, the mapping class or the space first.
MOVED = {
    tqft: ["descend_map", "ascend_map", "kappa_matrix", "_minor_sums",
           "kappa_trace"],
    sympower: ["SymClass", "wedge_class", "contract_class", "_insert_index",
               "_lambda_image", "SymEndo", "induced_endomorphism",
               "apply_induced", "graded_trace",
               "top_evaluate", "_merge_sign", "pair_monomials",
               "duality_pair", "_block_key", "_duality_blocks",
               "duality_pairings", "gram_matrix", "dual_basis",
               "enumerate_basis", "Monomial", "contains"],
    intersection: ["ProductClass", "diagonal_class", "graph_class",
                   "product_evaluate"],
    surface: ["char_series", "CohClass", "pairing",
              "basis_class", "c_class", "d_class", "intersection_matrix",
              "apply", "inverse"],
    torsion: ["_frac_matrix", "VolumedComplex", "complex_torsion", "RelPerm",
              "_orbit_covers", "enumerate_relative_perms", "collapse_perm",
              "_compositions", "torsion_coefficient_direct"],
    linalg: ["_integer_rows", "det_rational", "invert_rational",
             "invert_unimodular", "independent_columns", "perm_parity",
             "submatrix"],
}

# The names the benchmark's tracer reads from a production module.
FORWARDED = {
    tqft: {"kappa_matrix"},
    sympower: {"graded_trace", "gram_matrix", "dual_basis", "_lambda_image"},
    surface: {"char_series"},
    intersection: {"diagonal_class", "graph_class", "product_evaluate"},
    torsion: {"torsion_coefficient_direct"},
}


def test_package_exports_resolve():
    assert swtorsion.__all__ == ALL
    for name in ALL:
        assert getattr(swtorsion, name) is not None
    namespace = {}
    exec("from swtorsion import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ALL)
    with pytest.raises(AttributeError):
        swtorsion.no_such_name


def test_reference_holds_exactly_the_moved_routes():
    defined = {name for name, obj in vars(reference).items()
               if getattr(obj, "__module__", None) == reference.__name__
               and (inspect.isfunction(obj) or inspect.isclass(obj)
                    or hasattr(obj, "cache_info"))}
    assert defined == {name for names in MOVED.values() for name in names}
    for module, names in MOVED.items():
        assert not set(names) & set(vars(module)), module.__name__


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_forwarders_serve_exactly_the_traced_names(module):
    forwarded = FORWARDED.get(module, set())
    for name in MOVED[module]:
        if name in forwarded:
            assert getattr(module, name) is getattr(reference, name)
        else:
            with pytest.raises(AttributeError):
                getattr(module, name)
    assert forwarded <= set(MOVED[module])


# The members of the production classes that moved to reference, and those
# deleted for the constructor or a primitive: identity, compose and trace
# (the constructor with identity_matrix, mat_mul, a diagonal sum), zero, one
# and monomial (the constructor), small_surface (SurfaceModel(P.genus)), and
# the negation, sum, difference and truth value of a series, which nothing
# reads: the commands and the benchmark only multiply series and shift them.
GONE = {
    SurfaceModel: ["basis_class", "c_class", "d_class", "intersection_matrix"],
    MappingClass: ["apply", "inverse", "identity", "compose", "trace"],
    SymSpace: ["contains"],
    TruncSeries: ["zero", "one", "monomial", "__neg__", "__add__", "__sub__",
                  "__bool__"],
    Presentation: ["small_surface"],
    reference.SymClass: ["zero", "monomial"],
}

# The fields of the production records, each read by a command (cli._run
# reads rows, b1, mode and note) or a production route (morse_torsion reads
# the entries).
FIELDS = {
    VerificationReport: ["rows"],
    SWTable: ["b1", "mode", "rows", "note"],
    MorseMatrix: ["entries"],
}


def test_production_classes_keep_only_what_a_command_runs():
    for cls, names in GONE.items():
        assert not set(names) & set(dir(cls)), cls.__name__
    assert not hasattr(reference.Monomial, "odd_part")
    for cls, names in FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__
    for name in ("CohClass", "pairing", "Monomial"):
        assert getattr(swtorsion, name) is getattr(reference, name)
    # the parameters that only tests passed a default for are required
    for function, name in ((linalg.det_one_minus_t, "top"),
                           (surface.is_symplectic, "surface")):
        parameter = inspect.signature(function).parameters[name]
        assert parameter.default is inspect.Parameter.empty, function


def test_the_loader_is_the_one_front_door():
    # cli holds the whole input contract; tqft holds none of it
    for module in (swtorsion, tqft):
        with pytest.raises(AttributeError):
            module.validate_presentation
    for name in ("shape_problems", "SYMPLECTIC_PROBLEM",
                 "validate_presentation"):
        assert name not in vars(tqft), name
    assert callable(cli.shape_problems)
    assert cli.SYMPLECTIC_PROBLEM.startswith("symplectic: ")
