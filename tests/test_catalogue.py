"""Manifolds whose invariants are known in closed form.

Every check that ``verify`` and ``intersect`` run compares the library
with itself.  These rows compare it with published closed forms instead:
binomials and quadratics, computed here with no determinant routine.

* Sigma_g x S^1 = M(g, 0, 1): its torsion is (1 - t)^{2g - 2} (Meng and
  Taubes), so Tr kappa_n = (-1)^n C(2g - 2, n), and b1 = 2g + 1.
* Torus bundles M(1, 0, A), A in SL_2(Z): the trace series is the zeta
  function (1 - tr A t + t^2) / (1 - t)^2.  b1 = 1 exactly when
  tr A != 2; otherwise A - 1 is nilpotent, and b1 is 3 at A = 1 and 2
  elsewhere.
"""
from itertools import product
from math import comb

import pytest

from swtorsion import (Presentation, compute_b1, intersection_number,
                       verify_main_identity, zeta_series)
from swtorsion.linalg import identity_matrix
from swtorsion.tqft import trace_kappa_series


def surface_times_circle(g: int) -> tuple:
    nmax = 2 * g
    return (f"Sigma_{g} x S^1",
            Presentation.from_matrix(g, 0, identity_matrix(2 * g)),
            tuple((-1) ** n * comb(2 * g - 2, n) for n in range(nmax + 1)),
            2 * g + 1)


def torus_bundle(a: int, b: int, c: int, d: int) -> tuple:
    trace = a + d
    if trace != 2:
        b1 = 1
    elif (a, b, c, d) == (1, 0, 0, 1):
        b1 = 3
    else:
        b1 = 2
    return (f"T^2 bundle [[{a}, {b}], [{c}, {d}]]",
            Presentation.from_matrix(1, 0, [[a, b], [c, d]]),
            tuple(1 if n == 0 else n * (2 - trace) for n in range(7)), b1)


# SL_2(Z) matrices with entries in -2..2, as (a, b, c, d) for [[a, b], [c, d]]
SL2 = [m for m in product(range(-2, 3), repeat=4)
       if m[0] * m[3] - m[1] * m[2] == 1]

# (name, presentation, Tr kappa_0 .. Tr kappa_nmax, b1)
CATALOGUE = ([surface_times_circle(g) for g in range(1, 13)]
             + [torus_bundle(*m) for m in SL2])


def test_catalogue_size():
    assert len(SL2) == 52
    assert len(CATALOGUE) == 64


@pytest.mark.parametrize("name, P, series, b1", CATALOGUE,
                         ids=[row[0] for row in CATALOGUE])
def test_closed_forms(name, P, series, b1):
    nmax = len(series) - 1
    assert trace_kappa_series(P, nmax) == series
    assert zeta_series(P, nmax).coeffs == series
    assert compute_b1(P) == b1
    assert verify_main_identity(P, nmax).passed
    for n in range(3):
        assert intersection_number(P, n) == series[n]
