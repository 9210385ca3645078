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
* Stabilizations S_eps(P), once and twice, of Sigma_g x S^1 for g = 1..3
  and of four torus bundles: the same manifold with one more handle pair,
  so every Tr kappa_n is kept (eps = -1) or negated (eps = +1) and b1 is
  kept.
* Connected sums with S^2 x S^1, M(g, N + 1, A + [[s, k], [0, s]]): the
  2-handle runs along the belt circle of the new 1-handle, so every
  Tr kappa_n is 0 and b1 grows by one.

Every row checks b1 against the rank of the Mayer-Vietoris block B
(``conftest.block_b1``); only the rows without handles check
``compute_b1``, which undercounts the connected sums with s = -1 (ROADMAP
item 9; the strict xfail
``test_tqft.py::test_b1_of_two_sphere_cross_circles`` holds them).
"""
from itertools import product
from math import comb

import pytest

from swtorsion import (Presentation, compute_b1, intersection_number,
                       verify_main_identity, zeta_series)
from swtorsion.linalg import identity_matrix
from swtorsion.tqft import trace_kappa_series
from conftest import block_b1, direct_sum, stabilize


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


# rows of the catalogue that the moves below start from
BASES = CATALOGUE[:3] + [torus_bundle(*m) for m in (
    (1, 1, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (2, 1, 1, 1))]


def stabilized(row: tuple, signs: tuple) -> tuple:
    name, P, series, b1 = row
    sign = 1
    for eps in signs:
        P, sign = stabilize(P, eps), -eps * sign
    label = " ".join("S+" if eps > 0 else "S-" for eps in signs)
    return (f"{label} {name}", P, tuple(sign * x for x in series), b1)


def connected_sum(row: tuple, s: int, k: int) -> tuple:
    name, P, series, b1 = row
    return (f"{name} # S^2 x S^1 [[{s}, {k}], [0, {s}]]",
            direct_sum(P, ((s, k), (0, s))), (0,) * len(series), b1 + 1)


STABILIZED = [stabilized(row, signs) for row in BASES
              for signs in ((1,), (-1,), (1, -1), (-1, -1))]
CONNECTED_SUMS = [connected_sum(row, s, k) for row in BASES
                  for s, k in ((1, 0), (1, 2), (-1, 0), (-1, 3))]


def test_catalogue_size():
    assert len(SL2) == 52
    assert len(CATALOGUE) == 64
    assert len(STABILIZED) == len(CONNECTED_SUMS) == 28


ROWS = CATALOGUE + STABILIZED + CONNECTED_SUMS


@pytest.mark.parametrize("name, P, series, b1", ROWS,
                         ids=[row[0] for row in ROWS])
def test_closed_forms(name, P, series, b1):
    nmax = len(series) - 1
    assert trace_kappa_series(P, nmax) == series
    assert block_b1(P) == b1
    if P.handles == 0:
        # with handles, zeta is not the trace series (a stabilization
        # multiplies det(1 - tA) by 1 + t^2), and compute_b1 undercounts
        # some rows (ROADMAP item 9)
        assert zeta_series(P, nmax).coeffs == series
        assert compute_b1(P) == b1
    assert verify_main_identity(P, nmax).passed
    for n in range(3):
        assert intersection_number(P, n) == series[n]
