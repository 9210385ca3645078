"""Property tests: the fast routes against independent references on
inputs drawn by hypothesis (derandomized, so every run draws the same)."""
from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import given, settings, strategies as st

from swtorsion.linalg import (det_int, det_pencil, perm_parity, rank_int,
                             submatrix)
from swtorsion.series import TruncSeries, series_det
from swtorsion.surface import SurfaceModel, random_symplectic
from swtorsion.sympower import graded_trace
from swtorsion.tqft import Presentation, kappa_matrix, trace_kappa_series

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def presentations(draw):
    """Split presentations with g + N <= 3 and a random transvection word."""
    N = draw(st.integers(0, 3))
    g = draw(st.integers(0, 3 - N))
    surface = SurfaceModel(g + N, (N, g))
    A = random_symplectic(surface, draw(st.integers(0, 12)),
                          draw(st.integers(0, 2 ** 32)))
    return Presentation(g, N, A)


@PROPERTY
@given(presentations(), st.integers(0, 3))
def test_trace_series_equals_kappa_matrix_trace(P, nmax):
    series = trace_kappa_series(P, nmax)
    assert series == tuple(graded_trace(kappa_matrix(P, n))
                           for n in range(nmax + 1))


def brute_force_rank(a) -> int:
    """Size of the largest nonzero minor."""
    rows, cols = len(a), len(a[0]) if a else 0
    for k in range(min(rows, cols), 0, -1):
        if any(det_int(submatrix(a, R, C))
               for R in combinations(range(rows), k)
               for C in combinations(range(cols), k)):
            return k
    return 0


@st.composite
def integer_matrices(draw):
    """Matrices up to 5 x 6, half of them a product through an inner
    dimension that caps the rank, so rank-deficient inputs are common."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = st.integers(-4, 4)
    if draw(st.booleans()):
        return tuple(tuple(draw(entries) for _ in range(cols))
                     for _ in range(rows))
    inner = draw(st.integers(0, min(rows, cols)))
    left = [[draw(entries) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(entries) for _ in range(cols)] for _ in range(inner)]
    return tuple(tuple(sum(left[i][t] * right[t][j] for t in range(inner))
                       for j in range(cols)) for i in range(rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices())
def test_rank_int_equals_largest_nonzero_minor(a):
    assert rank_int(a) == brute_force_rank(a)


def leibniz_det(entries, order):
    """Sum over all permutations of the signed products of entries."""
    total = TruncSeries.zero(order)
    for perm in permutations(range(len(entries))):
        prod = TruncSeries.one(order)
        for i, j in enumerate(perm):
            prod = prod * entries[i][j]
        total = total - prod if perm_parity(perm) else total + prod
    return total


@st.composite
def fraction_series_matrices(draw):
    """n x n matrices, n <= 5, of series with Fraction coefficients; every
    constant term is an odd multiple of 1/(2b), so nonzero and not an
    integer."""
    n, order = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    const = st.builds(lambda a, b: Fraction(2 * a + 1, 2 * b),
                      st.integers(-4, 3), st.integers(1, 3))
    return order, [[TruncSeries(order, [draw(const)] + [
        draw(coeff) for _ in range(order)]) for _ in range(n)]
        for _ in range(n)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fraction_series_matrices())
def test_series_det_equals_leibniz(case):
    order, entries = case
    assert series_det(entries, order) == leibniz_det(entries, order)


@st.composite
def matrix_pencils(draw):
    """Pairs (m0, m1) of n x n integer matrices, n <= 5; in half of them
    some rows of m1 are zero, which lowers the degree bound."""
    n = draw(st.integers(0, 5))
    entries = st.integers(-4, 4)
    m0 = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    sparse = draw(st.booleans())
    m1 = tuple(tuple(0 for _ in range(n)) if sparse and draw(st.booleans())
               else tuple(draw(entries) for _ in range(n)) for _ in range(n))
    return m0, m1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix_pencils())
def test_det_pencil_equals_determinant_at_every_point(pencil):
    m0, m1 = pencil
    coeffs = det_pencil(m0, m1)
    deg = sum(1 for row in m1 if any(row))
    assert len(coeffs) == deg + 1
    for s in range(-3, deg + 4):
        value = det_int(tuple(tuple(a + s * b for a, b in zip(r0, r1))
                              for r0, r1 in zip(m0, m1)))
        assert sum(c * s ** k for k, c in enumerate(coeffs)) == value
