"""Property tests: the fast routes against independent references on
inputs drawn by hypothesis (derandomized, so every run draws the same)."""
from itertools import combinations

from hypothesis import given, settings, strategies as st

from swtorsion.linalg import det_int, rank_int, submatrix
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
