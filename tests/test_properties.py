"""Property tests: the fast routes against independent references on
inputs drawn by hypothesis (derandomized, so every run draws the same)."""
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from swtorsion.cli import load_presentation, write_presentation
from swtorsion.intersection import intersection_number
from swtorsion.linalg import (ExactDivisionError, det_int, det_one_minus_t,
                              identity_matrix, mat_mul, rank_int, submatrix,
                              transpose)
from swtorsion.reference import (ProductClass, _minor_sums, det_rational,
                                 diagonal_class, dual_basis, duality_pairings,
                                 enumerate_basis, graded_trace, graph_class,
                                 independent_columns, intersection_matrix,
                                 inverse, invert_rational, invert_unimodular,
                                 kappa_matrix, kappa_trace, pair_monomials,
                                 perm_parity, product_evaluate,
                                 torsion_coefficient_direct)
from swtorsion.series import TruncSeries, series_det
from swtorsion.surface import SurfaceModel, is_symplectic, random_symplectic
from swtorsion.sympower import SymSpace, disjoint_inverse_entry, handle_duality
from swtorsion import torsion
from swtorsion.torsion import (morse_torsion, newton_pencil, signed_pencil,
                               torsion_representative)
from swtorsion.tqft import (Presentation, _trace_series, compute_b1,
                            rhs_series, trace_kappa_series,
                            verify_main_identity, zeta_series)
from conftest import (block_b1, interpolate, make_presentation,
                      mayer_vietoris_block, rational_exp, stabilize)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def presentations(draw, max_genus=3):
    """Split presentations with g + N <= max_genus and a random transvection
    word."""
    N = draw(st.integers(0, max_genus))
    g = draw(st.integers(0, max_genus - N))
    surface = SurfaceModel(g + N, (N, g))
    A = random_symplectic(surface, draw(st.integers(0, 12)),
                          draw(st.integers(0, 2 ** 32)))
    return Presentation(g, N, A)


@st.composite
def split_presentations(draw, gmax, nmax):
    """Presentations with core genus g <= gmax, N <= nmax handles and a
    transvection word of up to 40 letters, long enough to fill the matrix."""
    g, N = draw(st.integers(0, gmax)), draw(st.integers(0, nmax))
    surface = SurfaceModel(g + N, (N, g))
    A = random_symplectic(surface, draw(st.integers(0, 40)),
                          draw(st.integers(0, 2 ** 32)))
    return Presentation(g, N, A)


@PROPERTY
@given(presentations(), st.integers(0, 3))
def test_trace_series_equals_kappa_matrix_trace(P, nmax):
    series = trace_kappa_series(P, nmax)
    assert series == tuple(graded_trace(kappa_matrix(P, n))
                           for n in range(nmax + 1))


@PROPERTY
@given(presentations(), st.integers(0, 3))
def test_kappa_trace_equals_kappa_matrix_trace(P, n):
    # the diagonal read through restricted minors against the assembled
    # matrix, without the determinant pencil
    assert kappa_trace(P, n) == graded_trace(kappa_matrix(P, n))


def test_minor_sums_equal_the_kernel_on_the_sweep_shapes():
    # where det A[D, C] = 0, newton_pencil falls back to signed_pencil and
    # verify's two trace columns are one computation, so the minor sums of
    # the diagonal are compared with the kernel here: a derandomized grid
    # over the shapes of the benchmark's verify sweep with handles
    # (g + N <= 3, N >= 1, words 4-16), which holds singular blocks
    rng = random.Random(2718)
    singular = 0
    for N in (1, 2, 3):
        for g in range(4 - N):
            for _ in range(20):
                P = make_presentation(g, N, rng.randint(4, 16),
                                      rng.randrange(2 ** 31))
                series = trace_kappa_series(P, 3)
                assert tuple(kappa_trace(P, n) for n in range(4)) == series
                mat = P.monodromy.mat
                singular += not det_int(submatrix(mat, range(N, 2 * N),
                                                  range(N)))
    assert singular


@PROPERTY
@given(presentations(),
       st.none() | st.text(min_size=0, max_size=12) | st.sampled_from(
           ["Seifert–Weber", "Σ(2,3,5)", "κ_n", "トーラス"]))
def test_json_round_trip(tmp_path_factory, P, name):
    P = Presentation(P.genus, P.handles, P.monodromy, name)
    path = str(tmp_path_factory.mktemp("round-trip") / "p.json")
    write_presentation(P, path)
    Q = load_presentation(path)
    assert (Q.genus, Q.handles, Q.monodromy.mat, Q.name) == (
        P.genus, P.handles, P.monodromy.mat, P.name)


@PROPERTY
@given(presentations(), st.integers(0, 3))
def test_intersection_number_equals_materialised_graph(P, n):
    # the restricted-minor route against the reference route, without the
    # trace: pins the Kunneth and dual signs of the graph coefficients
    assert intersection_number(P, n) == product_evaluate(
        diagonal_class(P, n), graph_class(P, n))


@PROPERTY
@given(presentations(), st.integers(0, 3))
def test_trace_identity_on_random_words(P, nmax):
    # zeta x torsion, the trace pencil and the kappa diagonal agree, and so
    # does the graph-diagonal intersection number
    assert verify_main_identity(P, nmax).passed
    series = trace_kappa_series(P, nmax)
    for n in range(min(nmax, 2) + 1):
        assert intersection_number(P, n) == series[n]


@st.composite
def large_genus_presentations(draw):
    """Core genus 7-12, drawn uniformly, N <= 2 handles and a transvection
    word of up to 8(g + N) letters."""
    g, N = draw(st.sampled_from(range(7, 13))), draw(st.integers(0, 2))
    surface = SurfaceModel(g + N, (N, g))
    A = random_symplectic(surface, draw(st.integers(0, 8 * (g + N))),
                          draw(st.integers(0, 2 ** 32)))
    return Presentation(g, N, A)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(large_genus_presentations())
@example(make_presentation(12, 0, 96, 1))
@example(make_presentation(12, 2, 112, 1))
def test_trace_identity_through_2g_at_large_genus(P):
    # no column of verify grows like 2^(2g), so the whole identity up to
    # n = 2g, where the trace turns affine, runs at g 7-12; the derandomized
    # draws lean to g = 7, so two g = 12 cases are given
    assert verify_main_identity(P, 2 * P.genus).passed


@PROPERTY
@given(split_presentations(gmax=3, nmax=5), st.data())
def test_three_torsion_routes_agree(P, data):
    # the pencil ratio against the Berkowitz determinant of the Morse
    # matrix, coefficient for coefficient, and the low coefficients against
    # the sum over compositions and permutations
    N = P.handles
    kmax = data.draw(st.integers(N, 20), label="kmax")
    tau = torsion_representative(P, kmax)
    assert tau == morse_torsion(P, kmax)
    for k in range(min(kmax, N + 2) + 1):
        assert tau[k] == torsion_coefficient_direct(P, k)


def test_torsion_routes_at_the_edges():
    # no handles: tau = 1; kmax = N: only the leading t^N survives; and the
    # identity monodromy with one handle, whose torsion vanishes
    for kmax in (0, 5):
        P = make_presentation(2, 0, 30, 4)
        assert torsion_representative(P, kmax) == TruncSeries(kmax, (1,))
        assert morse_torsion(P, kmax) == TruncSeries(kmax, (1,))
    for g, N in ((0, 1), (1, 3), (2, 4)):
        P = make_presentation(g, N, 40, 17)
        tau = torsion_representative(P, N)
        assert tau == morse_torsion(P, N)
        assert list(tau.coeffs) == [0] * N + [torsion_coefficient_direct(P, N)]
    P = make_presentation(1, 1, 0, 0)
    assert not torsion_representative(P, 4)
    assert not morse_torsion(P, 4)
    assert all(torsion_coefficient_direct(P, k) == 0 for k in range(5))


def full_pencil(mat, N):
    """Reference for ``signed_pencil`` before its signs: p(s) =
    det [[A_DC, A_DX], [s A_XC, 1 + s A_XX]] at all 2g + 1 points
    s = 0..2g, through ``interpolate``, with no palindromy assumed."""
    rows = range(N, len(mat))
    cols = tuple(range(N)) + tuple(range(2 * N, len(mat)))

    def at(s):
        return det_int(tuple(
            tuple(mat[r][c] if a < N else s * mat[r][c] + int(a == b)
                  for b, c in enumerate(cols)) for a, r in enumerate(rows)))

    return list(interpolate([at(s) for s in range(len(mat) - 2 * N + 1)]))


@PROPERTY
@given(split_presentations(gmax=4, nmax=3))
def test_trace_pencil_is_palindromic_and_the_traces_symmetric(P):
    # A is symplectic, so p_k = +p_{2g-k} (the derivation is in the
    # signed_pencil docstring); hence Tr kappa_n - Tr kappa_{2g-2-n} is
    # p~(1) (n - g + 1) about the core genus n = g - 1, with p~(t) the signed
    # pencil, the numerator of the trace series.  p is read from the full
    # interpolation, since signed_pencil solves for half of it and is
    # palindromic by construction.  The signed pencil, which verify's
    # diagonal column reads, is also the restricted minors of kappa_trace,
    # summed subset by subset.
    g, N = P.genus, P.handles
    p = full_pencil(P.monodromy.mat, N)
    assert len(p) == 2 * g + 1
    assert p == p[::-1]
    signed = signed_pencil(P.monodromy.mat, N)
    assert list(signed) == [-c if (k + N) & 1 else c for k, c in enumerate(p)]
    assert _minor_sums(P, 2 * g) == signed
    at_one = sum(signed)
    traces = trace_kappa_series(P, max(2 * g - 2, 0))
    for n in range(2 * g - 1):
        assert traces[n] - traces[2 * g - 2 - n] == at_one * (n - g + 1)
    # det B = p~(1) for the Mayer-Vietoris block B (compute_b1 docstring),
    # so b1 > 1 forces p~(1) = 0.  The converse fails where compute_b1
    # undercounts (ROADMAP item 9, pinned by a strict xfail).
    if compute_b1(P) > 1:
        assert at_one == 0


# (g, N, words, seed) where a core row of A vanishes on the columns C u X,
# so m1 of signed_pencil has fewer than 2g nonzero rows
ZERO_CORE_ROW = ((1, 1, 10, 174), (1, 2, 9, 266), (2, 1, 8, 32), (1, 3, 10, 44))


def test_pencils_take_their_structural_width():
    # the width of signed_pencil is 2g, and 2G at N = 0 (char_series),
    # whatever the rows of m1 are: short words, the identity (words = 0),
    # g = 0, N = 0..3, and the fixtures whose m1 has a zero core row
    cases = [(g, N, words, seed) for g in range(4) for N in range(4)
             for words in range(4) for seed in (1, 2)] + list(ZERO_CORE_ROW)
    for g, N, words, seed in cases:
        mat = make_presentation(g, N, words, seed).monodromy.mat
        signed = [-c if (k + N) & 1 else c
                  for k, c in enumerate(signed_pencil(mat, N))]
        assert signed == full_pencil(mat, N)
        n = len(mat)
        full = interpolate([det_int(tuple(
            tuple(int(i == j) + s * x for j, x in enumerate(row))
            for i, row in enumerate(mat))) for s in range(n + 1)])
        assert signed_pencil(mat, 0) == tuple(
            -c if k & 1 else c for k, c in enumerate(full))
    for g, N, words, seed in ZERO_CORE_ROW:
        mat = make_presentation(g, N, words, seed).monodromy.mat
        cols = tuple(range(N)) + tuple(range(2 * N, len(mat)))
        assert sum(1 for r in range(2 * N, len(mat))
                   if any(mat[r][c] for c in cols)) < 2 * g


@st.composite
def pencil_matrices(draw):
    """(A, N) with core genus g <= 6, N <= 4 handles and a transvection word
    of 0-68 letters; the short words often leave det A[D, C] = 0.  The
    genus is drawn uniformly, so large genus is not left to a few draws."""
    g, N = draw(st.sampled_from(range(7))), draw(st.integers(0, 4))
    surface = SurfaceModel(g + N, (N, g))
    A = random_symplectic(surface, draw(st.integers(0, 68)),
                          draw(st.integers(0, 2 ** 32)))
    return A.mat, N


@PROPERTY
@given(pencil_matrices())
@example((make_presentation(2, 2, 52, 1).monodromy.mat, 2))
def test_newton_pencil_equals_the_bareiss_pencil(case):
    # every truncation top = 0..2g + 1, and the whole pencil; the derandomized
    # draws hold no g = 2, so one g = 2 case is given
    mat, N = case
    full = signed_pencil(mat, N)
    assert newton_pencil(mat, N, len(mat) - 2 * N) == full
    for top in range(len(mat) - 2 * N + 2):
        assert newton_pencil(mat, N, top) == full[:top + 1]


@pytest.mark.parametrize("g, N, words, seed", [(2, 2, 0, 1), (2, 1, 2, 1)])
def test_newton_pencil_falls_back_on_a_singular_handle_block(
        monkeypatch, g, N, words, seed):
    # the identity and `gen --g 2 --handles 1 --words 2 --seed 1` have
    # det A[D, C] = 0, so there is no Schur complement and every call
    # returns the truncated Bareiss pencil
    mat = make_presentation(g, N, words, seed).monodromy.mat
    assert det_int(submatrix(mat, range(N, 2 * N), range(N))) == 0
    full = signed_pencil(mat, N)
    calls = []

    def counted(*args):
        calls.append(args)
        return signed_pencil(*args)

    monkeypatch.setattr(torsion, "signed_pencil", counted)
    assert newton_pencil(mat, N, len(mat) - 2 * N) == full
    for top in range(2 * g + 2):
        assert newton_pencil(mat, N, top) == full[:top + 1]
    assert len(calls) == 2 * g + 3


def test_palindromic_pencil_rejects_a_non_integral_solution():
    # det(1 + s 0) = 1 is not palindromic of degree 6: the palindromic
    # polynomial through its values at s = 0..3 is not integral
    with pytest.raises(ExactDivisionError, match="not integral"):
        signed_pencil(((0,) * 6,) * 6, 0)


@PROPERTY
@given(st.sampled_from(range(7)), st.integers(0, 40), st.integers(0, 2 ** 32),
       st.integers(0, 40))
def test_zeta_equals_the_exponential_of_the_fixed_point_counts(G, words, seed,
                                                               kmax):
    # the Berkowitz pass that verify's rhs reads (_trace_series) and the
    # power-sum kernel of zeta_series against the exponential of the signed
    # fixed point counts over Fraction, with every A^k a full product
    A = random_symplectic(SurfaceModel(G), words, seed)
    traces, power = [], identity_matrix(2 * G)
    for _ in range(kmax):
        power = mat_mul(power, A.mat)
        traces.append(sum(power[i][i] for i in range(2 * G)))
    want = rational_exp(
        [0] + [Fraction(2 - t, k) for k, t in enumerate(traces, 1)])
    assert _trace_series(A, kmax) == want
    assert zeta_series(Presentation(G, 0, A), kmax).coeffs == want


@PROPERTY
@given(st.sampled_from(range(7)), st.integers(0, 68), st.integers(0, 2 ** 32),
       st.integers(0, 40))
@example(0, 0, 0, 40)
@example(3, 68, 7, 40)
@example(4, 68, 1, 40)
@example(5, 68, 1, 32)
@example(6, 68, 1, 40)
def test_zeta_routes_agree(G, words, seed, kmax):
    # the power-sum kernel that zeta prints, verify's rhs at N = 0 (the
    # Berkowitz pass times the Morse determinant of no handles) and the
    # Berkowitz pass alone, at the drawn kmax and at every order around
    # 2G + 1, where the characteristic polynomial ends.  zeta runs no
    # second route itself, so this and verify are where it is checked; the
    # examples cover G = 4-6 at the benchmark's largest kmax
    A = random_symplectic(SurfaceModel(G), words, seed)
    P = Presentation(G, 0, A)
    for k in {kmax, 0, max(2 * G - 1, 0), 2 * G, 2 * G + 1, 2 * G + 2}:
        kernel = zeta_series(P, k).coeffs
        assert kernel == rhs_series(P, k).coeffs
        assert kernel == _trace_series(A, k)


@PROPERTY
@given(presentations(max_genus=4), st.integers(0, 12), st.integers(0, 2 ** 32),
       st.integers(0, 24))
def test_zeta_is_invariant_under_conjugation_and_inversion(P, words, seed,
                                                           kmax):
    A = P.monodromy
    B = random_symplectic(P.surface, words, seed)
    zeta = zeta_series(P, kmax)
    conjugate = mat_mul(mat_mul(B.mat, A.mat), inverse(B).mat)
    assert zeta_series(Presentation.from_matrix(P.genus, P.handles, conjugate),
                       kmax) == zeta
    assert zeta_series(Presentation(P.genus, P.handles, inverse(A)),
                       kmax) == zeta


@PROPERTY
@given(st.integers(1, 5), st.data())
def test_is_symplectic_equals_the_two_product_form(G, data):
    # A^T (J A) read entry by entry from the signed partners against the
    # dense products with J, on symplectic matrices and one-entry
    # perturbations of them, over every split of the genus
    N = data.draw(st.integers(0, G))
    surface = SurfaceModel(G, (N, G - N))
    J = intersection_matrix(surface)
    mat = random_symplectic(surface, data.draw(st.integers(0, 60)),
                            data.draw(st.integers(0, 2 ** 32))).mat
    i, j = (data.draw(st.integers(0, 2 * G - 1)) for _ in range(2))
    delta = data.draw(st.integers(-3, 3).filter(bool))
    bumped = [list(row) for row in mat]
    bumped[i][j] += delta
    assert is_symplectic(mat, surface)
    for m in (mat, bumped):
        assert is_symplectic(m, surface) == (
            mat_mul(transpose(m), mat_mul(J, m)) == J)


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination over Fraction, row by row."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@PROPERTY
@given(presentations(max_genus=5))
def test_b1_equals_the_rank_formula(P):
    # b_1 = 1 + (2G - N) - rank(Q (1 - A^-1)), Q dropping the c rows
    G, N = P.genus + P.handles, P.handles
    Ainv = inverse(P.monodromy).mat
    assert mat_mul(Ainv, P.monodromy.mat) == identity_matrix(2 * G)
    rows = [[int(i == j) - Ainv[i][j] for j in range(2 * G)]
            for i in range(N, 2 * G)]
    assert compute_b1(P) == 1 + (2 * G - N) - fraction_rank(rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(1, 3), st.integers(0, 40),
       st.integers(0, 2 ** 32))
def test_b1_from_the_mayer_vietoris_block(g, N, words, seed):
    # b_1 from the block B, held against the trace series with no call to
    # compute_b1: det B = p~(1), the sum of the signed pencil, so b_1 = 1
    # exactly when p~(1) != 0; and b_1 > 1 makes Tr kappa_n vanish for
    # every n > 2g - 2
    P = make_presentation(g, N, words, seed)
    mat = P.monodromy.mat
    B = mayer_vietoris_block(P)
    b1 = block_b1(P)
    p1 = sum(signed_pencil(mat, N))
    assert det_int(B) == p1
    assert (b1 == 1) == (p1 != 0)
    if b1 > 1:
        assert not any(trace_kappa_series(P, 2 * g + 3)[max(2 * g - 1, 0):])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 40),
       st.integers(0, 2 ** 32), st.sampled_from((1, -1)),
       st.sampled_from((1, -1)))
@example(4, 3, 40, 1, 1, -1)
@example(4, 3, 40, 2, -1, 1)
def test_stabilization_keeps_the_invariants(g, N, words, seed, eps1, eps2):
    # two births of a cancelling pair: eps = +1 negates every Tr kappa_n
    # and eps = -1 keeps it; verify passes at N + 1 and N + 2 (through the
    # Morse matrix at growing N), intersect equals the trace at n <= 2,
    # and b_1 from the block B is unchanged
    P = make_presentation(g, N, words, seed)
    nmax = 2 * g + 4
    traces, b1 = trace_kappa_series(P, nmax), block_b1(P)
    sign = 1
    for eps in (eps1, eps2):
        P, sign = stabilize(P, eps), -eps * sign
        assert trace_kappa_series(P, nmax) == tuple(sign * x for x in traces)
        assert verify_main_identity(P, nmax).passed
        assert [intersection_number(P, n) for n in range(3)] == [
            sign * x for x in traces[:3]]
        assert block_b1(P) == b1


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
def integer_matrices(draw, square=False):
    """Matrices up to 5 x 6 (square ones from 0 x 0 to 6 x 6), half of them
    a product through an inner dimension that caps the rank, so
    rank-deficient inputs are common."""
    if square:
        rows = cols = draw(st.integers(0, 6))
    else:
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


def leibniz(a):
    """Sum over all permutations p of sign(p) * prod_i a[i][p(i)], the sign
    read off the inversion count."""
    n = len(a)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(a[i][p[i]] for i in range(n))
    return total


@st.composite
def rational_matrices(draw):
    """D b E for a square integer matrix b and rational diagonals D, E, so
    the rows have different denominators and the rank is that of b."""
    b = draw(integer_matrices(square=True))
    scale = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                      st.integers(1, 6))
    d = [draw(scale) for _ in b]
    e = [draw(scale) for _ in b]
    return tuple(tuple(di * x * ej for x, ej in zip(row, e))
                 for di, row in zip(d, b))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_matrices(square=True), rational_matrices())
def test_determinants_equal_leibniz_sum(a, q):
    assert det_int(a) == leibniz(a)
    assert det_rational(q) == leibniz(q)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_matrices(square=True))
@example(())
def test_berkowitz_equals_the_interpolated_determinant(a):
    # det(1 + s a) has degree at most n, so of the 2n + 1 interpolated
    # coefficients the top n vanish; det(1 - t a) is it at s = -t.  The
    # matrices are not symplectic, so no palindromy helps either side.
    n = len(a)
    full = interpolate([det_int(tuple(
        tuple(int(i == j) + s * x for j, x in enumerate(row))
        for i, row in enumerate(a))) for s in range(2 * n + 1)])
    assert full[n + 1:] == (0,) * n
    assert det_one_minus_t(a, n) == tuple(-c if k & 1 else c
                                          for k, c in enumerate(full[:n + 1]))


def test_truncated_berkowitz_is_a_prefix_of_the_full_pass():
    # stopping the Krylov columns and the Toeplitz products at t^top
    # changes none of the coefficients up to t^top
    rng = random.Random(25)
    for _ in range(120):
        n = rng.randrange(9)
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                  for _ in range(n))
        full = det_one_minus_t(a, n)
        for top in range(n + 3):
            assert det_one_minus_t(a, top) == full[:top + 1]


@PROPERTY
@given(pencil_matrices())
@example(((), 0))
def test_berkowitz_equals_the_bareiss_pencil_on_symplectic_matrices(case):
    # the Berkowitz pass against the Bareiss pencil at N = 0 it replaced;
    # det(1 + sA) is palindromic for A symplectic in the split basis too
    mat, _ = case
    assert det_one_minus_t(mat, len(mat)) == signed_pencil(mat, 0)


@PROPERTY
@given(st.integers(0, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@example([[(3 * i + 5 * j + i * j) % 19 - 9 for j in range(8)]
          for i in range(8)])
def test_series_det_of_one_minus_ta_is_the_integer_pass(a):
    # the Berkowitz recursion over the two rings: det(1 - t a) read off an
    # integer matrix, and the determinant of the matrix of series 1 - t a
    # at order n
    n = len(a)
    entries = [[TruncSeries(n, (int(i == j), -x)) for j, x in enumerate(row)]
               for i, row in enumerate(a)]
    assert series_det(entries, n).coeffs == det_one_minus_t(a, n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rational_matrices())
def test_invert_rational_is_two_sided_inverse(a):
    if leibniz(a) == 0:
        with pytest.raises(ValueError):
            invert_rational(a)
        return
    inverse = invert_rational(a)
    identity = identity_matrix(len(a))
    assert mat_mul(a, inverse) == identity
    assert mat_mul(inverse, a) == identity


@st.composite
def unimodular_matrices(draw):
    """Integer matrices of determinant +-1 up to 6 x 6: the identity under
    random row additions, swaps and sign changes."""
    n = draw(st.integers(0, 6))
    m = [list(row) for row in identity_matrix(n)]
    for _ in range(draw(st.integers(0, 16)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add" and i != j:
            c = draw(st.integers(-3, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-x for x in m[i]]
    return tuple(map(tuple, m))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(unimodular_matrices(), integer_matrices(square=True))
def test_invert_unimodular_equals_invert_rational(u, a):
    inverse = invert_unimodular(u)
    assert all(type(x) is int for row in inverse for x in row)
    assert inverse == invert_rational(u)
    if u:
        # doubling a row doubles the determinant: no integer inverse
        with pytest.raises(ValueError):
            invert_unimodular((tuple(2 * x for x in u[0]),) + u[1:])
    if abs(leibniz(a)) == 1:
        assert invert_unimodular(a) == invert_rational(a)
    else:
        with pytest.raises(ValueError):
            invert_unimodular(a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_matrices(), st.integers(0, 2 ** 32))
def test_independent_columns_are_the_greedy_basis(a, seed):
    # a column is chosen exactly when it raises the rank of the columns
    # chosen before it, in the order the seeded shuffle tries them
    order = list(range(len(a[0])))
    random.Random(seed).shuffle(order)
    greedy: list = []
    for c in order:
        columns = submatrix(a, range(len(a)), greedy + [c])
        if brute_force_rank(columns) > len(greedy):
            greedy.append(c)
    chosen = independent_columns(a, random.Random(seed))
    assert chosen == greedy
    assert len(chosen) == rank_int(a)


def leibniz_det(entries, order):
    """Sum over all permutations of the signed products of entries."""
    total = TruncSeries(order)
    for perm in permutations(range(len(entries))):
        prod = TruncSeries(order, (1,))
        for i, j in enumerate(perm):
            prod = prod * entries[i][j]
        total = total - prod if perm_parity(perm) else total + prod
    return total


@st.composite
def series_matrices(draw):
    """n x n matrices, n <= 5, of integer series; constant terms may
    vanish, which the division-free determinant must allow."""
    n, order = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    coeff = st.integers(-6, 6)
    return order, [[TruncSeries(order, [draw(coeff) for _ in range(order + 1)])
                     for _ in range(n)] for _ in range(n)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(series_matrices())
def test_series_det_equals_leibniz(case):
    order, entries = case
    assert series_det(entries, order) == leibniz_det(entries, order)


def fraction_interpolate(values):
    """Forward differences in the falling-factorial basis, accumulated as
    Fraction and checked for integrality at the end."""
    coeffs = [Fraction(0)] * len(values)
    falling, diffs, factorial = [1], list(values), 1
    for k in range(len(values)):
        factorial *= k or 1
        for i, c in enumerate(falling):
            coeffs[i] += Fraction(diffs[0] * c, factorial)
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    if any(c.denominator != 1 for c in coeffs):
        raise AssertionError("interpolated polynomial is not integral")
    return tuple(int(c) for c in coeffs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=10),
       st.lists(st.integers(-50, 50), max_size=8))
def test_interpolate_equals_the_fraction_form(coeffs, values):
    # an integer polynomial through its values, and arbitrary values, which
    # both forms must reject alike when the interpolant is not integral
    points = [sum(c * s ** k for k, c in enumerate(coeffs))
              for s in range(len(coeffs))]
    assert interpolate(points) == fraction_interpolate(points) == tuple(coeffs)
    try:
        expected = fraction_interpolate(values)
    except AssertionError:
        with pytest.raises(AssertionError, match="not integral"):
            interpolate(values)
    else:
        assert interpolate(values) == expected


def test_interpolate_rejects_a_half_integral_polynomial():
    # s (s - 1) / 2 takes the values 0, 0, 1
    with pytest.raises(AssertionError, match="not integral"):
        interpolate([0, 0, 1])


@st.composite
def sym_spaces(draw, gmax=3, nmax=4):
    """Sym^n of a split surface (N, G - N) with G <= gmax and n <= nmax."""
    G = draw(st.integers(0, gmax))
    N = draw(st.integers(0, G))
    return SymSpace(SurfaceModel(G, (N, G - N)), draw(st.integers(0, nmax)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sym_spaces())
def test_block_duality_equals_dense_inverse(space):
    basis = enumerate_basis(space)
    gram = tuple(tuple(pair_monomials(space, a, b) for b in basis)
                 for a in basis)
    pairs = duality_pairings(space)
    assert pairs.keys() == set(basis)
    for a, row in zip(basis, gram):
        assert pairs[a] == {b: v for b, v in zip(basis, row) if v}
    inverse = invert_rational(gram)
    duals = dual_basis(space)
    for a, row in zip(basis, inverse):
        assert all(v.denominator == 1 for v in row)
        assert duals[a].terms == {b: int(v) for b, v in zip(basis, row) if v}


@st.composite
def handle_spaces(draw):
    """Sym^{n+N} of a split surface (N, g) with N >= 1, g + N <= 4 and
    n <= 3: the spaces whose handle blocks intersection_number reads."""
    N = draw(st.integers(1, 3))
    g = draw(st.integers(0, 4 - N))
    return SymSpace(SurfaceModel(g + N, (N, g)), draw(st.integers(0, 3)) + N)


def assert_handle_duality_is_the_full_duality(space, touched):
    """``handle_duality`` holds exactly the monomials ``touched``, and on
    them it equals the full duality: its plain (indices, q) tuples equal
    the monomials of the same fields."""
    pairs, duals = handle_duality(space)
    assert pairs.keys() == duals.keys() == set(touched)
    full_pairs, full_duals = duality_pairings(space), dual_basis(space)
    for m in touched:
        assert pairs[m] == full_pairs[m]
        assert duals[m] == full_duals[m].terms


def handle_touched(space):
    """The monomials whose handle part is all of C or all of D."""
    N = space.surface.split[0]
    C, D = set(range(N)), set(range(N, 2 * N))
    return {m for m in enumerate_basis(space)
            if set(m.indices) & (C | D) in (C, D)}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(handle_spaces())
def test_handle_duality_equals_the_full_duality_on_its_blocks(space):
    N, g = space.surface.split
    touched = handle_touched(space)
    core = SymSpace(SurfaceModel(g), space.n - N)
    assert len(touched) == 2 * core.dim
    assert_handle_duality_is_the_full_duality(space, touched)


@pytest.mark.parametrize("N", range(4))
def test_handle_duality_equals_the_full_duality_on_a_grid(N):
    # Core degree n up to 5 reaches what handle_spaces (n <= 3) does not:
    # the cap L = g - k < h on the pair sets of a block, at (g, N, n) =
    # (1, 1, 5) and (2, 2, 5) for instance, and core classes U with three
    # or more y powers h, whose blocks are prefixes of one row list.
    capped = 0
    for g in range(5 - N):
        for n in range(6):
            space = SymSpace(SurfaceModel(g + N, (N, g)), n + N)
            assert_handle_duality_is_the_full_duality(space,
                                                      handle_touched(space))
            capped += any(g - k < min(h, n - k - h)
                          for k in range(min(g, n) + 1)
                          for h in range(n - k + 1))
    assert capped


@pytest.mark.parametrize("g", range(5))
@pytest.mark.parametrize("n", range(4))
def test_handle_duality_without_handles_is_the_whole_duality(g, n):
    # with no handles every block of the space is reached
    space = SymSpace(SurfaceModel(g, (0, g)), n)
    assert_handle_duality_is_the_full_duality(space, enumerate_basis(space))


def test_disjoint_inverse_entry_is_the_unimodular_inverse():
    # the closed form against invert_unimodular, which also checks that the
    # disjointness matrix on the sets of at most L of p points is unimodular
    for p in range(9):
        for L in range(min(p, 5) + 1):
            sets = [frozenset(S) for s in range(L + 1)
                    for S in combinations(range(p), s)]
            disjoint = tuple(tuple(int(not S & T) for T in sets)
                             for S in sets)
            assert invert_unimodular(disjoint) == tuple(
                tuple(disjoint_inverse_entry(p, L, len(S | T), len(S & T))
                      for T in sets) for S in sets)


@st.composite
def product_class_pairs(draw):
    """(u, v) over a small Sym^n; for about half of u's terms (a, b), v
    gets a term (c, e) with c paired to a and e to b, so that many term
    pairs contribute."""
    space = draw(sym_spaces(gmax=2, nmax=3))
    basis = enumerate_basis(space)
    mono = st.sampled_from(basis)
    coeff = st.integers(-3, 3)
    u = {(draw(mono), draw(mono)): draw(coeff)
         for _ in range(draw(st.integers(0, 6)))}
    v = {(draw(mono), draw(mono)): draw(coeff)
         for _ in range(draw(st.integers(0, 3)))}
    for a, b in list(u):
        partners_a = [c for c in basis if pair_monomials(space, a, c)]
        partners_b = [e for e in basis if pair_monomials(space, b, e)]
        if partners_a and partners_b and draw(st.booleans()):
            key = (draw(st.sampled_from(partners_a)),
                   draw(st.sampled_from(partners_b)))
            v[key] = draw(coeff)
    return ProductClass(space, u), ProductClass(space, v)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(product_class_pairs())
def test_product_evaluate_equals_double_sum(pair):
    u, v = pair
    space = u.space
    expected = sum(
        (-1) ** (b.degree * c.degree) * pair_monomials(space, a, c)
        * pair_monomials(space, b, e) * cu * cv
        for a, b, cu in u.terms for c, e, cv in v.terms)
    assert product_evaluate(u, v) == expected
