import random
import sys
from fractions import Fraction

import pytest

from swtorsion.intersection import intersection_number
from swtorsion.linalg import det_int, identity_matrix, mat_mul, signed_pencil
from swtorsion.reference import (Monomial, SymClass, ascend_map, descend_map,
                                 enumerate_basis, graded_trace,
                                 induced_endomorphism, intersection_matrix,
                                 inverse, kappa_matrix, submatrix)
from swtorsion.series import TruncSeries
from swtorsion.surface import MappingClass, SurfaceModel
from swtorsion.sympower import SymSpace
import swtorsion
from swtorsion import linalg, torsion, tqft
from swtorsion.torsion import (morse_differential_matrix, morse_torsion,
                               torsion_representative)
from swtorsion.tqft import (Presentation, compute_b1, rhs_series, sw_table,
                            trace_kappa_coefficient, trace_kappa_series,
                            verify_main_identity, zeta_series)
from swtorsion.cli import generate_fixture
from conftest import (block_b1, make_presentation, presentation_sample,
                      rational_exp, stabilize)
from test_catalogue import CONNECTED_SUMS

ROT = [[0, -1], [1, 0]]  # c -> d, d -> -c on the one-handle sphere


def test_presentation_requires_split_surface():
    A = MappingClass(SurfaceModel(2), identity_matrix(4))
    with pytest.raises(ValueError):
        Presentation(1, 1, A)


def test_presentation_accepts_unsplit_surface_without_handles():
    A = MappingClass(SurfaceModel(1), [[2, 1], [1, 1]])
    P = Presentation(1, 0, A)
    assert P.surface == SurfaceModel(1, (0, 1))
    assert trace_kappa_series(P, 3) == zeta_series(P, 3).coeffs


def _monomial_class(space, idx, q=0, coeff=1):
    return SymClass(space, {Monomial(tuple(idx), q): coeff})


def test_descend_consumes_handle_duals():
    # d_0 ^ .. ^ d_{N-1} ^ x_I y^q descends to + x_I y^q
    for N in (1, 2):
        P = make_presentation(1, N, 0, 0)
        big = SymSpace(P.surface, 1 + N)
        d_then_x = tuple(range(N, 2 * N)) + (2 * N,)
        alpha = _monomial_class(big, d_then_x, q=0)
        out = descend_map(P, 1, alpha)
        small = SymSpace(SurfaceModel(P.genus), 1)
        assert out == _monomial_class(small, (0,))


def test_descend_kills_pure_x_classes():
    P = make_presentation(1, 1, 0, 0)
    big = SymSpace(P.surface, 2)
    assert descend_map(P, 1, _monomial_class(big, (2, 3))).is_zero()


def test_descend_ascend_without_handles_is_identity():
    P = make_presentation(2, 0, 5, 11)
    n = 2
    big = SymSpace(P.surface, n)
    small = SymSpace(SurfaceModel(P.genus), n)
    for m in enumerate_basis(big):
        down = descend_map(P, n, SymClass(big, {m: 1}))
        assert down == SymClass(small, {m: 1})
        assert ascend_map(P, n, down) == SymClass(big, {m: 1})


def test_ascend_of_one_is_handle_wedge():
    P = make_presentation(0, 2, 0, 0)
    small = SymSpace(SurfaceModel(P.genus), 0)
    out = ascend_map(P, 0, _monomial_class(small, ()))
    assert out == _monomial_class(SymSpace(P.surface, 2), (0, 1))


def test_descend_after_ascend_vanishes_with_handles():
    # the handle classes are isotropic, so contracting the c-wedge gives zero
    for N in (1, 2):
        P = make_presentation(1, N, 0, 0)
        small = SymSpace(SurfaceModel(P.genus), 1)
        for m in enumerate_basis(small):
            up = ascend_map(P, 1, SymClass(small, {m: 1}))
            assert descend_map(P, 1, up).is_zero()


def test_ascend_after_descend_on_handle_monomials():
    P = make_presentation(1, 1, 0, 0)
    big = SymSpace(P.surface, 2)
    alpha = _monomial_class(big, (1, 2))  # d ^ x_0
    out = ascend_map(P, 1, descend_map(P, 1, alpha))
    assert out == _monomial_class(big, (0, 2))  # c ^ x_0


def test_kappa_equals_induced_without_handles():
    P = make_presentation(1, 0, 6, 3)
    for n in (0, 1, 2):
        kap = kappa_matrix(P, n)
        ind = induced_endomorphism(P.monodromy, n)
        assert kap.columns == ind.columns


def test_kappa_trace_zero_for_identity_monodromy():
    for N in (1, 2):
        P = make_presentation(1, N, 0, 0)
        for n in (0, 1):
            assert graded_trace(kappa_matrix(P, n)) == 0
            assert trace_kappa_coefficient(P, n) == 0


def test_trace_paths_agree():
    cases = [(presentation_sample(12, seed=5150), 2),
             ([make_presentation(g, N, 16, 100 * g + N)
               for g in range(4) for N in range(3)], 4)]
    for sample, nmax in cases:
        for P in sample:
            series = trace_kappa_series(P, nmax)
            for n in range(nmax + 1):
                assert (graded_trace(kappa_matrix(P, n))
                        == trace_kappa_coefficient(P, n) == series[n])


def test_trace_series_is_zeta_at_large_genus():
    # N = 0: the trace series is the zeta function, here by its definition,
    # exp of sum (2 - tr A^k) t^k / k, which never forms a minor
    P = make_presentation(12, 0, 120, 12)
    nmax = 30
    A = P.monodromy.mat
    power = A
    log_terms = [0]
    for k in range(1, nmax + 1):
        trace = sum(power[i][i] for i in range(len(A)))
        log_terms.append(Fraction(2 - trace, k))
        power = mat_mul(power, A)
    assert trace_kappa_series(P, nmax) == rational_exp(log_terms)


def test_trace_series_matches_torsion_times_zeta():
    P = make_presentation(5, 1, 20, 51)
    assert trace_kappa_series(P, 5) == rhs_series(P, 5).coeffs


def test_trace_reduces_to_lefschetz_without_handles():
    for seed in range(5):
        for g in (1, 2):
            P = make_presentation(g, 0, 7, seed)
            A = P.monodromy
            for n in range(5):
                assert trace_kappa_coefficient(P, n) == graded_trace(
                    induced_endomorphism(A, n))


def test_trace_point_count_genus_zero():
    P = make_presentation(0, 0, 0, 0)
    for n in range(5):
        assert trace_kappa_coefficient(P, n) == n + 1


def test_zeta_examples():
    P = make_presentation(1, 0, 0, 0)
    assert zeta_series(P, 3) == TruncSeries(3, (1,))
    P0 = make_presentation(0, 0, 0, 0)
    assert zeta_series(P0, 4) == TruncSeries(4, [1, 2, 3, 4, 5])
    A = MappingClass(SurfaceModel(1), [[2, 1], [1, 1]])
    assert zeta_series(Presentation(1, 0, A), 3) == \
        TruncSeries(3, [1, -1, -2, -3])


def test_a_wrong_berkowitz_pass_shows_in_verify_not_in_zeta(monkeypatch):
    # zeta prints the kernel and runs no second route; verify's rhs reads
    # det(1 - tA) from the Berkowitz pass, so at N = 0 verify is the check
    # of what zeta prints, and a wrong pass mismatches from row 2 on
    P = make_presentation(2, 0, 12, 5)
    honest = tqft._trace_series

    def off_by_one(A, nmax):
        coeffs = list(honest(A, nmax))
        coeffs[2] += 1
        return tuple(coeffs)

    zeta = zeta_series(P, 4)
    assert verify_main_identity(P, 4).passed
    monkeypatch.setattr(tqft, "_trace_series", off_by_one)
    assert zeta_series(P, 4) == zeta
    report = verify_main_identity(P, 4)
    assert not report.passed
    assert [r.match for r in report.rows] == [True, True, False, True, True]


def test_zeta_and_pencil_cost_guard(monkeypatch):
    # a palindromic pencil of degree 2w takes w + 1 determinants; the
    # kernel at N = 0 forms T^2 .. T^ceil(w/2) of T = A, w = min(kmax, G),
    # and zeta runs nothing else: no determinant, no Bareiss pencil and no
    # Berkowitz pass; verify reads det(1 - tA) from one Berkowitz pass
    calls = {"det_int": 0, "kernel_mul": 0, "berkowitz": 0,
             "signed_pencil": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(linalg, "det_int", counting("det_int", linalg.det_int))
    for g, N in ((3, 2), (0, 3), (4, 0)):
        calls["det_int"] = 0
        signed_pencil(make_presentation(g, N, 30, 2).monodromy.mat, N)
        assert calls["det_int"] == g + 1
    calls["det_int"] = 0
    signed_pencil(make_presentation(2, 3, 30, 2).monodromy.mat, 0)
    assert calls["det_int"] == 6
    monkeypatch.setattr(linalg, "mat_mul",
                        counting("kernel_mul", linalg.mat_mul))
    monkeypatch.setattr(linalg, "signed_pencil",
                        counting("signed_pencil", linalg.signed_pencil))
    monkeypatch.setattr(tqft, "det_one_minus_t",
                        counting("berkowitz", tqft.det_one_minus_t))
    for g, N, kmax in ((0, 4, 40), (6, 0, 40), (5, 0, 3), (2, 0, 0)):
        G = g + N
        calls.update(det_int=0, kernel_mul=0, berkowitz=0, signed_pencil=0)
        zeta_series(make_presentation(g, N, 40, 1), kmax)
        assert calls["kernel_mul"] <= max(-(-min(kmax, G) // 2) - 1, 0)
        assert calls["det_int"] == calls["signed_pencil"] == 0
        assert calls["berkowitz"] == 0
    for g, N, nmax in ((2, 1, 3), (0, 3, 4), (3, 0, 8)):
        calls["berkowitz"] = 0
        assert verify_main_identity(make_presentation(g, N, 20, 3), nmax).passed
        assert calls["berkowitz"] == 1


def test_verify_reads_the_diagonal_from_g_plus_one_determinants(monkeypatch):
    # the diagonal column is the Bareiss pencil, g + 1 determinants whatever
    # nmax; where det A[D, C] != 0 the lhs runs no determinant, and where it
    # vanishes the kernel's fallback is the same g + 1 again; the rhs runs
    # none.  A sum over the subsets of the core classes would take 4,096
    # determinants at (6, 1, 12)
    def delta(P):
        N = P.handles
        return det_int(submatrix(P.monodromy.mat, range(N, 2 * N), range(N)))

    calls = []
    honest = linalg.det_int

    def counting(m):
        calls.append(1)
        return honest(m)

    def count(P, nmax):
        calls.clear()
        assert verify_main_identity(P, nmax).passed
        return len(calls)

    nonsingular = [(make_presentation(g, N, words, 4), nmax)
                   for g, N, words, nmax in (
                       (2, 1, 20, 3), (1, 2, 20, 4), (3, 0, 20, 2),
                       (0, 2, 20, 3), (6, 1, 56, 12))]
    singular = make_presentation(2, 1, 2, 1)
    assert all(delta(P) for P, _ in nonsingular) and delta(singular) == 0
    monkeypatch.setattr(linalg, "det_int", counting)
    for P, nmax in nonsingular:
        assert count(P, nmax) == P.genus + 1
    assert count(singular, 3) == 2 * (singular.genus + 1)


def test_every_series_route_yields_ints():
    # every series of the library is integral, and carries plain ints
    def ints(coeffs):
        return all(type(c) is int for c in coeffs)

    for P in presentation_sample(8, seed=1414):
        M = morse_differential_matrix(P, 6)
        assert all(ints(e.coeffs) for row in M.entries for e in row)
        for series in (zeta_series(P, 6), torsion_representative(P, 6),
                       morse_torsion(P, 6), rhs_series(P, 6)):
            assert ints(series.coeffs)
        assert ints(signed_pencil(P.monodromy.mat, 0))


def test_rhs_series_edges():
    P = make_presentation(2, 0, 6, 8)
    assert rhs_series(P, 3) == zeta_series(P, 3)
    P = make_presentation(1, 1, 0, 0)
    assert rhs_series(P, 3) == TruncSeries(3)
    for P in presentation_sample(6, seed=31337):
        assert all(type(c) is int for c in rhs_series(P, 3).coeffs)


def test_verify_t3():
    P = Presentation.from_matrix(1, 0, identity_matrix(2), "T3")
    report = verify_main_identity(P, 3)
    assert report.passed
    assert [(r.n, r.lhs, r.rhs) for r in report.rows] == [
        (0, 1, 1), (1, 0, 0), (2, 0, 0), (3, 0, 0)]


def test_verify_one_handle_sphere():
    rng = random.Random(404)
    for _ in range(5):
        P = make_presentation(0, 1, rng.randint(0, 8), rng.randint(0, 10 ** 6))
        assert verify_main_identity(P, 3).passed


def test_verify_identity_monodromy_rows_vanish():
    for N in (1, 2):
        P = make_presentation(1, N, 0, 0)
        report = verify_main_identity(P, 2)
        assert report.passed
        assert all(r.lhs == r.rhs == 0 for r in report.rows)


def test_verify_hand_checked_rotation():
    P = Presentation.from_matrix(0, 1, ROT)
    report = verify_main_identity(P, 3)
    assert report.passed
    assert [r.lhs for r in report.rows] == [-1, -2, -3, -4]


def test_verify_reads_the_diagonal_without_the_matrix(without_reference):
    # kappa_matrix, descend_map, ascend_map and the Lambda(A) expansion
    # live in swtorsion.reference, which cannot be imported here
    for g, N in ((1, 1), (1, 2), (0, 3)):
        assert verify_main_identity(make_presentation(g, N, 14, 9), 3).passed


def test_trace_identity_runs_the_morse_determinant(monkeypatch):
    # the pencil torsion shares newton_pencil with the trace pencil, so the
    # right-hand side must come from the Morse matrix to stay independent;
    # and it reads none of the lhs routes: the kernel, its Bareiss fallback
    # (the diagonal column) and the reference minor sums raise while it runs
    def forbidden(*args):
        raise AssertionError("the trace identity read the pencil torsion")

    for module in (swtorsion, torsion, tqft):
        if hasattr(module, "torsion_representative"):
            monkeypatch.setattr(module, "torsion_representative", forbidden)
    orders = []
    honest = torsion.morse_differential_matrix

    def counted(P, kmax):
        orders.append(kmax)
        return honest(P, kmax)

    monkeypatch.setattr(torsion, "morse_differential_matrix", counted)
    cases = [make_presentation(g, N, 14, 9)
             for g, N in ((1, 1), (1, 2), (0, 3), (2, 0))]
    expected = []
    for P in cases:
        assert verify_main_identity(P, 3).passed
        expected.append(rhs_series(P, 3))
        assert expected[-1].coeffs == trace_kappa_series(P, 3)
        assert orders == [3 + P.handles] * 2
        orders.clear()

    def lhs_only(*args):
        raise AssertionError("the rhs read a route of the lhs")

    modules = [m for name, m in sys.modules.items()
               if name == "swtorsion" or name.startswith("swtorsion.")]
    for module in modules:
        for name in ("newton_pencil", "signed_pencil", "det_int",
                     "_minor_sums"):
            if name in vars(module):
                monkeypatch.setattr(module, name, lhs_only)
    assert [rhs_series(P, 3) for P in cases] == expected


def test_ascend_after_descend_is_the_handle_wedge_permutation():
    # the closed form kappa_trace reads: d_0..d_{N-1} x_K y^q -> +c_0..c_{N-1}
    # x_K y^q for K in the core classes, and every other monomial -> 0
    for G in range(5):
        for N in range(G + 1):
            P = make_presentation(G - N, N, 0, 0)
            C, D = tuple(range(N)), tuple(range(N, 2 * N))
            for n in range(4):
                big = SymSpace(P.surface, n + N)
                for m in enumerate_basis(big):
                    out = ascend_map(P, n, descend_map(
                        P, n, SymClass(big, {m: 1})))
                    K = m.indices[N:]
                    if m.indices[:N] == D and all(i >= 2 * N for i in K):
                        assert out == _monomial_class(big, C + K, m.q)
                    else:
                        assert out.is_zero()


@pytest.mark.parametrize("g, N", [(4, 2), (3, 4)])
def test_verify_at_core_genus_four_with_two_handles(g, N):
    assert verify_main_identity(make_presentation(g, N, 40, 1), 3).passed


def test_b1_examples():
    assert compute_b1(Presentation.from_matrix(1, 0, identity_matrix(2))) == 3
    assert compute_b1(Presentation.from_matrix(1, 0, [[2, 1], [1, 1]])) == 1
    assert compute_b1(Presentation.from_matrix(0, 0, [])) == 1
    assert compute_b1(Presentation.from_matrix(0, 1, ROT)) == 1


@pytest.mark.xfail(strict=True, reason=(
    "compute_b1 undercounts (ROADMAP item 9): c -> -c, d -> 3c - d attaches "
    "the 2-handle along the belt circle of the 1-handle, so M is "
    "(S^2 x S^1) # (S^2 x S^1) with b1 = 2 and B = (1 - A)[D, C] = 0, but "
    "the rank compute_b1 takes reads (A - 1)[d][d] = -2 and it returns 1; "
    "it reads b1(P) for the catalogue's connected sums P # S^2 x S^1 with "
    "s = -1"))
def test_b1_of_two_sphere_cross_circles():
    P = Presentation.from_matrix(0, 1, [[-1, 3], [0, -1]])
    assert trace_kappa_series(P, 6) == (0,) * 7
    cases = [(P, 2)] + [(Q, b1) for _, Q, _, b1 in CONNECTED_SUMS]
    assert [compute_b1(Q) for Q, _ in cases] == [b1 for _, b1 in cases]


def test_compute_b1_never_inverts_the_monodromy(without_reference):
    # rank(Q (1 - A^-1)) is read as rank(Q (A - 1)); the inverse of a
    # mapping class, reference.inverse, cannot be imported here
    assert [compute_b1(P) for P in presentation_sample(8, seed=5)] == [
        4, 1, 1, 1, 2, 1, 1, 1]


def test_sw_reads_b1_off_its_pencil(monkeypatch):
    # compute_b1 runs exactly when nmax < g or p~(1) = 0: on the identity
    # monodromy, on c -> -c, d -> 3c - d (ROADMAP item 9), where both give
    # p~(1) = 0, and below the core genus; elsewhere the pencil sw reads
    # shows det B = p~(1) != 0, so b1 = 1
    called = []
    honest = tqft.compute_b1
    monkeypatch.setattr(tqft, "compute_b1",
                        lambda P: called.append(P) or honest(P))
    cases = [Presentation.from_matrix(2, 0, identity_matrix(4)),
             Presentation.from_matrix(0, 1, [[-1, 3], [0, -1]]),
             generate_fixture(2, 1, 24, 1), generate_fixture(3, 0, 24, 1),
             generate_fixture(1, 2, 24, 1), generate_fixture(2, 1, 2, 1)]
    skipped = []
    for P in cases:
        at_one = sum(signed_pencil(P.monodromy.mat, P.handles))
        for nmax in range(2 * P.genus + 3):
            del called[:]
            assert sw_table(P, nmax).b1 == honest(P)
            if not called:
                skipped.append((P.genus, P.handles, nmax))
            assert called == ([] if nmax >= P.genus and at_one else [P])
    assert skipped == [(2, 1, n) for n in range(2, 7)] + [
        (3, 0, n) for n in range(3, 9)] + [(1, 2, n) for n in range(1, 5)]


def test_sw_table_degree_maps():
    # b1 > 1 at slice genus 2: n = 0 pairs with |m| = 2, n = 1 with 0
    P = Presentation.from_matrix(2, 0, identity_matrix(4))
    table = sw_table(P, 1)
    assert table.b1 == 5 and table.mode == "b1>1"
    assert [(r.n, r.m) for r in table.rows] == [(0, 2), (1, 0)]
    # b1 = 1 at slice genus 1: n = 0 at m = 0, n = 1 at m = 2
    P = Presentation.from_matrix(0, 1, ROT)
    table = sw_table(P, 1)
    assert table.b1 == 1 and table.mode == "b1=1"
    assert [(r.n, r.m) for r in table.rows] == [(0, 0), (1, 2)]
    assert all(r.m % 2 == 0 for r in table.rows)


@pytest.mark.xfail(strict=True, reason=(
    "the sw degree label reads the genus g + N of the splitting surface "
    "(ROADMAP item 1), so it moves by 2 per stabilization: on "
    "generate_fixture(2, 0, 40, 1) the value at n = 2 is labelled m = 2, 0 "
    "and -2 at N = 0, 1 and 2"))
def test_sw_labels_do_not_move_under_stabilization():
    # S_+ negates every value and S_- keeps it; the label of each value
    # should stay where it is
    P = generate_fixture(2, 0, 40, 1)
    tables = [sw_table(P, 4)]
    for eps in (1, -1):
        P = stabilize(P, eps)
        tables.append(sw_table(P, 4))
    values = [[r.value for r in t.rows] for t in tables]
    assert values[1] == values[2] == [-x for x in values[0]]
    assert [t.mode for t in tables] == ["b1=1"] * 3
    labels = [[r.m for r in t.rows] for t in tables]
    assert labels[1] == labels[2] == labels[0]


def test_sw_table_product_of_sphere_and_circle():
    P = Presentation.from_matrix(0, 0, [], "S2xS1")
    table = sw_table(P, 3)
    assert table.b1 == 1
    assert [(r.n, r.m, r.value) for r in table.rows] == [
        (0, 2, 1), (1, 4, 2), (2, 6, 3), (3, 8, 4)]


def _conjugator(P, seed):
    """Symplectic S preserving the c span and the x span setwise."""
    surface = P.surface
    N, g = P.handles, P.genus
    rng = random.Random(seed)
    n2 = surface.rank
    mat = identity_matrix(n2)
    vecs = []
    for i in range(N):
        v = [0] * n2
        v[i] = 1
        vecs.append(tuple(v))
    for i in range(N):
        for j in range(i + 1, N):
            v = [0] * n2
            v[i] = v[j] = 1
            vecs.append(tuple(v))
    for a in range(2 * g):
        v = [0] * n2
        v[2 * N + a] = 1
        vecs.append(tuple(v))
    for a in range(2 * g):
        for b in range(a + 1, 2 * g):
            v = [0] * n2
            v[2 * N + a] = v[2 * N + b] = 1
            vecs.append(tuple(v))
    if not vecs:
        return MappingClass(surface, identity_matrix(n2))
    J = intersection_matrix(surface)
    for _ in range(6):
        v = rng.choice(vecs)
        cols = []
        for k in range(n2):
            pair = sum(J[k][j] * v[j] for j in range(n2))
            cols.append(tuple((1 if i == k else 0) + pair * v[i] for i in range(n2)))
        mat = mat_mul(mat, tuple(zip(*cols)))
    return MappingClass(surface, mat)


def test_trace_conjugation_invariance():
    # a conjugate monodromy presents the same manifold with the same N: the
    # trace, b_1 (the rank-B formula and compute_b1, whose defect shows only
    # when N changes), the sw rows and intersect agree through n = 2g
    for P in presentation_sample(8, seed=9090):
        S = _conjugator(P, 555)
        conj = mat_mul(mat_mul(S.mat, P.monodromy.mat), inverse(S).mat)
        Q = Presentation.from_matrix(P.genus, P.handles, conj)
        nmax = max(2 * P.genus, 2)
        assert trace_kappa_series(P, nmax) == trace_kappa_series(Q, nmax)
        assert block_b1(P) == block_b1(Q) and compute_b1(P) == compute_b1(Q)
        assert sw_table(P, nmax).rows == sw_table(Q, nmax).rows
        assert [intersection_number(P, n) for n in range(nmax + 1)] == [
            intersection_number(Q, n) for n in range(nmax + 1)]
