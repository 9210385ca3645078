import random
from fractions import Fraction

import pytest

from swtorsion.linalg import det_int
from swtorsion.reference import (RelPerm, VolumedComplex, apply, c_class,
                                 collapse_perm, complex_torsion, det_rational,
                                 enumerate_relative_perms, invert_rational,
                                 pairing, perm_parity,
                                 torsion_coefficient_direct)
from swtorsion.series import TruncSeries
from swtorsion import torsion
from swtorsion.torsion import morse_differential_matrix, torsion_representative
from conftest import make_presentation, presentation_sample


def two_term(det_entry, top_degree):
    """Complex 0 -> Q -> Q -> 0 with the nonzero map leaving level top_degree."""
    ranks = (1, 1) + (0,) * (top_degree - 1)
    diffs = (((Fraction(det_entry),),),) + ((),) * (top_degree - 1)
    return VolumedComplex(ranks, diffs)


def test_two_term_identity():
    C = VolumedComplex((1, 1), [((1,),)])
    assert complex_torsion(C) == 1


def test_two_term_doubling_map():
    C = VolumedComplex((1, 1), [((2,),)])
    assert complex_torsion(C) == Fraction(1, 2)


def test_two_term_placement_sign():
    # at top degree i the torsion is det^{(-1)^i}
    for i in (1, 2, 3):
        C = two_term(3, i)
        expected = Fraction(3) if i % 2 == 0 else Fraction(1, 3)
        assert complex_torsion(C) == expected


def test_non_acyclic_is_zero():
    assert complex_torsion(VolumedComplex((1, 1), [((0,),)])) == 0
    # homology in the middle and at the bottom
    C = VolumedComplex((1, 2, 1), [((1,), (0,)), ((0, 0),)])
    assert complex_torsion(C) == 0


def test_invalid_complex_rejected():
    with pytest.raises(ValueError):
        VolumedComplex((1, 1, 1), [((1,),), ((1,),)])


def _random_invertible(rng, n):
    while True:
        m = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                  for _ in range(n))
        if det_rational(m) != 0:
            return m


def _random_acyclic_three_term(rng, a, b):
    """0 -> Q^a -> Q^{a+b} -> Q^b -> 0, exact by construction."""
    U = _random_invertible(rng, a + b)
    d2 = tuple(tuple(row[:a]) for row in U)
    Uinv = invert_rational(U)
    W = _random_invertible(rng, b)
    lower = tuple(Uinv[a + i] for i in range(b))
    d1 = tuple(tuple(sum(W[i][k] * lower[k][j] for k in range(b))
                     for j in range(a + b)) for i in range(b))
    return VolumedComplex((a, a + b, b), (d2, d1))


def test_torsion_independent_of_pivot_choices():
    rng = random.Random(71)
    for trial in range(6):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        C = _random_acyclic_three_term(rng, a, b)
        base = complex_torsion(C)
        assert base != 0
        for rerun in range(20):
            assert complex_torsion(C, random.Random(1000 * trial + rerun)) == base


def test_torsion_multiplicative_on_direct_sums():
    rng = random.Random(77)
    for _ in range(8):
        d1 = _random_invertible(rng, rng.randint(1, 3))
        d2 = _random_invertible(rng, rng.randint(1, 3))
        n1, n2 = len(d1), len(d2)
        block = tuple(
            tuple((d1[i][j] if i < n1 and j < n1 else
                   d2[i - n1][j - n1] if i >= n1 and j >= n1 else Fraction(0))
                  for j in range(n1 + n2)) for i in range(n1 + n2))
        t1 = complex_torsion(VolumedComplex((n1, n1), (d1,)))
        t2 = complex_torsion(VolumedComplex((n2, n2), (d2,)))
        tb = complex_torsion(VolumedComplex((n1 + n2, n1 + n2), (block,)))
        assert tb == t1 * t2


def test_four_term_acyclic():
    # 0 -> Q -> Q^2 -> Q^2 -> Q -> 0 built from two exact pieces
    d3 = ((Fraction(1),), (Fraction(2),))
    d2 = ((Fraction(-2), Fraction(1)), (Fraction(2), Fraction(-1)))
    d1 = ((Fraction(1), Fraction(1)),)
    C = VolumedComplex((1, 2, 2, 1), (d3, d2, d1))
    value = complex_torsion(C)
    assert value != 0
    for seed in range(10):
        assert complex_torsion(C, random.Random(seed)) == value


def test_morse_matrix_identity_monodromy():
    P = make_presentation(1, 2, 0, 0)
    M = morse_differential_matrix(P, 4)
    assert len(M.entries) == 2
    for i in range(2):
        for j in range(2):
            assert not M.entries[i][j]


def test_morse_matrix_empty():
    P = make_presentation(2, 0, 3, 5)
    assert morse_differential_matrix(P, 3).entries == ()


def test_morse_matrix_rotation_entry():
    from swtorsion import Presentation
    P = Presentation.from_matrix(0, 1, [[0, -1], [1, 0]])
    M = morse_differential_matrix(P, 3)
    assert M.entries[0][0][1] == -1
    assert M.entries[0][0][0] == 0


def test_morse_matrix_entries_are_the_pairings_of_the_iterates():
    # every handle count up to five twice, against reference.apply and
    # the CohClass pairing; even handle counts catch a sign error in J c_j
    # that the determinant would not show
    rng = random.Random(8128)
    for N in (0, 1, 2, 3, 4, 5) * 2:
        g = rng.randint(0, 6 - N)
        kmax = rng.randint(0, 30)
        P = make_presentation(g, N, rng.randint(0, 40), rng.randrange(10 ** 9))
        M = morse_differential_matrix(P, kmax)
        assert len(M.entries) == N
        assert all(len(row) == N and all(e.order == kmax for e in row)
                   for row in M.entries)
        A, cs = P.monodromy, [c_class(P.surface, i) for i in range(N)]
        for i in range(N):
            assert [M.entries[i][j][0] for j in range(N)] == [0] * N
            image = cs[i]
            for k in range(1, kmax + 1):
                image = apply(A, image)
                assert [M.entries[i][j][k] for j in range(N)] == [
                    pairing(image, cj) for cj in cs]


def test_morse_matrix_runs_no_matrix_product(monkeypatch):
    # the columns A^k c_i advance by matrix-vector products alone: no
    # product with A^T, no transpose and no J c_j; on the cases of the
    # pairing test above, every entry is still <A^k c_i, c_j>
    def forbidden(*args):
        raise AssertionError("the Morse matrix ran a matrix product")

    for name in ("mat_mul", "transpose"):
        monkeypatch.setattr(torsion, name, forbidden, raising=False)
    rng = random.Random(8128)
    for N in (0, 1, 2, 3, 4, 5) * 2:
        g = rng.randint(0, 6 - N)
        kmax = rng.randint(0, 30)
        P = make_presentation(g, N, rng.randint(0, 40), rng.randrange(10 ** 9))
        M = morse_differential_matrix(P, kmax)
        cs = [c_class(P.surface, i) for i in range(N)]
        for i in range(N):
            image = cs[i]
            for k in range(kmax + 1):
                assert [M.entries[i][j][k] for j in range(N)] == [
                    pairing(image, cj) for cj in cs]
                image = apply(P.monodromy, image)


def test_torsion_representative_edge_cases():
    P = make_presentation(1, 0, 4, 9)
    assert torsion_representative(P, 3) == TruncSeries(3, (1,))
    P = make_presentation(1, 1, 0, 0)
    assert not torsion_representative(P, 4)


def test_torsion_coefficient_direct_edges():
    P0 = make_presentation(2, 0, 5, 3)
    assert torsion_coefficient_direct(P0, 0) == 1
    assert torsion_coefficient_direct(P0, 3) == 0
    P2 = make_presentation(0, 2, 6, 4)
    assert torsion_coefficient_direct(P2, 0) == 0
    assert torsion_coefficient_direct(P2, 1) == 0  # below the handle count


def test_torsion_cross_path():
    for P in presentation_sample(12, seed=2024):
        rep = torsion_representative(P, 6)
        for k in range(7):
            assert torsion_coefficient_direct(P, k) == rep[k]
    for g, N, seed in ((0, 4, 11), (1, 4, 12), (0, 5, 13)):
        P = make_presentation(g, N, 40, seed)
        rep = torsion_representative(P, N + 3)
        assert any(rep.coeffs)
        for k in range(N + 4):
            assert torsion_coefficient_direct(P, k) == rep[k]


def test_torsion_leading_coefficient_at_nine_handles():
    # entry (i, j) of the Morse matrix starts <A c_i, c_j> t, so the
    # determinant starts at t^N with the determinant of those pairings
    N = 9
    P = make_presentation(1, N, 60, 7)
    rep = torsion_representative(P, 12)
    assert all(rep[k] == 0 for k in range(N))
    A, cs = P.monodromy, [c_class(P.surface, i) for i in range(N)]
    lead = det_int(tuple(tuple(pairing(apply(A, ci), cj) for cj in cs)
                         for ci in cs))
    assert lead != 0 and rep[N] == lead


def test_enumerate_relative_perms_counts():
    # s = N: the orbit condition is vacuous
    for s in range(4):
        assert len(enumerate_relative_perms(s, s)) == [1, 1, 2, 6][s]
    out = enumerate_relative_perms(2, 1)
    assert [r.perm for r in out] == [(1, 0)]
    out = enumerate_relative_perms(3, 1)
    assert sorted(r.perm for r in out) == [(1, 2, 0), (2, 0, 1)]
    with pytest.raises(ValueError):
        enumerate_relative_perms(2, 3)


def test_relperm_rejects_bad_orbit():
    with pytest.raises(ValueError):
        RelPerm(2, 1, (0, 1))


def test_collapse_perm():
    r = RelPerm(3, 3, (0, 1, 2))
    tilde, times = collapse_perm(r)
    assert tilde == (0, 1, 2) and times == [1, 1, 1]
    r = RelPerm(2, 1, (1, 0))
    tilde, times = collapse_perm(r)
    assert tilde == (0,) and times == [2]


def test_sign_lemma_exhaustive_small():
    # parity(rho) = parity(collapsed) + (s - N) mod 2, exhaustively
    for s in range(0, 6):
        for N in range(0, s + 1):
            for rho in enumerate_relative_perms(s, N):
                tilde, times = collapse_perm(rho)
                assert sum(times) == s or N == 0
                assert rho.parity == (perm_parity(tilde) + s - N) % 2
