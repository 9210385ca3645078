import hashlib
import math
import random

import pytest

from swtorsion import linalg, surface
from swtorsion.linalg import det_int, identity_matrix, mat_mul, signed_pencil
from swtorsion.reference import (CohClass, _minor_sums, apply, basis_class,
                                 c_class, d_class, intersection_matrix,
                                 inverse, pairing)
from swtorsion.surface import (MappingClass, SurfaceModel, is_symplectic,
                               random_symplectic)
from swtorsion.tqft import Presentation


def test_pairing_split_conventions():
    s = SurfaceModel(3, (2, 1))
    c0, c1 = c_class(s, 0), c_class(s, 1)
    d0 = d_class(s, 0)
    assert pairing(c0, d0) == 1
    assert pairing(d0, c0) == -1
    assert pairing(c0, c1) == 0
    x0 = basis_class(s, 4)
    x1 = basis_class(s, 5)  # partner of x0 at core genus 1
    assert pairing(x0, x1) == 1


def test_pairing_unsplit_convention():
    s = SurfaceModel(2)
    assert pairing(basis_class(s, 0), basis_class(s, 2)) == 1
    assert pairing(basis_class(s, 1), basis_class(s, 3)) == 1
    assert pairing(basis_class(s, 0), basis_class(s, 1)) == 0


# The form written out by hand: <c_i, d_i> = +1, <x_j, x_{g+j}> = +1.
J_SPLIT_2_1 = (
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (-1, 0, 0, 0, 0, 0),
    (0, -1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, -1, 0))
J_UNSPLIT_2 = (
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 0, 0),
    (0, -1, 0, 0))
REFERENCE_FORMS = ((SurfaceModel(3, (2, 1)), J_SPLIT_2_1),
                   (SurfaceModel(2), J_UNSPLIT_2),
                   (SurfaceModel(0), ()))


def test_intersection_matrix_matches_reference():
    for s, J in REFERENCE_FORMS:
        assert intersection_matrix(s) == J


def test_pairing_matches_reference_form():
    rng = random.Random(17)
    for s, J in REFERENCE_FORMS:
        for _ in range(10):
            u = [rng.randint(-3, 3) for _ in range(s.rank)]
            v = [rng.randint(-3, 3) for _ in range(s.rank)]
            expected = sum(u[i] * J[i][j] * v[j]
                           for i in range(s.rank) for j in range(s.rank))
            assert pairing(CohClass(s, u), CohClass(s, v)) == expected


def test_unsplit_surface_is_split_with_no_handles():
    assert SurfaceModel(2) == SurfaceModel(2, (0, 2))
    assert hash(SurfaceModel(2)) == hash(SurfaceModel(2, (0, 2)))
    assert SurfaceModel(2) != SurfaceModel(2, (1, 1))


def test_handle_classes_need_handles():
    for s in (SurfaceModel(2), SurfaceModel(0)):
        with pytest.raises(IndexError):
            c_class(s, 0)
        with pytest.raises(IndexError):
            d_class(s, 0)
    with pytest.raises(IndexError):
        c_class(SurfaceModel(3, (2, 1)), 2)


def test_pairing_antisymmetric_and_unimodular():
    rng = random.Random(3)
    for s in (SurfaceModel(2), SurfaceModel(3, (1, 2))):
        J = intersection_matrix(s)
        assert abs(det_int(J)) == 1
        for _ in range(10):
            u = CohClass(s, [rng.randint(-3, 3) for _ in range(s.rank)])
            v = CohClass(s, [rng.randint(-3, 3) for _ in range(s.rank)])
            assert pairing(u, v) == -pairing(v, u)


def test_is_symplectic_examples():
    T1 = SurfaceModel(1)
    assert is_symplectic(identity_matrix(2), T1)
    assert is_symplectic([[2, 1], [1, 1]], T1)
    assert not is_symplectic([[2, 0], [0, 1]], T1)
    for s in (T1, SurfaceModel(2)):
        with pytest.raises(ValueError):
            is_symplectic([[1, 0, 0], [0, 1, 0], [0, 0, 1]], s)


def test_mapping_class_rejects_non_symplectic():
    with pytest.raises(ValueError):
        MappingClass(SurfaceModel(1), [[2, 0], [0, 1]])


def test_pairing_invariance():
    rng = random.Random(5)
    for s in (SurfaceModel(1), SurfaceModel(2, (1, 1))):
        for seed in range(5):
            A = random_symplectic(s, 6, seed)
            for _ in range(5):
                u = CohClass(s, [rng.randint(-3, 3) for _ in range(s.rank)])
                v = CohClass(s, [rng.randint(-3, 3) for _ in range(s.rank)])
                assert pairing(apply(A, u), apply(A, v)) == pairing(u, v)


def test_exterior_power_trace_examples():
    # at N = 0 the minor sums are (-1)^j tr Lambda^j A
    A = MappingClass(SurfaceModel(1), [[2, 1], [1, 1]])
    assert _minor_sums(Presentation(1, 0, A), 2) == (1, -3, 1)
    I2 = MappingClass(SurfaceModel(2), identity_matrix(4))
    assert _minor_sums(Presentation(2, 0, I2), 4) == tuple(
        (-1) ** j * math.comb(4, j) for j in range(5))


def test_exterior_trace_top_is_det():
    for seed in range(5):
        for s in (SurfaceModel(1), SurfaceModel(2)):
            A = random_symplectic(s, 7, seed)
            # det of symplectic
            assert _minor_sums(Presentation(s.G, 0, A), s.rank)[-1] == 1


def test_char_series_examples():
    # det(1 - tA) is signed_pencil at N = 0
    s = SurfaceModel(1)
    for rows, coeffs in ((identity_matrix(2), (1, -2, 1)),
                         ([[1, 1], [0, 1]], (1, -2, 1)),
                         ([[2, 1], [1, 1]], (1, -3, 1))):
        assert signed_pencil(MappingClass(s, rows).mat, 0) == coeffs


def test_char_series_matches_alternating_minor_sum():
    # every coefficient of det(1 - tA) against the brute-force minor sums
    for G, seeds in ((2, range(6)), (6, range(2))):
        s = SurfaceModel(G)
        for seed in seeds:
            A = random_symplectic(s, 8 * G, seed)
            assert signed_pencil(A.mat, 0) == \
                _minor_sums(Presentation(G, 0, A), s.rank)


def test_random_symplectic_word_zero_is_identity():
    s = SurfaceModel(2)
    assert random_symplectic(s, 0, 99).mat == identity_matrix(4)


def test_random_symplectic_closure_and_determinism():
    for s in (SurfaceModel(0), SurfaceModel(1), SurfaceModel(3, (2, 1))):
        for seed in (0, 1, 17):
            A = random_symplectic(s, 8, seed)
            B = random_symplectic(s, 8, seed)
            assert A.mat == B.mat
            assert is_symplectic(A.mat, s)


# sha256 over repr(random_symplectic(SurfaceModel(G, (N, G - N)), words,
# seed).mat) for G <= 6, every split N, words 0, 1, 5, 36, 68 and seeds 0-2,
# recorded from the product of dense transvection matrices that the column
# updates replace: every fixture keeps its bytes.
FIXTURE_DIGEST = "48b32f8db66ca5c718df78d85be5ae49772eee82209d294475e0e47c4d1c461d"


def test_random_symplectic_matrices_are_pinned():
    digest = hashlib.sha256()
    for G in range(7):
        for N in range(G + 1):
            for words in (0, 1, 5, 36, 68):
                for seed in range(3):
                    A = random_symplectic(SurfaceModel(G, (N, G - N)), words,
                                          seed)
                    digest.update(repr(A.mat).encode())
    assert digest.hexdigest() == FIXTURE_DIGEST


def test_random_symplectic_forms_no_matrix_product(monkeypatch):
    # each transvection is a column update, not a product with its matrix
    def forbidden(a, b):
        raise AssertionError("random_symplectic multiplied two matrices")

    assert not hasattr(surface, "mat_mul")
    monkeypatch.setattr(linalg, "mat_mul", forbidden)
    for s in (SurfaceModel(2), SurfaceModel(3, (2, 1))):
        assert is_symplectic(random_symplectic(s, 12, 4).mat, s)


def test_inverse_and_compose():
    for s in (SurfaceModel(2, (1, 1)), SurfaceModel(2), SurfaceModel(3, (2, 1))):
        for seed in range(4):
            A = random_symplectic(s, 6, seed)
            assert mat_mul(A.mat, inverse(A).mat) == identity_matrix(s.rank)
            assert mat_mul(inverse(A).mat, A.mat) == identity_matrix(s.rank)


def test_genus_zero_surface():
    s = SurfaceModel(0)
    A = MappingClass(s, identity_matrix(s.rank))
    assert A.mat == ()
    assert _minor_sums(Presentation(0, 0, A), 0) == (1,)
    assert signed_pencil(A.mat, 0) == (1,)
