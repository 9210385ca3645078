import importlib
import pkgutil
import random

import pytest

import swtorsion
from swtorsion.linalg import det_int, identity_matrix, mat_mul, signed_pencil
from swtorsion.reference import (Monomial, SymClass, _minor_sums,
                                 apply_induced, basis_class, c_class,
                                 contract_class, dual_basis, duality_pair,
                                 enumerate_basis, graded_trace, gram_matrix,
                                 induced_endomorphism, pair_monomials,
                                 top_evaluate, wedge_class)
from swtorsion.series import TruncSeries
from swtorsion.surface import MappingClass, SurfaceModel, random_symplectic
from swtorsion.sympower import SymSpace, handle_duality
from swtorsion.tqft import Presentation

T1 = SurfaceModel(1)
SPLIT2 = SurfaceModel(2, (1, 1))


def mono(idx, q=0):
    return Monomial(tuple(idx), q)


def cls(space, idx, q=0, coeff=1):
    return SymClass(space, {mono(idx, q): coeff})



def wedge_monomials(space, a, b):
    """Test oracle: exterior product of two monomials, q's added."""
    if set(a.indices) & set(b.indices):
        return None
    inv = sum(1 for i in a.indices for j in b.indices if j < i)
    sign = -1 if inv & 1 else 1
    return sign, Monomial(tuple(sorted(a.indices + b.indices)), a.q + b.q)


def test_enumerate_basis_genus_zero():
    space = SymSpace(SurfaceModel(0), 2)
    assert enumerate_basis(space) == (mono((), 0), mono((), 1), mono((), 2))
    assert space.dim == 3


def test_enumerate_basis_torus():
    space = SymSpace(T1, 1)
    assert enumerate_basis(space) == (
        mono(()), mono((), 1), mono((0,)), mono((1,)))
    assert space.dim == 4
    # a monomial is its (indices, q) key, and only a valid one is built
    assert Monomial((0, 2), 1) == ((0, 2), 1)
    assert hash(Monomial((0, 2), 1)) == hash(((0, 2), 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        Monomial((2, 1), 0)
    with pytest.raises(ValueError, match="nonnegative"):
        Monomial((), -1)


def test_dimension_and_betti_profile():
    space = SymSpace(T1, 2)
    basis = enumerate_basis(space)
    assert space.dim == len(basis) == 8
    profile = [0] * 5
    for m in basis:
        profile[m.degree] += 1
    assert profile == [1, 2, 2, 2, 1]


def test_wedge_prepends_with_sign():
    space = SymSpace(SPLIT2, 1)
    c0 = c_class(SPLIT2, 0)
    out = wedge_class(c0, cls(space, [2], 0))  # index 2 is an x class
    assert out == cls(SymSpace(SPLIT2, 2), [0, 2])
    # repeated factor dies
    assert wedge_class(c0, cls(space, [0])).is_zero()
    # one transposition: c_1 ^ c_0 = -(c_0 ^ c_1), on a two-handle surface
    two = SurfaceModel(2, (2, 0))
    out = wedge_class(c_class(two, 1), cls(SymSpace(two, 1), [0]))
    assert out == cls(SymSpace(two, 2), [0, 1], coeff=-1)


def test_contract_examples():
    space = SymSpace(SPLIT2, 1)
    c0 = c_class(SPLIT2, 0)
    # iota_c(d) = <c, d> = 1
    out = contract_class(c0, cls(space, [1]))
    assert out == cls(SymSpace(SPLIT2, 0), [])
    # x classes pair to zero with c
    assert contract_class(c0, cls(SymSpace(SPLIT2, 2), [2, 3])).is_zero()
    # antiderivation through a repeated-pairing factor: iota_c(c ^ d) = -c
    out = contract_class(c0, cls(SymSpace(SPLIT2, 2), [0, 1]))
    assert out == cls(space, [0], coeff=-1)
    # contracting scalars gives zero
    assert contract_class(c0, cls(SymSpace(SPLIT2, 0), [])).is_zero()


def test_contract_is_antiderivation():
    rng = random.Random(23)
    surface = SPLIT2
    for _ in range(40):
        idx = list(range(4))
        rng.shuffle(idx)
        ka = rng.randint(0, 2)
        a = mono(sorted(idx[:ka]), rng.randint(0, 1))
        kb = rng.randint(0, 4 - ka)
        b = mono(sorted(idx[ka:ka + kb]), rng.randint(0, 1))
        n = ka + kb + a.q + b.q
        space = SymSpace(surface, n)
        w = wedge_monomials(space, a, b)
        sign, ab = w
        c = basis_class(surface, rng.randint(0, 3))
        lhs = contract_class(c, SymClass(space, {ab: sign}))
        # iota(a)^b + (-1)^{deg a} a^iota(b), assembled monomial by monomial
        target = SymSpace(surface, n - 1) if n else SymSpace(surface, 0)
        rhs = SymClass(target)
        ia = contract_class(c, SymClass(SymSpace(surface, ka + a.q), {a: 1}))
        for m, co in ia.terms.items():
            w2 = wedge_monomials(target, m, b)
            if w2:
                s2, m2 = w2
                rhs = rhs + SymClass(target, {m2: co * s2})
        ib = contract_class(c, SymClass(SymSpace(surface, kb + b.q), {b: 1}))
        sa = -1 if len(a.indices) & 1 else 1
        for m, co in ib.terms.items():
            w2 = wedge_monomials(target, a, m)
            if w2:
                s2, m2 = w2
                rhs = rhs + SymClass(target, {m2: co * s2 * sa})
        assert lhs == rhs


def test_contractions_square_to_zero_and_anticommute():
    surface = SPLIT2
    space = SymSpace(surface, 3)
    basis = enumerate_basis(space)
    for i in range(4):
        ci = basis_class(surface, i)
        for j in range(4):
            cj = basis_class(surface, j)
            for m in basis:
                alpha = SymClass(space, {m: 1})
                once = contract_class(ci, contract_class(cj, alpha))
                if i == j:
                    assert once.is_zero()
                other = contract_class(cj, contract_class(ci, alpha))
                assert once == other.scale(-1) or (once.is_zero() and other.is_zero())


def test_induced_identity_and_y_fixed():
    A = MappingClass(T1, identity_matrix(2))
    endo = induced_endomorphism(A, 2)
    for m, col in zip(enumerate_basis(endo.space), endo.columns):
        assert col == SymClass(endo.space, {m: 1})


def test_induced_top_wedge_is_determinant():
    A = MappingClass(T1, [[1, 1], [0, 1]])
    space = SymSpace(T1, 2)
    out = apply_induced(A, cls(space, [0, 1]))
    assert out == cls(space, [0, 1])


def test_induced_functoriality():
    rng = random.Random(31)
    for seed in range(4):
        A = random_symplectic(SPLIT2, 5, seed)
        B = random_symplectic(SPLIT2, 5, seed + 50)
        AB = MappingClass(SPLIT2, mat_mul(A.mat, B.mat))
        space = SymSpace(SPLIT2, rng.randint(0, 2))
        for m in enumerate_basis(space):
            x = SymClass(space, {m: 1})
            assert apply_induced(AB, x) == apply_induced(A, apply_induced(B, x))


def test_graded_trace_examples():
    space = SymSpace(T1, 2)
    zero = induced_endomorphism(MappingClass(T1, identity_matrix(2)), 2)
    zero = type(zero)(space, tuple(SymClass(space) for _ in zero.columns))
    assert graded_trace(zero) == 0
    assert graded_trace(induced_endomorphism(
        MappingClass(T1, identity_matrix(2)), 2)) == 0
    assert graded_trace(induced_endomorphism(
        MappingClass(SurfaceModel(2), identity_matrix(4)), 2)) == 1


def test_lefschetz_examples():
    A = MappingClass(T1, [[2, 1], [1, 1]])
    assert graded_trace(induced_endomorphism(A, 0)) == 1
    assert graded_trace(induced_endomorphism(A, 1)) == -1
    # identity: coefficient of t^n in (1-t)^{2G-2}
    for G in (1, 2):
        I = MappingClass(SurfaceModel(G), identity_matrix(2 * G))
        one_minus = TruncSeries(4, [1, -1])
        poly = TruncSeries(4, (1,))
        for _ in range(2 * G - 2):
            poly = poly * one_minus
        for n in range(5):
            assert graded_trace(induced_endomorphism(I, n)) == poly[n]


def test_three_way_zeta_agreement():
    # graded trace of the induced map, the weighted exterior trace sum, and
    # the rational function expansion all agree
    for G in range(0, 5):
        surface = SurfaceModel(G)
        seeds = (0, 1) if G < 4 else (0,)
        kmax = 6 if G <= 2 else 3
        for seed in seeds:
            A = random_symplectic(surface, 6, seed)
            det = TruncSeries(kmax, signed_pencil(A.mat, 0)[:kmax + 1])
            expansion = det * TruncSeries(kmax, range(1, kmax + 2))
            signed = _minor_sums(Presentation(G, 0, A), 2 * G)
            for k in range(kmax + 1):
                weighted = sum((k - j + 1) * signed[j]
                               for j in range(min(k, 2 * G) + 1))
                lefschetz = graded_trace(induced_endomorphism(A, k))
                assert lefschetz == weighted == expansion[k]


def test_top_evaluate():
    space = SymSpace(T1, 2)
    assert top_evaluate(space, mono((), 2)) == 1
    assert top_evaluate(space, mono((0, 1), 1)) == 1
    g2 = SymSpace(SurfaceModel(2), 2)
    assert top_evaluate(g2, mono((0, 1), 1)) == 0  # (0, 1) is not a pair
    assert top_evaluate(g2, mono((0, 2), 1)) == 1
    assert top_evaluate(g2, mono((0, 1, 2, 3), 0)) == -1  # sorting sign
    with pytest.raises(ValueError):
        top_evaluate(space, mono((), 1))


def test_duality_pair_examples():
    s1 = SymSpace(T1, 1)
    assert duality_pair(cls(s1, [0]), cls(s1, [1])) == 1
    assert duality_pair(cls(s1, [1]), cls(s1, [0])) == -1
    s2 = SymSpace(T1, 2)
    for a in range(3):
        assert pair_monomials(s2, mono((), a), mono((), 2 - a)) == 1
    assert duality_pair(cls(s2, [], 1), cls(s2, [0, 1], 0)) == 1
    assert duality_pair(cls(s2, [0, 1]), cls(s2, [0, 1])) == 0
    # degree-2 Gram block [[1, 1], [1, 0]] in the (y, x0x1) order
    assert pair_monomials(s2, mono((), 1), mono((), 1)) == 1
    assert pair_monomials(s2, mono((0, 1)), mono((), 1)) == 1
    with pytest.raises(ValueError):
        duality_pair(cls(s1, [0]), cls(s2, [1]))


def test_dual_basis_properties():
    for space in (SymSpace(T1, 1), SymSpace(T1, 2), SymSpace(SPLIT2, 2)):
        duals = dual_basis(space)
        basis = enumerate_basis(space)
        for a in basis:
            for b in basis:
                expected = 1 if a == b else 0
                assert duality_pair(duals[a], SymClass(space, {b: 1})) == expected
    # specific values on the torus
    s1 = SymSpace(T1, 1)
    duals = dual_basis(s1)
    assert duals[mono((0,))] == cls(s1, [1], coeff=-1)
    assert duals[mono((), 1)] == cls(s1, [])
    assert duals[mono(())] == cls(s1, [], 1)


def test_dual_of_top_power_is_one():
    for G in (1, 2):
        for n in (1, 2, 3):
            space = SymSpace(SurfaceModel(G), n)
            duals = dual_basis(space)
            assert duals[mono((), n)] == cls(space, [])


def test_double_dual():
    # applying the delta property twice: the class dual to the dual basis
    # at a is (-1)^{deg a} a, by graded commutativity of the pairing
    for space in (SymSpace(T1, 2), SymSpace(SPLIT2, 1)):
        duals = dual_basis(space)
        basis = enumerate_basis(space)
        for a in basis:
            sign = -1 if a.degree & 1 else 1
            for b in basis:
                expected = sign if a == b else 0
                assert duality_pair(SymClass(space, {a: 1}), duals[b]) == expected


def test_duality_equivariance():
    for surface in (T1, SPLIT2):
        for seed in range(3):
            A = random_symplectic(surface, 6, seed)
            space = SymSpace(surface, 2)
            basis = enumerate_basis(space)
            for a in basis[::3]:
                for b in basis[::2]:
                    lhs = duality_pair(
                        apply_induced(A, SymClass(space, {a: 1})),
                        apply_induced(A, SymClass(space, {b: 1})))
                    assert lhs == pair_monomials(space, a, b)


def test_gram_unimodular():
    for G in range(0, 3):
        for split in ({None} if G == 0 else {None, (1, G - 1)}):
            surface = SurfaceModel(G, split)
            for n in range(0, 4):
                P = gram_matrix(SymSpace(surface, n))
                assert abs(det_int(P)) == 1


def test_handle_duality_reads_the_form_once_per_core_index(monkeypatch):
    # The core pairs are read through partner once, one call per core
    # index: 2g calls, the same at N = 0 and N = 2 and for every n, and
    # none per unpaired set U, pair set S or y power h.  Keys and signs
    # come from bit masks over those pairs.
    calls = []
    honest = SurfaceModel.partner

    def counting(self, i):
        calls.append(i)
        return honest(self, i)

    monkeypatch.setattr(SurfaceModel, "partner", counting)

    def reads(g, N, n):
        calls.clear()
        handle_duality(SymSpace(SurfaceModel(g + N, (N, g)), n + N))
        return sorted(calls)

    for g in range(6):
        core = list(range(4, 4 + 2 * g))
        for n in range(7):
            assert reads(g, 0, n) == [i - 4 for i in core]
            assert reads(g, 2, n) == core


def test_every_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(swtorsion.__path__):
        module = importlib.import_module(f"swtorsion.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_parameters", None)):
                caches[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    # the one cache left serves the reference Lambda(A) expansion; a new
    # cache needs a bound and an edit here
    assert caches == {"reference._lambda_image": 4096}
