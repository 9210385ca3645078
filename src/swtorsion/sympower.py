"""Cohomology of symmetric powers of a surface in the MacDonald monomial basis.

For a genus-G surface the degree-n symmetric power has cohomology with basis
``x_I y^q`` where I is a strictly increasing subset of the 2G odd generators,
y is the even degree-2 class, and ``|I| + q <= n``.  Monomials are the only
representation used anywhere: every operation re-sorts indices and tracks the
transposition sign, so coefficients stay exact integers.

Degrees: deg(x_I y^q) = |I| + 2q; the sign of a monomial in graded traces is
(-1)^{|I|}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Dict, List, Optional, Tuple

from .linalg import invert_unimodular, perm_parity
from .surface import CohClass, MappingClass, SurfaceModel


@dataclass(frozen=True)
class Monomial:
    """Basis element x_I y^q with I strictly increasing (0-indexed)."""

    indices: Tuple[int, ...]
    q: int

    def __post_init__(self):
        idx = tuple(self.indices)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if self.q < 0:
            raise ValueError("q must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @property
    def degree(self) -> int:
        return len(self.indices) + 2 * self.q

    @property
    def odd_part(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        xs = "^".join(f"x{i}" for i in self.indices)
        if self.q == 0:
            return xs or "1"
        ys = "y" if self.q == 1 else f"y^{self.q}"
        return f"{xs}.{ys}" if xs else ys


@dataclass(frozen=True)
class SymSpace:
    """H^*(Sym^n of the surface), as a free module on the monomial basis."""

    surface: SurfaceModel
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("symmetric power degree must be nonnegative")

    @property
    def G(self) -> int:
        return self.surface.G

    @property
    def dim(self) -> int:
        return sum(math.comb(2 * self.G, k) * (self.n - k + 1)
                   for k in range(min(self.n, 2 * self.G) + 1))

    def contains(self, m: Monomial) -> bool:
        return (len(m.indices) + m.q <= self.n
                and all(0 <= i < 2 * self.G for i in m.indices))


# Bound of the caches keyed by SymSpace.  Of the commands only intersect
# touches spaces: the basis of Sym^n of the core and the handle blocks of
# Sym^{n+N} of the split surface, never the basis of the whole Sym^{n+N};
# verify, sw, zeta and torsion touch none.  The rest of the room serves the
# reference routes that the tests and the traced benchmark replay run.
_SPACE_CACHE_SIZE = 64


@lru_cache(maxsize=_SPACE_CACHE_SIZE)
def enumerate_basis(space: SymSpace) -> Tuple[Monomial, ...]:
    """All monomials with |I| + q <= n, ordered by |I|, then I, then q."""
    out: List[Monomial] = []
    for k in range(min(space.n, 2 * space.G) + 1):
        for I in combinations(range(2 * space.G), k):
            for q in range(space.n - k + 1):
                out.append(Monomial(I, q))
    return tuple(out)


@lru_cache(maxsize=_SPACE_CACHE_SIZE)
def basis_index(space: SymSpace) -> Dict[Monomial, int]:
    return {m: i for i, m in enumerate(enumerate_basis(space))}


class SymClass:
    """Finite integer combination of monomials in a fixed SymSpace."""

    __slots__ = ("space", "terms")

    def __init__(self, space: SymSpace, terms: Optional[Dict[Monomial, int]] = None):
        self.space = space
        self.terms: Dict[Monomial, int] = {}
        if terms:
            for m, c in terms.items():
                if c == 0:
                    continue
                if not space.contains(m):
                    raise ValueError(f"monomial {m} exceeds the space bound")
                self.terms[m] = self.terms.get(m, 0) + c
            self.terms = {m: c for m, c in self.terms.items() if c != 0}

    @classmethod
    def zero(cls, space: SymSpace) -> "SymClass":
        return cls(space)

    @classmethod
    def monomial(cls, space: SymSpace, m: Monomial, coeff: int = 1) -> "SymClass":
        return cls(space, {m: coeff})

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "SymClass"):
        if self.space != other.space:
            raise ValueError("classes live in different symmetric powers")

    def __add__(self, other: "SymClass") -> "SymClass":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return SymClass(self.space, out)

    def scale(self, k: int) -> "SymClass":
        return SymClass(self.space, {m: k * c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymClass) and self.space == other.space
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in sorted(
            self.terms.items(), key=lambda t: (t[0].indices, t[0].q)))


def _insert_index(i: int, indices: Tuple[int, ...]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Sign and sorted result of prepending factor i to x_indices, or None."""
    if i in indices:
        return None
    below = sum(1 for j in indices if j < i)
    sign = -1 if below & 1 else 1
    return sign, tuple(sorted(indices + (i,)))


def wedge_class(c: CohClass, alpha: SymClass) -> SymClass:
    """Left wedge by a degree-1 class: x_I y^q -> (c ^ x_I) y^q in Sym^{n+1}."""
    space = alpha.space
    if c.surface != space.surface:
        raise ValueError("class lives on a different surface")
    target = SymSpace(space.surface, space.n + 1)
    out: Dict[Monomial, int] = {}
    for m, co in alpha.terms.items():
        for i, ci in enumerate(c.vec):
            if ci == 0:
                continue
            ins = _insert_index(i, m.indices)
            if ins is None:
                continue
            sign, idx = ins
            key = Monomial(idx, m.q)
            out[key] = out.get(key, 0) + sign * ci * co
    return SymClass(target, out)


def contract_class(c: CohClass, alpha: SymClass) -> SymClass:
    """Contraction by a degree-1 class via the intersection pairing.

    The degree -1 antiderivation with iota_c(x_i) = <c, x_i>; lands in
    Sym^{n-1}.  Contracting scalars (n = 0) gives the zero class.
    """
    space = alpha.space
    if c.surface != space.surface:
        raise ValueError("class lives on a different surface")
    if space.n == 0:
        return SymClass.zero(space)
    target = SymSpace(space.surface, space.n - 1)
    # <c, x_j> = -<x_j, c>, entry j of -J c
    pair_with_c = tuple(-p for p in space.surface.pair_vector(c.vec))
    out: Dict[Monomial, int] = {}
    for m, co in alpha.terms.items():
        for pos, i in enumerate(m.indices):
            p = pair_with_c[i]
            if p == 0:
                continue
            idx = m.indices[:pos] + m.indices[pos + 1:]
            key = Monomial(idx, m.q)
            sign = -1 if pos & 1 else 1
            out[key] = out.get(key, 0) + sign * p * co
    return SymClass(target, out)


# Keyed by the whole matrix, so a warm run over distinct monodromies hits
# only within an operation; the bound keeps memory flat across operations.
@lru_cache(maxsize=4096)
def _lambda_image(mat: tuple, indices: Tuple[int, ...]) -> tuple:
    """Expansion of the wedge of columns ``indices`` of mat in the monomial basis.

    Returns a tuple of (sorted index tuple, coefficient) pairs.  Appending a
    factor on the right of an existing product signs by the number of larger
    indices already present.
    """
    if not indices:
        return (((), 1),)
    prev = _lambda_image(mat, indices[:-1])
    col = indices[-1]
    n = len(mat)
    acc: Dict[Tuple[int, ...], int] = {}
    for idx, co in prev:
        for j in range(n):
            a = mat[j][col]
            if a == 0 or j in idx:
                continue
            above = sum(1 for t in idx if t > j)
            sign = -1 if above & 1 else 1
            key = tuple(sorted(idx + (j,)))
            acc[key] = acc.get(key, 0) + sign * a * co
    return tuple((k, v) for k, v in acc.items() if v != 0)


@dataclass(frozen=True)
class SymEndo:
    """Endomorphism of a SymSpace, stored as columns over enumerate_basis."""

    space: SymSpace
    columns: Tuple[SymClass, ...]

    @classmethod
    def from_function(cls, space: SymSpace,
                      f: Callable[[Monomial], SymClass]) -> "SymEndo":
        return cls(space, tuple(f(m) for m in enumerate_basis(space)))

    def matrix(self) -> tuple:
        """Dense integer matrix in the enumerate_basis ordering (rows first)."""
        basis = enumerate_basis(self.space)
        index = basis_index(self.space)
        d = len(basis)
        rows = [[0] * d for _ in range(d)]
        for j, col in enumerate(self.columns):
            for m, c in col.terms.items():
                rows[index[m]][j] = c
        return tuple(tuple(r) for r in rows)


def induced_endomorphism(A: MappingClass, n: int) -> SymEndo:
    """Action of a mapping class on H^*(Sym^n): Lambda(A) on x's, y fixed.

    An orientation preserving diffeomorphism acts trivially on H^0 and H^2
    of the surface, so y is fixed and only the exterior algebra of H^1 moves.
    """
    space = SymSpace(A.surface, n)

    def image(m: Monomial) -> SymClass:
        out: Dict[Monomial, int] = {}
        for idx, co in _lambda_image(A.mat, m.indices):
            out[Monomial(idx, m.q)] = co
        return SymClass(space, out)

    return SymEndo.from_function(space, image)


def apply_induced(A: MappingClass, alpha: SymClass) -> SymClass:
    """Induced action on a single class without assembling the endomorphism."""
    out: Dict[Monomial, int] = {}
    for m, c in alpha.terms.items():
        for idx, co in _lambda_image(A.mat, m.indices):
            key = Monomial(idx, m.q)
            out[key] = out.get(key, 0) + c * co
    return SymClass(alpha.space, out)


def graded_trace(M: SymEndo) -> int:
    """Alternating trace, weighting each monomial by (-1)^{|I|}."""
    total = 0
    for m, col in zip(enumerate_basis(M.space), M.columns):
        diag = col.coefficient(m)
        if diag:
            total += -diag if m.odd_part & 1 else diag
    return total


def lefschetz_number(A: MappingClass, n: int) -> int:
    """Lefschetz number of the induced map on the n-th symmetric power."""
    if n < 0:
        raise ValueError("symmetric power degree must be nonnegative")
    return graded_trace(induced_endomorphism(A, n))


def top_evaluate(space: SymSpace, m: Monomial) -> int:
    """Evaluation of a top-degree monomial on the fundamental class.

    Nonzero only when I is a disjoint union of symplectic partner pairs;
    the value is the sign of the permutation sorting I into the
    concatenated pair order (a_0, partner(a_0), a_1, partner(a_1), ...)
    with a_0 < a_1 < ...; all-paired monomials in pair order evaluate to 1.
    """
    if m.degree != 2 * space.n:
        raise ValueError("monomial does not have top degree")
    surface = space.surface
    idx_set = set(m.indices)
    pairs = []
    for i in m.indices:
        p = surface.partner(i)
        if p not in idx_set:
            return 0
        if i < p:
            pairs.append((i, p))
    pairs.sort()
    target = [t for pr in pairs for t in pr]
    src = list(m.indices)
    perm = tuple(src.index(t) for t in target)
    return -1 if perm_parity(perm) else 1


def _merge_sign(I: Tuple[int, ...], Jt: Tuple[int, ...]) -> int:
    """Shuffle sign of sorting the concatenation I + J (disjoint, each sorted)."""
    inversions = 0
    for a in I:
        inversions += sum(1 for b in Jt if b < a)
    return -1 if inversions & 1 else 1


def pair_monomials(space: SymSpace, a: Monomial, b: Monomial) -> int:
    """Poincare duality pairing of two basis monomials."""
    if set(a.indices) & set(b.indices):
        return 0
    if a.degree + b.degree != 2 * space.n:
        return 0
    merged = tuple(sorted(a.indices + b.indices))
    sign = _merge_sign(a.indices, b.indices)
    return sign * top_evaluate(space, Monomial(merged, a.q + b.q))


def duality_pair(alpha: SymClass, beta: SymClass) -> int:
    """Bilinear extension of the monomial pairing <alpha cup beta, [Sym^n]>."""
    if alpha.space != beta.space:
        raise ValueError("classes live in different symmetric powers")
    total = 0
    for ma, ca in alpha.terms.items():
        for mb, cb in beta.terms.items():
            p = pair_monomials(alpha.space, ma, mb)
            if p:
                total += ca * cb * p
    return total


def _block_key(space: SymSpace, m: Monomial) -> tuple:
    """(U, deg) with U the indices of m whose partner is not in m."""
    partner = space.surface.partner
    return tuple(i for i in m.indices if partner(i) not in m.indices), m.degree


def _duality_blocks(space: SymSpace):
    """Yield the square blocks (rows, cols) of the Gram matrix.

    A monomial pairs only with monomials whose index set completes its
    unpaired indices U to partner pairs and whose degree completes its own
    to 2n, so the rows keyed (U, deg) meet only the columns keyed
    (sorted partner(U), 2n - deg).  Both keep the enumerate_basis order.
    """
    groups: Dict[tuple, List[Monomial]] = {}
    for m in enumerate_basis(space):
        groups.setdefault(_block_key(space, m), []).append(m)
    yield from _paired_groups(space, groups)


def _paired_groups(space: SymSpace, groups: Dict[tuple, List[Monomial]]):
    """Each group of monomials keyed by ``_block_key`` with the group it
    pairs with, as (rows, cols)."""
    partner = space.surface.partner
    for (U, deg), rows in groups.items():
        cols = groups.get((tuple(sorted(map(partner, U))), 2 * space.n - deg), [])
        yield tuple(rows), tuple(cols)


def _handle_blocks(space: SymSpace):
    """Yield the Gram blocks (rows, cols) of Sym^{n+N} of a split surface
    whose monomials hold all of C = (c_0..c_{N-1}) or all of D.

    Such a block is keyed by an unpaired set U that contains C (or D), so
    every member is C (or D) joined to a core monomial x_K y^q with
    |K| + q <= n, K shifted past the handle indices; these are exactly the
    blocks the handle diagonal reaches.  They are generated from the core
    basis, never from the basis of the whole space.  With no handles C and
    D are empty, the core basis is taken once and every block is reached.
    """
    N, g = space.surface.split
    core = enumerate_basis(SymSpace(SurfaceModel(g), space.n - N))
    heads = (tuple(range(N)), tuple(range(N, 2 * N))) if N else ((),)
    groups: Dict[tuple, List[Monomial]] = {}
    for head in heads:
        for m in core:
            mono = Monomial(head + tuple(2 * N + i for i in m.indices), m.q)
            groups.setdefault(_block_key(space, mono), []).append(mono)
    yield from _paired_groups(space, groups)


def _block_pairings(space: SymSpace,
                    blocks) -> Dict[Monomial, Dict[Monomial, int]]:
    """For each row monomial a of the blocks, {b: <a, b>} over its columns."""
    return {a: {b: v for b in cols if (v := pair_monomials(space, a, b))}
            for rows, cols in blocks for a in rows}


def _block_duals(space: SymSpace, blocks, pairs) -> Dict[Monomial, SymClass]:
    """The dual a* of each column monomial a of the blocks: rows R meet
    only columns C, so the duals of C are combinations of R with
    coefficients from the inverse of that block (``invert_unimodular``,
    which also checks that they are integers)."""
    duals: Dict[Monomial, SymClass] = {}
    for rows, cols in blocks:
        inverse = invert_unimodular(
            tuple(tuple(pairs[r].get(c, 0) for c in cols) for r in rows))
        for a, coeffs in zip(cols, inverse):
            duals[a] = SymClass(space,
                                {b: v for b, v in zip(rows, coeffs) if v})
    return duals


@lru_cache(maxsize=_SPACE_CACHE_SIZE)
def duality_pairings(space: SymSpace) -> Dict[Monomial, Dict[Monomial, int]]:
    """For each basis monomial a, its nonzero pairings {b: <a, b>}.

    Only the members of a's Gram block are paired (``pair_monomials``), so
    the cost is the sum of the squared block sizes, not dim^2.
    """
    return _block_pairings(space, _duality_blocks(space))


def gram_matrix(space: SymSpace) -> tuple:
    """Dense Gram matrix <a, b> over enumerate_basis, filled from the
    sparse ``duality_pairings``."""
    basis = enumerate_basis(space)
    pairs = duality_pairings(space)
    return tuple(tuple(pairs[a].get(b, 0) for b in basis) for a in basis)


@lru_cache(maxsize=_SPACE_CACHE_SIZE)
def dual_basis(space: SymSpace) -> Dict[Monomial, SymClass]:
    """For each basis monomial a, the class a* with <a*, b> = delta_{ab}.

    The Gram matrix is block diagonal up to order (``_duality_blocks``)
    and unimodular, so each block is inverted exactly in integers.
    """
    return _block_duals(space, _duality_blocks(space), duality_pairings(space))


@lru_cache(maxsize=_SPACE_CACHE_SIZE)
def handle_duality(space: SymSpace) -> Tuple[
        Dict[Monomial, Dict[Monomial, int]], Dict[Monomial, SymClass]]:
    """Pairings and duals on the blocks of ``_handle_blocks`` alone.

    Every monomial of those blocks maps to the same pairings as in
    ``duality_pairings`` and the same dual as in ``dual_basis``, and each
    sign is still computed in the split space by ``pair_monomials``.  The
    cost follows about twice dim H^*(Sym^n) of the core surface, not the
    dimension of the whole space.
    """
    blocks = tuple(_handle_blocks(space))
    pairs = _block_pairings(space, blocks)
    return pairs, _block_duals(space, blocks, pairs)
