"""Cohomology of symmetric powers of a surface in the MacDonald monomial basis.

For a genus-G surface the degree-n symmetric power has cohomology with basis
``x_I y^q`` where I is a strictly increasing subset of the 2G odd generators,
y is the even degree-2 class, and ``|I| + q <= n``.  Every operation re-sorts
indices and tracks the transposition sign, so coefficients stay exact
integers.  A ``Monomial`` is the tuple (I, q) itself, so it equals, hashes
and sorts as that key; ``handle_duality``, the one production route, builds
plain (I, q) tuples, and the reference routes read them unconverted.
Nothing is cached per space: each call builds the basis, pairings or duals
it reads, and a caller that reads them twice keeps its own result.

Degrees: deg(x_I y^q) = |I| + 2q; the sign of a monomial in graded traces is
(-1)^{|I|}.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Dict, List, Optional, Tuple

from .linalg import invert_unimodular, perm_parity
from .surface import CohClass, MappingClass, SurfaceModel


class Monomial(namedtuple("Monomial", "indices q")):
    """Basis element x_I y^q with I strictly increasing (0-indexed), as
    the tuple (indices, q) that it equals, hashes and sorts as."""

    __slots__ = ()

    def __new__(cls, indices, q: int):
        idx = tuple(indices)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if q < 0:
            raise ValueError("q must be nonnegative")
        return super().__new__(cls, idx, q)

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


def enumerate_basis(space: SymSpace) -> Tuple[Monomial, ...]:
    """All monomials with |I| + q <= n, ordered by |I|, then I, then q."""
    out: List[Monomial] = []
    for k in range(min(space.n, 2 * space.G) + 1):
        for I in combinations(range(2 * space.G), k):
            for q in range(space.n - k + 1):
                out.append(Monomial(I, q))
    return tuple(out)


class SymClass:
    """Finite integer combination of monomials in a fixed SymSpace."""

    __slots__ = ("space", "terms")

    def __init__(self, space: SymSpace, terms: Optional[Dict[Monomial, int]] = None):
        self.space = space
        self.terms: Dict[Monomial, int] = {}
        for m, c in (terms or {}).items():
            if c == 0:
                continue
            if not space.contains(m):
                raise ValueError(f"monomial {m} exceeds the space bound")
            self.terms[m] = c

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
        return " + ".join(f"{c}*{m}" for m, c in sorted(self.terms.items()))


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


# Reference routes only: no command reaches it.  Keyed by the whole matrix,
# so it hits only on one monodromy: the recursion reuses the images of
# shorter prefixes, the monomials x_I y^q of one I share one image, and so
# do the kappa_n for successive n.  Without it ``test_trace_paths_agree``
# runs about 1.7 times as long.  The bound keeps memory flat.
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


def induced_endomorphism(A: MappingClass, n: int) -> SymEndo:
    """Action of a mapping class on H^*(Sym^n): Lambda(A) on x's, y fixed.

    An orientation preserving diffeomorphism acts trivially on H^0 and H^2
    of the surface, so y is fixed and only the exterior algebra of H^1 moves.
    """
    space = SymSpace(A.surface, n)
    return SymEndo.from_function(
        space, lambda m: apply_induced(A, SymClass.monomial(space, m)))


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
    partner = space.surface.partner
    for (U, deg), rows in groups.items():
        cols = groups.get((tuple(sorted(map(partner, U))), 2 * space.n - deg), [])
        yield tuple(rows), tuple(cols)


def duality_pairings(space: SymSpace) -> Dict[Monomial, Dict[Monomial, int]]:
    """For each basis monomial a, its nonzero pairings {b: <a, b>}.

    Only the members of a's Gram block are paired (``pair_monomials``), so
    the cost is the sum of the squared block sizes, not dim^2.
    """
    return {a: {b: v for b in cols if (v := pair_monomials(space, a, b))}
            for rows, cols in _duality_blocks(space) for a in rows}


def gram_matrix(space: SymSpace) -> tuple:
    """Dense Gram matrix <a, b> over enumerate_basis, filled from the
    sparse ``duality_pairings``."""
    basis = enumerate_basis(space)
    pairs = duality_pairings(space)
    return tuple(tuple(pairs[a].get(b, 0) for b in basis) for a in basis)


def dual_basis(space: SymSpace) -> Dict[Monomial, SymClass]:
    """For each basis monomial a, the class a* with <a*, b> = delta_{ab}.

    The Gram matrix is block diagonal up to order (``_duality_blocks``),
    so the duals of a block's columns combine its rows, with coefficients
    from the block's integer inverse (``invert_unimodular``, which raises
    unless the block is unimodular).
    """
    pairs = duality_pairings(space)
    duals: Dict[Monomial, SymClass] = {}
    for rows, cols in _duality_blocks(space):
        inverse = invert_unimodular(
            tuple(tuple(pairs[r].get(c, 0) for c in cols) for r in rows))
        for a, coeffs in zip(cols, inverse):
            duals[a] = SymClass(space,
                                {b: v for b, v in zip(rows, coeffs) if v})
    return duals


def _odd_inversions(seq) -> int:
    """1 when sorting the distinct ints of seq is an odd permutation, else 0."""
    return sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:]) & 1


def disjoint_inverse_entry(p: int, L: int, u: int, x: int) -> int:
    """Entry (S, T) of the inverse of the disjointness matrix
    [S and T disjoint] on the subsets of size <= L <= p of p points, with
    u = |S cup T| and x = |S cap T| (derivation in ``handle_duality``)."""
    if u > L:
        return 0
    coeff = 1 if u == p else math.comb(p - u - 1, L - u)
    return -coeff if (L - u + x) & 1 else coeff


def handle_duality(space: SymSpace) -> Tuple[Dict[tuple, Dict[tuple, int]],
                                             Dict[tuple, Dict[tuple, int]]]:
    """Pairings and duals on the Gram blocks of Sym^m of a split surface
    whose monomials hold all of C = (c_0..c_{N-1}) or all of D, in closed
    form.

    Returns (pairs, duals) on plain (indices, q) tuples, which a
    ``Monomial`` equals: pairs[a] is {b: <a, b>} over the nonzero pairings
    of a, and duals[a] is the dual a*, with <a*, b> = delta_{ab}, as
    {b: coefficient}.  On these monomials they equal ``duality_pairings``
    and the terms of ``dual_basis``.  Each such monomial is C (or D)
    joined to a core monomial x_K y^q with |K| + q <= m - N, and these are
    exactly the blocks the handle diagonal reaches.  With no handles every
    block of the space is reached.

    *Blocks.*  Write a monomial as x_{U + S} y^q, with U the indices whose
    partner is absent and S a set of whole partner pairs.  Two monomials
    pair only when their indices are disjoint and together form whole
    pairs, and their degrees add up to 2m.  So the rows keyed (U, d) meet
    only the columns keyed (p(U), 2m - d), and there <a, b> is nonzero
    exactly when S_a and S_b are disjoint.  With h = (d - |U|)/2 the rows
    are the S with |S| = s <= L = min(h, m - |U| - h, P) and q = h - s,
    where P = G - |U| counts the free pairs (those that meet neither U nor
    p(U)).  The columns give the same L, so both sides are indexed by the
    sets of at most L free pairs.  Here U holds C (or D), so every free
    pair is a core pair.

    *Pairing.*  ``pair_monomials`` is the sign of the reordering of the
    concatenation I_a I_b into pair order (a_0, p(a_0), a_1, p(a_1), ..),
    a_i < p(a_i).  Let eps(a) be the sign of sorting I_a into "U
    ascending, then the pairs (i, p(i)) of S by ascending i".  Reorder
    I_a I_b into U_a S_a U_b S_b (sign eps(a) eps(b)).  Pairs are blocks
    of two and move past anything for free, which gives U_a U_b S_a S_b.
    Then write U_b = p(U_a) as p(u_1)..p(u_k) for u_1 < .. < u_k,
    interleave to (u_1, p(u_1)) .. (sign (-1)^{k(k-1)/2}) and turn each
    pair with u > p(u) (sign -1 each).  So <a, b> = c(U_a) eps(a) eps(b)
    [S_a, S_b disjoint], with c(U) the product of those last three signs.

    *Duals.*  A block is thus c(U) E_r Z E_c, with E the diagonal signs
    eps and Z the disjointness matrix.  By inclusion and exclusion
    [S, T disjoint] = sum over W in S cap T of (-1)^{|W|}, so Z = M^T F M
    with M[W, S] = [W in S] on the sets of size <= L and F = (-1)^{|W|}.
    The family is closed under subsets, so the inverse of M is the Moebius
    function (-1)^{|S| - |W|} [W in S].  Hence Z is unimodular and

        Z^{-1}[S, T] = sum over W containing S cup T, |W| <= L,
                           of (-1)^{|W| - |S| - |T|}
                     = (-1)^x sum_{j <= L - u} (-1)^j C(P - u, j)
                     = (-1)^{L - u + x} C(P - u - 1, L - u)

    for u = |S cup T| <= L (0 otherwise), x = |S cap T| and C(-1, 0) = 1,
    by the partial alternating sum of a row of binomials
    (``disjoint_inverse_entry``).  The dual of a column b is the sum over
    the rows r of c(U_r) eps(b) eps(r) Z^{-1}[S_b, S_r] r.

    No pairing is evaluated and no block inverted.  The tests hold both
    closed forms against ``duality_pairings``, ``dual_basis`` and
    ``invert_unimodular``.

    *Cost.*  The rows of (U, h) are the first entries, by |S|, of one list
    per core unpaired set U, so each index tuple, sign eps and mask is
    built once per U and sliced for every h, and both heads reuse it.  The
    key's c and partner key come from one inversion count of p(U), and one
    inverse table serves every block with the same (|U|, L).  So a call
    takes one sign per pair (U, S) with |S| <= min((m - N - |U|)/2, P) and
    one per U, whatever N and h.  What is left is writing the pairs and
    duals: about twice dim H^*(Sym^{m-N}) of the core surface monomials,
    and the squared block sizes in entries.
    """
    partner = space.surface.partner
    N, g = space.surface.split
    n = space.n - N
    heads = (tuple(range(N)), tuple(range(N, 2 * N))) if N else ((),)
    core_pairs = [(i, partner(i)) for i in range(2 * N, 2 * space.G)
                  if i < partner(i)]
    # members[key, h]: the rows keyed (key, |key| + 2h) as ((indices, q),
    # eps, bit mask of S); info[key]: (partner key, c(key), k).
    members: Dict[tuple, List[tuple]] = {}
    info: Dict[tuple, tuple] = {}
    for k in range(min(g, n) + 1):
        for chosen in combinations(range(g), k):
            free = [j for j in range(g) if j not in chosen]
            for ends in product(*(core_pairs[j] for j in chosen)):
                U = tuple(sorted(ends))
                # The rows of every h, sorted by |S|: those of (U, h) are
                # the first cut[L].  The head precedes every core index, so
                # eps reads the core.
                family, cut = [], []
                for s in range(min((n - k) // 2, g - k) + 1):
                    for S in combinations(free, s):
                        flat = tuple(t for j in S for t in core_pairs[j])
                        family.append((tuple(sorted(U + flat)), s,
                                       -1 if _odd_inversions(U + flat) else 1,
                                       sum(1 << j for j in S)))
                    cut.append(len(family))
                # c(head + U): the head's images are the other head, sorted
                # and below the core, and D turns all N of its pairs.
                images = tuple(map(partner, U))
                odd = (_odd_inversions(images) + (N + k) * (N + k - 1) // 2
                       + sum(u > v for u, v in zip(U, images)))
                image_key = tuple(sorted(images))
                keys = []
                for turn, head in enumerate(heads):
                    info[head + U] = (heads[-1 - turn] + image_key,
                                      -1 if (odd + turn * N) & 1 else 1, k)
                    keys.append((head + U, [(head + idx, s, eps, mask)
                                            for idx, s, eps, mask in family]))
                for h in range(n - k + 1):
                    rows = cut[min(h, n - k - h, g - k)]
                    for key, fam in keys:
                        members[key, h] = [((idx, h - s), eps, mask)
                                           for idx, s, eps, mask in fam[:rows]]
    pairs: Dict[tuple, Dict[tuple, int]] = {}
    duals: Dict[tuple, Dict[tuple, int]] = {}
    # Z^{-1} on the sets of at most L of the g - k free pairs, by (u, x)
    inverses: Dict[tuple, Dict[tuple, int]] = {}
    for (key, h), rows in members.items():
        image_key, c, k = info[key]
        L = min(h, n - k - h, g - k)
        cols = members[image_key, n - k - h]
        for r, eps, mask in rows:
            pairs[r] = {b: c * eps * e for b, e, m in cols if not mask & m}
        inverse = inverses.get((k, L))
        if inverse is None:
            inverse = inverses[k, L] = {
                (u, x): disjoint_inverse_entry(g - k, L, u, x)
                for u in range(L + 1) for x in range(u + 1)}
        for b, e, m in cols:
            ce = c * e
            duals[b] = {r: ce * eps * v for r, eps, mask in rows
                        if (v := inverse.get(((mask | m).bit_count(),
                                              (mask & m).bit_count())))}
    return pairs, duals
