"""Cohomology of symmetric powers of a surface in the MacDonald monomial basis.

For a genus-G surface the degree-n symmetric power has cohomology with basis
``x_I y^q`` where I is a strictly increasing subset of the 2G odd generators,
y is the even degree-2 class, and ``|I| + q <= n``.  Every operation re-sorts
indices and tracks the transposition sign, so coefficients stay exact
integers.  A ``Monomial`` is the tuple (I, q) itself, so it equals, hashes
and sorts as that key; ``handle_duality``, the one production route, builds
plain (I, q) tuples in closed form.  The classes, the Lambda(A) action, the
graded traces and the duality evaluated pairing by pairing are reference
routes in ``swtorsion.reference``, which read those tuples unconverted.
Nothing is cached per space: each call builds the pairings and duals it
reads, and a caller that reads them twice keeps its own result.

Degrees: deg(x_I y^q) = |I| + 2q; the sign of a monomial in graded traces is
(-1)^{|I|}.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, List, Tuple

from .surface import SurfaceModel


# Reference routes that the benchmark's tracer reads from this module; they
# live in ``swtorsion.reference``, imported on the first such read.  ROADMAP
# item 5 retires the tracer's replay and deletes this forwarder.
_FORWARDED = frozenset({"_lambda_image", "dual_basis", "graded_trace",
                        "gram_matrix"})


def __getattr__(name: str):
    if name in _FORWARDED:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    {b: coefficient}.  On these monomials they equal
    ``reference.duality_pairings`` and the terms of
    ``reference.dual_basis``.  Each such monomial is C (or D) joined to a
    core monomial x_K y^q with |K| + q <= m - N, and these are exactly the
    blocks the handle diagonal reaches.  With no handles every block of
    the space is reached.

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

    *Pairing.*  ``reference.pair_monomials`` is the sign of the reordering
    of the concatenation I_a I_b into pair order (a_0, p(a_0), a_1,
    p(a_1), ..), a_i < p(a_i).  Let eps(a) be the sign of sorting I_a into "U
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
