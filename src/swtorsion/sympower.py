"""Cohomology of symmetric powers of a surface in the MacDonald monomial basis.

For a genus-G surface the degree-n symmetric power has cohomology with basis
``x_I y^q`` where I is a strictly increasing subset of the 2G odd generators,
y is the even degree-2 class, and ``|I| + q <= n``.  Coefficients are exact
integers, with the sign of the sort that puts each product's indices in
order.  ``handle_duality``, the one production route, builds plain
(I, q) tuples in closed form, its signs read off the order of the basis
with nothing sorted: only the pairings and duals that
``intersection.intersection_number`` reads.  ``Monomial``, the tuple
(I, q) itself, its bound test ``contains``, the classes, the Lambda(A)
action, the graded traces and the duality evaluated pairing by pairing
are reference routes in ``swtorsion.reference``, which read those tuples
unconverted.
Nothing is cached per space: each call builds the pairings and duals it
reads, and a caller that reads them twice keeps its own result.

Degrees: deg(x_I y^q) = |I| + 2q; the sign of a monomial in graded traces is
(-1)^{|I|}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Tuple

from .surface import SurfaceModel


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
    ``Monomial`` equals: duals[a] is the dual a*, with <a*, b> =
    delta_{ab}, as {b: coefficient}, for every such monomial a, and
    pairs[a] is {b: <a, b>} over the nonzero pairings of a, for those that
    hold C.  On these monomials they equal ``reference.duality_pairings``
    and the terms of ``reference.dual_basis``.  Each such monomial is C
    (or D) joined to a core monomial x_K y^q with |K| + q <= m - N, and
    these are exactly the blocks the handle diagonal reaches.  The walk of
    ``intersection.intersection_number`` pairs C beta and the monomials of
    (D beta)*, which hold C, so no monomial headed by D is paired.  With no handles every block of the
    space is reached, and every monomial is both paired and dualised.

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

    *Cost.*  Number the core pairs (a_j, b_j), a_j < b_j, by j = 0..g - 1,
    as ``partner`` gives them (read once per core index): every first end
    a_j lies below every second end, and both rise with j.  A core U then
    holds one end of each pair of a set K: the first ends of A and the
    second ends of B = K - A.  Sorted, U + S is a_{A + S} then b_{B + S},
    each ascending, so every key is read from two tables of index tuples by
    bit mask, and nothing is sorted.  The order fixes both signs.

    - c(U): p(U) in the order of U is b_A then a_B.  Every one of the
      |A||B| pairs across the two runs is an inversion and none within
      them, and the u with u > p(u) are the |B| of B.  The head's images
      are the other head, sorted and below the core, and D turns all N of
      its pairs.  So c(head + U) has parity
      |A||B| + (N + k)(N + k - 1)/2 + |B|, plus N for the head D, with
      k = |K|.  The partner key is the other head, a_B, b_A: the image of
      (K, A, B) is (K, B, A).
    - eps(U + S): U + S reads a_A b_B a_{t_1} b_{t_1} a_{t_2} b_{t_2} ..
      for S = {t_1 < t_2 < ..}.  Its inversions are b_j before a_t for j
      in B and t in S (s|B| of them), b_{t_i} before a_{t_l} for i < l
      (C(s, 2)), and one for each j in K above t in S (a_j before a_t for
      j in A, b_j before b_t for j in B).  So eps has parity
      C(s, 2) + s|B| + |S cap W_K|, where W_K is the set of free pairs
      that lie below an odd number of the pairs of K.

    The image block of (K, A, B, head, h) is (K, B, A, the other head,
    n - k - h) with n = m - N: the subsets of K are listed so that K - A
    sits at index -1 - i when A sits at i, and every block meets its image
    by list index.  The rows of (K, A, B, head, h) are the first entries,
    by |S|, of one list per (K, A), so each key and sign eps is built once
    per U and head and sliced for every h.  The pair sets S with their
    masks and parities depend only on K, and one inverse table, indexed by
    u and x, serves every block with the same (|K|, L).  So a call reads
    ``partner`` 2g times and takes two table reads and a parity per pair
    (U, S) with |S| <= min((n - |U|)/2, P), whatever N and h.  What is
    left is writing the duals of about twice dim H^*(Sym^n) of the core
    surface monomials and the pairs of half as many (all of them at
    N = 0), and the squared block sizes in entries.
    """
    partner = space.surface.partner
    N, g = space.surface.split
    n = space.n - N
    heads = (tuple(range(N)), tuple(range(N, 2 * N))) if N else ((),)
    core_pairs = [(i, p) for i in range(2 * N, 2 * space.G)
                  if i < (p := partner(i))]
    # first[M], second[M]: the first and the second ends of the core pairs
    # in the bit mask M, ascending; no key holds more than min(n, g) of them
    top = min(n, g)
    first: Dict[int, tuple] = {0: ()}
    second: Dict[int, tuple] = {0: ()}
    for j, (a, b) in enumerate(core_pairs):
        first.update({M | 1 << j: t + (a,) for M, t in first.items()
                      if M.bit_count() < top})
        second.update({M | 1 << j: t + (b,) for M, t in second.items()
                       if M.bit_count() < top})
    pairs: Dict[tuple, Dict[tuple, int]] = {}
    duals: Dict[tuple, Dict[tuple, int]] = {}
    for k in range(top + 1):
        lmax = min((n - k) // 2, g - k)
        # caps[h]: the L of the blocks of y power h
        caps = [min(h, n - k - h, g - k) for h in range(n - k + 1)]
        # inverses[L][u][x]: Z^{-1} on the sets of at most L of the g - k
        # free pairs, u = |S cup T| <= 2L
        inverses = [[[disjoint_inverse_entry(g - k, L, u, x)
                      for x in range(u + 1)] for u in range(2 * L + 1)]
                     for L in range(lmax + 1)]
        for chosen in combinations(range(g), k):
            K = sum(1 << j for j in chosen)
            free = [j for j in range(g) if not K >> j & 1]
            W = sum(1 << t for t in free
                    if sum(j > t for j in chosen) & 1)
            # (S, s, parity of C(s, 2) + |S cap W|) by |S|: the rows of
            # (K, A, B, head, h) are the first cut[L]
            sets, cut = [], []
            for s in range(lmax + 1):
                for picked in combinations(free, s):
                    S = sum(1 << t for t in picked)
                    sets.append((S, s,
                                 s * (s - 1) // 2 + (S & W).bit_count()))
                cut.append(len(sets))
            # the subsets of K, with K - subsets[i] at subsets[-1 - i]
            subsets = [0]
            for j in chosen:
                subsets += [A | 1 << j for A in subsets]
            # blocks[i][turn][h]: the rows ((indices, q), eps, S) of
            # (K, A, K - A, heads[turn], h) for A = subsets[i], and odd[i]
            # the parity of c(U)
            blocks, odd = [], []
            for A in subsets:
                B = K ^ A
                nb = B.bit_count()
                odd.append((k - nb) * nb + (N + k) * (N + k - 1) // 2 + nb)
                family = [(first[A | S] + second[B | S], s,
                           -1 if (par + s * nb) & 1 else 1, S)
                          for S, s, par in sets]
                blocks.append([[[((head + idx, h - s), eps, S)
                                 for idx, s, eps, S
                                 in family[:cut[L]]]
                                for h, L in enumerate(caps)]
                               for head in heads])
            for i, by_head in enumerate(blocks):
                for turn, by_h in enumerate(by_head):
                    c = -1 if (odd[i] + turn * N) & 1 else 1
                    image = blocks[-1 - i][-1 - turn]
                    for h, rows in enumerate(by_h):
                        cols = image[n - k - h]
                        # only the rows that hold C are paired (all of
                        # them at N = 0)
                        if not turn:
                            for r, eps, S in rows:
                                ce = c * eps
                                pairs[r] = {b: ce * e for b, e, T in cols
                                            if not S & T}
                        inverse = inverses[caps[h]]
                        for b, e, T in cols:
                            ce = c * e
                            duals[b] = {
                                r: ce * eps * v for r, eps, S in rows
                                if (v := inverse[(S | T).bit_count()]
                                    [(S & T).bit_count()])}
    return pairs, duals
