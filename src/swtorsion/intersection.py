"""Graph-diagonal intersection route to the TQFT trace.

The trace of kappa_n can be recast as an intersection number in the product
of two copies of Sym^{n+N}: a diagonal-type class built from the handle
curves and a graph-type class built from the monodromy.  Evaluating their
cup product on the fundamental class must reproduce the trace exactly; that
agreement pins every duality and Kunneth sign convention in the library.

The diagonal class is stored in the converted form

    D* = sum_beta (c_0 ^ .. ^ c_{N-1} ^ beta) x (d_0 ^ .. ^ d_{N-1} ^ beta)*

with the dual taken in the ambient symmetric power.  For N = 0 this is the
classical diagonal sum_b b x b*.  The graph class twists the diagonal by
the inverse of the homology pushforward, which for a stored pullback matrix
A is A itself.

``intersection_number`` never builds the graph class.  The diagonal class
reads it only at the pairs (c, e) that pair with its own terms, and each of
those coefficients is a short sum of restricted minors of A over one duality
block.  Nor does it build the duality of the whole space: every monomial it
pairs or dualises holds all of the c's or all of the d's, and
``sympower.handle_duality`` builds just those blocks from the core basis.
``graph_class`` plus ``product_evaluate`` over the full ``duality_pairings``
and ``dual_basis`` is the materialised reference route: it expands Lambda(A)
on every basis monomial.  The tests, demo 04 and the benchmark's traced
replay still call it; no production path does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .linalg import det_int, submatrix
from .sympower import (Monomial, SymClass, SymSpace, apply_induced,
                       dual_basis, duality_pairings, enumerate_basis,
                       handle_duality)
from .tqft import Presentation


@dataclass(frozen=True)
class ProductClass:
    """Integer combination of monomial pairs in Sym^m x Sym^m."""

    space: SymSpace
    terms: Tuple[Tuple[Monomial, Monomial, int], ...]

    def __init__(self, space: SymSpace, terms: Dict[Tuple[Monomial, Monomial], int]):
        object.__setattr__(self, "space", space)
        cleaned = []
        for (a, b), c in terms.items():
            if c == 0:
                continue
            if not (space.contains(a) and space.contains(b)):
                raise ValueError("monomial exceeds the space bound")
            cleaned.append((a, b, c))
        cleaned.sort(key=lambda t: (t[0].indices, t[0].q, t[1].indices, t[1].q))
        object.__setattr__(self, "terms", tuple(cleaned))

    def __len__(self) -> int:
        return len(self.terms)


def _handle_wedge(P: Presentation, beta: Monomial, use_d: bool) -> Monomial:
    """c_0^..^c_{N-1}^beta or d_0^..^d_{N-1}^beta as a split-basis monomial.

    The handle indices precede every shifted x index, so the concatenation
    is already ascending and the wedge sign is +1.
    """
    N = P.handles
    shifted = tuple(i + 2 * N for i in beta.indices)
    handles = tuple(range(N)) if not use_d else tuple(range(N, 2 * N))
    return Monomial(handles + shifted, beta.q)


def diagonal_class(P: Presentation, n: int) -> ProductClass:
    """Dual of the handle-torus diagonal in Sym^{n+N} x Sym^{n+N}.

    Sums over the middle-surface monomial basis.  Extending the sum over
    every split-basis monomial of power n would change nothing: a monomial
    containing a handle class kills either the c wedge or the d wedge by a
    repeated factor.  The duals are read from ``handle_duality``, since
    each d_0^..^d_{N-1}^beta lies in one of its blocks.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    space = SymSpace(P.surface, n + P.handles)
    duals = handle_duality(space)[1]
    terms: Dict[Tuple[Monomial, Monomial], int] = {}
    for beta in enumerate_basis(SymSpace(P.small_surface, n)):
        left = _handle_wedge(P, beta, use_d=False)
        right_src = _handle_wedge(P, beta, use_d=True)
        for m, c in duals[right_src].terms.items():
            key = (left, m)
            terms[key] = terms.get(key, 0) + c
    return ProductClass(space, terms)


def graph_class(P: Presentation, n: int) -> ProductClass:
    """Dual of the monodromy graph in Sym^{n+N} x Sym^{n+N}.

    The diagonal dual sum_a (-1)^{deg a} a* x a pushed through the inverse
    of the homology pushforward; with the monodromy stored as the pullback
    on H^1 that twist is the induced action of the stored matrix.

    Reference route only: it stores every product term (about 283,000 at
    Sym dimension 1268), while ``intersection_number`` reads the few it
    needs as restricted minors.  Called by the tests, demo 04 and the
    benchmark's traced replay.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    space = SymSpace(P.surface, n + P.handles)
    duals = dual_basis(space)
    A = P.monodromy
    terms: Dict[Tuple[Monomial, Monomial], int] = {}
    for a in enumerate_basis(space):
        sign = -1 if a.degree & 1 else 1
        twisted = apply_induced(A, SymClass.monomial(space, a))
        for lm, lc in duals[a].terms.items():
            for rm, rc in twisted.terms.items():
                key = (lm, rm)
                terms[key] = terms.get(key, 0) + sign * lc * rc
    return ProductClass(space, terms)


def _pair_against(u: ProductClass, pairs: Dict[Monomial, Dict[Monomial, int]],
                  coefficient: Callable[[Monomial, Monomial], int]) -> int:
    """Cup product of u with the product class whose (c, e) coefficient is
    ``coefficient(c, e)``, evaluated on the fundamental class.

    Bilinear in the monomial pairs: ((a x b), (c x e)) contributes the
    Kunneth sign (-1)^{deg b deg c} times the duality pairings <a, c> and
    <b, e>.  Each u-term walks only the sparse pairings of a and of b, read
    from ``pairs``, which must hold every monomial of u's terms; so the
    other class is read only at the pairs (c, e) that can contribute.
    """
    total = 0
    for a, b, cu in u.terms:
        odd_b = b.degree & 1
        for c, ac in pairs[a].items():
            sign = -1 if odd_b and c.degree & 1 else 1
            for e, be in pairs[b].items():
                cv = coefficient(c, e)
                if cv:
                    total += sign * cu * ac * be * cv
    return total


def product_evaluate(u: ProductClass, v: ProductClass) -> int:
    """Evaluate the cup product of two product classes on the fundamental class.

    With v indexed by (c, e), the cost is linear in the term counts.
    Together with ``graph_class`` this is the materialised reference route
    for ``intersection_number``.
    """
    if u.space != v.space:
        raise ValueError("product classes live over different powers")
    v_terms = {(c, e): cv for c, e, cv in v.terms}
    return _pair_against(u, duality_pairings(u.space),
                         lambda c, e: v_terms.get((c, e), 0))


def intersection_number(P: Presentation, n: int) -> int:
    """D . Gamma for the presentation, equal to the graded trace of kappa_n.

    The graph class is never built: the diagonal class reads it only at the
    pairs (c, e) that pair with one of its terms, and there

        Gamma[(c, e)] = sum_a (-1)^{deg a} a*[c] det A[e, a]

    over the monomials a whose dual a* contains c (one duality block), with
    a and e of equal length and equal y power.  Each restricted minor is one
    Bareiss determinant, computed once per call.  The pairings and duals
    come from ``handle_duality``: each a, c and e above, and each monomial
    of D, lies in a block holding c_0..c_{N-1} or d_0..d_{N-1} times a
    core monomial, so the cost follows about twice dim H^*(Sym^n) of the
    core surface, not the dimension of Sym^{n+N}.  The result equals
    ``product_evaluate(diagonal_class(P, n), graph_class(P, n))``.
    """
    D = diagonal_class(P, n)
    pairs, duals = handle_duality(D.space)
    holders: Dict[Monomial, List[Tuple[Monomial, int]]] = {}
    for a, dual in duals.items():
        sign = -1 if a.degree & 1 else 1
        for c, coeff in dual.terms.items():
            holders.setdefault(c, []).append((a, sign * coeff))
    mat = P.monodromy.mat
    minors: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}

    def gamma(c: Monomial, e: Monomial) -> int:
        total = 0
        for a, signed in holders.get(c, ()):
            if a.q != e.q or len(a.indices) != len(e.indices):
                continue
            key = (e.indices, a.indices)
            minor = minors.get(key)
            if minor is None:
                minor = minors[key] = det_int(submatrix(mat, e.indices, a.indices))
            total += signed * minor
        return total

    return _pair_against(D, pairs, gamma)
