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
``sympower.handle_duality`` writes just those blocks down in closed form,
on plain (indices, q) tuples, without evaluating a pairing or inverting a
block.  The production route builds no ``Monomial``, ``SymClass`` or
``ProductClass``.  The materialised reference route lives in
``swtorsion.reference``: ``diagonal_class`` wraps the same terms
(``_diagonal_terms``) as monomials, and ``graph_class`` plus
``product_evaluate`` (through ``_pair_against``, shared with this module)
expand Lambda(A) on every basis monomial over the full duality.  The
tests, demo 04 and the benchmark's traced replay call it; no command does.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .linalg import det_int, submatrix
from .sympower import SymSpace, handle_duality
from .tqft import Presentation


# Reference routes that the benchmark's tracer reads from this module; they
# live in ``swtorsion.reference``, imported on the first such read.  ROADMAP
# item 5 retires the tracer's replay and deletes this forwarder.
_FORWARDED = frozenset({"diagonal_class", "graph_class", "product_evaluate"})


def __getattr__(name: str):
    if name in _FORWARDED:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _diagonal_terms(P: Presentation, n: int) -> Tuple[SymSpace, List[tuple],
                                                     dict, dict]:
    """The space Sym^{n+N}, the terms (a, b, coefficient) of the diagonal
    class on (indices, q) keys, and the (pairs, duals) of
    ``handle_duality`` that they were read from.

    For each core monomial beta, a is c_0^..^c_{N-1}^beta and b runs over
    the dual of d_0^..^d_{N-1}^beta.  The handle indices precede every
    shifted core index, so a wedge is the plain concatenation with sign +1.
    The keys of ``handle_duality`` that start with C are exactly these a,
    one per core monomial, so no two terms share a key.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    N = P.handles
    space = SymSpace(P.surface, n + N)
    pairs, duals = handle_duality(space)
    C, D = tuple(range(N)), tuple(range(N, 2 * N))
    terms = [(a, b, coeff)
             for a in pairs if a[0][:N] == C
             for b, coeff in duals[D + a[0][N:], a[1]].items()]
    return space, terms, pairs, duals


def _pair_against(terms, pairs: Dict[tuple, Dict[tuple, int]],
                  coefficient: Callable[[tuple, tuple], int]) -> int:
    """Cup product of the product class with the terms (a, b, coefficient)
    and the one whose (c, e) coefficient is ``coefficient(c, e)``,
    evaluated on the fundamental class; all monomials are (indices, q) tuples.

    Bilinear in the monomial pairs: ((a x b), (c x e)) contributes the
    Kunneth sign (-1)^{deg b deg c} times the duality pairings <a, c> and
    <b, e>, and deg b is odd exactly when b has an odd number of indices.
    Each term walks only the sparse pairings of a and of b, read from
    ``pairs``, which must hold every monomial of the terms; so the other
    class is read only at the pairs (c, e) that can contribute.
    """
    total = 0
    for a, b, cu in terms:
        odd_b = len(b[0]) & 1
        pairs_b = pairs[b]
        for c, ac in pairs[a].items():
            weight = -cu * ac if odd_b and len(c[0]) & 1 else cu * ac
            for e, be in pairs_b.items():
                cv = coefficient(c, e)
                if cv:
                    total += weight * be * cv
    return total


def intersection_number(P: Presentation, n: int) -> int:
    """D . Gamma for the presentation, equal to the graded trace of kappa_n.

    The graph class is never built: the diagonal class reads it only at the
    pairs (c, e) that pair with one of its terms, and there

        Gamma[(c, e)] = sum_a (-1)^{deg a} a*[c] det A[e, a]

    over the monomials a whose dual a* contains c (one duality block), with
    a and e of equal length and equal y power.  Each restricted minor is one
    Bareiss determinant, computed once per call.  The pairings and duals
    come from ``handle_duality`` in closed form: each a, c and e above, and
    each monomial of D, lies in a block holding c_0..c_{N-1} or
    d_0..d_{N-1} times a core monomial, so the cost follows about twice
    dim H^*(Sym^n) of the core surface, not the dimension of Sym^{n+N}.
    Every monomial is a plain (indices, q) tuple; no ``Monomial``,
    ``SymClass`` or ``ProductClass`` is built.  The result equals
    ``product_evaluate(diagonal_class(P, n), graph_class(P, n))``.

    The pairing walk is kept on purpose.  For each diagonal term
    (C beta, b) it reads every pairing <b, e>, although the terms of one
    beta sum to sum_b (D beta)*[b] <b, e> = delta_{e, D beta}: at
    (g, N, n) = (4, 0, 4), seed 1, that is 6,285 graph lookups where 627
    (one per pairing of each C beta) would give the same sum.  The walk
    re-proves <b*, e> = delta, the duality that ``intersect`` exists to
    check; collapsing it would turn this route into the restricted-minor
    trace formula that ``kappa_trace`` already runs.
    """
    _, terms, pairs, duals = _diagonal_terms(P, n)
    # holders[c, k, q]: the a of k indices and y power q whose dual holds c
    holders: Dict[tuple, List[Tuple[Tuple[int, ...], int]]] = {}
    for (cols, q), dual in duals.items():
        odd = len(cols) & 1
        for c, coeff in dual.items():
            holders.setdefault((c, len(cols), q), []).append(
                (cols, -coeff if odd else coeff))
    mat = P.monodromy.mat
    minors: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    values: Dict[Tuple[tuple, tuple], int] = {}

    def gamma(c: tuple, e: tuple) -> int:
        value = values.get((c, e))
        if value is None:
            rows, q = e
            value = 0
            for cols, signed in holders.get((c, len(rows), q), ()):
                minor = minors.get((rows, cols))
                if minor is None:
                    minor = minors[rows, cols] = det_int(
                        submatrix(mat, rows, cols))
                value += signed * minor
            values[c, e] = value
        return value

    return _pair_against(terms, pairs, gamma)
