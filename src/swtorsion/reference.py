"""Reference routes: the independent cross-checks that no command runs.

Each name here recomputes an invariant that a production module computes
faster, by a route that shares as little code with it as possible, and
each route's docstring names the production route it checks.  A route
stays only if it checks a step that no other route checks.  The tests,
the demos and the benchmark's traced replay call them; no command
does, and no production module imports this module, so a command never
pays for compiling it.  ``swtorsion`` resolves the names of its
``__all__`` that live here on first access, and, from its one table
``_FORWARDED``, the few that the benchmark's tracer reads from ``tqft``,
``sympower``, ``surface``, ``intersection`` and ``torsion``.

* Exact rational linear algebra (``det_rational``, ``invert_rational``,
  ``independent_columns``) and the integer inverse ``invert_unimodular``,
  all on the Bareiss kernel ``linalg._bareiss``, and ``perm_parity``, kept
  apart from ``sympower._odd_inversions`` for the signs of the references.
* The surface's object API, each function taking the surface or the
  mapping class first: ``CohClass``, ``pairing``, ``basis_class``,
  ``c_class``, ``d_class``, ``intersection_matrix``, ``apply``, ``inverse``.
* det(1 - tA) from the Bareiss pencil at N = 0 (``char_series``); its
  principal-minor brute force is ``_minor_sums`` at N = 0.
* The monomial model of H^*(Sym^n): ``Monomial`` with ``contains``,
  classes (``SymClass``) with wedge and contraction, the Lambda(A) action
  (``apply_induced``, over the bounded cache ``_lambda_image``),
  endomorphisms and graded traces (``SymEndo``, ``graded_trace``; the
  Lefschetz number of A on Sym^n is
  ``graded_trace(induced_endomorphism(A, n))``), and Poincare duality
  evaluated pairing by pairing and inverted block by block
  (``pair_monomials``, ``duality_pairings``, ``gram_matrix``,
  ``dual_basis``), against which ``sympower.handle_duality`` is tested.
* The assembled kappa_n (``descend_map``, ``ascend_map``,
  ``kappa_matrix``) and its diagonal by subsets (``kappa_trace``).
* Torsion of volumed complexes (``VolumedComplex``, ``complex_torsion``),
  the relative permutations with their collapse (``RelPerm``,
  ``collapse_perm``) and the direct composition sum
  ``torsion_coefficient_direct``.
* The materialised graph-diagonal route (``ProductClass``,
  ``diagonal_class``, ``graph_class``, ``product_evaluate``) for
  ``intersection.intersection_number``.
"""
from __future__ import annotations

import itertools
import operator
import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm, prod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .intersection import _diagonal_terms, _pair_against
from .linalg import (_bareiss, det_int, mat_vec, signed_pencil, submatrix,
                     transpose)
from .series import TruncSeries
from .surface import MappingClass, SurfaceModel
from .sympower import SymSpace
from .tqft import Presentation, _over_square


def _integer_rows(a: tuple) -> Tuple[list, list]:
    """Each row of a times the lcm s_i of its denominators, and the s_i."""
    scales = [lcm(*(x.denominator for x in row)) for row in a]
    return [[x.numerator * (s // x.denominator) for x in row]
            for row, s in zip(a, scales)], scales


def det_rational(a: tuple) -> Fraction:
    """Determinant of a rational matrix: det(S a) / det S, with S the
    diagonal of row scales that makes S a integral."""
    m, scales = _integer_rows(a)
    return Fraction(det_int(m), prod(scales))


def invert_rational(a: tuple) -> tuple:
    """Inverse of a square matrix over the rationals.

    The Jordan pass on [S a | I] leaves det (S a)^-1 on the right, and
    a^-1 = (S a)^-1 S.  Raises ValueError on a singular input.
    """
    n = len(a)
    m, scales = _integer_rows(a)
    for i, row in enumerate(m):
        row.extend(int(i == j) for j in range(n))
    pivots, _, det = _bareiss(m, jordan=True)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(x * s, det) for x, s in zip(row[n:], scales))
                 for row in m)


def invert_unimodular(a: tuple) -> tuple:
    """Integer inverse of an integer matrix of determinant +-1.

    The Jordan pass on [a | I] leaves last pivot * a^-1 on the right, and
    the last pivot is +-det a.  An integer matrix has an integer inverse
    exactly when that pivot is +-1, so this is also the integrality check:
    any other input raises ValueError.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    pivots, _, last = _bareiss(m, jordan=True)
    if pivots != list(range(n)) or last not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(last * x for x in row[n:]) for row in m)


def independent_columns(a: tuple, rng=None) -> list:
    """Column indices forming a basis of the column space.

    Candidate pivot columns are tried in shuffled order when ``rng`` is
    given, so callers can check that downstream results do not depend on
    the choice of basis.
    """
    if not a:
        return []
    order = list(range(len(a[0])))
    if rng is not None:
        rng.shuffle(order)
    m, _ = _integer_rows(a)
    pivots = _bareiss([[row[c] for c in order] for row in m])[0]
    return [order[p] for p in pivots]


def perm_parity(p: Sequence[int]) -> int:
    """Parity (0 or 1) of a permutation given as a tuple of images of 0..n-1."""
    n = len(p)
    seen = [False] * n
    par = 0
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        par ^= (length - 1) & 1
    return par


@dataclass(frozen=True)
class CohClass:
    """Integer class in H^1, written in the surface's fixed basis."""

    surface: SurfaceModel
    vec: tuple

    def __post_init__(self):
        object.__setattr__(self, "vec", tuple(int(v) for v in self.vec))
        if len(self.vec) != self.surface.rank:
            raise ValueError("coefficient vector has wrong length")


def pairing(u: CohClass, v: CohClass) -> int:
    """Cup product pairing <u, v> = u^T J v, with J v from ``pair_vector``."""
    if u.surface != v.surface:
        raise ValueError("classes live on different surfaces")
    return sum(map(operator.mul, u.vec, u.surface.pair_vector(v.vec)))


def basis_class(surface: SurfaceModel, i: int) -> CohClass:
    if not 0 <= i < surface.rank:
        raise IndexError("basis index out of range")
    return CohClass(surface, tuple(1 if t == i else 0 for t in range(surface.rank)))


def c_class(surface: SurfaceModel, i: int) -> CohClass:
    if not 0 <= i < surface.split[0]:
        raise IndexError("handle index out of range")
    return basis_class(surface, i)


def d_class(surface: SurfaceModel, i: int) -> CohClass:
    N = surface.split[0]
    if not 0 <= i < N:
        raise IndexError("handle index out of range")
    return basis_class(surface, N + i)


def intersection_matrix(surface: SurfaceModel) -> tuple:
    """J with J[k][j] = <e_k, e_j>: row k is +-1 at partner(k), else 0.

    A reference for the tests; the library reads the form through
    ``pair_vector`` and never builds J.
    Checks ``SurfaceModel.pair_vector`` and ``is_symplectic``.
    """
    n = surface.rank
    return tuple(tuple(s if j == p else 0 for j in range(n))
                 for p, s in surface._signed_partners)


def apply(A: MappingClass, u: CohClass) -> CohClass:
    if u.surface != A.surface:
        raise ValueError("class lives on a different surface")
    return CohClass(A.surface, mat_vec(A.mat, u.vec))


def inverse(A: MappingClass) -> MappingClass:
    """Integer inverse -J A^T J = J (J A)^T (uses J^2 = -1).

    With p the partner permutation and s_k = <e_k, e_p(k)>, entry (i, j)
    is s_i s_j A[p(j)][p(i)]: two rounds of ``pair_vector``, no product
    with J.  The inverse of a symplectic matrix is symplectic, so the
    constructor's check is not run again.
    """
    pair_vector = A.surface.pair_vector
    JA_T = tuple(map(pair_vector, transpose(A.mat)))
    inverse = object.__new__(MappingClass)
    object.__setattr__(inverse, "surface", A.surface)
    object.__setattr__(inverse, "mat",
                       transpose(tuple(map(pair_vector, transpose(JA_T)))))
    return inverse


def char_series(A: MappingClass, order: int) -> TruncSeries:
    """det(1 - tA) as a truncated series: sum_j (-t)^j tr Lambda^j A.

    This is ``linalg.signed_pencil`` at N = 0: A is symplectic, so
    det(1 + sA) is reciprocal of degree 2G and G + 1 Bareiss determinants
    give it.  ``verify``'s rhs reads the same polynomial from one
    Berkowitz pass (``linalg.det_one_minus_t``), and the trace, torsion
    and zeta commands through ``torsion.newton_pencil``.
    Checks ``tqft.zeta_series`` by the Bareiss route; ``_minor_sums`` at
    N = 0 is its principal-minor brute force.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncSeries(order, signed_pencil(A.mat, 0)[:order + 1])


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

    def __str__(self) -> str:
        xs = "^".join(f"x{i}" for i in self.indices)
        if self.q == 0:
            return xs or "1"
        ys = "y" if self.q == 1 else f"y^{self.q}"
        return f"{xs}.{ys}" if xs else ys


def contains(space: SymSpace, m: Monomial) -> bool:
    return (len(m.indices) + m.q <= space.n
            and all(0 <= i < 2 * space.G for i in m.indices))


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
            if not contains(space, m):
                raise ValueError(f"monomial {m} exceeds the space bound")
            self.terms[m] = c

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
        return SymClass(space)
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
        space, lambda m: apply_induced(A, SymClass(space, {m: 1})))


def apply_induced(A: MappingClass, alpha: SymClass) -> SymClass:
    """Induced action on a single class without assembling the endomorphism."""
    out: Dict[Monomial, int] = {}
    for m, c in alpha.terms.items():
        for idx, co in _lambda_image(A.mat, m.indices):
            key = Monomial(idx, m.q)
            out[key] = out.get(key, 0) + c * co
    return SymClass(alpha.space, out)


def graded_trace(M: SymEndo) -> int:
    """Alternating trace, weighting each monomial by (-1)^{|I|}.  On
    ``induced_endomorphism(A, n)``, the Lefschetz number, it checks
    ``tqft.zeta_series`` and ``intersection_number`` at N = 0."""
    total = 0
    for m, col in zip(enumerate_basis(M.space), M.columns):
        diag = col.coefficient(m)
        if diag:
            total += -diag if len(m.indices) & 1 else diag
    return total


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
    sparse ``duality_pairings``.  Checks that the duality
    ``sympower.handle_duality`` inverts is unimodular."""
    basis = enumerate_basis(space)
    pairs = duality_pairings(space)
    return tuple(tuple(pairs[a].get(b, 0) for b in basis) for a in basis)


def dual_basis(space: SymSpace) -> Dict[Monomial, SymClass]:
    """For each basis monomial a, the class a* with <a*, b> = delta_{ab}.

    The Gram matrix is block diagonal up to order (``_duality_blocks``),
    so the duals of a block's columns combine its rows, with coefficients
    from the block's integer inverse (``invert_unimodular``, which raises
    unless the block is unimodular).
    Checks ``sympower.handle_duality``.
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


def descend_map(P: Presentation, n: int, alpha: SymClass) -> SymClass:
    """First compression body: contract by c_0, then c_1, .. then c_{N-1},
    kill monomials still meeting the handle classes, and read the result in
    the basis of the middle surface."""
    big = SymSpace(P.surface, n + P.handles)
    if alpha.space != big:
        raise ValueError("class is not in the expected symmetric power")
    N = P.handles
    cur = alpha
    for i in range(N):
        cur = contract_class(c_class(P.surface, i), cur)
    small = SymSpace(SurfaceModel(P.genus), n)
    out = {}
    for m, c in cur.terms.items():
        if any(i < 2 * N for i in m.indices):
            continue
        key = Monomial(tuple(i - 2 * N for i in m.indices), m.q)
        out[key] = c
    return SymClass(small, out)


def ascend_map(P: Presentation, n: int, beta: SymClass) -> SymClass:
    """Second compression body: include into the split basis and wedge the
    handle classes so the result reads c_0 ^ .. ^ c_{N-1} ^ beta."""
    small = SymSpace(SurfaceModel(P.genus), n)
    if beta.space != small:
        raise ValueError("class is not in the expected symmetric power")
    N = P.handles
    mid = SymSpace(P.surface, n)
    lifted = SymClass(mid, {Monomial(tuple(i + 2 * N for i in m.indices), m.q): c
                            for m, c in beta.terms.items()})
    cur = lifted
    for i in reversed(range(N)):
        cur = wedge_class(c_class(P.surface, i), cur)
    return cur


def kappa_matrix(P: Presentation, n: int) -> SymEndo:
    """The TQFT endomorphism of H^*(Sym^{n+N}): monodromy after wedge after
    contraction, assembled column by column over the monomial basis.
    Its ``graded_trace`` checks ``tqft.trace_kappa_series``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    big = SymSpace(P.surface, n + P.handles)
    A = P.monodromy

    def column(m: Monomial) -> SymClass:
        down = descend_map(P, n, SymClass(big, {m: 1}))
        if down.is_zero():
            return SymClass(big)
        up = ascend_map(P, n, down)
        return apply_induced(A, up)

    return SymEndo.from_function(big, column)


def _minor_sums(P: Presentation, nmax: int) -> Tuple[int, ...]:
    """(-1)^{N + k} sum over |K| = k of det A[D u K, C u K] for
    k <= min(nmax, 2g), each minor computed once: the coefficients of
    ``linalg.signed_pencil``, summed subset by subset, which they check.
    At N = 0 they are (-1)^k tr Lambda^k A, the principal-minor brute
    force for det(1 - tA), which ``tqft.zeta_series`` prints."""
    N = P.handles
    mat = P.monodromy.mat
    C, D = tuple(range(N)), tuple(range(N, 2 * N))
    return tuple((-1) ** (N + k)
                 * sum(det_int(submatrix(mat, D + K, C + K))
                       for K in combinations(range(2 * N, len(mat)), k))
                 for k in range(min(nmax, 2 * P.genus) + 1))


def kappa_trace(P: Presentation, n: int) -> int:
    """Graded trace of kappa_n read from its diagonal alone.

    kappa_n is Lambda(A) after ascend after descend.  Ascend after descend
    sends d_0..d_{N-1} x_K y^q to +c_0..c_{N-1} x_K y^q for each subset K
    of the core classes X and kills every other monomial, and Lambda(A)
    sends x_J to the sum over I of det A[I, J] x_I.  So the diagonal is
    det A[D u K, C u K] at each of the n - |K| + 1 monomials x_{D u K} y^q,
    and the trace sums (-1)^{N + |K|} (n - |K| + 1) det A[D u K, C u K]
    over |K| <= n (``_minor_sums`` over (1 - t)^2): one restricted minor
    per subset, with no symmetric power, no pencil of
    ``trace_kappa_series`` and no column of ``kappa_matrix`` formed.
    Checks ``tqft.trace_kappa_coefficient``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _over_square(_minor_sums(P, n), n)[n]


def _frac_matrix(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class VolumedComplex:
    """Finite chain complex with the standard basis volume on each level.

    ``ranks`` lists the chain group dimensions from the top level C_n down
    to C_0; ``differentials[i]`` is the matrix of C_{n-i} -> C_{n-i-1}
    (entries exact rationals, columns indexed by the source).
    """

    ranks: Tuple[int, ...]
    differentials: Tuple[tuple, ...]

    def __init__(self, ranks: Sequence[int], differentials: Iterable):
        ranks = tuple(int(r) for r in ranks)
        diffs = tuple(_frac_matrix(d) for d in differentials)
        if len(diffs) != max(len(ranks) - 1, 0):
            raise ValueError("need exactly one differential per adjacent pair")
        for i, d in enumerate(diffs):
            src, dst = ranks[i], ranks[i + 1]
            if len(d) != dst or any(len(row) != src for row in d):
                raise ValueError(f"differential {i} has the wrong shape")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "differentials", diffs)
        for upper, lower in zip(diffs, diffs[1:]):
            src = len(upper[0]) if upper else 0
            for col in range(src):
                v = tuple(row[col] for row in upper)
                if any(mat_vec(lower, v)):
                    raise ValueError("differentials do not compose to zero")

    @property
    def top(self) -> int:
        return len(self.ranks) - 1


def complex_torsion(C: VolumedComplex, rng: Optional[random.Random] = None) -> Fraction:
    """Torsion of a volumed complex; 0 when the complex is not acyclic.

    For each level the image of the incoming differential gets a volume from
    a chosen set of independent columns; the torsion is the alternating
    product of the determinants comparing (incoming volume, lifted outgoing
    volume) against the standard volume.  The result is independent of the
    column choices, which ``rng`` can shuffle to let tests confirm that.
    Checks the general torsion that ``torsion.morse_torsion`` specialises
    to the two-term Morse complex (acceptance criterion 5).
    """
    n = C.top
    ranks = C.ranks
    # diff_at[i]: the differential leaving level i (C_i -> C_{i-1});
    # levels are numbered 0..n from the bottom here.
    diff_at = {n - i: C.differentials[i] for i in range(len(C.differentials))}

    chosen: dict = {}
    rank_of: dict = {}
    for lvl in range(1, n + 1):
        d = diff_at[lvl]
        cols = independent_columns(d, rng)
        chosen[lvl] = cols
        rank_of[lvl] = len(cols)
    rank_of[0] = 0
    rank_of[n + 1] = 0

    # Acyclicity: dim C_i = rank(d_i) + rank(d_{i+1}) at every level.
    for lvl in range(0, n + 1):
        dim = ranks[n - lvl]
        if dim != rank_of[lvl] + rank_of.get(lvl + 1, 0):
            return Fraction(0)

    result = Fraction(1)
    for lvl in range(0, n + 1):
        dim = ranks[n - lvl]
        if dim == 0:
            continue
        block: List[List[Fraction]] = []
        if lvl + 1 <= n:
            d_in = diff_at[lvl + 1]
            for c in chosen[lvl + 1]:
                block.append([d_in[r][c] for r in range(dim)])
        for c in chosen.get(lvl, []):
            block.append([Fraction(1) if r == c else Fraction(0) for r in range(dim)])
        t = det_rational(tuple(zip(*block)))
        if t == 0:
            raise AssertionError("volume comparison degenerated")
        result *= t if (lvl + 1) % 2 == 0 else 1 / t
    return result


@dataclass(frozen=True)
class RelPerm:
    """Permutation of {0..s-1} whose powers carry {0..N-1} onto everything."""

    s: int
    N: int
    perm: Tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.N <= self.s:
            raise ValueError("need 0 <= N <= s")
        p = tuple(self.perm)
        if sorted(p) != list(range(self.s)):
            raise ValueError("not a permutation")
        object.__setattr__(self, "perm", p)
        if not _orbit_covers(p, self.N):
            raise ValueError("orbit of the first N points does not cover")

    @property
    def parity(self) -> int:
        return perm_parity(self.perm)


def _orbit_covers(p: Tuple[int, ...], N: int) -> bool:
    s = len(p)
    orbit = set(range(N))
    while True:
        new = {p[x] for x in orbit} - orbit
        if not new:
            break
        orbit |= new
    return len(orbit) == s


def enumerate_relative_perms(s: int, N: int) -> List[RelPerm]:
    """All permutations of {0..s-1} propagating {0..N-1} onto the whole set."""
    if not 0 <= N <= s:
        raise ValueError("need 0 <= N <= s")
    out = []
    for p in itertools.permutations(range(s)):
        if _orbit_covers(p, N):
            out.append(RelPerm(s, N, p))
    return out


def collapse_perm(rho: RelPerm) -> Tuple[Tuple[int, ...], List[int]]:
    """Return times and the collapsed permutation of {0..N-1}.

    For each i < N, s_i is the least m > 0 with rho^m(i) < N, and the
    collapsed permutation sends i to rho^{s_i}(i).  The return times sum
    to s.  Checks the sign lemma behind the signs of
    ``torsion_coefficient_direct`` (acceptance criterion 6).
    """
    N = rho.N
    tilde = []
    times = []
    for i in range(N):
        j = rho.perm[i]
        m = 1
        while j >= N:
            j = rho.perm[j]
            m += 1
        tilde.append(j)
        times.append(m)
    if N > 0 and sum(times) != rho.s:
        raise AssertionError("return times do not exhaust the orbit")
    return tuple(tilde), times


def _compositions(total: int, parts: int):
    """All tuples of `parts` integers >= 1 summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def torsion_coefficient_direct(P, k: int) -> int:
    """Coefficient of t^k of the torsion representative, summed directly.

    Sum over compositions s_0 + ... + s_{N-1} = k with every part >= 1 and
    over permutations of the handle labels, of the signed product of
    pairings <A^{s_i} c_i, c_{sigma(i)}>.
    Checks ``torsion.torsion_representative`` and ``morse_torsion``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    N = P.handles
    if N == 0:
        return 1 if k == 0 else 0
    if k < N:
        return 0
    surface = P.surface
    A = P.monodromy
    cs = [c_class(surface, i) for i in range(N)]
    powers = {}
    cur = {i: cs[i] for i in range(N)}
    for s in range(1, k - N + 2):
        for i in range(N):
            cur[i] = apply(A, cur[i])
        powers[s] = {(i, j): pairing(cur[i], cs[j])
                     for i in range(N) for j in range(N)}
    total = 0
    for comp in _compositions(k, N):
        for sigma in itertools.permutations(range(N)):
            sign = -1 if perm_parity(sigma) else 1
            prod = sign
            for i in range(N):
                prod *= powers[comp[i]][(i, sigma[i])]
                if prod == 0:
                    break
            total += prod
    return total


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
            if not (contains(space, a) and contains(space, b)):
                raise ValueError("monomial exceeds the space bound")
            cleaned.append((a, b, c))
        cleaned.sort()
        object.__setattr__(self, "terms", tuple(cleaned))

    def __len__(self) -> int:
        return len(self.terms)


def diagonal_class(P: Presentation, n: int) -> ProductClass:
    """Dual of the handle-torus diagonal in Sym^{n+N} x Sym^{n+N}.

    Sums over the middle-surface monomial basis.  Extending the sum over
    every split-basis monomial of power n would change nothing: a monomial
    containing a handle class kills either the c wedge or the d wedge by a
    repeated factor.  Built from the same (indices, q) terms that
    ``intersection_number`` pairs (``_diagonal_terms``), as monomials.
    """
    space, terms, _, _ = _diagonal_terms(P, n)
    return ProductClass(space, {(Monomial(*a), Monomial(*b)): coeff
                                for a, b, coeff in terms})


def graph_class(P: Presentation, n: int) -> ProductClass:
    """Dual of the monodromy graph in Sym^{n+N} x Sym^{n+N}.

    The diagonal dual sum_a (-1)^{deg a} a* x a pushed through the inverse
    of the homology pushforward; with the monodromy stored as the pullback
    on H^1 that twist is the induced action of the stored matrix.

    Reference route only: it stores every product term (about 283,000 at
    Sym dimension 1268), while ``intersection_number`` reads the few it
    needs as restricted minors.  Called by the tests, demo 04 and the
    benchmark's traced replay.  With ``product_evaluate`` it checks
    ``intersection_number``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    space = SymSpace(P.surface, n + P.handles)
    duals = dual_basis(space)
    A = P.monodromy
    terms: Dict[Tuple[Monomial, Monomial], int] = {}
    for a in enumerate_basis(space):
        sign = -1 if a.degree & 1 else 1
        twisted = apply_induced(A, SymClass(space, {a: 1}))
        for lm, lc in duals[a].terms.items():
            for rm, rc in twisted.terms.items():
                key = (lm, rm)
                terms[key] = terms.get(key, 0) + sign * lc * rc
    return ProductClass(space, terms)


def product_evaluate(u: ProductClass, v: ProductClass) -> int:
    """Evaluate the cup product of two product classes on the fundamental class.

    With v indexed by (c, e), the cost is linear in the term counts.
    Together with ``graph_class`` this is the materialised reference route
    for, and check of, ``intersection_number``.
    """
    if u.space != v.space:
        raise ValueError("product classes live over different powers")
    v_terms = {(c, e): cv for c, e, cv in v.terms}
    return _pair_against(u.terms, duality_pairings(u.space),
                         lambda c, e: v_terms.get((c, e), 0))
