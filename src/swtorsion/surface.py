"""The symplectic lattice H^1 of a closed surface and its mapping classes.

Basis conventions (0-indexed throughout the code):

* split surface with N handle curves and core genus g (G = N + g):
  classes ``c_0 .. c_{N-1}, d_0 .. d_{N-1}, x_0 .. x_{2g-1}`` with
  ``<c_i, d_i> = +1`` and ``<x_j, x_{g+j}> = +1``;
* unsplit surface of genus G: the split (0, G), classes
  ``x_0 .. x_{2G-1}`` with ``<x_j, x_{G+j}> = +1``.

``SurfaceModel.partner`` is the single definition of the form; the matrix J
and the products J v are read off it.

A mapping class is stored as the pullback action on H^1: column j of the
matrix is the image of basis class j.  The pushforward on homology, where
needed, is the inverse matrix under the Poincare duality identification.
The MappingClass constructor is the one symplectic check: loading and
validating a presentation both build one.  The Bareiss route to
det(1 - tA) (``char_series``), its principal-minor brute force
(``_minor_sums`` at N = 0) and the object API that only the cross-checks
read (``CohClass``, ``pairing``, the basis classes, J, the action and
inverse of a mapping class) live in ``swtorsion.reference``.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from .linalg import as_matrix, identity_matrix, transpose


@dataclass(frozen=True)
class SurfaceModel:
    """Genus-G surface with a fixed symplectic basis of H^1.

    ``split`` is (N, g) with N + g = G; no split means (0, G), the same
    basis as the unsplit convention, so SurfaceModel(G) equals
    SurfaceModel(G, (0, G)).
    """

    G: int
    split: Optional[tuple] = None

    def __post_init__(self):
        if self.G < 0:
            raise ValueError("genus must be nonnegative")
        N, g = (0, self.G) if self.split is None else self.split
        if N < 0 or g < 0 or N + g != self.G:
            raise ValueError("split (N, g) must satisfy N + g = G")
        object.__setattr__(self, "split", (N, g))

    @property
    def rank(self) -> int:
        return 2 * self.G

    def partner(self, i: int) -> int:
        """Index paired with i.  This is the one definition of the form:
        <e_i, e_partner(i)> = +1 when i < partner(i), else -1, and every
        other pair of basis classes pairs to 0."""
        if not 0 <= i < self.rank:
            raise IndexError("basis index out of range")
        N, g = self.split
        if i < 2 * N:
            return (i + N) % (2 * N)
        return 2 * N + (i - 2 * N + g) % (2 * g)

    @cached_property
    def _signed_partners(self) -> tuple:
        """(partner(k), <e_k, e_partner(k)>) for k = 0..rank - 1."""
        return tuple((p, 1 if k < p else -1)
                     for k, p in enumerate(map(self.partner, range(self.rank))))

    def pair_vector(self, v) -> tuple:
        """J v: entry k is <e_k, v> = +-v[partner(k)], signed as in ``partner``."""
        return tuple(s * v[p] for p, s in self._signed_partners)


def is_symplectic(mat, surface: SurfaceModel) -> bool:
    """True iff mat^T J mat = J for the surface's intersection form; the
    matrix must be square of the surface's rank."""
    m = as_matrix(mat)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if surface.rank != n:
        raise ValueError("matrix size does not match the surface")
    # Entry (i, j) of A^T (J A) is column i of A dotted with J (column j),
    # and must be +-1 at j = partner(i), else 0.  A^T J A is antisymmetric
    # for any integer A, so the entries with i < j decide it.
    cols = transpose(m)
    pair_cols = tuple(map(surface.pair_vector, cols))
    for i, (p, s) in enumerate(surface._signed_partners):
        col = cols[i]
        for j in range(i + 1, n):
            if sum(map(operator.mul, col, pair_cols[j])) != (s if j == p else 0):
                return False
    return True


@dataclass(frozen=True)
class MappingClass:
    """Pullback action of a surface diffeomorphism on H^1.

    Column j of ``mat`` is the image of basis class j.  The matrix must
    preserve the intersection form; this is checked at construction.
    """

    surface: SurfaceModel
    mat: tuple

    def __post_init__(self):
        object.__setattr__(self, "mat", as_matrix(self.mat))
        if not is_symplectic(self.mat, self.surface):
            raise ValueError("matrix does not preserve the intersection form")


def random_symplectic(surface: SurfaceModel, word_length: int,
                      seed: int) -> MappingClass:
    """Deterministic product of elementary symplectic transvections on the
    given surface.

    The generating set consists of the transvections x -> x +- <x, v> v for
    v a basis vector or a sum of two basis vectors.  Right multiplication
    by one changes only the columns p(i), i in the support of v: column
    p(i) gains +-<e_p(i), e_i> (mat v), with p and the sign from
    ``_signed_partners``.
    """
    if word_length < 0:
        raise ValueError("word length must be nonnegative")
    n = surface.rank
    cols = [list(col) for col in identity_matrix(n)]
    supports = [(k,) for k in range(n)] + list(combinations(range(n), 2))
    rng = random.Random(seed)
    for _ in range(word_length if n else 0):
        support = rng.choice(supports)
        direction = rng.choice((1, -1))
        image = [sum(col) for col in zip(*(cols[i] for i in support))]
        for i in support:
            p, s = surface._signed_partners[i]
            step = -direction * s
            cols[p] = [a + step * b for a, b in zip(cols[p], image)]
    return MappingClass(surface, transpose(cols))
