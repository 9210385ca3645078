"""The symplectic lattice H^1 of a closed surface and its mapping classes.

Basis conventions (0-indexed throughout the code):

* unsplit surface of genus G: classes ``x_0 .. x_{2G-1}`` with
  ``<x_j, x_{G+j}> = +1``;
* split surface with N handle curves and core genus g (G = N + g):
  classes ``c_0 .. c_{N-1}, d_0 .. d_{N-1}, x_0 .. x_{2g-1}`` with
  ``<c_i, d_i> = +1`` and ``<x_j, x_{g+j}> = +1``.

A mapping class is stored as the pullback action on H^1: column j of the
matrix is the image of basis class j.  The pushforward on homology, where
needed, is the inverse matrix under the Poincare duality identification.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .linalg import (as_matrix, det_int, identity_matrix, interpolate, mat_mul,
                     mat_vec, submatrix, transpose)
from .series import TruncSeries


@lru_cache(maxsize=None)
def _intersection_matrix(G: int, split: Optional[tuple]) -> tuple:
    J = [[0] * (2 * G) for _ in range(2 * G)]
    if split is None:
        for j in range(G):
            J[j][G + j] = 1
            J[G + j][j] = -1
    else:
        N, g = split
        for i in range(N):
            J[i][N + i] = 1
            J[N + i][i] = -1
        for j in range(g):
            J[2 * N + j][2 * N + g + j] = 1
            J[2 * N + g + j][2 * N + j] = -1
    return as_matrix(J)


@dataclass(frozen=True)
class SurfaceModel:
    """Genus-G surface with a fixed symplectic basis of H^1."""

    G: int
    split: Optional[tuple] = None

    def __post_init__(self):
        if self.G < 0:
            raise ValueError("genus must be nonnegative")
        if self.split is not None:
            N, g = self.split
            if N < 0 or g < 0 or N + g != self.G:
                raise ValueError("split (N, g) must satisfy N + g = G")
            object.__setattr__(self, "split", (N, g))

    @property
    def rank(self) -> int:
        return 2 * self.G

    @property
    def intersection_matrix(self) -> tuple:
        return _intersection_matrix(self.G, self.split)

    def partner(self, i: int) -> int:
        """Index paired with i: <e_i, e_partner(i)> = +-1."""
        if not 0 <= i < self.rank:
            raise IndexError("basis index out of range")
        if self.split is None:
            return i + self.G if i < self.G else i - self.G
        N, g = self.split
        if i < N:
            return N + i
        if i < 2 * N:
            return i - N
        j = i - 2 * N
        return 2 * N + g + j if j < g else 2 * N + (j - g)

    def basis_class(self, i: int) -> "CohClass":
        if not 0 <= i < self.rank:
            raise IndexError("basis index out of range")
        return CohClass(self, tuple(1 if t == i else 0 for t in range(self.rank)))

    def c_class(self, i: int) -> "CohClass":
        N, _ = self._split_or_raise()
        if not 0 <= i < N:
            raise IndexError("handle index out of range")
        return self.basis_class(i)

    def d_class(self, i: int) -> "CohClass":
        N, _ = self._split_or_raise()
        if not 0 <= i < N:
            raise IndexError("handle index out of range")
        return self.basis_class(N + i)

    def _split_or_raise(self):
        if self.split is None:
            raise ValueError("surface has no split basis")
        return self.split


@dataclass(frozen=True)
class CohClass:
    """Integer class in H^1, written in the surface's fixed basis."""

    surface: SurfaceModel
    vec: tuple

    def __post_init__(self):
        object.__setattr__(self, "vec", tuple(int(v) for v in self.vec))
        if len(self.vec) != self.surface.rank:
            raise ValueError("coefficient vector has wrong length")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass(self.surface, tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass(self.surface, tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self) -> "CohClass":
        return CohClass(self.surface, tuple(-a for a in self.vec))

    def scale(self, c: int) -> "CohClass":
        return CohClass(self.surface, tuple(c * a for a in self.vec))

    def _check(self, other: "CohClass"):
        if self.surface != other.surface:
            raise ValueError("classes live on different surfaces")


def pairing(u: CohClass, v: CohClass) -> int:
    """Cup product pairing <u, v> = u^T J v."""
    if u.surface != v.surface:
        raise ValueError("classes live on different surfaces")
    J = u.surface.intersection_matrix
    return sum(u.vec[i] * J[i][j] * v.vec[j]
               for i in range(len(u.vec)) for j in range(len(v.vec))
               if J[i][j] != 0)


def is_symplectic(mat, surface: Optional[SurfaceModel] = None) -> bool:
    """True iff mat^T J mat = J for the surface's intersection form.

    With no surface given, the unsplit convention of the matching genus is
    assumed; the matrix must be square with even size.
    """
    m = as_matrix(mat)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n % 2 != 0:
        raise ValueError("matrix size must be even")
    if surface is None:
        surface = SurfaceModel(n // 2)
    elif surface.rank != n:
        raise ValueError("matrix size does not match the surface")
    J = surface.intersection_matrix
    return mat_mul(transpose(m), mat_mul(J, m)) == J


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

    @classmethod
    def identity(cls, surface: SurfaceModel) -> "MappingClass":
        return cls(surface, identity_matrix(surface.rank))

    def apply(self, u: CohClass) -> CohClass:
        if u.surface != self.surface:
            raise ValueError("class lives on a different surface")
        return CohClass(self.surface, mat_vec(self.mat, u.vec))

    def compose(self, other: "MappingClass") -> "MappingClass":
        """Pullback of (self after other) = self.mat @ other.mat."""
        if self.surface != other.surface:
            raise ValueError("mapping classes on different surfaces")
        return MappingClass(self.surface, mat_mul(self.mat, other.mat))

    def inverse(self) -> "MappingClass":
        """Integer inverse, -J A^T J (uses J^2 = -1)."""
        J = self.surface.intersection_matrix
        mJ = tuple(tuple(-x for x in row) for row in J)
        return MappingClass(self.surface, mat_mul(mJ, mat_mul(transpose(self.mat), J)))

    def trace(self) -> int:
        return sum(self.mat[i][i] for i in range(len(self.mat)))


def exterior_power_trace(A: MappingClass, j: int) -> int:
    """Trace of the induced map on the j-th exterior power of H^1.

    Computed as the sum of the C(2G, j) principal j x j minors.  This is
    the brute-force reference for ``char_series``, which production code
    uses instead.
    """
    n = A.surface.rank
    if not 0 <= j <= n:
        raise ValueError("exterior power out of range")
    from itertools import combinations

    total = 0
    for S in combinations(range(n), j):
        total += det_int(submatrix(A.mat, S, S))
    return total


def char_series(A: MappingClass, order: int) -> TruncSeries:
    """det(1 - tA) as a truncated series: sum_j (-t)^j tr Lambda^j A.

    det(1 + sA) = sum_j s^j tr Lambda^j A has degree 2G, so its values at
    s = 0..2G, 2G + 1 Bareiss determinants, give every exterior trace by
    exact interpolation.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = A.surface.rank
    values = [det_int(tuple(tuple(s * x + (i == j) for j, x in enumerate(row))
                            for i, row in enumerate(A.mat)))
              for s in range(n + 1)]
    ext = interpolate(values)
    return TruncSeries(order, [-ext[j] if j & 1 else ext[j]
                               for j in range(min(n, order) + 1)])


def _transvection(surface: SurfaceModel, v: tuple, direction: int) -> tuple:
    """Matrix of x -> x + direction * <x, v> v (columns are images)."""
    n = surface.rank
    J = surface.intersection_matrix
    cols = []
    for k in range(n):
        pair = sum(J[k][j] * v[j] for j in range(n))
        cols.append(tuple((1 if i == k else 0) + direction * pair * v[i]
                          for i in range(n)))
    return transpose(as_matrix(cols))


def random_symplectic(surface: Union[SurfaceModel, int], word_length: int,
                      seed: int) -> MappingClass:
    """Deterministic product of elementary symplectic transvections.

    The generating set consists of the transvections x -> x +- <x, v> v for
    v a basis vector or a sum of two basis vectors.  A bare integer genus
    means the unsplit surface of that genus.
    """
    if isinstance(surface, int):
        surface = SurfaceModel(surface)
    if word_length < 0:
        raise ValueError("word length must be nonnegative")
    n = surface.rank
    mat = identity_matrix(n)
    if n == 0 or word_length == 0:
        return MappingClass(surface, mat)
    vecs = [tuple(1 if i == k else 0 for i in range(n)) for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vecs.append(tuple(1 if t in (i, j) else 0 for t in range(n)))
    rng = random.Random(seed)
    for _ in range(word_length):
        v = rng.choice(vecs)
        direction = rng.choice((1, -1))
        mat = mat_mul(mat, _transvection(surface, v, direction))
    return MappingClass(surface, mat)
