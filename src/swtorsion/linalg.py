"""Exact linear algebra on small matrices.

Matrices are immutable tuples of row tuples.  Integer routines stay in the
integers (Bareiss elimination for determinants); rational routines use
``fractions.Fraction`` throughout.  Nothing here ever touches a float.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence, Tuple


def as_matrix(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def identity_matrix(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: tuple) -> tuple:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols)
                 for row in a)


def mat_vec(a: tuple, v: Sequence) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def submatrix(a: tuple, rows: Sequence[int], cols: Sequence[int]) -> tuple:
    return tuple(tuple(a[i][j] for j in cols) for i in rows)


def det_int(a: tuple) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def interpolate(values: Sequence[int]) -> Tuple[int, ...]:
    """Coefficients of the polynomial of degree < len(values) that takes
    values[k] at s = k, by forward differences in the falling-factorial basis.

    The coefficients are asserted to be integers.
    """
    coeffs = [Fraction(0)] * len(values)
    falling = [1]  # coefficients of s (s - 1) .. (s - k + 1)
    diffs = list(values)
    factorial = 1
    for k in range(len(values)):
        if k:
            factorial *= k
        for i, c in enumerate(falling):
            coeffs[i] += Fraction(diffs[0] * c, factorial)
        shifted = [0] + falling
        for i, c in enumerate(falling):
            shifted[i] -= k * c
        falling = shifted
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    if any(c.denominator != 1 for c in coeffs):
        raise AssertionError("interpolated polynomial is not integral")
    return tuple(int(c) for c in coeffs)


def det_pencil(m0: tuple, m1: tuple) -> Tuple[int, ...]:
    """Coefficients of det(m0 + s m1) in s, lowest degree first.

    Each nonzero row of m1 raises the degree by at most one, so with deg
    nonzero rows the Bareiss determinants at s = 0..deg and ``interpolate``
    give the polynomial exactly.
    """
    deg = sum(1 for row in m1 if any(row))
    return interpolate([det_int(tuple(tuple(a + s * b for a, b in zip(r0, r1))
                                      for r0, r1 in zip(m0, m1)))
                        for s in range(deg + 1)])


def _pivot_order(n: int, rng) -> list:
    order = list(range(n))
    if rng is not None:
        rng.shuffle(order)
    return order


def rank_int(a: tuple) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) row echelon.

    After each pivot every remaining entry is a minor of the input, so the
    division by the previous pivot is exact and no fraction is formed.
    """
    if not a or not a[0]:
        return 0
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        for i in range(r + 1, rows):
            f = m[i][c]
            row = m[i]
            for j in range(c + 1, cols):
                row[j] = (p * row[j] - f * m[r][j]) // prev
            row[c] = 0
        prev = p
        r += 1
        if r == rows:
            break
    return r


def det_rational(a: tuple) -> Fraction:
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def invert_rational(a: tuple) -> tuple:
    """Inverse of a square matrix over the rationals.

    Raises ValueError on a singular input.
    """
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = m[c][c]
        m[c] = [x / inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def independent_columns(a: tuple, rng=None) -> list:
    """Column indices forming a basis of the column space.

    Candidate pivot columns are tried in shuffled order when ``rng`` is
    given, so callers can check that downstream results do not depend on
    the choice of basis.
    """
    if not a:
        return []
    rows, cols = len(a), len(a[0])
    m = [[Fraction(x) for x in row] for row in a]
    chosen: list = []
    r = 0
    for c in _pivot_order(cols, rng):
        if r == rows:
            break
        col = [m[i][c] for i in range(rows)]
        piv = next((i for i in range(r, rows) if col[i] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        chosen.append(c)
        r += 1
    return chosen


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
