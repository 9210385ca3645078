"""Exact linear algebra on small matrices.

Matrices are immutable tuples of row tuples.  One fraction-free (Bareiss)
elimination kernel, ``_bareiss``, serves every determinant, rank, inverse
and column basis, and ``signed_pencil``, the library's one determinant
pencil in Bareiss form, takes g + 1 of those determinants.  The one
exception is ``det_one_minus_t``, which reads the whole polynomial
det(1 - tA) from one division-free Berkowitz pass: the zeta check and the
zeta function of ``verify``'s rhs, kept apart from ``signed_pencil`` and
from ``torsion.newton_pencil``.  The rational and unimodular routes on the
same kernel (``det_rational``, ``invert_rational``, ``invert_unimodular``,
``independent_columns``) are reference routes in ``swtorsion.reference``.
Nothing here ever touches a float.
"""
from __future__ import annotations

import operator
from math import comb
from typing import Optional, Sequence, Tuple


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


def _bareiss(m: list, jordan: bool = False) -> Tuple[list, int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows m, in place.

    Each column c in turn takes its first nonzero entry at or below the
    next pivot row as pivot p.  Every row below it (every other row when
    ``jordan``) becomes (p * row - row[c] * pivot row) // previous pivot
    right of c, and 0 at c; the division is exact, since each entry is
    then a minor of the input.  Entries left of c are not touched.
    Returns the pivot columns, the sign of the row swaps and the last
    pivot.  A square matrix of full rank has determinant sign * last
    pivot, and the Jordan pass on [a | I] leaves last pivot * a^-1 on the
    right.
    """
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots: list = []
    sign = prev = 1
    r = 0
    for c in range(cols):
        if m[r][c] == 0:
            for i in range(r + 1, rows):
                if m[i][c]:
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                continue
        top = m[r]
        p = top[c]
        rest = range(c + 1, cols)
        for i in range(0 if jordan else r + 1, rows):
            if i != r:
                row = m[i]
                f = row[c]
                for j in rest:
                    row[j] = (p * row[j] - f * top[j]) // prev
                row[c] = 0
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots, sign, prev


def det_int(a: tuple) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    pivots, sign, last = _bareiss([list(row) for row in a])
    return sign * last if len(pivots) == len(a) else 0


def det_one_minus_t(a: tuple, top: Optional[int] = None) -> Tuple[int, ...]:
    """Coefficients of det(1 - t a), lowest degree first, for any square
    integer matrix a (the empty one gives (1,)); with ``top``, only those
    up to t^top.

    det(1 - t a) = t^n det(1/t - a), so these are the coefficients of the
    characteristic polynomial det(x - a), highest power first.  Berkowitz's
    division-free algorithm (Inf. Process. Lett. 18, 1984) builds them
    from the trailing blocks: with the block from row r on written
    [[a_rr, R], [C, B]], its characteristic polynomial is the lower
    triangular Toeplitz matrix with first column (1, -a_rr, -R C, -R B C,
    .., -R B^{s-1} C), s the size of B, times that of B.  That is about
    n^4 / 4 integer products and no division, Bareiss elimination or
    matrix product; ``series.series_det`` runs the same recursion over
    truncated series.  Coefficient i of a Toeplitz product reads only the
    entries up to i of both factors, so at order ``top`` each Krylov
    column stops at R B^{top-2} C and each product at t^top.
    """
    n = len(a)
    size = n + 1 if top is None else min(n, top) + 1
    poly = [1]
    for r in range(n - 1, -1, -1):
        row = a[r]
        R = row[r + 1:]
        B = [a[i][r + 1:] for i in range(r + 1, n)]
        v = [a[i][r] for i in range(r + 1, n)]
        length = min(n - r + 1, size)
        column = [1, -row[r]]
        for k in range(length - 2):
            if k:
                v = [sum(map(operator.mul, b, v)) for b in B]
            column.append(-sum(map(operator.mul, R, v)))
        poly = [sum(map(operator.mul, column[i::-1], poly))
                for i in range(length)]
    return tuple(poly)


def signed_pencil(mat: tuple, N: int) -> Tuple[int, ...]:
    """Coefficients in t of (-1)^N p(-t), lowest degree first, for the
    matrix of a symplectic A with N handles.

    Here C, D are the first N and the next N basis classes, X the other 2g,
    and p(s) = sum over subsets I of X of s^|I| det A[D u I, C u I].  With
    Q the block of A on rows D u X and columns C u X, p(s) is the pencil
    det [[Q_DC, Q_DX], [s Q_XC, 1 + s Q_XX]]: choosing in each X row
    either s Q or the unit leaves the minors s^|I| det Q[D u I, C u I].
    The same expansion gives t^N (-1)^N p(-t) = det (1 - tA)[D u X, C u X];
    at N = 0 the coefficients are those of det(1 - tA).

    p is palindromic of degree 2g, p_k = +p_{2g-k}, so the g + 1 Bareiss
    determinants at s = 0..g determine it, and ``_solve_palindromic``
    recovers it exactly.  Write R = D u I, S = C u I and X' = X minus I.
    Jacobi's complementary-minor identity for B = A^-1, with det A = 1,
    gives det A[R, S] = (-1)^{sum R + sum S} det B[D u X', C u X'] (the
    complements of S and R).  B is the signed partner transpose of
    ``surface.MappingClass.inverse``, B[i][j] = s_i s_j A[p(j)][p(i)], and
    p maps C onto D in order and X' onto p(X'), so the minor of B is
    det A[D u p(X'), C u p(X')] times the signs s_i of its rows and columns:
    those of X' appear twice, s = +1 on C and -1 on D, which leaves (-1)^N.
    The index sum is sum D + sum C + 2 sum I = N^2 + 2 (0 + .. + N - 1),
    also N mod 2.  The two signs cancel, and I -> p(X minus I) is a
    bijection from the k-subsets of X to its (2g - k)-subsets.  The tests
    check the result against the interpolation of all 2g + 1 values.
    """
    rows = range(N, len(mat))
    cols = tuple(range(N)) + tuple(range(2 * N, len(mat)))

    def value(s: int) -> int:
        return det_int(tuple(
            tuple(mat[r][c] if a < N else s * mat[r][c] + int(a == b)
                  for b, c in enumerate(cols)) for a, r in enumerate(rows)))

    g = len(mat) // 2 - N
    half = _solve_palindromic([value(s) for s in range(g + 1)])
    return tuple(-c if (k + N) & 1 else c
                 for k, c in enumerate(half + half[-2::-1]))


def _solve_palindromic(values: Sequence[int]) -> list:
    """p_0 .. p_w of the integer polynomial p of degree 2w with
    p_k = p_{2w-k} and p(s) = values[s] for s = 0..w.

    Such p are s^w q(u) with u = s + 1/s and q of degree w, whose lead
    coefficient is p_0 = p(0).  With u_j = j + 1/j, s^w times the Newton
    polynomial (u - u_1) .. (u - u_i) is B_i(s) / i!, where
    B_i(s) = s^{w-i} prod_{j=1..i} (s - j)(j s - 1) is an integer
    palindromic polynomial.  So p = p_0 (1 + s^2)^w + sum_{i<w} e_i B_i,
    and since B_i(k) = 0 for 1 <= k <= i, the values at s = 1..w form a
    triangular system in e_0 .. e_{w-1}.  Its pivots B_{k-1}(k) are
    nonzero because u_j != u_k for j < k (s -> s + 1/s is injective on
    s >= 1).  The e_i are carried times the product delta of the pivots,
    which makes every step of the substitution an exact integer division,
    and p delta is divided by delta at the end: O(w^2) integer operations.
    A remainder there means the values fit no integer palindromic
    polynomial, and raises AssertionError.
    """
    w = len(values) - 1
    lead = values[0]
    table = []
    delta = 1
    for k in range(1, w + 1):
        b = k ** w
        row = [b]
        for i in range(1, k):
            b = b * (k - i) * (i * k - 1) // k
            row.append(b)
        table.append(row)
        delta *= b
    scaled: list = []
    for k, row in enumerate(table, 1):
        rhs = (values[k] - lead * (1 + k * k) ** w) * delta
        scaled.append((rhs - sum(map(operator.mul, scaled, row))) // row[-1])
    out = [lead * delta * comb(w, k // 2) if k % 2 == 0 else 0
           for k in range(w + 1)]
    factor = [1]  # prod_{j<=i} (s - j)(j s - 1), lowest degree first
    for i, e in enumerate(scaled):
        if i:
            nxt = [0] * (len(factor) + 2)
            for m, c in enumerate(factor):
                nxt[m] += i * c
                nxt[m + 1] -= (i * i + 1) * c
                nxt[m + 2] += i * c
            factor = nxt
        for m in range(w - i, w + 1):
            out[m] += e * factor[m - w + i]
    half = []
    for x in out:
        q, r = divmod(x, delta)
        if r:
            raise AssertionError("palindromic polynomial is not integral")
        half.append(q)
    return half


def rank_int(a: tuple) -> int:
    """Rank of an integer matrix: the pivot count of its Bareiss echelon."""
    return len(_bareiss([list(row) for row in a])[0])


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
