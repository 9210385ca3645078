"""Exact linear algebra on small matrices.

Matrices are immutable tuples of row tuples.  The module is two kernels and
the two forms, on the first, of the one pencil every command reads,
p(s) = sum_I s^|I| det A[D u I, C u I].  Fraction-free (Bareiss)
elimination, ``_bareiss``, serves every determinant, rank, inverse and
column basis, and both pencils: ``signed_pencil`` takes g + 1 determinants
and solves for the palindromic coefficients by a Jordan pass, and its
docstring derives the pencil's layout, sign and palindromy, once.
``newton_pencil``, the form production reads, takes the Schur complement
of A[D, C] from one Jordan pass and Newton's identities on the traces of
its powers, and falls back on ``signed_pencil`` when A[D, C] is singular.
Berkowitz's division-free recursion ``_berkowitz`` is written once for any
commutative ring: ``verify``'s rhs runs it over the integers
(``det_one_minus_t``) and over truncated series (``series.series_det``),
apart from both pencils, so that ``verify`` at N = 0 checks the kernel
that ``zeta`` prints.  Outside the Bareiss kernel, every division that
must leave no remainder (Newton's k e_k and e_k / delta^(k-1) in
``newton_pencil``, the last pivot in ``_solve_palindromic``) goes through
one guard, ``_exact_quotient``, which raises ``ExactDivisionError`` on a
remainder; ``_bareiss``'s own division is exact by Bareiss's theorem and
sits unguarded in its inner loop.  The rational and unimodular routes on
the Bareiss kernel (``det_rational``, ``invert_rational``,
``invert_unimodular``, ``independent_columns``), ``perm_parity`` and
``submatrix`` are reference routes in ``swtorsion.reference``.  Nothing
here ever touches a float.
"""
from __future__ import annotations

import operator
from typing import Sequence, Tuple


class ExactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder."""


def _exact_quotient(a: int, b: int, what: str) -> int:
    """a // b for a division that must be exact; a remainder raises
    ExactDivisionError(what)."""
    q, r = divmod(a, b)
    if r:
        raise ExactDivisionError(what)
    return q


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
    return tuple(sum(map(operator.mul, row, v)) for row in a)


def _bareiss(m: list, jordan: bool = False) -> Tuple[list, int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows m, in place.

    Each column c in turn takes its first nonzero entry at or below the
    next pivot row as pivot p.  Every row below it (every other row when
    ``jordan``) becomes (p * row - row[c] * pivot row) // previous pivot
    right of c, and 0 at c; the division is exact, since each entry is
    then a minor of the input.  Entries left of c are not touched.
    Returns the pivot columns, the sign of the row swaps and the last
    pivot.  A square matrix of full rank has determinant sign * last
    pivot, and for a square a of full rank the Jordan pass on [a | b]
    leaves last pivot * a^-1 b on the right.
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


def det_one_minus_t(a: tuple, top: int) -> Tuple[int, ...]:
    """Coefficients of det(1 - t a) up to t^top, lowest degree first, for
    any square integer matrix a (the empty one gives (1,)); every
    coefficient when top >= len(a), by ``_berkowitz`` over the integers."""
    return tuple(_berkowitz(a, min(len(a), top) + 1,
                            lambda u, v: sum(map(operator.mul, u, v)),
                            operator.neg, 1))


def _berkowitz(a: Sequence[Sequence], length: int, dot, neg, one) -> list:
    """Coefficients 0 .. length - 1 of det(1 - t a), lowest degree first,
    for a square matrix a over the commutative ring in which ``dot(u, v)``
    is sum_i u_i v_i (over the shorter of u and v), ``neg`` the negation
    and ``one`` the unit.

    det(1 - t a) = t^n det(1/t - a), so these are the coefficients of the
    characteristic polynomial det(x - a), highest power first; coefficient
    n is det(-a).  Berkowitz's division-free algorithm (Inf. Process. Lett.
    18, 1984) builds them from the trailing blocks: with the block from row
    r on written [[a_rr, R], [C, B]], its characteristic polynomial is the
    lower triangular Toeplitz matrix with first column (1, -a_rr, -R C,
    -R B C, .., -R B^{s-1} C), s the size of B, times that of B.  That is
    about n^4 / 4 ring products and no division, so zero divisors and
    vanishing constant terms are allowed.  Coefficient i of a Toeplitz
    product reads only the entries up to i of both factors, so every
    Krylov column and every product stops at coefficient length - 1.
    """
    n = len(a)
    poly = [one]
    for r in range(n - 1, -1, -1):
        R = a[r][r + 1:]
        B = [row[r + 1:] for row in a[r + 1:]]
        v = [row[r] for row in a[r + 1:]]
        size = min(n - r + 1, length)
        column = [one, neg(a[r][r])]
        for k in range(size - 2):
            if k:
                v = [dot(b, v) for b in B]
            column.append(neg(dot(R, v)))
        poly = [dot(column[i::-1], poly) for i in range(size)]
    return poly


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
    determinants at s = 0..g determine it, and a Jordan pass of the same
    kernel (``_solve_palindromic``) recovers it.  Q is read once, and
    ``det_int`` copies the rows it gets: those of D, and s times those of
    X plus the unit.  Write R = D u I, S = C u I and X' = X minus I.
    Jacobi's complementary-minor identity for B = A^-1, with det A = 1,
    gives det A[R, S] = (-1)^{sum R + sum S} det B[D u X', C u X'] (the
    complements of S and R).  B is the signed partner transpose
    B[i][j] = s_i s_j A[p(j)][p(i)] (``reference.inverse``), and
    p maps C onto D in order and X' onto p(X'), so the minor of B is
    det A[D u p(X'), C u p(X')] times the signs s_i of its rows and columns:
    those of X' appear twice, s = +1 on C and -1 on D, which leaves (-1)^N.
    The index sum is sum D + sum C + 2 sum I = N^2 + 2 (0 + .. + N - 1),
    also N mod 2.  The two signs cancel, and I -> p(X minus I) is a
    bijection from the k-subsets of X to its (2g - k)-subsets.  The tests
    check the result against the interpolation of all 2g + 1 values.
    """
    cols = tuple(range(N)) + tuple(range(2 * N, len(mat)))
    block = [[mat[r][c] for c in cols] for r in range(N, len(mat))]

    def value(s: int) -> int:
        scaled = [[s * x for x in row] for row in block[N:]]
        for a, row in enumerate(scaled, N):
            row[a] += 1
        return det_int(block[:N] + scaled)

    g = len(mat) // 2 - N
    half = _solve_palindromic([value(s) for s in range(g + 1)])
    return tuple(-c if (k + N) & 1 else c
                 for k, c in enumerate(half + half[-2::-1]))


def _solve_palindromic(values: Sequence[int]) -> list:
    """p_0 .. p_w of the integer polynomial p of degree 2w with
    p_k = p_{2w-k} and p(s) = values[s] for s = 0..w.

    p_0 = p(0), and p - p_0 (1 + s^{2w}) is p_w s^w plus the sum over
    0 < k < w of p_k (s^k + s^{2w-k}), so the values at s = 1..w are w
    equations in p_1 .. p_w.  Over s^w each of these basis polynomials is
    monic of degree w - k in u = s + 1/s: up to a unitriangular factor
    the system is Vandermonde in u_s, nonsingular because s -> s + 1/s is
    injective on s >= 1.  The Jordan pass of ``_bareiss`` leaves the last
    pivot times p_1 .. p_w in the right column.  A remainder when it is
    divided out means the values fit no integer palindromic polynomial,
    and raises ExactDivisionError.
    """
    w, lead = len(values) - 1, values[0]
    m = [[s ** k + s ** (2 * w - k) for k in range(1, w)]
         + [s ** w, values[s] - lead * (1 + s ** (2 * w))]
         for s in range(1, w + 1)]
    last = _bareiss(m, jordan=True)[2]
    return [lead] + [_exact_quotient(row[-1], last,
                                     "palindromic polynomial is not integral")
                     for row in m]


def newton_pencil(mat: tuple, N: int, top: int) -> Tuple[int, ...]:
    """``signed_pencil(mat, N)[:top + 1]`` from power sums.

    With Q, C, D, X and p as in ``signed_pencil`` and E_X the 0/1 diagonal
    on X, taking s out of the X rows of the pencil matrix gives
    p(s) = s^2g det(Q + E_X / s).  When delta = det A[D, C] != 0, the Schur
    complement of A[D, C] in Q + u E_X is u 1 + T / delta, with the
    2g x 2g integer matrix T = delta A[X, X] - A[X, C] Y and
    Y = adj(A[D, C]) A[D, X], so det(Q + u E_X) = delta det(u 1 + T / delta)
    and p(s) = delta det(1 + s T / delta): p_0 = delta and
    p_k = e_k(T) / delta^(k-1), with e_k the coefficients of det(1 + sT).
    The Jordan pass of ``_bareiss`` on Q's D rows [A[D, C] | A[D, X]] has
    last pivot sign delta and leaves sign delta A[D, C]^-1 A[D, X], which
    is sign Y, on the right.  Newton's identities
    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} tr T^i give e_k from the
    traces, and tr T^i is the sum over a, b of
    T^ceil(i/2)[a][b] T^floor(i/2)[b][a], so only T^1 .. T^ceil(w/2)
    are formed.  p is palindromic, so only k <= w = min(top, g) are
    computed and the rest is mirrored.

    Both divisions are exact: e_k is a coefficient of det(1 + sT) for an
    integer matrix T, so k divides the Newton sum, and e_k = delta^(k-1) p_k
    with p_k a sum of integer minors of A.  A remainder raises
    ExactDivisionError.  When delta = 0, the pass finds fewer than N pivots
    in the columns of A[D, C] (it may still find N, some in X columns),
    there is no Schur complement, and ``signed_pencil`` gives the answer.
    At N = 0, D and C are empty: delta = 1, T = A and p(s) = det(1 + sA),
    which ``tqft.zeta_series`` reads.  A call with delta != 0 forms at most
    ceil(w/2) products, one for T (none at N = 0) and T^2 .. T^ceil(w/2),
    against g + 1 Bareiss determinants of size 2g + N in ``signed_pencil``.
    """
    if top < 0:
        raise ValueError("top must be nonnegative")
    g2 = len(mat) - 2 * N
    size = min(top + 1, g2 + 1)
    w = min(size - 1, g2 // 2)
    X = range(2 * N, len(mat))
    if N == 0:
        delta, T = 1, mat
    else:
        m = [list(row[:N] + row[2 * N:]) for row in mat[N:2 * N]]
        pivots, sign, last = _bareiss(m, jordan=True)
        if pivots != list(range(N)):
            return signed_pencil(mat, N)[:size]
        delta = sign * last
        if w:
            Y = [[sign * x for x in row[N:]] for row in m]
            XCY = mat_mul(tuple(mat[r][:N] for r in X), Y)
            T = tuple(tuple(delta * a - b for a, b in zip(mat[r][2 * N:], row))
                      for r, row in zip(X, XCY))
    p = [delta]
    if w:
        powers = [T]
        while len(powers) < (w + 1) // 2:
            powers.append(mat_mul(powers[-1], T))
        flat = [[x for row in power for x in row] for power in powers]
        flat_t = [[x for col in zip(*power) for x in col]
                  for power in powers[:w // 2]]
        traces = [sum(T[i][i] for i in range(g2))] + [
            sum(map(operator.mul, flat[(i + 1) // 2 - 1], flat_t[i // 2 - 1]))
            for i in range(2, w + 1)]
        alternating = [-x if i & 1 else x for i, x in enumerate(traces)]
        e = [1]
        scale = 1
        for k in range(1, w + 1):
            e.append(_exact_quotient(
                sum(map(operator.mul, alternating, reversed(e))), k,
                "Newton's identities are not integral"))
            p.append(_exact_quotient(e[-1], scale,
                                     "pencil coefficient is not integral"))
            scale *= delta
    p += [p[g2 - k] for k in range(w + 1, size)]
    return tuple(-c if (k + N) & 1 else c for k, c in enumerate(p))


def rank_int(a: tuple) -> int:
    """Rank of an integer matrix: the pivot count of its Bareiss echelon."""
    return len(_bareiss([list(row) for row in a])[0])

