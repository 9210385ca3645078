"""The circle-valued Morse data of a presentation and its torsion.

Two routes to the torsion polynomial of the two-term Morse complex of a
compression-body presentation live here.  The fast path,
``torsion_representative``, is the ratio of two integer determinant
pencils.  ``morse_torsion``, the determinant of the N x N matrix of
crossing series read off the columns A^k c_i, is what ``rhs_series``
runs, so ``verify`` checks the trace identity against the Morse complex
itself.  The third, ``torsion_coefficient_direct``, the direct sum over
compositions and permutations, and the torsion of general volumed
complexes are reference routes in ``swtorsion.reference``, run by the tests.

Every pencil has two forms.  ``newton_pencil``, the one production reads,
takes the Schur complement of A[D, C] and Newton's identities on the
traces of its powers; it falls back to ``linalg.signed_pencil`` when
A[D, C] is singular.  ``signed_pencil``, which takes g + 1 Bareiss
determinants and is imported here, is that fallback, the diagonal column
of ``verify`` and the reference the tests check the kernel against.  The route
that ``verify``'s rhs reads, and so the one that checks the kernel
``tqft.zeta_series`` prints when ``verify`` runs at N = 0, is neither: it
is the Berkowitz pass ``linalg.det_one_minus_t``, and ``morse_torsion``'s
``series.series_det`` is the same recursion, ``linalg._berkowitz``, over
truncated series.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Tuple

from .linalg import (ExactDivisionError, _bareiss, mat_mul, mat_vec,
                     signed_pencil)
from .series import TruncSeries, series_det


@dataclass(frozen=True)
class MorseMatrix:
    """N x N matrix of crossing series, entry (i, j) = sum_k <A^k c_i, c_j> t^k.

    Each entry already carries one factor of t (constant terms vanish), so
    the determinant is the torsion representative with its t^N built in.
    """

    N: int
    order: int
    entries: Tuple[Tuple[TruncSeries, ...], ...]


def morse_differential_matrix(P, kmax: int) -> MorseMatrix:
    """Crossing-series matrix of the Morse differential of a presentation.

    Coefficient k of entry (i, j) is <A^k c_i, c_j> = -s_j (A^k c_i)[p(j)],
    with (p(j), s_j) from ``SurfaceModel._signed_partners``.  Each column
    A^k c_i starts as column i of A and advances by one product with A.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    N = P.handles
    mat = P.monodromy.mat
    entries = []
    for i in range(N):
        images = [[row[i] for row in mat]]
        while len(images) < kmax:
            images.append(mat_vec(mat, images[-1]))
        entries.append(tuple(
            TruncSeries(kmax, [0] + [-s * v[p] for v in images[:kmax]])
            for p, s in P.surface._signed_partners[:N]))
    return MorseMatrix(N, kmax, tuple(entries))


def newton_pencil(mat: tuple, N: int, top: int) -> Tuple[int, ...]:
    """``signed_pencil(mat, N)[:top + 1]`` from power sums.

    Let Q = A[D u X, C u X] and E_X the 0/1 diagonal on X.  Taking s out
    of the X rows of the pencil matrix gives p(s) = s^2g det(Q + E_X / s).
    When delta = det A[D, C] != 0, the Schur complement of A[D, C] in
    Q + u E_X is u 1 + T / delta, with the 2g x 2g integer matrix
    T = delta A[X, X] - A[X, C] adj(A[D, C]) A[D, X], so
    det(Q + u E_X) = delta det(u 1 + T / delta) and
    p(s) = delta det(1 + s T / delta): p_0 = delta and
    p_k = e_k(T) / delta^(k-1), with e_k the coefficients of det(1 + sT).
    The adjugate is sign times the right block that the Jordan pass of
    ``_bareiss`` leaves on [A[D, C] | 1], whose last pivot is sign delta.
    Newton's identities k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} tr T^i
    give e_k from the traces, and tr T^i is the sum over a, b of
    T^ceil(i/2)[a][b] T^floor(i/2)[b][a], so only T^1 .. T^ceil(w/2)
    are formed.  p is palindromic, p_k = p_{2g-k} (``signed_pencil``), so
    only k <= w = min(top, g) are computed and the rest is mirrored.

    Both divisions are exact: e_k is a coefficient of det(1 + sT) for an
    integer matrix T, so k divides the Newton sum, and e_k = delta^(k-1) p_k
    with p_k a sum of integer minors of A.  A remainder raises
    ExactDivisionError.  When delta = 0, A[D, C] cannot be eliminated, there
    is no Schur complement, and ``signed_pencil`` gives the answer.  At
    N = 0, D and C are empty: delta = 1, T = A and p(s) = det(1 + sA),
    which ``tqft.zeta_series`` reads.  A call with delta != 0 forms two
    products for T (none at N = 0) and ceil(w/2) - 1 powers of T, against
    g + 1 Bareiss determinants of size 2g + N in ``signed_pencil``.
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
        m = [[mat[N + i][j] for j in range(N)] + [int(i == j) for j in range(N)]
             for i in range(N)]
        pivots, sign, last = _bareiss(m, jordan=True)
        if pivots != list(range(N)):
            return signed_pencil(mat, N)[:size]
        delta = sign * last
        if w:
            adj = tuple(tuple(sign * x for x in row[N:]) for row in m)
            left = mat_mul(tuple(mat[r][:N] for r in X), adj)
            right = tuple(tuple(mat[N + i][c] for c in X) for i in range(N))
            T = tuple(tuple(delta * a - b for a, b in zip(mat[r][2 * N:], row))
                      for r, row in zip(X, mat_mul(left, right)))
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
            q, r = divmod(sum(map(operator.mul, alternating, reversed(e))), k)
            if r:
                raise ExactDivisionError("Newton's identities are not integral")
            e.append(q)
            q, r = divmod(q, scale)
            if r:
                raise ExactDivisionError("pencil coefficient is not integral")
            p.append(q)
            scale *= delta
    p += [p[g2 - k] for k in range(w + 1, size)]
    return tuple(-c if (k + N) & 1 else c for k, c in enumerate(p))


def torsion_representative(P, kmax: int) -> TruncSeries:
    """The torsion polynomial times t^N, as the ratio of two pencils.

    tau(t) = t^N (-1)^N p(-t) / det(1 - tA), both polynomials from
    ``newton_pencil`` up to t^(kmax - N), the last coefficient the
    quotient reads.  The denominator has constant term 1, so the
    truncated series division is exact in integers.  At N = 0 both are
    det(1 - tA), and tau = 1 is returned without forming either.

    This is the determinant of the Morse matrix (``morse_torsion``).  The
    columns of A are the images of the basis classes, and <u, c_j> is
    -u[d_j] since <d_j, c_j> = -1, so entry (i, j) is
    sum_{k>=1} t^k <A^k c_i, c_j> = -R[d_j][c_i] with R = (1 - tA)^-1 (the
    k = 0 term vanishes because d_j != c_i).  Hence
    det M = (-1)^N det R[D, C].  Jacobi's complementary-minor identity,
    det R[D, C] = (-1)^{sum D + sum C} det (1 - tA)[D u X, C u X] / det(1 - tA),
    has sum D + sum C = N^2 + 2 (0 + .. + N - 1), which is N mod 2.  The
    two signs (-1)^N cancel, and the numerator is the pencil of
    ``signed_pencil``, here read through ``newton_pencil``.
    """
    if kmax < P.handles:
        raise ValueError("kmax must be at least the number of handles")
    N = P.handles
    if N == 0:
        return TruncSeries(kmax, [1])
    mat = P.monodromy.mat
    top = kmax - N
    num = newton_pencil(mat, N, top)
    den = newton_pencil(mat, 0, top)[1:]
    q: List[int] = []
    for k in range(top + 1):
        q.append((num[k] if k < len(num) else 0)
                 - sum(map(operator.mul, den[:k], reversed(q))))
    return TruncSeries(kmax, [0] * N + q)


def morse_torsion(P, kmax: int) -> TruncSeries:
    """Determinant of the Morse matrix, by Berkowitz over truncated series.

    The route that ``rhs_series`` and so ``verify`` run: the trace identity
    is checked against the Morse complex, not against the pencils of
    ``torsion_representative``.
    """
    return series_det(morse_differential_matrix(P, kmax).entries, kmax)
