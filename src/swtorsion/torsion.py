"""The circle-valued Morse data of a presentation and its torsion.

Two routes to the torsion polynomial of the two-term Morse complex of a
compression-body presentation live here.  The fast path,
``torsion_representative``, is the ratio of two integer determinant
pencils, both read through ``linalg.newton_pencil`` (the pencil and its
derivation live in ``linalg``).  ``morse_torsion``, the determinant of
the N x N matrix of crossing series read off the columns A^k c_i, is what
``rhs_series`` runs, so ``verify`` checks the trace identity against the
Morse complex itself; its ``series.series_det`` is the Berkowitz
recursion ``linalg._berkowitz`` over truncated series, and reads neither
pencil.  The direct sum over compositions and permutations,
``torsion_coefficient_direct``, and the torsion of general volumed
complexes are reference routes in ``swtorsion.reference``, run by the
tests.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Tuple

from .linalg import mat_vec, newton_pencil
from .series import TruncSeries, series_det


@dataclass(frozen=True)
class MorseMatrix:
    """N x N matrix of crossing series, entry (i, j) = sum_k <A^k c_i, c_j> t^k.

    Each entry already carries one factor of t (constant terms vanish), so
    the determinant is the torsion representative with its t^N built in.
    """

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
    return MorseMatrix(tuple(entries))


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
    ``linalg.signed_pencil``, here read through ``newton_pencil``.
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
