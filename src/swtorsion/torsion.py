"""Torsion of volumed acyclic complexes and the circle-valued Morse data.

Three routes to the same torsion polynomial are implemented for the
two-term Morse complex of a compression-body presentation.  The fast path,
``torsion_representative``, is the ratio of two integer determinant
pencils.  ``morse_torsion`` is the determinant of the N x N matrix of
crossing series; ``rhs_series`` runs it, so ``verify`` checks the trace
identity against the Morse complex itself.  ``torsion_coefficient_direct``
is the direct sum over compositions and permutations, run by the tests.

Every pencil has two forms.  ``newton_pencil``, the one production reads,
takes the Schur complement of A[D, C] and Newton's identities on the
traces of its powers; it falls back to ``linalg.signed_pencil`` when
A[D, C] is singular.  ``signed_pencil``, which takes g + 1 Bareiss
determinants and is imported here, is that fallback and the reference
the tests check the kernel against.  The route
that ``tqft.zeta_series`` checks the kernel against on every call, and
that ``verify``'s rhs reads, is neither: it is the Berkowitz pass
``linalg.det_one_minus_t``.
"""
from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .linalg import (_bareiss, det_rational, identity_matrix,
                     independent_columns, mat_mul, mat_vec, perm_parity,
                     signed_pencil, transpose)
from .series import TruncSeries, series_det
from .surface import pairing


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
    to s.
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

    The N iterates A^k c_i are the rows of one integer matrix, advanced by
    a product with A^T, and coefficient k of entry (i, j) is A^k c_i dotted
    with J c_j, the vectors J c_j read once from ``SurfaceModel.pair_vector``.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    N = P.handles
    surface = P.surface
    unit = identity_matrix(surface.rank)
    step = transpose(P.monodromy.mat)
    duals = transpose([surface.pair_vector(unit[j]) for j in range(N)])
    images = unit[:N]
    coeffs = [[[0] for _ in range(N)] for _ in range(N)]
    for _ in range(kmax):
        images = mat_mul(images, step)
        for row, pairs in zip(coeffs, mat_mul(images, duals)):
            for c, x in zip(row, pairs):
                c.append(x)
    return MorseMatrix(N, kmax, tuple(tuple(TruncSeries(kmax, c) for c in row)
                                      for row in coeffs))


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
    AssertionError.  When delta = 0, A[D, C] cannot be eliminated, there
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
                raise AssertionError("Newton's identities are not integral")
            e.append(q)
            q, r = divmod(q, scale)
            if r:
                raise AssertionError("pencil coefficient is not integral")
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
    cs = [surface.c_class(i) for i in range(N)]
    powers = {}
    cur = {i: cs[i] for i in range(N)}
    for s in range(1, k - N + 2):
        for i in range(N):
            cur[i] = A.apply(cur[i])
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
