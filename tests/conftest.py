import random
import sys
from fractions import Fraction

import pytest

import swtorsion
from swtorsion import Presentation
# test fixtures are built as `swtorsion gen` builds them
from swtorsion.cli import generate_fixture as make_presentation
from swtorsion.linalg import rank_int


@pytest.fixture
def without_reference(monkeypatch):
    """Make ``swtorsion.reference`` unimportable for one test, so that a
    production call that reached a reference route raises ImportError.
    The names the test module imported from it stay bound."""
    monkeypatch.setitem(sys.modules, "swtorsion.reference", None)
    monkeypatch.delattr(swtorsion, "reference", raising=False)


def presentation_sample(count: int, seed: int, *, gmax=2, hmax=2, cap=3,
                        words=8) -> list:
    """Deterministic spread of random presentations within the given bounds."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = rng.randint(0, gmax)
        N = rng.randint(0, hmax)
        if g + N > cap:
            continue
        out.append(make_presentation(g, N, rng.randint(0, words),
                                     rng.randint(0, 10 ** 9)))
    return out


def mayer_vietoris_block(P) -> tuple:
    """B = (1 - A)[D u X, C u X], whose rank gives b_1 = 1 + (2G - N) -
    rank B (derived in the compute_b1 docstring)."""
    mat, N = P.monodromy.mat, P.handles
    rows = tuple(range(N, len(mat)))
    cols = tuple(range(N)) + tuple(range(2 * N, len(mat)))
    return tuple(tuple(int(r == c) - mat[r][c] for c in cols) for r in rows)


def block_b1(P) -> int:
    B = mayer_vietoris_block(P)
    return 1 + (2 * P.genus + P.handles) - rank_int(B)


def direct_sum(P, block) -> Presentation:
    """M(g, N + 1, A + block): A on the old classes, re-indexed (c_i -> i,
    d_i -> N + 1 + i, x_j -> 2N + 2 + j), and the 2 x 2 ``block`` on the
    new pair (c_N, d_N), its columns the images of c_N and d_N."""
    N, mat = P.handles, P.monodromy.mat
    index = [i if i < N else i + 1 if i < 2 * N else i + 2
             for i in range(len(mat))]
    rows = [[0] * (len(mat) + 2) for _ in range(len(mat) + 2)]
    for r, row in zip(index, mat):
        for c, x in zip(index, row):
            rows[r][c] = x
    c, d = N, 2 * N + 1
    (rows[c][c], rows[c][d]), (rows[d][c], rows[d][d]) = block
    return Presentation.from_matrix(P.genus, N + 1, rows)


def stabilize(P, eps: int) -> Presentation:
    """S_eps(P), the birth of a cancelling pair: the new pair goes
    c_N -> eps d_N, d_N -> -eps c_N."""
    return direct_sum(P, ((0, -eps), (eps, 0)))


def interpolate(values) -> tuple:
    """Coefficients of the polynomial of degree < len(values) that takes
    values[k] at s = k, by forward differences in the falling-factorial basis:
    the general pencil the palindromic ``linalg.signed_pencil`` is checked
    against.

    The coefficients are asserted to be integers.  The Stirling numbers
    relate the falling-factorial and monomial bases with integer matrices,
    so the polynomial is integral exactly when every k-th forward
    difference at 0 is divisible by k!, and the work stays in ints.
    """
    coeffs = [0] * len(values)
    falling = [1]  # coefficients of s (s - 1) .. (s - k + 1)
    diffs = list(values)
    factorial = 1
    for k in range(len(values)):
        if k:
            factorial *= k
        q, r = divmod(diffs[0], factorial)
        if r:
            raise AssertionError("interpolated polynomial is not integral")
        for i, c in enumerate(falling):
            coeffs[i] += q * c
        shifted = [0] + falling
        for i, c in enumerate(falling):
            shifted[i] -= k * c
        falling = shifted
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    return tuple(coeffs)


def rational_exp(log_coeffs) -> tuple:
    """Coefficients of exp(a) for a truncated series a with zero constant
    term, over Fraction: the reference the integer routes are checked
    against.  Uses the derivative recurrence f' = a' f, which keeps every
    step rational: n f_n = sum_{k=1..n} k a_k f_{n-k}."""
    a = [Fraction(c) for c in log_coeffs]
    if a[0] != 0:
        raise ValueError("exp requires zero constant term")
    out = [Fraction(1)]
    for m in range(1, len(a)):
        out.append(sum(k * a[k] * out[m - k] for k in range(1, m + 1)) / m)
    return tuple(out)
