import random
from fractions import Fraction

from swtorsion import Presentation, SurfaceModel, random_symplectic


def make_presentation(g: int, handles: int, words: int, seed: int) -> Presentation:
    surface = SurfaceModel(g + handles, (handles, g))
    return Presentation(g, handles, random_symplectic(surface, words, seed))


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
