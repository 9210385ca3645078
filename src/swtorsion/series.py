"""Truncated formal power series in one variable with integer coefficients.

A :class:`TruncSeries` keeps the coefficients of ``t^0 .. t^order`` and
nothing else.  The truncation order is part of the value: binary operations
require equal orders and never resize silently.  Coefficients are Python
ints: zeta counts closed orbits and torsion counts flow lines, so every
series of the library is integral, and the constructor rejects anything
else.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class TruncSeries:
    """Polynomial truncation of a formal power series in t."""

    order: int
    coeffs: tuple

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(
                    f"integer coefficient expected, got {type(c).__name__}")
        if len(cs) > order + 1:
            raise ValueError(f"{len(cs)} coefficients for order {order}")
        cs.extend([0] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls(order, (1,))

    @classmethod
    def monomial(cls, order: int, k: int, coeff=1) -> "TruncSeries":
        """The series coeff * t^k."""
        if not 0 <= k <= order:
            raise ValueError("exponent out of range")
        return cls(order, [0] * k + [coeff])

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _check_order(self, other: "TruncSeries"):
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(self.order,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(self.order,
                           [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """Cauchy product truncated at the common order: ``_dot`` of one
        pair of coefficient tuples."""
        self._check_order(other)
        return TruncSeries(self.order,
                           _dot((self.coeffs,), (other.coeffs,), self.order))

    def shift_down(self, k: int) -> "TruncSeries":
        """Exact division by t^k; the low k coefficients must vanish."""
        if any(self.coeffs[:k]):
            raise ValueError(f"series is not divisible by t^{k}")
        return TruncSeries(self.order - k, self.coeffs[k:])

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{k}")
        return " + ".join(parts) if parts else "0"


def series_det(entries: Sequence[Sequence[TruncSeries]], order: int) -> TruncSeries:
    """Determinant of a square matrix of truncated series.

    Berkowitz's division-free algorithm: with the trailing block of the
    matrix written [[a, R], [C, B]], the characteristic polynomial of the
    block is a lower triangular Toeplitz matrix with first column
    (1, -a, -RC, -RBC, -RB^2C, ..) times that of B.  An n x n matrix costs
    about n^4 / 4 truncated series products and no division, so the
    constant terms may vanish.  The work runs on the plain coefficient tuples;
    ``reference.torsion_coefficient_direct`` is the independent reference.
    """
    n = len(entries)
    m = []
    for row in entries:
        if len(row) != n:
            raise ValueError("series determinant needs a square matrix")
        for e in row:
            if e.order != order:
                raise ValueError(f"order mismatch: {e.order} vs {order}")
        m.append([e.coeffs for e in row])
    zero = [0] * (order + 1)
    # poly: coefficients of det(x - B) for the current trailing block B,
    # highest power of x first; each coefficient is a truncated series.
    poly = [[1] + zero[1:]]
    for r in range(n - 1, -1, -1):
        size = n - r
        R = m[r][r + 1:]
        B = [row[r + 1:] for row in m[r + 1:]]
        column = [_neg(m[r][r])]
        v = [row[r] for row in m[r + 1:]]
        for k in range(size - 1):
            column.append(_neg(_dot(R, v, order)))
            if k < size - 2:
                v = [_dot(row, v, order) for row in B]
        # The last step needs only the constant coefficient, det(-M).
        rows = range(size + 1) if r else (size,)
        poly = [_add(poly[i] if i < size else zero,
                     _dot(column[:i][::-1], poly[:i], order))
                for i in rows]
    det = poly[-1] if n % 2 == 0 else _neg(poly[-1])
    return TruncSeries(order, det)


def _neg(a: list) -> list:
    return [-x for x in a]


def _add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def _dot(us: Sequence[list], vs: Sequence[list], order: int) -> list:
    """sum_i us[i] * vs[i], truncated products of coefficient lists."""
    out = [0] * (order + 1)
    for u, v in zip(us, vs):
        for i, x in enumerate(u):
            if x:
                for j in range(order + 1 - i):
                    out[i + j] += x * v[j]
    return out
