"""Truncated formal power series in one variable with integer coefficients.

A :class:`TruncSeries` keeps the coefficients of ``t^0 .. t^order`` and
nothing else.  The truncation order is part of the value: binary operations
require equal orders and never resize silently.  Coefficients are Python
ints: zeta counts closed orbits and torsion counts flow lines, so every
series of the library is integral, and the constructor rejects anything
else.  Zero is ``TruncSeries(order)``, one ``TruncSeries(order, (1,))``.
``series_det`` runs ``linalg._berkowitz``, the recursion of
``linalg.det_one_minus_t``, over the coefficient tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .linalg import _berkowitz


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

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """Cauchy product truncated at the common order: ``_dot`` of one
        pair of coefficient tuples."""
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}")
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
    """Determinant of a square matrix M of truncated series: (-1)^n times
    coefficient n of det(1 - t M), with no division, so the constant terms
    may vanish; ``reference.torsion_coefficient_direct`` is the reference.
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
    det = _berkowitz(m, n + 1, partial(_dot, order=order), _neg,
                     (1,) + (0,) * order)[n]
    return TruncSeries(order, _neg(det) if n % 2 else det)


def _neg(a: Sequence[int]) -> list:
    return [-x for x in a]


def _dot(us: Sequence[list], vs: Sequence[list], order: int) -> list:
    """sum_i us[i] * vs[i], truncated products of coefficient lists."""
    out = [0] * (order + 1)
    for u, v in zip(us, vs):
        for i, x in enumerate(u):
            if x:
                for j in range(order + 1 - i):
                    out[i + j] += x * v[j]
    return out
