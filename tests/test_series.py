import random
from fractions import Fraction

import pytest

from swtorsion import linalg, series
from swtorsion.linalg import det_one_minus_t
from swtorsion.series import TruncSeries, series_det

from conftest import rational_exp


def S(order, *coeffs):
    return TruncSeries(order, coeffs)


def random_series(rng, order):
    return TruncSeries(order, [rng.randint(-4, 4) for _ in range(order + 1)])


def plus(a, b):
    """Coefficientwise sum of two series of one order."""
    return TruncSeries(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def random_log(rng, order):
    """Rational coefficients of a series with zero constant term."""
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(order + 1)]
    coeffs[0] = Fraction(0)
    return coeffs


def rational_mul(a, b):
    """Truncated Cauchy product of two equally long coefficient tuples."""
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1))
                 for k in range(len(a)))


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 1.0])
def test_coefficients_must_be_ints(bad):
    with pytest.raises(TypeError, match="integer coefficient expected"):
        TruncSeries(1, [bad])


def test_order_bounds_the_coefficient_count():
    assert TruncSeries(3, range(4)).coeffs == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="5 coefficients for order 3"):
        TruncSeries(3, range(5))


def test_str_writes_each_power_of_t():
    assert str(TruncSeries(2, (1, -2, 3))) == "1 + -2*t + 3*t^2"
    assert str(TruncSeries(3, (0, 5))) == "5*t"
    assert str(TruncSeries(2)) == "0"


def test_mul_difference_of_squares():
    assert S(2, 1, 1) * S(2, 1, -1) == S(2, 1, 0, -1)


def test_mul_identity():
    a = S(3, 2, -1, 5, 7)
    assert a * TruncSeries(3, (1,)) == a


def test_mul_hand_cauchy_product():
    # (1 - 3t + t^2) * sum (m+1) t^m at order 3, expanded by hand
    a = S(3, 1, -3, 1)
    b = S(3, 1, 2, 3, 4)
    assert a * b == S(3, 1, -1, -2, -3)


def test_mul_order_mismatch():
    with pytest.raises(ValueError):
        S(2, 1) * S(3, 1)


def test_exp_zero():
    assert rational_exp(TruncSeries(4).coeffs) == (1, 0, 0, 0, 0)


def test_exp_taylor():
    e = rational_exp(TruncSeries(3, (0, 1)).coeffs)
    assert e == (1, 1, Fraction(1, 2), Fraction(1, 6))


def test_exp_log_of_inverse_square():
    # exp(sum 2 t^k / k) equals 1/(1-t)^2; oracle by brute-force squaring
    # of the geometric series.
    order = 4
    log = [0] + [Fraction(2, k) for k in range(1, order + 1)]
    geom = TruncSeries(order, [1] * (order + 1))
    assert rational_exp(log) == (geom * geom).coeffs
    assert rational_exp(log) == S(order, 1, 2, 3, 4, 5).coeffs


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        rational_exp(TruncSeries(2, (1,)).coeffs)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(25):
        order = rng.randint(0, 8)
        a, b, c = (random_series(rng, order) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * plus(b, c) == plus(a * b, a * c)
        assert a * b == b * a


def test_exp_is_homomorphism():
    rng = random.Random(13)
    for _ in range(15):
        order = rng.randint(1, 8)
        a, b = random_log(rng, order), random_log(rng, order)
        assert rational_exp([x + y for x, y in zip(a, b)]) == rational_mul(
            rational_exp(a), rational_exp(b))


def test_shift_down():
    a = S(4, 0, 0, 3, 1, 2)
    assert a.shift_down(2) == S(2, 3, 1, 2)
    with pytest.raises(ValueError):
        S(2, 1, 0, 0).shift_down(1)


def test_geometric_inverse_square():
    g = TruncSeries(5, range(1, 7))
    assert g * (S(5, 1, -1) * S(5, 1, -1)) == TruncSeries(5, (1,))


def test_series_det_small():
    t = TruncSeries(3, (0, 1))
    one = TruncSeries(3, (1,))
    # det [[1, t], [t, 1]] = 1 - t^2
    assert series_det([[one, t], [t, one]], 3) == S(3, 1, 0, -1)
    assert series_det([], 3) == one


def test_one_berkowitz_recursion_serves_both_determinants(monkeypatch):
    # det(1 - tA) over the integers and the Morse determinant over
    # truncated series are one recursion, linalg._berkowitz, run once each
    calls = []
    honest = linalg._berkowitz

    def counting(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(linalg, "_berkowitz", counting)
    monkeypatch.setattr(series, "_berkowitz", counting)
    assert det_one_minus_t(((1, 2), (3, 4)), 2) == (1, -5, -2)
    assert len(calls) == 1
    one, t = S(3, 1), S(3, 0, 1)
    assert series_det([[one, t], [t, one]], 3) == S(3, 1, 0, -1)
    assert len(calls) == 2
