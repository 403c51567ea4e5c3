"""Exact-arithmetic primitives: binomials, rising factorials, powers."""

import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkfn import exact, pq, twodim, vector
from parkfn.errors import NonIntegralResult
from parkfn.twodim import AffineWeightSpec


def pascal_triangle(rows):
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


@pytest.mark.parametrize("n,k,expected", [(5, 2, 10), (3, 0, 1), (7, 3, 35), (4, 9, 0)])
def test_binomial_values(n, k, expected):
    assert exact.binomial(n, k) == expected


def test_binomial_matches_pascal_triangle():
    tri = pascal_triangle(12)
    for n in range(13):
        for k in range(n + 1):
            assert exact.binomial(n, k) == tri[n][k]


def test_binomial_pascal_rule():
    for n in range(1, 15):
        for k in range(1, n + 1):
            assert exact.binomial(n, k) == exact.binomial(n - 1, k - 1) + exact.binomial(n - 1, k)


def test_binomial_rejects_negative_k():
    with pytest.raises(ValueError):
        exact.binomial(5, -1)


def test_hockey_stick_identity():
    for m in range(21):
        for k in range(21):
            total = sum(exact.binomial(i, k) for i in range(m + 1))
            assert total == exact.binomial(m + 1, k + 1)


def test_rising_factorial_values():
    assert exact.rising_factorial(3, 3) == 60
    assert exact.rising_factorial(7, 0) == 1


def test_rising_factorial_shift_property():
    for x in range(-3, 6):
        for n in range(6):
            assert exact.rising_factorial(x, n) * (x + n) == exact.rising_factorial(x, n + 1)


def test_power_values():
    assert exact.power(0, 0) == 1
    assert exact.power(5, 3) == 125
    assert exact.power(-2, 3) == -8


def test_negative_exponents_are_refused():
    # a closed form with an empty side cancels that side's factor, so no x^(-n) or x^(-1) convention is needed;
    # -10**5000 is past Python's int/str digit limit, and is still named in the refusal, not refused by str()
    for primitive in (exact.power, exact.rising_factorial):
        for x in (0, 1, 4):
            for n in (-1, -2, -10**5000):
                with pytest.raises(ValueError, match="n must be >= 0"):
                    primitive(x, n)


def test_non_negative_exponents_give_ints():
    for x in range(-3, 6):
        for n in range(5):
            assert type(exact.power(x, n)) is int and type(exact.rising_factorial(x, n)) is int, (x, n)


def _fraction_valued(primitive):
    return lambda x, n: Fraction(primitive(x, n))


small = st.integers(0, 3)


@given(small, small, small, small, small, small, small, small)
def test_closed_forms_are_ints_equal_to_the_all_fraction_evaluation(a, b, c, d, s, t, p, q):
    # the affine s and t start from 0, which p = 0 or q = 0 turns into a zero base of the remaining side's power;
    # the vector cases keep s >= 1, as the arithmetic boundary needs
    spec = AffineWeightSpec(a, b, c, d, s, t, p, q)
    cases = [(f, (spec,)) for f in (twodim.count_affine_pf, twodim.count_affine_ipf)]
    if p and q:
        cases += [(f, (spec,)) for f in (twodim.count_affine_ppf, twodim.count_affine_ippf)]
    cases += [(f, (p, q)) for f in (pq.count_pq_pf, pq.count_pq_ipf, pq.count_pq_ppf, pq.count_pq_ippf)]
    arith = (vector.count_pf_arith, vector.count_ipf_arith, vector.count_ppf_arith, vector.count_ippf_arith)
    cases += [(f, args) for f in arith for args in ((s + 1, b, p + 1), (1, 1, q + 1))]  # vector, classical
    for formula, args in cases:
        value = formula(*args)
        with mock.patch.object(exact, "power", _fraction_valued(exact.power)), mock.patch.object(
            exact, "rising_factorial", _fraction_valued(exact.rising_factorial)
        ):
            reference = formula(*args)
        assert type(value) is int and value == reference, (formula.__name__, args)


_ARITH = ("the arithmetic boundary", "sbn", (1, 0, 1))  # what the refusal names, each size's name, its least value
_SIZED_FORMS = [(f, (1, 1, 3), _ARITH) for f in (vector.count_pf_arith, vector.count_ipf_arith, vector.count_ppf_arith, vector.count_ippf_arith)]
_SIZED_FORMS += [(f, (2, 2), ("the pq family", "pq", (0, 0))) for f in (pq.count_pq_pf, pq.count_pq_ipf, pq.count_pq_ppf, pq.count_pq_ippf)]
_SIZED_FORMS += [(pq.count_pq_ppf_sum, (2, 2), ("the summation form", "pq", (1, 1)))]


@pytest.mark.parametrize("formula, sizes, rule", _SIZED_FORMS, ids=[f.__name__ for f, _, _ in _SIZED_FORMS])
def test_closed_forms_refuse_sizes_that_are_not_ints(formula, sizes, rule):
    # a bool, a float or a str in any size position is refused, never computed with (True counted as 1, 2.0 as 2);
    # the one line names that size and its value
    formula(*sizes)
    what, names, least = rule
    for position in range(len(sizes)):
        for bad in (True, float(sizes[position]), str(sizes[position])):
            line = f"{what} needs an int {names[position]} >= {least[position]}, got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
                formula(*sizes[:position], bad, *sizes[position + 1 :])


def test_as_integer():
    assert exact.as_integer(Fraction(10, 2)) == 5
    assert exact.as_integer(7) == 7
    with pytest.raises(NonIntegralResult):
        exact.as_integer(Fraction(1, 3))
    assert exact.as_integer(-12, 4) == -3  # a closed form's final division
    with pytest.raises(NonIntegralResult, match=r"^expected an integer, got -7 / 2$"):
        exact.as_integer(-7, 2)
