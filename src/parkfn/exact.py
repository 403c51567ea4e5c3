"""Arbitrary-precision combinatorics primitives for the counting formulas.

Binomials are ``math.comb``, for n, k >= 0 only: every closed form checks
its sizes before it takes one.  Only x^(-n), x^(-1) and a closed form's
final division (never ``/`` on ints) go through ``fractions.Fraction``; the
result is asserted integral.  Every count in this package is an exact
integer, so a non-integral result always signals a bug or a misapplied
formula.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import ConventionUndefined, NonIntegralResult, ZeroToNegative


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for ints n, k >= 0, 0 when k > n; a negative n or k raises ValueError."""
    return comb(n, k)


def rising_factorial(x: int, n: int) -> int | Fraction:
    """Rising factorial x^(n) = x(x+1)...(x+n-1) for n >= 0, extended to n = -1.

    The degenerate case uses the convention x^(-1) = 1/(x-1), which is
    undefined at x = 1.
    """
    if n < -1:
        raise ValueError("rising_factorial: n must be >= -1")
    if n == -1:
        if x == 1:
            raise ConventionUndefined("x^(-1) = 1/(x-1) is undefined at x = 1")
        return Fraction(1, x - 1)
    result = 1
    for i in range(n):
        result *= x + i
    return result


def power(x: int, n: int) -> int | Fraction:
    """Exact power with the conventions 0^0 = 1 and x^(-n) = 1/x^n."""
    if n >= 0:
        return x**n
    if x == 0:
        raise ZeroToNegative("0 raised to a negative exponent")
    return Fraction(1, x ** (-n))


def as_integer(value: Fraction | int) -> int:
    """Collapse an exact rational to an int, or raise NonIntegralResult."""
    if isinstance(value, int):
        return value
    if value.denominator != 1:
        raise NonIntegralResult(f"expected an integer, got {value}")
    return value.numerator
