"""Arbitrary-precision combinatorics primitives for the counting formulas.

Binomials are ``math.comb``, for n, k >= 0 only: every closed form checks
its sizes before it takes one.  Powers and rising factorials take n >= 0
only: a closed form with an empty side cancels that side's factor before
it evaluates one.  Only a closed form's final division (never ``/`` on
ints) goes through ``fractions.Fraction``; the result is asserted
integral.  Every count in this package is an exact integer, so a
non-integral result always signals a bug or a misapplied formula.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from .errors import NonIntegralResult


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for ints n, k >= 0, 0 when k > n; a negative n or k raises ValueError."""
    return comb(n, k)


def rising_factorial(x: int, n: int) -> int:
    """Rising factorial x^(n) = x(x+1)...(x+n-1) for n >= 0; a negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"rising_factorial: n must be >= 0, got {n}")
    return prod(range(x, x + n))


def power(x: int, n: int) -> int:
    """Exact power x^n for n >= 0, with 0^0 = 1; a negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"power: n must be >= 0, got {n}")
    return x**n


def as_integer(value: Fraction | int) -> int:
    """Collapse an exact rational to an int, or raise NonIntegralResult."""
    if isinstance(value, int):
        return value
    if value.denominator != 1:
        raise NonIntegralResult(f"expected an integer, got {value}")
    return value.numerator
