"""Arbitrary-precision combinatorics primitives for the counting formulas.

Binomials are ``math.comb``, for n, k >= 0 only: every closed form checks
its sizes before it takes one.  Powers and rising factorials take n >= 0
only: a closed form with an empty side cancels that side's factor before
it evaluates one.  A closed form's final division (never ``/`` on ints)
is ``as_integer``, an exact ``divmod`` whose remainder must be 0.  Every
count in this package is an exact integer, so a non-integral result
always signals a bug or a misapplied formula.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from .core import shown
from .errors import NonIntegralResult


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for ints n, k >= 0, 0 when k > n; a negative n or k raises ValueError."""
    return comb(n, k)


def rising_factorial(x: int, n: int) -> int:
    """Rising factorial x^(n) = x(x+1)...(x+n-1) for n >= 0; a negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"rising_factorial: n must be >= 0, got {shown(n)}")
    return prod(range(x, x + n))


def power(x: int, n: int) -> int:
    """Exact power x^n for n >= 0, with 0^0 = 1; a negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"power: n must be >= 0, got {shown(n)}")
    return x**n


def as_integer(value: Fraction | int, divisor: int = 1) -> int:
    """value / divisor for a divisor >= 1, exactly: a remainder raises NonIntegralResult."""
    whole, rest = divmod(value, divisor)
    if rest:
        raise NonIntegralResult(f"expected an integer, got {shown(value)} / {shown(divisor)}")
    return whole
