"""Vector parking functions for a weakly increasing capacity vector u.

A sequence a of n spot preferences is a u-parking function when its i-th
order statistic is strictly below u[i] for every i; the classical family is
u = (1, 2, ..., n).  This module covers recognition, the capacity-based
parking process, primeness, the prime (shuffle-sum) decomposition, and the
closed-form counts for arithmetic-progression boundaries.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from . import exact
from .core import Point, Seq, as_seq, place, shown, stable_sort_indices, take
from .errors import InconsistentDecomposition, LengthMismatch, NotParkingFunction


def validate_capacity(u: Sequence[int]) -> Seq:
    """The capacity vector rule, for the predicates, the oracle and the CLI: u is a non-empty, weakly increasing
    tuple of ints (not bools) >= 1."""
    out = tuple(u)
    if not out:
        raise ValueError(f"the capacity vector u must be non-empty, got {shown(out)}")
    for x in out:
        if type(x) is not int or x < 1:
            raise ValueError(f"the capacity vector u must hold integers >= 1, got {shown(out)}")
    if list(out) != sorted(out):
        raise ValueError(f"the capacity vector u must be weakly increasing, got {shown(out)}")
    return out


def _checked(a: Sequence[int], u: Sequence[int]) -> tuple[Seq, Seq]:
    aa, uu = as_seq(a), validate_capacity(u)
    if len(aa) != len(uu):
        raise LengthMismatch(f"|a| = {len(aa)} but |u| = {len(uu)}")
    return aa, uu


def is_vector_pf(a: Sequence[int], u: Sequence[int]) -> bool:
    """True iff every order statistic of a is strictly below the boundary."""
    aa, uu = _checked(a, u)
    return all(x < bound for x, bound in zip(sorted(aa), uu))


def is_prime_vector_pf(a: Sequence[int], u: Sequence[int]) -> bool:
    """True iff a is a prime u-parking function: sorted a lies below u' = (u0, u0, u1, ..., u_{n-2}).

    u' is :func:`prime_reduction`'s boundary, built here from the checked u.
    Its first two entries are equal, so every length-1 parking function is
    prime.
    """
    aa, uu = _checked(a, u)
    return all(x < bound for x, bound in zip(sorted(aa), uu[:1] + uu[:-1]))


def prime_reduction(u: Sequence[int]) -> Seq:
    """Boundary u' = (u0, u0, u1, ..., u_{n-2}): plain u'-membership equals u-primeness."""
    uu = validate_capacity(u)
    return (uu[0],) + uu[:-1]


@dataclass(frozen=True)
class ParkingOutcome:
    """Result of the sequential capacity parking process."""

    assignment: Optional[Seq] = None
    failed_car: Optional[int] = None

    @property
    def success(self) -> bool:
        return self.assignment is not None


def simulate_capacity_parking(a: Sequence[int], u: Sequence[int]) -> ParkingOutcome:
    """Run the parking process where spot j holds as many cars as j+1 occurs in u.

    Car i drives to spot a[i] and takes the first spot at or beyond it with
    remaining capacity; the outcome records the assignment, or the first car
    that exits the lot.
    """
    aa, uu = _checked(a, u)
    free = [entry - 1 for entry in uu]  # one sorted slot per unit of capacity
    assignment = []
    for car, preferred in enumerate(aa):
        slot = bisect_left(free, preferred)
        if slot == len(free):
            return ParkingOutcome(failed_car=car)
        assignment.append(free.pop(slot))
    return ParkingOutcome(assignment=tuple(assignment))


# ---------------------------------------------------------------------------
# Prime decomposition
# ---------------------------------------------------------------------------


def split_points(a: Sequence[int], u: Sequence[int]) -> tuple[Point, ...]:
    """Points of {(0,0), (u_0,1), ..., (u_{n-1},n)} lying on the path of a.

    These are the cut points of the prime decomposition; a parking function
    is prime exactly when only the two endpoints appear.  (u_i, i+1) lies on
    the path when exactly i+1 entries lie below u_i: i+1 = n, or the next
    order statistic is not below u_i.  :func:`decompose` cuts by this rule.
    """
    aa, uu = _checked(a, u)
    sa = sorted(aa) + [uu[-1]]  # closed by u's last entry, so (u_{n-1}, n) is on the path
    if not all(x < bound for x, bound in zip(sa, uu)):
        raise NotParkingFunction(f"{aa} is not a parking function for {uu}")
    return (Point(0, 0),) + tuple(Point(x, i + 1) for i, x in enumerate(uu) if sa[i + 1] >= x)


@dataclass(frozen=True)
class VectorComponent:
    """One prime component: its own sequence, boundary, and original positions."""

    a: Seq
    u: Seq
    positions: frozenset[int]


@dataclass(frozen=True)
class VectorPrimeDecomposition:
    """Ordered prime components plus the cumulative x-offsets that invert the sum."""

    components: tuple[VectorComponent, ...]
    offsets: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {
                    "a": list(c.a),
                    "u": list(c.u),
                    "B": sorted(c.positions),
                    "offset": off,
                }
                for c, off in zip(self.components, self.offsets)
            ]
        }


def decompose(a: Sequence[int], u: Sequence[int]) -> VectorPrimeDecomposition:
    """Cut a u-parking function into its prime components at the split points.

    One pass over the stable ranks of a (its order statistics read off them)
    checks each order statistic against u and cuts after rank i when
    :func:`split_points`'s rule puts (u_i, i+1) on the path.  Component j
    keeps the original positions of its entries (the label set B_j, read
    bottom-to-top along the path) and is rebased by the x-offset of its left
    cut point, so the shuffle sum can be inverted exactly.
    """
    aa, uu = _checked(a, u)
    ranks = stable_sort_indices(aa)
    sa = [aa[r] for r in ranks] + [uu[-1]]  # closed as in split_points: a cut follows the last rank
    components, offsets, x0, y0 = [], [], 0, 0
    for i, bound in enumerate(uu):
        if sa[i] >= bound:
            raise NotParkingFunction(f"{aa} is not a parking function for {uu}")
        if sa[i + 1] >= bound:
            comp_a, positions = take(aa, ranks[y0 : i + 1], x0)
            components.append(VectorComponent(comp_a, tuple([x - x0 for x in uu[y0 : i + 1]]), positions))
            offsets.append(x0)
            x0, y0 = bound, i + 1
    return VectorPrimeDecomposition(tuple(components), tuple(offsets))


def compose(d: VectorPrimeDecomposition) -> tuple[Seq, Seq]:
    """Rebuild (a, u) from a decomposition; inverse of :func:`decompose`.

    Each offset must be the int sum of the ``u[-1]`` before it, and each
    component prime, with one boundary entry per entry, its entries and
    boundary as :func:`is_prime_vector_pf` asks (else ValueError);
    :func:`core.place` then checks the position sets.  Anything else raises
    InconsistentDecomposition.
    """
    if len(d.components) != len(d.offsets) or not d.components:
        raise InconsistentDecomposition("component and offset lists disagree")
    parts, u = [], [0]  # u[-1] is the cumulative shift, the int the next offset must be
    for comp, offset in zip(d.components, d.offsets):
        if type(offset) is not int or offset != u[-1]:
            raise InconsistentDecomposition(f"offset {shown(offset)} is not the int cumulative shift {u[-1]}")
        if len(comp.a) != len(comp.u) or not is_prime_vector_pf(comp.a, comp.u):
            raise InconsistentDecomposition(f"component {comp.a} is not prime for {comp.u}")
        parts.append((comp.a, comp.positions, offset))
        u += [entry + offset for entry in comp.u]
    return place(len(u) - 1, parts), tuple(u[1:])


# ---------------------------------------------------------------------------
# Counting formulas for boundaries u_i = s + b*i
# ---------------------------------------------------------------------------


def _check_arith(s: int, b: int, n: int) -> None:
    """The rule for an arithmetic boundary u_i = s + b*i, for the closed forms, the oracle and the CLI (classical is
    s = b = 1): ints (not bools) s >= 1, b >= 0 and n >= 1, so that u is a capacity vector.  The refusal names the
    first size that fails and its value."""
    if type(s) is not int or s < 1:
        raise ValueError(f"the arithmetic boundary needs an int s >= 1, got {shown(s)}")
    if type(b) is not int or b < 0:
        raise ValueError(f"the arithmetic boundary needs an int b >= 0, got {shown(b)}")
    if type(n) is not int or n < 1:
        raise ValueError(f"the arithmetic boundary needs an int n >= 1, got {shown(n)}")


def count_pf_arith(s: int, b: int, n: int) -> int:
    """Number of parking functions for the boundary u_i = s + b*i: s(s+bn)^(n-1); s, b, n as ``_check_arith`` asks."""
    _check_arith(s, b, n)
    return s * exact.power(s + b * n, n - 1)


def count_ipf_arith(s: int, b: int, n: int) -> int:
    """Number of increasing parking functions for u_i = s + b*i; s, b, n as ``_check_arith`` asks."""
    _check_arith(s, b, n)
    m = s + n * (b + 1)
    return exact.as_integer(s * exact.binomial(m, n), m)


def count_ippf_arith(s: int, b: int, n: int) -> int:
    """Number of increasing prime parking functions for u_i = s + b*i; s, b, n as ``_check_arith`` asks.

    Terms of the numerator may be negative when s < b; its division by n
    is exact (``exact.as_integer``), a floor division asserted remainder-free.
    """
    _check_arith(s, b, n)
    k = (b + 1) * (n - 1)
    return exact.as_integer((s - b) * exact.binomial(s + k, n - 1) + b * exact.binomial(k, n - 1), n)


def count_ppf_arith(s: int, b: int, n: int) -> int:
    """Number of prime parking functions for u_i = s + b*i, with 0^0 = 1; s, b, n as ``_check_arith`` asks."""
    _check_arith(s, b, n)
    return (s - b) * (s + (n - 1) * b) ** (n - 1) + b**n * (n - 1) ** (n - 1)
