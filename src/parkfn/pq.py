"""(p, q)-parking functions: pairs (a, b) whose two lattice paths nest.

The vertical path of b must stay weakly above the reflected horizontal path
of a.  Membership is decided through the equivalent counting inequalities;
the geometric test is kept alongside as an independent route.  The prime
decomposition cuts where the paths meet: twodim's meeting walk on the nodes
of ``u0_matrix(p, q)``.  With p = 0 or q = 0 the all-zero pair is the one
member, and the closed forms count it directly, never through a negative
exponent.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from . import exact
from .core import (
    LatticePath,
    Point,
    Seq,
    as_seq,
    order_statistics,
    path_of_increasing,
    place,
    shown,
    stable_sort_indices,
    take,
    transpose,
    weakly_above,
)
from .errors import InconsistentDecomposition, NotParkingFunction
from .twodim import AffineWeightSpec, WeightMatrix, _meeting, affine_weight_matrix


@dataclass(frozen=True)
class PQPair:
    """A pair (a, b) of preference sequences with shape (p, q) = (|a|, |b|)."""

    a: Seq
    b: Seq

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_seq(self.a))
        object.__setattr__(self, "b", as_seq(self.b))

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b)

    def vertical_path(self) -> LatticePath:
        """Path in L(p, q) whose j-th N step has x-coordinate b_(j)."""
        return path_of_increasing(order_statistics(self.b), self.p)

    def reflected_horizontal_path(self) -> LatticePath:
        """Path in L(p, q) whose i-th E step has y-coordinate a_(i)."""
        return transpose(path_of_increasing(order_statistics(self.a), self.q))

    @classmethod
    def from_json_dict(cls, data: dict) -> "PQPair":
        pair = cls(tuple(data["a"]), tuple(data["b"]))
        for key, side, size in (("p", "a", pair.p), ("q", "b", pair.q)):
            if key in data and type(data[key]) is not int:  # parsed JSON gives 1.0 and true their own types
                raise ValueError(f"the declared {key!r} must be an integer, got {shown(data[key])}")
            if key in data and data[key] != size:
                raise ValueError(f"declared {key} = {shown(data[key])} but |{side}| = {size}")
        return pair


def is_pq_pf(pair: PQPair) -> bool:
    """Membership via the two families of counting inequalities.

    For every i, at least b_(i) entries of a are <= i and at least a_(i)
    entries of b are <= i.  Handles p = 0 or q = 0 uniformly: the all-zero
    pair is the single member.
    """
    return _sorted_pf(sorted(pair.a), sorted(pair.b))


def _sorted_pf(sa: list[int], sb: list[int]) -> bool:
    """:func:`is_pq_pf` on the order statistics of the pair."""
    return all(bisect_left(sa, i + 1) >= x for i, x in enumerate(sb)) and all(
        bisect_left(sb, i + 1) >= x for i, x in enumerate(sa)
    )


def is_pq_pf_by_paths(pair: PQPair) -> bool:
    """Geometric membership route: the b-path stays weakly above the a-path."""
    return weakly_above(pair.vertical_path(), pair.reflected_horizontal_path())


def is_pq_prime(pair: PQPair) -> bool:
    """Primeness: a parking function whose inner inequalities hold strictly.

    Degenerate shapes follow the convention that the only prime pairs with
    an empty side are (empty, (0)) and ((0), empty).
    """
    return _sorted_prime(sorted(pair.a), sorted(pair.b))


def _sorted_prime(sa: list[int], sb: list[int]) -> bool:
    """:func:`is_pq_prime` on the order statistics of the pair."""
    if not sa:
        return sb == [0]
    if not sb:
        return sa == [0]
    # Both sides must contain a 0.  For p + q >= 3 the strict inequalities
    # below already force this; at shape (1, 1) they are vacuous and the zero
    # requirement is what separates the one indecomposable pair from the two
    # pairs that split into a horizontal and a vertical atom.
    if sa[0] or sb[0] or not _sorted_pf(sa, sb):
        return False
    return all(bisect_left(sa, i) > sb[i] for i in range(1, len(sb))) and all(
        bisect_left(sb, i) > sa[i] for i in range(1, len(sa))
    )


# ---------------------------------------------------------------------------
# Prime decomposition of pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PQComponent:
    """One prime component with the original index sets of both sides."""

    a: Seq
    b: Seq
    a_positions: frozenset[int]
    b_positions: frozenset[int]


@dataclass(frozen=True)
class PQPrimeDecomposition:
    """Ordered prime components and the chain of cut points (0,0), ..., (p,q)."""

    components: tuple[PQComponent, ...]
    cut_points: tuple[Point, ...]

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {
                    "a": list(c.a),
                    "b": list(c.b),
                    "A": sorted(c.a_positions),
                    "B": sorted(c.b_positions),
                    "offset": [x0, y0],
                }
                for c, (x0, y0) in zip(self.components, self.cut_points)
            ]
        }


class _U0Row(int):
    """Row l of ``u0_matrix(p, q)``, for any p, as the int l + 1: node k weighs (l + 1, k + 1), built as the walk reads it."""

    def __getitem__(self, k: int) -> tuple[int, int]:
        return self.real, k + 1  # plain ints, as a grid holds: the walk shared with twodim keeps its specialized int ops


def decompose_pq(pair: PQPair) -> PQPrimeDecomposition:
    """Cut a pair where its two paths meet: twodim's meeting walk on ``u0_matrix(p, q)``, chained from (0,0) to (p,q).

    Each side is sorted once, into its stable ranks, and its order
    statistics are read off them.  Between consecutive cut points, each
    side keeps the original indices of the entries whose ranks fall in the
    segment (A and B label sets) and is rebased by the segment's lower-left
    corner; a purely vertical segment yields an empty a-side, a purely
    horizontal one an empty b-side.
    """
    a, b, p, q = pair.a, pair.b, pair.p, pair.q
    ranks_a, ranks_b = stable_sort_indices(a), stable_sort_indices(b)
    sa, sb = [a[r] for r in ranks_a] + [q + 1], [b[r] for r in ranks_b] + [p + 1]  # closed by U0's top corner
    rows = tuple(map(_U0Row, range(1, q + 2)))
    cuts, components, x0, y0 = [Point(0, 0)], [], 0, 0
    while x0 != p or y0 != q:
        if (node := _meeting(sa, sb, rows, x0, y0)) is None:
            raise NotParkingFunction(f"{(a, b)} is not a (p,q)-parking function")
        x1, y1 = node
        comp_a, a_pos = take(a, ranks_a[x0:x1], y0)
        comp_b, b_pos = take(b, ranks_b[y0:y1], x0)
        components.append(PQComponent(comp_a, comp_b, a_pos, b_pos))
        cuts.append(Point(x1, y1))
        x0, y0 = x1, y1
    return PQPrimeDecomposition(tuple(components), tuple(cuts))


def compose_pq(d: PQPrimeDecomposition) -> PQPair:
    """Rebuild the pair from a decomposition; inverse of :func:`decompose_pq`.

    The cut points must be int pairs chaining from (0,0) by the component
    shapes, and each component must be prime, its entries non-negative ints
    (else ValueError); :func:`core.place` then checks the position sets.
    Anything else raises InconsistentDecomposition.  A decomposition with no
    components yields the empty pair.
    """
    p = q = 0
    cuts, a_parts, b_parts = [(0, 0)], [], []
    for comp in d.components:
        a_parts.append((comp.a, comp.a_positions, q))
        b_parts.append((comp.b, comp.b_positions, p))
        p, q = p + len(comp.a), q + len(comp.b)
        cuts.append((p, q))
    if tuple(d.cut_points) != tuple(cuts) or not all(type(x) is type(y) is int for x, y in d.cut_points):
        raise InconsistentDecomposition(f"cut points must chain as the ints {tuple(cuts)}")
    for comp in d.components:
        if not _sorted_prime(sorted(as_seq(comp.a)), sorted(as_seq(comp.b))):
            raise InconsistentDecomposition(f"component {(comp.a, comp.b)} is not prime")
    return PQPair(place(p, a_parts), place(q, b_parts))


# ---------------------------------------------------------------------------
# Weight-grid views
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128, typed=True)
def u0_matrix(p: int, q: int) -> WeightMatrix:
    """U0, the affine grid (0,1,1,0,1,1): node (k, l) weighs (l+1, k+1); its members are the (p,q) pairs.

    ``AffineWeightSpec`` refuses sizes that are not ints >= 0.  The grid is
    immutable, so the 128 most recent are kept and handed out again: the
    oracle asks for one per pq count.  Its prime transform (``(l, k)`` off
    the axes, ``(1, 1)`` on them) has the prime (p,q) pairs as its members.
    """
    return affine_weight_matrix(AffineWeightSpec(0, 1, 1, 0, 1, 1, p, q))


# ---------------------------------------------------------------------------
# Counting formulas
# ---------------------------------------------------------------------------


def _check_pq(p: int, q: int, least: int = 0, what: str = "the pq family") -> None:
    """The pq rule, for the closed forms and the oracle: ints (not bools) p, q >= ``least``, 0 but 1 for the summation
    form.  The refusal names the first size that fails and its value."""
    if type(p) is not int or p < least:
        raise ValueError(f"{what} needs an int p >= {least}, got {shown(p)}")
    if type(q) is not int or q < least:
        raise ValueError(f"{what} needs an int q >= {least}, got {shown(q)}")


def count_pq_pf(p: int, q: int) -> int:
    """(p+q+1)(p+1)^(q-1)(q+1)^(p-1), p, q as ``_check_pq`` asks; with an empty side the all-zero pair is the one member."""
    _check_pq(p, q)
    if p == 0 or q == 0:
        return 1
    return (p + q + 1) * exact.power(p + 1, q - 1) * exact.power(q + 1, p - 1)


def count_pq_ipf(p: int, q: int) -> int:
    """Narayana count of increasing pairs: C(n+1,p) C(n+1,q) / (n+1), n = p+q; p, q as ``_check_pq`` asks."""
    _check_pq(p, q)
    n = p + q
    return exact.as_integer(exact.binomial(n + 1, p) * exact.binomial(n + 1, q), n + 1)


def count_pq_ippf(p: int, q: int) -> int:
    """Number of increasing prime pairs; degenerate shapes count their lone member.  p, q as ``_check_pq`` asks."""
    _check_pq(p, q)
    if p == 0 or q == 0:
        return 1 if (p, q) in ((0, 1), (1, 0)) else 0
    n = p + q - 1
    return exact.as_integer(exact.binomial(n, p - 1) * exact.binomial(n, q - 1), n)


def count_pq_ppf(p: int, q: int) -> int:
    """Closed-form count of prime pairs, with 0^0 = 1 at p = 1 or q = 1; p, q as ``_check_pq`` asks."""
    _check_pq(p, q)
    if p == 0 or q == 0:
        return 1 if (p, q) in ((0, 1), (1, 0)) else 0
    return (
        p**q * (q - 1) ** (p - 1)
        + q**p * (p - 1) ** (q - 1)
        - (p + q - 1) * (p - 1) ** (q - 1) * (q - 1) ** (p - 1)
    )


def count_pq_ppf_sum(p: int, q: int) -> int:
    """Prime-pair count as a double sum over the zero multiplicities (i, j); ``_check_pq`` with p, q >= 1.

    Terms with i = p or j = q carry an exponent of -1 whose base can be 0;
    in those terms the coefficient factors exactly as (p-1)(q-1), so the
    negative power cancels symbolically before evaluation:

        i = p, j < q:  C(q,j) (p-1)^(q-j)
        i < p, j = q:  C(p,i) (q-1)^(p-i)
        i = p, j = q:  1
    """
    _check_pq(p, q, 1, "the summation form")
    total = 0
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            if i == p and j == q:
                total += 1
            elif i == p:
                total += exact.binomial(q, j) * (p - 1) ** (q - j)
            elif j == q:
                total += exact.binomial(p, i) * (q - 1) ** (p - i)
            else:
                coeff = 1 + q * i + p * j - p - q - i * j
                total += (
                    exact.binomial(p, i)
                    * exact.binomial(q, j)
                    * coeff
                    * (q - 1) ** (p - i - 1)
                    * (p - 1) ** (q - j - 1)
                )
    return total
