"""Sequences, lattice paths, path-comparison primitives, and the cut/place pair.

A lattice path is a word over {N, E} read from (0, 0); the step word is the
single source of truth and vertex lists are derived on demand.  All values
are immutable, so everything here is safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from itertools import zip_longest
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, InconsistentDecomposition, NotIncreasing, OutOfRange

Seq = tuple[int, ...]


class Point(NamedTuple):
    x: int
    y: int


def shown(value: object) -> str:
    """``repr(value)``, or, where ``repr`` refuses an int in it past Python's int/str digit limit, the same text
    with that int (in value itself or nested in its tuples, lists and dicts) written in full through Decimal."""
    try:
        return repr(value)
    except ValueError:  # the digit limit: walk down to the int that exceeds it
        if type(value) is int:
            return str(Decimal(value))
        if type(value) is dict:
            return "{" + ", ".join(f"{shown(key)}: {shown(item)}" for key, item in value.items()) + "}"
        if type(value) not in (tuple, list):
            raise
        inner = ", ".join(map(shown, value))
        return f"({inner}{',' if len(value) == 1 else ''})" if type(value) is tuple else f"[{inner}]"


def as_seq(entries: Iterable[int]) -> Seq:
    """The entries as a tuple, if every one is a non-negative ``int``.

    Any other type (bool, float, str, ...) raises ValueError, never coerced.
    """
    out = tuple(entries)
    for e in out:
        if type(e) is not int or e < 0:
            raise ValueError(f"sequence entries must be non-negative integers, got {shown(out)}")
    return out


def json_ints(value: object, name: str, length: Optional[int] = None) -> Seq:
    """``value`` as a tuple, if it is a JSON array of ``length`` (any, if None) integers.

    Parsed JSON gives bool, float and str entries their own types, so
    ``true``, ``1.0`` and ``"1"`` are refused (ValueError), never coerced.
    """
    if not isinstance(value, list) or any(type(e) is not int for e in value) or length not in (None, len(value)):
        size = "" if length is None else f"{length} "
        raise ValueError(f"{name} must be an array of {size}integers, got {shown(value)}")
    return tuple(value)


def order_statistics(s: Sequence[int]) -> Seq:
    """Weakly increasing rearrangement of ``s`` (its order statistics)."""
    return tuple(sorted(s))


def stable_sort_indices(s: Sequence[int]) -> tuple[int, ...]:
    """Original indices of ``s`` sorted by value, ties kept in index order (the sort is stable).

    Entry ``r`` is the index whose value is the r-th order statistic; this is
    the normative tie-breaking for every decomposition here.
    """
    return tuple(sorted(range(len(s)), key=s.__getitem__))


def take(seq: Seq, indices: Sequence[int], shift: int) -> tuple[Seq, frozenset[int]]:
    """One component cut from ``seq``: its entries at ``indices``, in index order less ``shift``, and the index set.

    The decompositions pass a run of stable ranks, so each side is sorted
    once by value and each component's few indices once by position.
    """
    if not indices:  # the empty side of a pq atom
        return (), frozenset()
    return tuple([seq[i] - shift for i in sorted(indices)]), frozenset(indices)


def place(n: int, parts: Sequence[tuple[Seq, frozenset[int], int]]) -> Seq:
    """Inverse of :func:`take`: the length-``n`` sequence with each part's entries, plus its shift, at its positions.

    Each position is checked as it is written: an int (not a bool) in
    ``range(n)`` that no part wrote before, paired with an entry of its part
    (a part with more positions than entries, or fewer, is refused); then no
    position may be left unwritten, so the entry counts add up to ``n`` and
    the position sets partition ``range(n)``.  Any other position set raises
    InconsistentDecomposition, one whose types cannot be sorted included;
    nothing else checks positions.
    """
    out: list = [None] * n
    for entries, positions, shift in parts:
        if positions or entries:  # an empty part (one side of a pq atom) writes nothing
            try:
                ordered = sorted(positions)
            except TypeError:  # positions of types that do not compare, an int and a str say: refused below
                ordered = [None]
            for i, value in zip_longest(ordered, entries):  # None pads the shorter, and is refused
                if type(i) is not int or not 0 <= i < n or out[i] is not None or value is None:
                    raise InconsistentDecomposition(f"positions {shown(positions)} are not free ints in 0..{n - 1}")
                out[i] = value + shift
    if None in out:
        raise InconsistentDecomposition(f"position sets do not partition 0..{n - 1} one per entry")
    return tuple(out)


@dataclass(frozen=True)
class LatticePath:
    """Monotone lattice path from (0,0), encoded as a step word over {N, E}."""

    steps: str

    def __post_init__(self) -> None:
        if self.steps.strip("NE"):
            raise ValueError(f"path word must use only N and E, got {self.steps!r}")

    @property
    def width(self) -> int:
        return self.steps.count("E")

    @property
    def height(self) -> int:
        return self.steps.count("N")

    def vertices(self) -> tuple[Point, ...]:
        pts = [Point(0, 0)]
        x = y = 0
        for ch in self.steps:
            if ch == "E":
                x += 1
            else:
                y += 1
            pts.append(Point(x, y))
        return tuple(pts)

    def horizontal_step_ys(self) -> Seq:
        """y-coordinate of each E step, left-to-right."""
        out = []
        y = 0
        for ch in self.steps:
            if ch == "N":
                y += 1
            else:
                out.append(y)
        return tuple(out)


def path_of_increasing(s: Sequence[int], width: int) -> LatticePath:
    """The unique path in L(width, len(s)) whose i-th N step has x-coordinate s[i]."""
    entries = as_seq(s)
    if any(entries[i] > entries[i + 1] for i in range(len(entries) - 1)):
        raise NotIncreasing(f"{entries} is not weakly increasing")
    if entries and entries[-1] > width:
        raise OutOfRange(f"entry {entries[-1]} exceeds width {width}")
    word = []
    x = 0
    for e in entries:
        word.append("E" * (e - x))
        word.append("N")
        x = e
    word.append("E" * (width - x))
    return LatticePath("".join(word))


def transpose(p: LatticePath) -> LatticePath:
    """Reflection across the line y = x: swaps N and E stepwise."""
    return LatticePath(p.steps.translate(str.maketrans("NE", "EN")))


def weakly_above(upper: LatticePath, lower: LatticePath) -> bool:
    """True iff ``upper`` never dips below ``lower`` (same endpoints required).

    Equivalent formulation: after k east steps of each path, ``upper`` has
    taken at least as many north steps as ``lower``, for every k.
    """
    if (upper.width, upper.height) != (lower.width, lower.height):
        raise DimensionMismatch(
            f"paths end at ({upper.width},{upper.height}) vs ({lower.width},{lower.height})"
        )
    return all(hu >= hl for hu, hl in zip(upper.horizontal_step_ys(), lower.horizontal_step_ys()))


def common_points(p: LatticePath, q: LatticePath) -> tuple[Point, ...]:
    """Sorted lattice points lying on both paths; always includes both endpoints."""
    if (p.width, p.height) != (q.width, q.height):
        raise DimensionMismatch(
            f"paths end at ({p.width},{p.height}) vs ({q.width},{q.height})"
        )
    shared = set(p.vertices()) & set(q.vertices())
    return tuple(sorted(shared))
