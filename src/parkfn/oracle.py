"""Exhaustive brute-force enumeration of all four families.

This is the ground truth every closed-form count is checked against: it never
consults a formula, only the membership predicates and the weight grids they
reduce to.  Entry bounds are the provably sufficient ones: an entry at or
beyond the bound can never belong to a member.  Each side has one, the
largest weight its edges carry (``_edge_bounds``): u(p-1, q) for the east
edges and v(p, q-1) for the north ones, as no edge leaves the corner
(p, q).  The nominal space, which the cap bounds, ``enumerate_members``
and the sweep all read the box below them.

``enumerate_members`` is definitional: it walks every candidate tuple in
lexicographic order (``_seqs``, the only ``itertools`` candidates left) and
filters by the family's own predicate.
``count_many`` counts a batch of specs, and ``count`` is the batch of one.
``_family`` is the one place that tells the families apart.  It gives each
spec the weight grid whose four counts are its family's: pq on
``u0_matrix(p, q)``, a vector family on its one-row grid (``_row_grid``),
and a twodim family on its own grid.  Primes are plain reachability on the
grid's ``_prime_companion``, which matches the prime predicates; the tests
compare both routes.  A spec of at most one candidate tests it by predicate
and sweeps no grid; a pq shape with an empty side gets no grid at all.

A batch sweeps each distinct grid once.  The grids of one group
``(p, q, u(p-1, q), v(p, q-1))`` share both candidate sides, so each group
is swept as one stack, built once: every grid rides on the leading axis of one
DP state, with its prime companion beside it when p >= 1.  A group whose
kept b-side may drop rows (below) is swept as two stacks instead, its
grids and then their companions, each on its own live rows
(``_stack_sums``).  The kernel sweeps
only weakly increasing candidates and weighs each member by its
rearrangements.  The b-candidates are packed 64 to a ``uint64`` word in their
word layout (``_word_layout``): a block's rows are grouped by rearrangement
weight, each weight class a run of rows that starts on a fresh word, so all
64 bits of a word weigh the same.  A state is a (grid x a-candidate x word)
array.  It starts from the b-block's packed mask of real rows, so its pad
bits are 0 and stay 0; an east edge masks whole a-rows, a north edge ANDs in
one packed b-row.  Both sides come from one source of blocks
(``_side_blocks``): a block of sorted rows is built, masked to its live
rows (below), and, on the b-side, then laid out.  The b-candidates come in
b-blocks of at most ``_BLOCK_BITS`` bits (``_laid_blocks``: each block laid
out on its own and cut on word boundaries), each packed once for the whole
stack (``_packed_north``, from the stack's nodes, read once per sweep), and
against each b-block the a-candidates come in a-blocks of at most
``_BLOCK_BITS`` candidate pairs (a-rows x the b-block's padded bits) summed
over the group's grids, each reduced before the next is built.  So memory is
bounded by one block on each side however large the space and however many
grids share it: a lone grid and its companion keep a full block's a-rows,
and a group of g grids 1/g of them.  A group too large for each grid to keep
one a-row against a full b-block takes b-blocks of
``64 * max(1, _BLOCK_BITS // (64 * g))`` bits instead; past
``_BLOCK_BITS // 64`` grids, each holds one a-row and one word of b-bits.
A side is built in numpy, never from Python tuples
(``_built_side``): a one-entry side counts up a ``range`` a block at a time
and pools nothing; a longer one is the sorted join (``_join``) of its two
halves' tables, each table the sorted rows of its own length, the join of
its own halves, and is joined one block of rows at a time, from the live
rows of the two tables alone when the side drops rows.  A table holds rows
alone: each block a side yields is weighed on its own (``_weights``), every
row by its rearrangements, n! over the factorials of its entries'
multiplicities, read off the runs of equal entries in its sorted columns.
A side's rows are column-major, laid out or not, so each compare reads
one entry of every row from contiguous memory, and int8 below bound 128,
int64 past it; its weights are int64 while n! < 2**63, Python ints past
it.  An a-block reduces to the popcount of each
word (``np.bitwise_count``): the plain counts are one ``einsum`` of the
popcounts with the a-weights and the word weights, the increasing counts
the popcounts' sum.  The grid's exact dtype is applied once per b-block, to
the word weights.  Every product and partial sum it forms is at most a
grid's count, which never exceeds the box of its two sides, so int64 is
exact while that box is below 2**63; larger boxes reduce in Python ints,
one element per word.  A side of length >= 1 whose bound is 0 has no rows:
its nominal space is 0, so it is counted by predicate.

Only live rows need reach the DP.  The grids of a stack are monotone, so
the largest east weight in column k is at row q and the largest north
weight in row l at column p; their maxima over the stack, read from its
nodes, are the tops of the two sides.  A sorted a-row with a[k] at or past
its k-th top is no member of any grid in the stack, as the k-th east step
needs a[k] < u(k, l) <= u(k, q); nor is a b-row with b[l] at or past its
l-th top.  A side whose first top reaches its bound has
no such dead row and is swept whole.  Otherwise ``_side_blocks`` drops the
dead rows where that removes whole DP passes: from an a-side that spans
more than one a-block, a kept one masked whole and its live rows sliced
into full a-blocks, a built one by joining the live rows of its halves'
tables, the head's below the first tops and the tail's below the rest,
which leaves both sorted and each head row's run of tail rows a run at the
end; and from a b-side (q >= 1) that is streamed or whose sweep spans more
than ``_BLOCK_BITS`` sorted pairs, a kept one masked whole, a streamed one
joined from its live rows, and either laid out after its mask.  A kept
b-side in a smaller sweep, or with no dead row, keeps its one cached
layout; no cache is keyed by tops, and the nominal space, and so the cap,
still counts every candidate.

A prime companion's tops are never above its grid's, as each of its nodes
takes its weights from a node at or below or west of it, and often far
below: at ``1,1,1,1,1,1,5,5`` the grid keeps 1638 of 2002 rows a side and
its companion 429.  A stack of both sweeps the companion on the grid's
rows, so where a kept b-side may drop rows, in a sweep past ``_BLOCK_BITS``
sorted pairs, the companions are swept as a stack of their own, on their
own live rows of both sides, the kept b-side masked and laid out again for
them.  A streamed b-side would be built twice, so there, and on a kept
b-side in a smaller sweep, the grids and their companions stay one stack.

Four caches of 128 entries live as long as the process:

- ``_counted``, the four counts of the last grids counted, so the other
  variants of a grid cost no sweep;
- ``_kept_side``, the candidate sides: the sorted rows and weights of one
  sequence depend only on its entry bound and length, so each
  (bound, length) has one entry, whichever side it serves, and a b-side
  swept whole a second one, the word layout of the first.  A side of at
  most ``_BLOCK_BITS // 64`` rows, the most one a-block takes, is kept
  read-only and whole, even when its blocks take a few rows at a time, and
  shared by every grid that needs it; a larger side is rebuilt per stack,
  one block at a time, and a masked b-side, kept or not, laid out anew for
  each stack;
- ``u0_matrix`` and ``_row_grid``, the grids, so a count whose four counts
  are kept does not rebuild its grid either.
"""

from __future__ import annotations

import sys
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product, starmap
from math import comb, factorial, prod
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .core import Seq, shown
from .errors import SearchSpaceTooLarge
from .pq import PQPair, _check_pq, is_pq_pf, is_pq_prime, u0_matrix
from .twodim import WeightMatrix, check_prime_shape, is_u_pf, is_u_prime, prime_weight_transform
from .vector import _check_arith, is_prime_vector_pf, is_vector_pf, validate_capacity

DEFAULT_SEARCH_CAP = 10**8

_READS = {"classical": ("n",), "vector": ("u",), "pq": ("p", "q"), "twodim": ("weights",)}  # the fields each family reads

Instance = tuple[Seq, ...]  # (a,) for one-sequence families, (a, b) for pairs
Shapes = tuple[tuple[int, int], ...]  # (length, exclusive entry bound) per sequence
Family = tuple[int, Optional[WeightMatrix], Shapes, Callable[[Instance], bool]]  # space, grid, shapes, member test


@dataclass(frozen=True)
class FamilySpec:
    """Which family to enumerate, with its parameters and variant flags.

    Each family reads its own fields (classical n, vector u, pq p and q,
    twodim weights) and refuses the others.  The fields are checked by their
    family's rule, as the closed forms and the CLI check them: classical n
    by ``vector._check_arith`` with s = b = 1, vector u by
    ``vector.validate_capacity``, pq p and q by ``pq._check_pq``, and a
    twodim spec's primes by ``twodim.check_prime_shape``; every refusal is a
    ValueError.
    """

    family: str  # classical | vector | pq | twodim
    prime: bool = False
    increasing: bool = False
    n: Optional[int] = None
    u: Optional[Seq] = None
    p: Optional[int] = None
    q: Optional[int] = None
    weights: Optional[WeightMatrix] = None

    def __post_init__(self) -> None:
        if type(self.prime) is not bool or type(self.increasing) is not bool:
            raise ValueError(f"prime and increasing must be bools, got {shown(self.prime)}, {shown(self.increasing)}")
        reads = _READS.get(self.family) if type(self.family) is str else None
        if reads is None:
            raise ValueError(f"unknown family {shown(self.family)}")
        if (self.n, self.u, self.p, self.q, self.weights).count(None) != 5 - len(reads):  # scan only when more or fewer fields are set than it reads
            for field in ("n", "u", "p", "q", "weights"):
                if field not in reads and getattr(self, field) is not None:
                    raise ValueError(f"the {self.family} family takes no {field}, got {shown(getattr(self, field))}")
        if self.family == "classical":
            _check_arith(1, 1, self.n)
        elif self.family == "vector":
            if self.u is None:
                raise ValueError("vector family needs a capacity vector u")
            object.__setattr__(self, "u", validate_capacity(self.u))
        elif self.family == "pq":
            _check_pq(self.p, self.q)
        else:
            if not isinstance(self.weights, WeightMatrix):
                raise ValueError(f"twodim family needs a WeightMatrix, got {shown(self.weights)}")
            if self.prime:
                check_prime_shape(self.weights.p, self.weights.q)


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of a counting run over the full candidate space: ``search_space`` is the box below each side's edge
    bound (``_edge_bounds``), weakly increasing candidates only for an increasing spec."""

    spec: FamilySpec
    count: int
    search_space: int
    elapsed: float


def _family(spec: FamilySpec, cap: Optional[int]) -> Family:
    """Nominal space, the grid whose four counts are the family's, candidate shapes, and member test.

    Each shape's bound is its grid's edge bound (``_edge_bounds``): a twodim
    grid's read from its edges, a pq side's q+1 or p+1, U0's last east and
    north weights, and a vector side's u[-1].  The space is checked against the
    cap before a pq grid's (p+1)(q+1) nodes are built.  A pq shape with an
    empty side gets no grid (None): it has exactly one candidate, and counts
    by predicate.  The predicates are this module's globals at call time.
    """
    if spec.family == "twodim":
        grid = spec.weights
        shapes = tuple(zip((grid.p, grid.q), _edge_bounds(grid)))
        member = (lambda c: is_u_prime(*c, grid, method="direct")) if spec.prime else (lambda c: is_u_pf(*c, grid)[0])
        return _checked_space(spec, shapes, cap), grid, shapes, member
    if spec.family == "pq":
        shapes, pair_test = ((spec.p, spec.q + 1), (spec.q, spec.p + 1)), is_pq_prime if spec.prime else is_pq_pf
        space = _checked_space(spec, shapes, cap)
        return space, u0_matrix(spec.p, spec.q) if spec.p and spec.q else None, shapes, lambda c: pair_test(PQPair(*c))
    u, vector_test = spec.u or tuple(range(1, spec.n + 1)), is_prime_vector_pf if spec.prime else is_vector_pf
    shapes = ((len(u), u[-1]),)
    return _checked_space(spec, shapes, cap), _row_grid(u), shapes, lambda c: vector_test(c[0], u)


def _sweep(shapes: Shapes, increasing: bool) -> Iterator[Instance]:
    """Every candidate, lazily, in lexicographic order of the flattened tuple."""
    if len(shapes) == 1:
        return ((a,) for a in _seqs(*shapes[0], increasing))
    return ((a, b) for a in _seqs(*shapes[0], increasing) for b in _seqs(*shapes[1], increasing))


def _seqs(length: int, bound: int, increasing: bool) -> Iterator[Seq]:
    """The weakly increasing tuples of ``length`` entries below ``bound``, or the full box, lazily in lexicographic order."""
    if length <= 1:  # one empty tuple, whatever the bound, or one-entry tuples: no pool of range(bound) is built
        return zip(range(bound)) if length else iter([()])
    return combinations_with_replacement(range(bound), length) if increasing else product(range(bound), repeat=length)


def _checked_space(spec: FamilySpec, shapes: Shapes, cap: Optional[int]) -> int:
    """Nominal candidate count, the box below each side's edge bound (one for an empty side); raises past the cap, or
    when a side of length >= 1 has a bound past ``sys.maxsize``, which ``range`` cannot pool: the space is then 0 or
    past it too.  A cap that is not an int >= 0, a bool included, is refused (ValueError): no space is below a
    negative one."""
    total = prod(_multisets(bound, length) if spec.increasing else bound**length for length, bound in shapes)
    cap = DEFAULT_SEARCH_CAP if cap is None else cap
    if type(cap) is not int or cap < 0:
        raise ValueError(f"the search cap must be an int >= 0, got {shown(cap)}")
    if total > cap:
        raise SearchSpaceTooLarge(f"{shown(total)} candidates exceed the cap of {shown(cap)}")
    if (total > sys.maxsize or not total) and (top := max(bound for length, bound in shapes if length)) > sys.maxsize:
        raise SearchSpaceTooLarge(f"an entry bound of {shown(top)} exceeds {sys.maxsize}, the largest a sweep can pool")
    return total


def enumerate_members(spec: FamilySpec, *, cap: Optional[int] = None) -> Iterator[Instance]:
    """Exactly the members, lazily, in lexicographic order of the flattened tuple.

    Candidates are generated one at a time, so memory stays flat however
    large the space; the cap is checked at the call, before the first one.
    """
    _, _, shapes, member = _family(spec, cap)
    return filter(member, _sweep(shapes, spec.increasing))


def count(spec: FamilySpec, *, cap: Optional[int] = None) -> EnumerationReport:
    """Count the members of the family over the full candidate space: ``count_many`` of one spec."""
    return count_many((spec,), cap=cap)[0]


def count_many(specs: Iterable[FamilySpec], *, cap: Optional[int] = None) -> list[EnumerationReport]:
    """Count the members of every family over its full candidate space; one report per spec, in order.

    Every spec's nominal space is checked against the cap before anything is
    counted.  A grid equal to one of the last ``_KEPT_GRIDS`` counted is not
    swept again; the others are grouped by shape and by their edge bounds,
    (p, q, u(p-1, q), v(p, q-1)), one sweep per group, of one stack or,
    where a kept b-side may drop rows, of two: the grids, then their prime
    companions (see the module docstring).  A side of length >= 1 whose
    bound is 0 makes the space 0, so its spec is counted by predicate.

    A report's ``elapsed`` is the wall time of the work that counted it: the
    sweep of its grid's whole group, both stacks when there are two, shared
    by every spec of that group, so one call's reports need not add up to
    its time; 0.0 for a grid counted by an earlier call; the predicate test
    of its candidate for a spec whose nominal space is at most one.  A
    ``cap`` that is not an int >= 0 is refused (ValueError), as by ``count``
    and ``enumerate_members``.
    """
    specs = list(specs)
    families = [_family(spec, cap)[:2] for spec in specs]  # space and grid, not the member tests: a batch may hold thousands
    swept: dict[WeightMatrix, Optional[tuple[tuple[int, int, int, int], float]]] = {}
    groups: dict[tuple[int, int, int, int], list[WeightMatrix]] = {}
    for space, grid in families:
        if space <= 1 or grid in swept:
            continue
        if (four := _counted.pop(grid, None)) is None:  # popped to be stored again as the newest
            swept[grid] = None
            groups.setdefault((grid.p, grid.q, *_edge_bounds(grid)), []).append(grid)
        else:
            swept[grid], _counted[grid] = (four, 0.0), four
    for group in groups.values():
        start = time.perf_counter()
        counts = _stacked_counts(group)
        elapsed = time.perf_counter() - start
        for grid, four in zip(group, counts):
            swept[grid], _counted[grid] = (four, elapsed), four
            if len(_counted) > _KEPT_GRIDS:
                _counted.popitem(last=False)
    reports = []
    for spec, (space, grid) in zip(specs, families):
        if space <= 1:  # at most one candidate: tested by predicate
            start = time.perf_counter()
            total = sum(1 for _ in enumerate_members(spec, cap=cap))
            reports.append(EnumerationReport(spec, total, space, time.perf_counter() - start))
        else:
            four, elapsed = swept[grid]
            reports.append(EnumerationReport(spec, four[2 * spec.prime + spec.increasing], space, elapsed))
    return reports


@lru_cache(maxsize=128)
def _row_grid(u: Seq) -> WeightMatrix:
    """The one-row grid (q = 0) of a capacity vector: the east edge leaving node k weighs u[k]; node n repeats u[-1].

    u is a valid capacity vector, so the grid needs no check; the 128 most recent are kept.
    """
    return WeightMatrix._unchecked(len(u), 0, (tuple((x, 1) for x in u + u[-1:]),))


def _edge_bounds(grid: WeightMatrix) -> tuple[int, int]:
    """The largest weights the grid's east and north edges carry, u(p-1, q) and v(p, q-1), its sides' entry bounds;
    an empty side's is 1, as no edge reads it: its one candidate is the empty tuple."""
    return grid.rows[-1][-2][0] if grid.p else 1, grid.rows[-2][-1][1] if grid.q else 1


def _prime_companion(grid: WeightMatrix) -> WeightMatrix:
    """The grid (p >= 1) whose plain members are ``grid``'s primes: ``prime_weight_transform`` when q >= 1.

    A one-row grid's is its row shifted one node east, (z0, z0, z1, ..., z_{p-1}):
    ``prime_reduction`` in grid form, unchecked, as a twodim row may weigh 0.
    """
    row = grid.rows[0]
    return prime_weight_transform(grid) if grid.q else WeightMatrix._unchecked(grid.p, 0, (row[:1] + row[:-1],))


# ---------------------------------------------------------------------------
# Packed grid kernel, vectorized over candidate pairs and stacked grids
# ---------------------------------------------------------------------------

_BLOCK_BITS = 2**18  # candidate pairs (a-rows x laid-out b-bits) over a group's grids in a block; a multiple of 64
_ONES = np.uint64(2**64 - 1)
_KEPT_GRIDS = 128
_counted: OrderedDict[WeightMatrix, tuple[int, int, int, int]] = OrderedDict()  # the last grids counted, oldest first


def _stacked_counts(grids: list[WeightMatrix]) -> list[tuple[int, int, int, int]]:
    """The four counts (pf, ipf, ppf, ippf) of every grid of one group (``count_many``), each side built to its
    edge bound: the grids and their prime companions are swept as one stack, or as two (``_stack_sums``) when a kept
    b-side may drop rows.

    The module docstring gives the design: packed states, blocks, stacks and
    the reduction.  Semantics match ``is_u_pf`` / ``is_u_prime`` exactly; the
    tests compare them, and ``is_u_prime``'s two methods.
    """
    p, q, g = grids[0].p, grids[0].q, len(grids)
    bu, bv = _edge_bounds(grids[0])
    stack = grids + [_prime_companion(grid) for grid in grids] if p else grids
    flat = chain.from_iterable(chain.from_iterable(chain.from_iterable(grid.rows for grid in stack)))
    nodes = np.fromiter(flat, object).reshape(len(stack), q + 1, p + 1, 2)  # nodes[g, l, k] = (u, v)
    # the b-side may drop rows when q >= 1 and it is streamed, past _BLOCK_BITS // 64 rows, or in a sweep of more than
    # _BLOCK_BITS sorted pairs, hence max(64, a-rows); a kept one is masked again, cheaply, so the companions, whose
    # tops are lower, sweep apart on their own live rows; a streamed one would be built twice
    masked_b = q and max(64, _multisets(bu, p)) * _multisets(bv, q) > _BLOCK_BITS
    apart = p and masked_b and _multisets(bv, q) <= _BLOCK_BITS // 64
    # [:g] the grids' plain and increasing counts, [g:] their prime ones (none when p is 0)
    sums, pops = np.zeros(2 * g, object), np.zeros(2 * g, np.int64)
    for part in (slice(0, g), slice(g, 2 * g)) if apart else (slice(0, len(stack)),):
        sums[part], pops[part] = _stack_sums(nodes[part], bu, bv, g, masked_b)
    return list(zip(sums[:g].tolist(), pops[:g].tolist(), sums[g:].tolist(), pops[g:].tolist()))


def _stack_sums(nodes: np.ndarray, bu: int, bv: int, group: int, masked_b: bool) -> tuple[np.ndarray, np.ndarray]:
    """One sweep of a stack, given by its grids' nodes (``nodes[g, l, k] = (u, v)``): each grid's plain count and
    its increasing count, over the candidates below (bu, bv).

    ``group`` is how many grids the group holds, companions not counted,
    which sizes the blocks; the tops of the a-side, and of the b-side when
    ``masked_b``, are this stack's alone.
    """
    q, p = nodes.shape[1] - 1, nodes.shape[2] - 1
    dtype = np.int64 if bu**p * bv**q < 2**63 else object
    # on grid g, a-candidate i may go east at (k, l) iff a_i[k] < east_bound[g, k, l]; only edges that exist are cast
    east_bound = nodes[:, :, :p, 0].astype(np.int64).transpose(0, 2, 1)
    # a full block, or the whole side, while each grid keeps an a-row against one; narrower for a larger group
    b_rows = 64 * max(1, _BLOCK_BITS // (64 * group))
    sums, pops = np.zeros(len(nodes), object), np.zeros(len(nodes), np.int64)
    # a b-side's bound fits int64 when q >= 1, as ``_checked_space`` refuses larger ones
    top_b = nodes[:, :q, p, 1].max(axis=0).astype(np.int64) if masked_b else None
    for arr_b, valid, wb in _laid_blocks(bv, q, b_rows, top_b):
        wb = wb.astype(dtype, copy=False)  # the one cast to the grid's exact dtype
        north = _packed_north(arr_b, nodes)
        a_rows = max(1, _BLOCK_BITS // (64 * len(valid)) // group)  # against the b-block's padded words
        top_a = east_bound[:, :, q].max(axis=0) if _multisets(bu, p) > a_rows else None
        # the DP's p+2 states (``_vector_reach``), shared by every a-block against this b-block
        work = np.empty((p + 2, len(nodes), min(a_rows, _multisets(bu, p)), len(valid)), np.uint64)
        for arr_a, wa in _side_blocks(bu, p, a_rows, top_a):
            east = (arr_a[:, :, None] < east_bound[:, None]) * _ONES
            counts = np.bitwise_count(_vector_reach(east, north, valid, work[:, :, : len(arr_a)]))
            sums += np.einsum("giw,i,w->g", counts, wa, wb)  # every bit of word w weighs wb[w]
            pops += counts.sum(axis=(1, 2), dtype=np.int64)
            del arr_a, wa, east, counts  # free this block first: a streamed side builds the next block when resumed
    return sums, pops


def _multisets(bound: int, length: int) -> int:
    """How many weakly increasing tuples of ``length`` entries lie below ``bound`` (one, the empty tuple, for length 0)."""
    return comb(bound + length - 1, length) if length else 1


def _side_blocks(
    bound: int, length: int, rows: int, tops: Optional[np.ndarray] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A side's sorted rows, column-major, and their rearrangement weights, ``rows`` at a time.

    Every a-side comes from here, and every masked b-side before its word
    layout (``_laid_blocks``).  A side of at most ``_BLOCK_BITS // 64`` rows
    is built once per (bound, length) and kept read-only, so the grids that
    share it slice it; a larger one is built anew, one block at a time
    (``_built_side``).  Given ``tops`` below the bound, the rows at or past
    them are dropped (``_live``; see the module docstring): a kept side's
    rows and weights are masked whole and its live rows sliced into full
    blocks, a built one joins only the live rows of its halves' tables.
    """
    tops = tops if tops is not None and tops[0] < bound else None
    if _multisets(bound, length) <= _BLOCK_BITS // 64:
        arr, weights = _kept_side(bound, length)
        if tops is not None:
            live = _live(arr.T, tops)
            arr, weights = arr.T.compress(live, axis=1).T, weights[live]  # still column-major
        for start in range(0, len(arr), rows):
            yield arr[start : start + rows], weights[start : start + rows]
        return
    yield from _built_side(bound, length, rows, tops)


def _laid_blocks(
    bound: int, length: int, rows: int, tops: Optional[np.ndarray] = None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A b-side in word layout (``_word_layout``): rows, valid words and word weights, ``rows // 64`` words at a time.

    A side of at most ``_BLOCK_BITS // 64`` rows with no ``tops`` below its
    bound is laid out once per (bound, length) and kept read-only; any other
    takes its blocks of ``rows`` rows from ``_side_blocks``, masked to its
    live rows, and lays each out on its own, so a masked kept side is laid
    out anew per sweep.  Either is cut on word boundaries, so no b-block
    holds more than ``rows`` bits.
    """
    if _multisets(bound, length) <= _BLOCK_BITS // 64 and (tops is None or tops[0] >= bound):
        blocks: Iterable[tuple[np.ndarray, ...]] = (_kept_side(bound, length, True),)
    else:
        blocks = starmap(_word_layout, _side_blocks(bound, length, rows, tops))
    words = rows // 64
    for arr, valid, weights in blocks:
        for start in range(0, len(valid), words):
            yield arr[64 * start : 64 * (start + words)], valid[start : start + words], weights[start : start + words]


@lru_cache(maxsize=128)
def _kept_side(bound: int, length: int, laid: bool = False) -> tuple[np.ndarray, ...]:
    """Every sorted row of a side and its weights, or if ``laid`` their word layout, read-only: every caller shares
    them; the 128 most recently used stay.  The layout is gathered from the kept sorted rows, so a (bound, length)
    that serves as an a-side and as a b-side is joined once.  It holds every row, dead ones included, and only a
    b-side swept whole reads it; a masked b-side lays out its live rows anew (``_laid_blocks``)."""
    side = _word_layout(*_kept_side(bound, length)) if laid else next(_built_side(bound, length, _multisets(bound, length)))
    for part in side:
        part.setflags(write=False)
    return side


def _built_side(
    bound: int, length: int, rows: int, tops: Optional[np.ndarray] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A side's sorted rows, column-major, and their weights (``_weights``), built anew ``rows`` at a time.

    A side of at most one entry counts up a range (the empty side is one
    empty row).  A longer one holds the tables of its two halves (each table
    of two or more entries is the join of its own halves, built once) and
    one block of their join.  Given ``tops``, only the live rows (``_live``)
    are joined: the head table keeps its rows below the first tops and the
    tail table its rows below the rest, both still sorted, so the rows that
    may follow a head row are still a run at the end of the tail table.
    """
    n, dtype = _multisets(bound, length), np.int8 if bound < 128 else np.int64
    if length < 2:
        n = n if tops is None else min(n, int(tops[0]))  # the live rows of one entry are those below its top
        blocks = (np.arange(start, min(start + rows, n), dtype=dtype)[None][:length] for start in range(0, n, rows))
    else:
        tables = {1: np.arange(bound, dtype=dtype)[None]}

        def table(k: int) -> np.ndarray:
            if k not in tables:
                tables[k] = _join(table(k - k // 2), table(k // 2), 0, _multisets(bound, k))
            return tables[k]

        d = length - length // 2
        head, tail = table(d), table(length // 2)
        if tops is not None:
            head, tail = head.compress(_live(head, tops[:d]), axis=1), tail.compress(_live(tail, tops[d:]), axis=1)
            n = int((tail.shape[1] - np.searchsorted(tail[0], head[-1])).sum())
        blocks = (_join(head, tail, start, min(start + rows, n)) for start in range(0, n, rows))
    for cols in blocks:
        yield cols.T, _weights(cols)


def _live(cols: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Which of the column-major sorted rows ``cols`` are live: below ``tops`` at every position."""
    return (cols < tops[:, None]).all(axis=0)


def _weights(cols: np.ndarray) -> np.ndarray:
    """Each column-major sorted row's rearrangements, n! over the factorials of its entries' multiplicities.

    ``runs`` counts each entry's place in its run of equal entries, so the
    product of the runs is the product of the factorials.  The first 20
    factors multiply to at most 20! < 2**63; only a row longer than 20
    entries goes on in Python ints.  So the weights are int64 while
    n! < 2**63, Python ints past it.
    """
    runs, factorials = np.ones(cols.shape[1], np.int64), np.ones(cols.shape[1], np.int64)
    for j in range(1, len(cols)):
        runs *= cols[j] == cols[j - 1]
        runs += 1
        factorials = factorials.astype(object) if j == 20 else factorials
        factorials *= runs
    return factorial(len(cols)) // factorials if len(cols) > 1 else factorials  # a row of n <= 1 entries weighs 1


def _word_layout(arr: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's rows laid out so that each weight class is a run of rows that starts on a fresh 64-bit word.

    Returns the rows in slot order, column-major like ``arr`` (a pad slot
    holds row 0), the packed mask of the slots that hold a row (0 on every
    pad bit), and each word's weight, which every row in the word has.
    Every row takes one slot.  This is the one place a layout is computed.
    """
    order = weights.argsort()
    ranked = weights[order]
    firsts = [0, *((ranked[1:] != ranked[:-1]).nonzero()[0] + 1).tolist()][: len(order)]  # where each class starts
    sizes = [stop - start for start, stop in zip(firsts, firsts[1:] + [len(order)])]
    words = [-(-size // 64) for size in sizes]
    source, valid = np.zeros(64 * sum(words), np.intp), []
    for start, size in zip(firsts, sizes):
        source[64 * len(valid) : 64 * len(valid) + size] = order[start : start + size]
        valid += [2**64 - 1] * (size // 64) + [2 ** (size % 64) - 1] * (size % 64 > 0)
    return arr.T.take(source, axis=1).T, np.array(valid, np.uint64), np.repeat(ranked[firsts], words)


def _join(head: np.ndarray, tail: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows ``start`` to ``stop`` of the sorted rows that join a ``head`` row to a ``tail`` row, column-major.

    A table is the column-major array of its sorted rows.  The tail rows
    that may follow a head row are those whose first entry is at least its
    last, a run at the end of the sorted tail table, so the joined rows of
    consecutive head rows are consecutive runs.  Every row of ``start`` to
    ``stop`` is built: a side that drops rows joins tables with the dead rows
    taken out (``_built_side``).
    """
    d, nt = len(head), tail.shape[1]
    edges = np.zeros(head.shape[1] + 1, np.int64)  # where each head row's run begins, and the last one ends
    np.cumsum(nt - np.searchsorted(tail[0], head[-1]), out=edges[1:])
    clipped = np.minimum(np.maximum(edges, start), stop)
    i = np.repeat(np.arange(len(clipped) - 1), clipped[1:] - clipped[:-1])  # each row's head row
    t = np.arange(start + nt, stop + nt) - edges[1:][i]  # and its tail row: every run ends on the tail's last row
    cols = np.empty((d + len(tail), len(i)), head.dtype)
    np.take(head, i, axis=1, out=cols[:d], mode="clip")  # the indices are in range; "raise" would buffer the output
    np.take(tail, t, axis=1, out=cols[d:], mode="clip")
    return cols


def _packed_north(arr_b: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Stacked north edges for ``_vector_reach``: north[l, k, g, 0] packs the laid-out b-block's rows (a whole number
    of words) that may take the north edge at (k, l) on grid g of ``nodes`` (``nodes[g, l, k] = (u, v)``).

    Only the weights of edges that exist are cast: an empty side's channel
    may hold any int.  A north weight is at most the b-side's bound, the
    last north edge's v(p, q-1), so it takes the b-rows' own dtype and the
    compare casts nothing.
    """
    below = arr_b.T[:, None, None, None, :] < nodes[:, :-1, :, 1].astype(arr_b.dtype).transpose(1, 2, 0)[..., None, None]
    return np.packbits(below, axis=-1, bitorder="little").view(np.uint64)


def _vector_reach(east: np.ndarray, north: np.ndarray, valid: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Packed reachability of (p, q) for a block on stacked grids: bit j of [g, i] is set iff a path of grid g admits (i, j).

    east[g, i, k, l] is all ones iff a-candidate i may go east at (k, l) on
    grid g, else 0.  The state is a (grid x a-candidate x word) array, so one
    pass serves every grid.  It starts from the b-block's valid mask, so a
    pad bit stays 0 through every AND and OR.  ``work`` holds p+2 states, the
    p+1 nodes of one grid row and a scratch state, and is reused by every
    a-block of a b-block, so no state is allocated per node or per block.
    The nodes are updated in place: first each keeps what came from the
    north, then, west to east, each adds what comes from its western
    neighbour.
    """
    p, q = east.shape[2], len(north)
    row, scratch = work[:-1], work[-1]
    nodes = list(row)  # nodes[k] is a view of row[k]
    nodes[0][...] = valid
    for k in range(1, p + 1):
        np.bitwise_and(nodes[k - 1], east[:, :, k - 1, 0, None], nodes[k])
    for l in range(1, q + 1):
        np.bitwise_and(row, north[l - 1], row)
        for k in range(1, p + 1):
            np.bitwise_and(nodes[k - 1], east[:, :, k - 1, l, None], scratch)
            np.bitwise_or(nodes[k], scratch, nodes[k])
    return nodes[p]
