"""Lattice-path primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkfn import core, oracle, pq, twodim, vector
from parkfn.core import LatticePath, Point
from parkfn.errors import DimensionMismatch, InconsistentDecomposition, NotIncreasing, OutOfRange

step_words = st.text(alphabet="NE", max_size=12)
small_seqs = st.lists(st.integers(0, 8), max_size=7)


def test_order_statistics_examples():
    assert core.order_statistics((2, 0, 3, 0)) == (0, 0, 2, 3)
    assert core.order_statistics(()) == ()
    assert core.order_statistics((6, 0, 1, 0, 0)) == (0, 0, 0, 1, 6)


@given(small_seqs)
def test_order_statistics_is_idempotent_permutation(entries):
    stats = core.order_statistics(entries)
    assert core.order_statistics(stats) == stats
    assert sorted(stats) == sorted(entries)


def test_path_of_increasing_examples():
    assert core.path_of_increasing((1, 1, 3), 3).steps == "ENNEEN"
    assert core.path_of_increasing((0, 0, 0), 0).steps == "NNN"
    path = core.path_of_increasing((0, 0, 1, 5, 6), 6)
    assert path.steps == "NNENEEEENEN"
    assert (path.width, path.height) == (6, 5)


def test_path_of_increasing_errors():
    with pytest.raises(NotIncreasing):
        core.path_of_increasing((2, 1), 3)
    with pytest.raises(OutOfRange):
        core.path_of_increasing((1, 4), 3)


def test_transpose_examples():
    assert core.transpose(LatticePath("NNENNEE")).steps == "EENEENN"
    assert core.transpose(LatticePath("E")).steps == "N"
    reflected = core.transpose(core.path_of_increasing((0, 3, 3), 4))
    assert reflected.steps == "ENNNEEN"


@given(step_words)
def test_transpose_is_involution(word):
    path = LatticePath(word)
    back = core.transpose(core.transpose(path))
    assert back == path
    assert (core.transpose(path).width, core.transpose(path).height) == (path.height, path.width)


def test_weakly_above_examples():
    upper = LatticePath("NNENNEE")
    lower = LatticePath("ENNNEEN")
    assert core.weakly_above(upper, lower)
    assert not core.weakly_above(LatticePath("NNEENNE"), lower)
    assert core.weakly_above(upper, upper)


def test_weakly_above_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        core.weakly_above(LatticePath("NE"), LatticePath("NEE"))


@given(step_words, step_words)
def test_weakly_above_transpose_duality(w1, w2):
    p, q = LatticePath(w1), LatticePath(w2)
    if (p.width, p.height) != (q.width, q.height):
        with pytest.raises(DimensionMismatch):
            core.weakly_above(p, q)
        return
    assert core.weakly_above(p, q) == core.weakly_above(core.transpose(q), core.transpose(p))


def test_common_points_examples():
    got = core.common_points(LatticePath("NNENNEE"), LatticePath("ENNNEEN"))
    assert got == (Point(0, 0), Point(1, 2), Point(1, 3), Point(3, 4))
    path = LatticePath("NEEN")
    assert core.common_points(path, path) == path.vertices()


def test_common_points_of_six_five_example():
    left = core.transpose(core.path_of_increasing((0, 0, 2, 3, 3, 3), 5))
    right = core.path_of_increasing((0, 0, 1, 5, 6), 6)
    got = core.common_points(left, right)
    assert got == (Point(0, 0), Point(3, 3), Point(4, 3), Point(5, 3), Point(6, 4), Point(6, 5))


@given(step_words, step_words)
def test_common_points_form_a_chain(w1, w2):
    p, q = LatticePath(w1), LatticePath(w2)
    if (p.width, p.height) != (q.width, q.height):
        return
    pts = core.common_points(p, q)
    assert Point(0, 0) in pts and Point(p.width, p.height) in pts
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        assert x0 <= x1 and y0 <= y1


def test_vertices_and_step_coordinates():
    path = LatticePath("ENNEEN")
    assert path.vertices()[0] == Point(0, 0)
    assert path.vertices()[-1] == Point(3, 3)
    assert core.path_of_increasing((1, 1, 3), 3) == path  # its N steps sit at x = 1, 1, 3
    assert path.horizontal_step_ys() == (0, 2, 2)


def test_path_word_validation():
    with pytest.raises(ValueError):
        LatticePath("NXE")


@pytest.mark.parametrize(
    "call",
    [
        lambda: vector.is_vector_pf(["0"], [1]),
        lambda: vector.is_vector_pf([0], [1.9]),
        lambda: oracle.FamilySpec("vector", u=(1.9, 2.2)),
        lambda: pq.PQPair(("1",), (0,)),
        lambda: twodim.is_u_pf((0.5,), (0,), pq.u0_matrix(1, 1)),
        lambda: vector.validate_capacity((True, 2)),
    ],
    ids=["str-entry", "float-capacity", "float-spec-capacity", "str-pq-entry", "float-twodim-entry", "bool-capacity"],
)
def test_library_refuses_non_integer_entries(call):
    with pytest.raises(ValueError, match="integers"):
        call()


@given(small_seqs, st.integers(0, 7), st.one_of(st.booleans(), st.floats(), st.text(max_size=2)))
def test_as_seq_accepts_exactly_non_negative_ints(entries, at, other):
    assert core.as_seq(entries) == tuple(entries)
    for bad in (entries[:at] + [other] + entries[at:], entries + [-1]):
        with pytest.raises(ValueError):
            core.as_seq(bad)


@given(st.data())
def test_place_inverts_take_on_any_partition(data):
    seq = tuple(data.draw(st.lists(st.integers(0, 9), max_size=8)))
    n = len(seq)
    order = data.draw(st.permutations(range(n)))
    ends = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    blocks = [order[i:j] for i, j in zip([0, *ends], [*ends, n])]  # empty blocks included
    shifts = data.draw(st.lists(st.integers(-5, 5), min_size=len(blocks), max_size=len(blocks)))
    parts = [(*core.take(seq, block, shift), shift) for block, shift in zip(blocks, shifts)]
    for (entries, positions, shift), block in zip(parts, blocks):
        assert positions == frozenset(block)
        assert entries == tuple(seq[i] - shift for i in sorted(block))
    assert core.place(n, parts) == seq


@pytest.mark.parametrize(
    "parts",
    [
        [((5,), frozenset({0}), 0), ((6, 7), frozenset({0, 1}), 0)],  # position 0 written twice, no position left over
        [((5,), frozenset({0}), 0), ((6,), frozenset({0}), 0)],  # position 0 twice, position 1 never
        [((5, 6), frozenset({0}), 0), ((7,), frozenset({1}), 0)],  # two entries, one position
        [((5,), frozenset({0}), 0), ((6,), frozenset({2}), 0)],  # out of range
        [((5,), frozenset({-1}), 0), ((6,), frozenset({0}), 0)],  # negative, though -1 indexes the free last slot
        [((5,), frozenset({False}), 0), ((6,), frozenset({1}), 0)],  # a bool equal to 0
        [((5,), frozenset({0.0}), 0), ((6,), frozenset({1}), 0)],  # a float equal to 0
        [((5,), frozenset({0}), 0)],  # position 1 never written
        [((5,), frozenset({0, 1}), 0), ((6,), frozenset({1}), 0)],  # one position too many, every position written
        [((5, 6), frozenset({0, 1}), 0), ((7,), frozenset(), 0)],  # an entry with no position
        [((5, 6), frozenset({0, 1}), 0), ((), frozenset({1}), 0)],  # a position with no entry
        [((5, 6), frozenset({0, "1"}), 0)],  # an int and a str, which do not compare
    ],
    ids=[
        "twice-full", "twice", "short", "past-n", "negative", "bool", "float", "unwritten", "long", "no-position",
        "no-entry", "mixed-types",
    ],
)
def test_place_refuses_position_sets_that_do_not_partition(parts):
    with pytest.raises(InconsistentDecomposition):
        core.place(2, parts)
