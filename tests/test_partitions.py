"""Young diagram geometry against brute-force oracles."""

import random
from collections import Counter

import pytest

from bmwcenter.errors import ContainmentError
from bmwcenter.partitions import (EMPTY, Partition, diagonal_datum,
                                  intersection, partition_from_text,
                                  partitions_of, skew_datum, text_of_partition)
from bmwcenter.tableaux import children
from oracles import (DOMINATED, DOMINATES, EQUAL, INCOMPARABLE, boundary_boxes,
                     children_by_boxes, conjugate, dominance,
                     partition_of_diagonals, partitions_desc, row,
                     with_box_added, with_box_removed)

# number of partitions of 0..12
PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def _boxes(lam):
    """All boxes (i, j) of lam, 1-based, row by row."""
    return [(i, j) for i, p in enumerate(lam, start=1) for j in range(1, p + 1)]


def test_normalization_drops_zeros():
    assert Partition((3, 2, 0, 0)) == (3, 2)
    assert Partition(()) == ()


def test_rejects_bad_parts():
    # only trailing zeros are dropped: an interior zero is an error
    for bad in ((1, 2), (2, -1), (1, 0, 1), (0, 1), (2, 0, 0, 1), (1, 0, -1)):
        with pytest.raises(ValueError):
            Partition(bad)


def test_boxes_and_size():
    lam = Partition((3, 1))
    assert _boxes(lam) == [(1, 1), (1, 2), (1, 3), (2, 1)]
    assert lam.size == 4
    assert len(lam) == 2
    assert row(lam, 1) == 3 and row(lam, 2) == 1 and row(lam, 5) == 0


def test_contains():
    assert Partition((3, 2)).contains(Partition((2, 2)))
    assert not Partition((2, 2)).contains(Partition((3,)))
    assert Partition((1,)).contains(EMPTY)


def test_partition_counts():
    for m, expected in enumerate(PARTITION_NUMBERS):
        assert len(list(partitions_of(m))) == expected


def test_partitions_match_the_recursion_in_order():
    # the iterative generator against the nested-generator recursion it
    # replaced; neither yields anything for m < 0
    for m in range(-2, 21):
        got = list(partitions_of(m))
        assert got == list(partitions_desc(m)) and (got != []) == (m >= 0)
        assert all(type(lam) is Partition for lam in got)


def test_partitions_are_distinct_and_valid():
    for m in range(9):
        seen = set(partitions_of(m))
        assert len(seen) == PARTITION_NUMBERS[m]
        assert all(p.size == m for p in seen)


def test_diagonal_datum_matches_box_tally():
    for m in range(9):
        for lam in partitions_of(m):
            dd = diagonal_datum(lam)
            tally = {}
            for (i, j) in _boxes(lam):
                tally[j - i] = tally.get(j - i, 0) + 1
            assert dd == tally
            # one interval of diagonals, each holding a box
            assert sorted(dd) == list(range(-len(lam) + 1, row(lam, 1)))


def test_diagonal_datum_round_trip():
    for m in range(11):
        for lam in partitions_of(m):
            assert partition_of_diagonals(diagonal_datum(lam)) == lam


def test_conjugate_involution_and_diagonal_flip():
    for m in range(9):
        for lam in partitions_of(m):
            cj = conjugate(lam)
            assert conjugate(cj) == lam
            dd, dc = diagonal_datum(lam), diagonal_datum(cj)
            for d in range(-10, 11):
                assert dd[d] == dc[-d]


SMALL = [lam for m in range(9) for lam in partitions_of(m)]


def test_intersection_is_rowwise_min():
    a, b = Partition((4, 2, 1)), Partition((3, 3))
    cap = intersection(a, b)
    assert cap == Partition((3, 2))
    assert a.contains(cap) and b.contains(cap)
    # the row-wise minima are built as a trusted Partition: every pair of
    # sizes <= 8 against the validating constructor
    for lam in SMALL:
        for mu in SMALL:
            cap = intersection(lam, mu)
            assert type(cap) is Partition
            assert cap == Partition(min(a, b) for a, b in zip(lam, mu)), (lam, mu)


def test_skew_datum_counts_difference():
    lam, mu = Partition((4, 2, 2)), Partition((4,))
    sd = skew_datum(lam, mu)
    assert sd.total() == 4
    assert sorted(sd.items()) == [(-2, 1), (-1, 2), (0, 1)]
    assert sd[-1] == 2 and sd[3] == 0


def test_skew_datum_matches_a_range_tally():
    # every contained pair of sizes <= 8 against Counter.update over the
    # diagonals of each row's skew boxes
    pairs = 0
    for lam in SMALL:
        for mu in SMALL:
            if not lam.contains(mu):
                continue
            expected = Counter()
            for i, a in enumerate(lam, start=1):
                expected.update(range(row(mu, i) + 1 - i, a + 1 - i))
            sd = skew_datum(lam, mu)
            assert type(sd) is Counter
            assert sd == expected and +sd == sd, (lam, mu)
            pairs += 1
    assert pairs == 862


def test_skew_datum_requires_containment():
    with pytest.raises(ContainmentError):
        skew_datum(Partition((2,)), Partition((1, 1)))


def test_boundary_boxes_oracle():
    for m in range(9):
        for lam in partitions_of(m):
            removable, addable = boundary_boxes(lam)
            assert len(addable) == len(removable) + 1
            for (i, j) in removable:
                smaller = with_box_removed(lam, i, j)
                assert smaller.size == m - 1 and lam.contains(smaller)
            for (i, j) in addable:
                bigger = with_box_added(lam, i, j)
                assert bigger.size == m + 1 and bigger.contains(lam)
            # brute force: every partition one box away is reachable
            nearby = {p for p in partitions_of(m - 1) if lam.contains(p)}
            assert {with_box_removed(lam, i, j) for i, j in removable} == nearby
            above = {p for p in partitions_of(m + 1) if p.contains(lam)}
            assert {with_box_added(lam, i, j) for i, j in addable} == above
            # the branching step builds the same shapes, in box order
            assert list(children(lam)) == children_by_boxes(lam)


def test_dominance_cases():
    assert dominance(Partition((2, 1)), Partition((2, 1))) == EQUAL
    assert dominance(Partition((3,)), Partition((2, 1))) == DOMINATES
    assert dominance(Partition((1, 1, 1)), Partition((2, 1))) == DOMINATED
    assert dominance(Partition((4, 1, 1)), Partition((3, 3))) == INCOMPARABLE
    with pytest.raises(ValueError):
        dominance(Partition((2,)), Partition((1,)))


def test_dominance_antisymmetry():
    rng = random.Random(7)
    parts = list(partitions_of(7))
    for _ in range(50):
        a, b = rng.choice(parts), rng.choice(parts)
        fwd, bwd = dominance(a, b), dominance(b, a)
        flip = {EQUAL: EQUAL, DOMINATES: DOMINATED,
                DOMINATED: DOMINATES, INCOMPARABLE: INCOMPARABLE}
        assert bwd == flip[fwd]


def test_text_round_trip():
    assert text_of_partition(EMPTY) == "0"
    assert partition_from_text("0") == EMPTY
    for m in range(8):
        for lam in partitions_of(m):
            assert partition_from_text(text_of_partition(lam)) == lam


def test_text_of_partition_memo_keys_by_value():
    # the memo keys a Partition and an equal plain tuple together; both
    # spell the same text, so whichever is cached first is right for both
    text_of_partition.cache_clear()
    assert text_of_partition((3, 1)) == "3,1"
    assert text_of_partition(Partition((3, 1))) == "3,1"
    assert text_of_partition(Partition((2, 2))) == "2,2"
    assert text_of_partition((2, 2)) == "2,2"
    assert text_of_partition(EMPTY) == text_of_partition(()) == "0"
    for m in range(8):
        for lam in partitions_of(m):
            assert text_of_partition(tuple(lam)) == text_of_partition(lam)
