"""Integer partitions, Young-diagram geometry and diagonal (content) data.

Boxes are 1-based (row, column) pairs; the box in position (i, j) sits on
the diagonal j - i.  A partition is a tuple of positive parts, largest
first; the empty tuple is the empty partition.
"""

from __future__ import annotations

from collections import Counter
from itertools import zip_longest

from .errors import ContainmentError, SizeMismatch


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts=()):
        return tuple.__new__(cls, [int(p) for p in parts if p != 0])

    def __init__(self, parts=()):
        # checks the tuple __new__ built: parts may be a spent iterator
        for a, b in zip(self, self[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing: %r" % (tuple(self),))
        if self and self[-1] < 0:
            raise ValueError("parts must be positive: %r" % (tuple(self),))

    @property
    def size(self):
        return sum(self)

    def __repr__(self):
        return "Partition(%r)" % (tuple(self),)

    def __str__(self):
        return text_of_partition(self)

    def contains(self, other):
        """Row-wise containment other_i <= self_i."""
        return len(other) <= len(self) and all(o <= m for o, m in zip(other, self))

    def row(self, i):
        """Length of 1-based row i (0 beyond the last row)."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def with_box_added(self, i, j):
        rows = list(self)
        if i == len(rows) + 1:
            rows.append(0)
        rows[i - 1] += 1
        assert rows[i - 1] == j
        return Partition(rows)

    def with_box_removed(self, i, j):
        rows = list(self)
        rows[i - 1] -= 1
        assert rows[i - 1] == j - 1
        return Partition(rows)


EMPTY = Partition()


def diagonal_datum(lam: Partition) -> Counter:
    """Boxes of lam tallied by diagonal j - i.

    A partition's diagonals form one interval and each holds a box.
    """
    return skew_datum(lam, EMPTY)


def partition_of_diagonals(counts) -> Partition:
    """The unique partition whose diagonal tally is counts."""
    rows = Counter()
    for i, m in counts.items():
        # diagonal i starts at (1, 1+i) for i >= 0 and (1-i, 1) otherwise
        r0 = 1 if i >= 0 else 1 - i
        rows.update(range(r0, r0 + m))
    return Partition(rows[r] for r in range(1, len(rows) + 1))


def intersection(lam: Partition, mu: Partition) -> Partition:
    """Row-wise minimum of the two diagrams."""
    return Partition(min(a, b) for a, b in zip(lam, mu))


def skew_datum(lam: Partition, mu: Partition) -> Counter:
    """Diagonal tally of lam/mu; requires mu contained in lam."""
    if not lam.contains(mu):
        raise ContainmentError("%s is not contained in %s" % (mu, lam))
    counts = Counter()
    for i, (a, m) in enumerate(zip_longest(lam, mu, fillvalue=0), start=1):
        counts.update(range(m + 1 - i, a + 1 - i))  # boxes m < j <= a of row i
    return counts


def boundary_boxes(lam: Partition):
    """Removable and addable box positions of lam.

    Removing a removable box leaves a partition, adding an addable box
    yields one; there is always exactly one more addable than removable.
    """
    removable = set()
    addable = set()
    n = len(lam)
    for i in range(1, n + 1):
        p = lam[i - 1]
        below = lam[i] if i < n else 0
        if p > below:
            removable.add((i, p))
        above = lam[i - 2] if i >= 2 else None
        if above is None or p < above:
            addable.add((i, p + 1))
    addable.add((n + 1, 1))
    return removable, addable


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return EMPTY
    return Partition(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


EQUAL = "equal"
DOMINATES = "dominates"
DOMINATED = "dominated"
INCOMPARABLE = "incomparable"


def dominance(lam: Partition, mu: Partition) -> str:
    """Dominance comparison of two partitions of the same size."""
    if lam.size != mu.size:
        raise SizeMismatch("|%s| != |%s|" % (lam, mu))
    if lam == mu:
        return EQUAL
    ge = le = True
    sl = sm = 0
    for k in range(max(len(lam), len(mu))):
        sl += lam.row(k + 1)
        sm += mu.row(k + 1)
        if sl < sm:
            ge = False
        if sl > sm:
            le = False
    if ge:
        return DOMINATES
    if le:
        return DOMINATED
    return INCOMPARABLE


def text_of_partition(lam: Partition) -> str:
    """Comma-separated parts; "0" for the empty partition."""
    if not lam:
        return "0"
    return ",".join(str(p) for p in lam)


def partition_from_text(text: str) -> Partition:
    text = text.strip()
    if text in ("", "0"):
        return EMPTY
    return Partition(int(p) for p in text.split(","))


def _parts_rec(rem, cap, acc):
    if rem == 0:
        yield Partition(acc)
        return
    for first in range(min(rem, cap), 0, -1):
        yield from _parts_rec(rem - first, first, acc + (first,))


def partitions_of(m: int):
    """All partitions of m, parts largest-first, lexicographically descending."""
    if m >= 0:
        yield from _parts_rec(m, m, ())


def all_partitions_of(m: int):
    return list(partitions_of(m))
