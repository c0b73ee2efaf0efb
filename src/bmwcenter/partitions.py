"""Integer partitions, Young-diagram geometry and diagonal (content) data.

Boxes are 1-based (row, column) pairs; the box in position (i, j) sits on
the diagonal j - i.  Partitions are stored as normalized tuples of positive
parts; the empty tuple is the empty partition.
"""

from __future__ import annotations

from collections import Counter
from functools import total_ordering

from .errors import ContainmentError, SizeMismatch


@total_ordering
class Partition:
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts if p != 0)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        if parts and parts[-1] < 0:
            raise ValueError("parts must be positive: %r" % (parts,))
        self.parts = parts

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __hash__(self):
        return hash(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def __str__(self):
        return text_of_partition(self)

    def boxes(self):
        """All boxes (i, j), 1-based, row by row."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def contains(self, other):
        """Row-wise containment other_i <= self_i."""
        mine = self.parts + (0,) * max(0, len(other.parts) - len(self.parts))
        return all(o <= m for o, m in zip(other.parts, mine))

    def row(self, i):
        """Length of 1-based row i (0 beyond the last row)."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def with_box_added(self, i, j):
        rows = list(self.parts)
        if i == len(rows) + 1:
            rows.append(0)
        rows[i - 1] += 1
        assert rows[i - 1] == j
        return Partition(rows)

    def with_box_removed(self, i, j):
        rows = list(self.parts)
        rows[i - 1] -= 1
        assert rows[i - 1] == j - 1
        return Partition(rows)


EMPTY = Partition()


def diagonal_datum(lam: Partition) -> Counter:
    """Boxes of lam tallied by diagonal j - i.

    A partition's diagonals form one interval and each holds a box.
    """
    return Counter(j - i for i, j in lam.boxes())


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
    return Partition(min(a, b) for a, b in zip(lam.parts, mu.parts))


def skew_datum(lam: Partition, mu: Partition) -> Counter:
    """Diagonal tally of lam/mu; requires mu contained in lam."""
    if not lam.contains(mu):
        raise ContainmentError("%s is not contained in %s" % (mu, lam))
    return diagonal_datum(lam) - diagonal_datum(mu)


def boundary_boxes(lam: Partition):
    """Removable and addable box positions of lam.

    Removing a removable box leaves a partition, adding an addable box
    yields one; there is always exactly one more addable than removable.
    """
    parts = lam.parts
    removable = set()
    addable = set()
    n = len(parts)
    for i in range(1, n + 1):
        p = parts[i - 1]
        below = parts[i] if i < n else 0
        if p > below:
            removable.add((i, p))
        above = parts[i - 2] if i >= 2 else None
        if above is None or p < above:
            addable.add((i, p + 1))
    addable.add((n + 1, 1))
    return removable, addable


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam.parts:
        return EMPTY
    return Partition(sum(1 for p in lam.parts if p >= j)
                     for j in range(1, lam.parts[0] + 1))


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
    for k in range(max(len(lam.parts), len(mu.parts))):
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
    if not lam.parts:
        return "0"
    return ",".join(str(p) for p in lam.parts)


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
