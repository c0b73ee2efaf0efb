"""Integer partitions, Young-diagram geometry and diagonal (content) data.

Boxes are 1-based (row, column) pairs; the box in position (i, j) sits on
the diagonal j - i.  A partition is a tuple of positive parts, largest
first; the empty tuple is the empty partition.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import zip_longest

from .errors import ContainmentError


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = [int(p) for p in parts]
        while parts and parts[-1] == 0:
            parts.pop()
        return tuple.__new__(cls, parts)

    def __init__(self, parts=()):
        # checks the tuple __new__ built, trailing zeros dropped: parts may
        # be a spent iterator, and an interior zero fails one of the checks
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


EMPTY = Partition()


def diagonal_datum(lam: Partition) -> Counter:
    """Boxes of lam tallied by diagonal j - i.

    A partition's diagonals form one interval and each holds a box.
    """
    return skew_datum(lam, EMPTY)


def intersection(lam: Partition, mu: Partition) -> Partition:
    """Row-wise minimum of the two diagrams."""
    # minima of two weakly decreasing rows decrease weakly and stay positive
    return tuple.__new__(Partition, [min(a, b) for a, b in zip(lam, mu)])


def skew_datum(lam: Partition, mu: Partition) -> Counter:
    """Diagonal tally of lam/mu; requires mu contained in lam."""
    if not lam.contains(mu):
        raise ContainmentError("%s is not contained in %s" % (mu, lam))
    counts = Counter()
    get = counts.get
    for i, (a, m) in enumerate(zip_longest(lam, mu, fillvalue=0), start=1):
        for d in range(m + 1 - i, a + 1 - i):  # boxes m < j <= a of row i
            counts[d] = get(d, 0) + 1
    return counts


@lru_cache(maxsize=None)
def text_of_partition(lam: Partition) -> str:
    """Comma-separated parts; "0" for the empty partition."""
    if not lam:
        return "0"
    return ",".join(str(p) for p in lam)


def partition_from_text(text: str) -> Partition:
    spec = text.strip()
    if spec in ("", "0"):
        return EMPTY
    if not re.fullmatch("[0-9]+(,[0-9]+)*", spec):
        raise ValueError("bad shape spec %r" % text)
    return Partition(spec.split(","))


def partitions_of(m: int):
    """All partitions of m, parts largest-first, lexicographically descending:
    each next one drops the trailing 1s, lowers the last part x by one and
    fills the boxes freed with parts x - 1 and a remainder."""
    if m < 0:
        return
    parts = [m] if m else []
    while True:
        yield tuple.__new__(Partition, parts)  # positive, weakly decreasing
        ones = parts.count(1)
        del parts[len(parts) - ones:]
        if not parts:
            return
        x = parts.pop() - 1
        q, r = divmod(x + 1 + ones, x)
        parts += [x] * q + ([r] if r else [])
