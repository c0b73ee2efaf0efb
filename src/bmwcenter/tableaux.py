"""Updown tableaux: paths in the branching graph of the tower.

Level n indexes Lambda_n = {(lambda, f) : lambda |- n - 2f}.  A path is a
sequence of partitions starting at the empty one in which consecutive
entries differ by a single box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

from .errors import ResourceLimit, ShapeLevelMismatch
from .partitions import EMPTY, Partition, partitions_of, text_of_partition
from .scalars import ADD, REMOVE, Content, Regime, content_value

# enumerations of more paths than this are refused with ResourceLimit before
# any path is built; level 11 has 669,351 paths, level 12 has 3,609,673
MAX_PATHS = 10 ** 6


@dataclass(frozen=True)
class LabeledPartition:
    """A vertex (shape, defect) of the branching graph at a given level."""

    shape: Partition
    defect: int
    level: int

    def __post_init__(self):
        if self.level - self.shape.size != 2 * self.defect or self.defect < 0:
            raise ShapeLevelMismatch(
                "shape %s with defect %d cannot sit at level %d"
                % (self.shape, self.defect, self.level))

    def sort_key(self):
        return (self.defect, self.shape)

    def __str__(self):
        return "(%s, %d)" % (text_of_partition(self.shape), self.defect)


def labeled(n, lam):
    """The labeled partition of shape lam at level n; ``LabeledPartition``
    raises ``ShapeLevelMismatch`` unless n - |lam| is even and >= 0."""
    return LabeledPartition(lam, (n - lam.size) // 2, n)


class UpDownTableau(tuple):
    """A path (T_0, ..., T_n) from the empty partition: a tuple of shapes."""

    __slots__ = ()

    def __init__(self, steps):
        if not self or self[0] != EMPTY:
            raise ValueError("path must start at the empty partition")
        for a, b in zip(self, self[1:]):
            if abs(a.size - b.size) != 1 or not (a.contains(b) or b.contains(a)):
                raise ValueError("consecutive shapes must differ by one box")

    # _trusted(steps): a tableau on steps already known to form a path, not
    # validated; tuple.__new__ itself, so no Python frame per path
    _trusted = classmethod(tuple.__new__)

    def __repr__(self):
        return "UpDownTableau(%s)" % " -> ".join(text_of_partition(s) for s in self)


def edge_content(a: Partition, b: Partition) -> Content:
    """Content of the box moved between adjacent shapes a and b.

    The box sits in the first row where the shapes differ.
    """
    for i, (x, y) in enumerate(zip_longest(a, b, fillvalue=0), start=1):
        if x != y:
            return Content(ADD, y - i) if y > x else Content(REMOVE, x - i)


def content_sequence(tab: UpDownTableau):
    """Per-step content (direction and diagonal) of the moved box."""
    return [edge_content(a, b) for a, b in zip(tab, tab[1:])]


def enumerate_lambda(n):
    """All labeled partitions at level n, canonically sorted: by defect,
    then by shape, so each defect's partitions, which ``partitions_of``
    yields in descending order, come reversed."""
    out = []
    for f in range(n // 2 + 1):
        shapes = list(partitions_of(n - 2 * f))
        out += [LabeledPartition(lam, f, n) for lam in reversed(shapes)]
    return out


@lru_cache(maxsize=None)
def children(shape):
    """Children of shape in the branching graph: the shapes with a box
    added, then those with a box removed, each from the top row down.

    A box can be added to the first row, or to a row shorter than the one
    above it (one past the last row included), and removed from a row
    longer than the one below it.
    """
    rows = (*shape, 0)
    return (tuple(Partition((*rows[:i], p + 1, *rows[i + 1:]))
                  for i, p in enumerate(rows) if i == 0 or rows[i - 1] > p)
            + tuple(Partition((*rows[:i], p - 1, *rows[i + 1:]))
                    for i, p in enumerate(shape) if p > rows[i + 1]))


def _refuse_above_cap(count, what):
    if count > MAX_PATHS:
        raise ResourceLimit("%s: more than %d paths (the cap is "
                            "tableaux.MAX_PATHS)" % (what, MAX_PATHS))


def _spread(counts):
    """One step of the branching recursion: each count pushed along the
    edges out of its shape."""
    nxt = {}
    for shape, c in counts.items():
        for m in children(shape):
            nxt[m] = nxt.get(m, 0) + c
    return nxt


def path_halves(n, lam: Partition):
    """The updown paths of length n to lam, as (heads, tails): the paths
    are h + t for h in heads for t in tails[h[-1]], where the heads are
    (T_0, ..., T_mid), mid = n // 2, and tails maps each shape at level mid
    to its completions (T_mid+1, ..., T_n).  Raises ``ResourceLimit`` above
    ``MAX_PATHS`` paths, before any head or tail is built.
    """
    labeled(n, lam)  # validates the (shape, level) pair
    # The recursion of path_counts, run backwards from lam: levels[k] maps
    # each shape that a path to lam passes through at level k to its number
    # of completions.  A shape at level k has at most k boxes, and every
    # such shape of the right parity is reachable from the empty one, so
    # each has a prefix and sum(levels[k]) bounds the path count from below.
    what = "level %d, shape %s" % (n, text_of_partition(lam))
    levels = [{}] * n + [{lam: 1}]
    for k in range(n - 1, -1, -1):
        levels[k] = {m: c for m, c in _spread(levels[k + 1]).items() if m.size <= k}
        _refuse_above_cap(sum(levels[k].values()), what)
    mid = n // 2
    tails = {lam: [()]}
    for k in range(n - 1, mid - 1, -1):
        tails = {s: [(m, *t) for m in children(s) if m in tails for t in tails[m]]
                 for s in levels[k]}
    heads = [(EMPTY,)]
    for k in range(1, mid + 1):
        heads = [(*h, m) for h in heads for m in children(h[-1]) if m in levels[k]]
    return heads, tails


def enumerate_paths(n, lam: Partition):
    """All updown paths of length n from the empty partition to lam, in
    lexicographic box order (each step in the order of ``children``): the
    heads and tails of ``path_halves`` joined, so meet-in-the-middle over
    the branching graph pruned to the shapes that can still reach lam.
    Raises ``ResourceLimit`` as ``path_halves`` does, before any path.
    """
    heads, tails = path_halves(n, lam)
    new = UpDownTableau._trusted
    return [new(h + t) for h in heads for t in tails[h[-1]]]


def path_counts(n):
    """|T^ud_n(lam)| for every shape at level n, via the branching recursion.

    Raises ``ResourceLimit`` if level n has more than ``MAX_PATHS`` paths.
    Level totals grow with the level, so the recursion stops at the first
    level above the cap.
    """
    counts = {EMPTY: 1}
    for _ in range(n):
        counts = _spread(counts)
        _refuse_above_cap(sum(counts.values()), "level %d" % n)
    return counts


def canonical_path(lam: Partition) -> UpDownTableau:
    """Row-filling path: complete each row before starting the next."""
    steps = [EMPTY]
    done = []
    for p in lam:
        for j in range(1, p + 1):
            steps.append(Partition(done + [j]))
        done.append(p)
    return UpDownTableau(steps)


def drunk_path(n, lam: Partition) -> UpDownTableau:
    """f excursions empty -> box -> empty, then the canonical path."""
    lp = labeled(n, lam)
    box = Partition((1,))
    steps = [EMPTY]
    for _ in range(lp.defect):
        steps.extend([box, EMPTY])
    steps.extend(canonical_path(lam)[1:])
    return UpDownTableau(steps)


def branching_graph(n, regime: Regime):
    """Leveled graph with content-value edge labels.

    Returns (levels, edges) where levels[k] is the sorted list of shapes at
    level k and edges is a list of (level, parent_shape, child_shape, value)
    with child at `level`.
    """
    levels = [[EMPTY]]
    edges = []
    for k in range(1, n + 1):
        seen = set()
        for shape in levels[k - 1]:
            for child in children(shape):
                seen.add(child)
                value = content_value(edge_content(shape, child), regime)
                edges.append((k, shape, child, value))
        levels.append(sorted(seen))
    return levels, edges


def branching_graph_dot(n, regime: Regime) -> str:
    """DOT text: one rank per level, vertex ids "L{level}:{partition}"."""
    levels, edges = branching_graph(n, regime)
    lines = ["digraph branching {", "  rankdir=TB;"]
    for k, shapes in enumerate(levels):
        ids = " ".join('"L%d:%s"' % (k, text_of_partition(s)) for s in shapes)
        lines.append("  { rank=same; %s }" % ids)
    for (k, parent, child, value) in edges:
        lines.append('  "L%d:%s" -> "L%d:%s" [label="%s"];'
                     % (k - 1, text_of_partition(parent), k,
                        text_of_partition(child), value))
    lines.append("}")
    return "\n".join(lines) + "\n"
