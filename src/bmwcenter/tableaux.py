"""Updown tableaux: paths in the branching graph of the tower.

Level n indexes Lambda_n = {(lambda, f) : lambda |- n - 2f}.  A path is a
sequence of partitions starting at the empty one in which consecutive
entries differ by a single box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .errors import ShapeLevelMismatch
from .partitions import (EMPTY, Partition, boundary_boxes, dominance,
                         DOMINATES, partitions_of, text_of_partition)
from .scalars import ADD, REMOVE, Content, Regime, content_value


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
        return (self.defect, self.shape.parts)

    def __str__(self):
        return "(%s, %d)" % (text_of_partition(self.shape), self.defect)


def labeled(n, lam):
    """The labeled partition of shape lam at level n."""
    d = n - lam.size
    if d < 0 or d % 2:
        raise ShapeLevelMismatch("|%s| = %d invalid at level %d" % (lam, lam.size, n))
    return LabeledPartition(lam, d // 2, n)


@dataclass(frozen=True)
class Step:
    direction: int  # ADD or REMOVE
    diagonal: int

    def content(self):
        return Content(self.direction, self.diagonal)


class UpDownTableau:
    """A path (T_0, ..., T_n) from the empty partition."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        steps = tuple(steps)
        if not steps or steps[0] != EMPTY:
            raise ValueError("path must start at the empty partition")
        for a, b in zip(steps, steps[1:]):
            if abs(a.size - b.size) != 1 or not (a.contains(b) or b.contains(a)):
                raise ValueError("consecutive shapes must differ by one box")
        self.steps = steps

    @property
    def level(self):
        return len(self.steps) - 1

    @property
    def shape(self):
        return self.steps[-1]

    def __eq__(self, other):
        return isinstance(other, UpDownTableau) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, k):
        return self.steps[k]

    def truncated(self, k):
        return UpDownTableau(self.steps[:k + 1])

    def __repr__(self):
        return "UpDownTableau(%s)" % " -> ".join(text_of_partition(s) for s in self.steps)


def _moved_box(a: Partition, b: Partition) -> Step:
    """Direction and diagonal of the box moved between adjacent shapes a, b.

    The box sits in the first row where the shapes differ.
    """
    for i, (x, y) in enumerate(zip_longest(a.parts, b.parts, fillvalue=0), start=1):
        if x != y:
            return Step(ADD, y - i) if y > x else Step(REMOVE, x - i)


def step_sequence(tab: UpDownTableau):
    """Per-step direction and diagonal of the moved box."""
    return [_moved_box(a, b) for a, b in zip(tab.steps, tab.steps[1:])]


def content_sequence(tab: UpDownTableau):
    return [s.content() for s in step_sequence(tab)]


def enumerate_lambda(n):
    """All labeled partitions at level n, canonically sorted."""
    out = []
    for f in range(n // 2 + 1):
        for lam in partitions_of(n - 2 * f):
            out.append(LabeledPartition(lam, f, n))
    return sorted(out, key=LabeledPartition.sort_key)


def _moves(shape):
    removable, addable = boundary_boxes(shape)
    for (i, j) in sorted(addable):
        yield shape.with_box_added(i, j)
    for (i, j) in sorted(removable):
        yield shape.with_box_removed(i, j)


def enumerate_paths(n, lam: Partition):
    """All updown paths of length n from the empty partition to lam.

    Depth-first with lexicographic box order, so the output order is
    deterministic.
    """
    labeled(n, lam)  # validates the (shape, level) pair
    out = []

    def walk(prefix):
        k = len(prefix) - 1
        cur = prefix[-1]
        if k == n:
            if cur == lam:
                out.append(UpDownTableau(prefix))
            return
        remaining = n - k
        for nxt in _moves(cur):
            # min #steps from nxt to lam, with matching parity
            inter = sum(min(a, b) for a, b in zip(nxt.parts, lam.parts))
            need = nxt.size + lam.size - 2 * inter
            if need <= remaining - 1 and (remaining - 1 - need) % 2 == 0:
                walk(prefix + [nxt])

    walk([EMPTY])
    return out


def path_counts(n):
    """|T^ud_n(lam)| for every shape at level n, via the branching recursion."""
    counts = {EMPTY: 1}
    for _ in range(n):
        nxt = {}
        for shape, c in counts.items():
            for m in _moves(shape):
                nxt[m] = nxt.get(m, 0) + c
        counts = nxt
    return counts


def sum_of_squares(n):
    """Sum of squared path counts over Lambda_n; (2n-1)!! when semisimple."""
    return sum(c * c for c in path_counts(n).values())


def canonical_path(lam: Partition) -> UpDownTableau:
    """Row-filling path: complete each row before starting the next."""
    steps = [EMPTY]
    done = []
    for p in lam.parts:
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
    steps.extend(canonical_path(lam).steps[1:])
    return UpDownTableau(steps)


def ruisi_greater(s: UpDownTableau, t: UpDownTableau):
    """Rui-Si order: s > t if at the last level where they differ, s's shape
    is strictly above t's (smaller size means larger defect, which wins;
    equal sizes compare by dominance)."""
    if s.level != t.level or s.shape != t.shape:
        return False
    for k in range(s.level - 1, -1, -1):
        a, b = s[k], t[k]
        if a == b:
            continue
        if a.size != b.size:
            return a.size < b.size
        return dominance(a, b) == DOMINATES
    return False


def restriction_shapes(n, lam: Partition):
    """Level-(n-1) shapes reachable by truncating paths to lam."""
    shapes = set()
    for tab in enumerate_paths(n, lam):
        shapes.add(tab[n - 1])
    return shapes


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
            for child in _moves(shape):
                seen.add(child)
                value = content_value(_moved_box(shape, child).content(), regime)
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
