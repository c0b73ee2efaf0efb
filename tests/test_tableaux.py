"""Updown tableaux, path enumeration and the branching graph."""

from collections import Counter

import pytest

from bmwcenter import tableaux
from bmwcenter.errors import ResourceLimit, ShapeLevelMismatch
from bmwcenter.partitions import EMPTY, Partition, partitions_of
from bmwcenter.scalars import ADD, GENERIC, REMOVE
from bmwcenter.tableaux import (LabeledPartition, UpDownTableau, branching_graph,
                                branching_graph_dot, canonical_path,
                                children, content_sequence, drunk_path,
                                enumerate_lambda, enumerate_paths, labeled,
                                path_counts, path_halves)
from oracles import children_by_boxes, ruisi_greater, truncated

LAMBDA_SIZES = {1: 1, 2: 3, 3: 4, 4: 8, 5: 11, 6: 19}


def double_factorial(n):
    out = 1
    for k in range(1, n + 1):
        out *= 2 * k - 1
    return out


def test_labeled_validates_parity():
    lp = labeled(4, Partition((2,)))
    assert lp.defect == 1 and lp.level == 4
    with pytest.raises(ShapeLevelMismatch):
        labeled(4, Partition((3,)))
    with pytest.raises(ShapeLevelMismatch):
        labeled(2, Partition((2, 2)))


def test_enumerate_lambda_sizes_and_order():
    for n, size in LAMBDA_SIZES.items():
        assert len(enumerate_lambda(n)) == size
    # each defect's shapes come from partitions_of reversed, not re-sorted
    for n in range(17):
        lps = enumerate_lambda(n)
        assert lps == sorted(lps, key=LabeledPartition.sort_key), n
        assert all(type(lp) is LabeledPartition and lp.level == n for lp in lps)


def test_path_validation():
    with pytest.raises(ValueError):
        UpDownTableau([Partition((1,))])
    with pytest.raises(ValueError):
        UpDownTableau([EMPTY, Partition((2,))])


def test_step_sequence_directions():
    tab = UpDownTableau([EMPTY, Partition((1,)), Partition((2,)),
                         Partition((1,)), Partition((1, 1))])
    steps = content_sequence(tab)
    assert [(c.s, c.i) for c in steps] == [
        (ADD, 0), (ADD, 1), (REMOVE, 1), (ADD, -1)]


def test_path_counts_match_enumeration():
    for n in range(1, 6):
        counts = path_counts(n)
        assert set(counts) == {lp.shape for lp in enumerate_lambda(n)}
        for lam, c in counts.items():
            assert c == len(enumerate_paths(n, lam))


def test_sum_of_squares_double_factorial():
    for n in range(1, 8):
        assert sum(c * c for c in path_counts(n).values()) == double_factorial(n)


def test_canonical_path_fills_rows():
    lam = Partition((3, 2))
    path = canonical_path(lam)
    assert path[-1] == lam and len(path) - 1 == 5
    assert [s.size for s in path] == list(range(6))


def test_drunk_path_structure():
    lam = Partition((2,))
    path = drunk_path(6, lam)
    assert len(path) - 1 == 6 and path[-1] == lam
    # two excursions through a single box, then the canonical tail
    assert [tuple(s) for s in path] == [
        (), (1,), (), (1,), (), (1,), (2,)]
    with pytest.raises(ShapeLevelMismatch):
        drunk_path(3, Partition((2,)))


def test_drunk_path_is_ruisi_maximal():
    for n in range(1, 6):
        for lp in enumerate_lambda(n):
            d = drunk_path(n, lp.shape)
            for other in enumerate_paths(n, lp.shape):
                if other != d:
                    assert ruisi_greater(d, other)
                    assert not ruisi_greater(other, d)


def test_ruisi_requires_same_endpoint():
    a = drunk_path(3, Partition((3,)))
    b = drunk_path(3, Partition((1,)))
    assert not ruisi_greater(a, b)


def test_restriction_shapes_are_adjacent():
    for n in range(1, 7):
        for lp in enumerate_lambda(n):
            # the first step of the backward recursion in enumerate_paths
            got = {m for m in children(lp.shape) if m.size < n}
            expected = set()
            for mu in path_counts(n - 1) if n > 1 else {EMPTY: 1}:
                diff = abs(mu.size - lp.shape.size)
                if diff == 1 and (mu.contains(lp.shape) or lp.shape.contains(mu)):
                    expected.add(mu)
            assert got == expected


def test_branching_graph_edges_consistent():
    levels, edges = branching_graph(4, GENERIC)
    assert levels[0] == [EMPTY]
    assert {s for s in levels[4]} == {lp.shape for lp in enumerate_lambda(4)}
    for (k, parent, child, value) in edges:
        assert parent in levels[k - 1] and child in levels[k]
        assert abs(parent.size - child.size) == 1
    # edge counts reproduce the path counts level by level
    counts = {EMPTY: 1}
    for k in range(1, 5):
        nxt = Counter()
        for (lvl, parent, child, _) in edges:
            if lvl == k:
                nxt[child] += counts[parent]
        counts = dict(nxt)
    assert counts == path_counts(4)


def test_branching_graph_dot_shape():
    dot = branching_graph_dot(2, GENERIC)
    assert dot.startswith("digraph branching {")
    assert '"L0:0" -> "L1:1"' in dot
    assert dot.rstrip().endswith("}")


def test_content_sequence_lengths():
    for n in range(1, 5):
        for lp in enumerate_lambda(n):
            for path in enumerate_paths(n, lp.shape):
                assert len(content_sequence(path)) == n


def oracle_paths(n, lam):
    """The plain depth-first enumeration: every prefix is copied, every
    child is tested by its distance to lam and every path is validated."""
    out = []

    def walk(prefix):
        k = len(prefix) - 1
        cur = prefix[-1]
        if k == n:
            if cur == lam:
                out.append(UpDownTableau(prefix))
            return
        remaining = n - k - 1
        for nxt in children_by_boxes(cur):
            inter = sum(min(a, b) for a, b in zip(nxt, lam))
            need = nxt.size + lam.size - 2 * inter
            if need <= remaining and (remaining - need) % 2 == 0:
                walk(prefix + [nxt])

    walk([EMPTY])
    return out


# the shapes of the paths benchmark catalogue at its two top levels
CATALOGUE_SHAPES = {9: ((2, 1), (3, 2), (2, 2, 1), (4, 1), (2, 1, 1, 1)),
                    10: ((2,), (1, 1), (4, 2), (2, 2, 1, 1))}


def test_enumerate_paths_matches_oracle_in_order():
    # every shape to n = 8, then odd and even n above it, so the middle
    # level n // 2 splits the path evenly and unevenly
    cases = [(n, lp.shape) for n in range(0, 9) for lp in enumerate_lambda(n)]
    cases += [(n, Partition(lam)) for n, shapes in CATALOGUE_SHAPES.items()
              for lam in shapes]
    for n, lam in cases:
        got = enumerate_paths(n, lam)
        assert got == oracle_paths(n, lam)
        assert all(type(p) is UpDownTableau for p in got)


def test_path_halves_join_to_the_paths_in_order():
    for n in range(8):
        for lp in enumerate_lambda(n):
            heads, tails = path_halves(n, lp.shape)
            mid = n // 2
            assert all(len(h) == mid + 1 and h[0] == EMPTY for h in heads)
            assert all(len(t) == n - mid for ts in tails.values() for t in ts)
            joined = [h + t for h in heads for t in tails[h[-1]]]
            assert joined == enumerate_paths(n, lp.shape) == oracle_paths(n, lp.shape)
    # at n = 0 the one path is a head alone, with one empty tail
    assert path_halves(0, EMPTY) == ([(EMPTY,)], {EMPTY: [()]})


def test_halves_count_the_paths():
    # the count selfcheck takes from the halves, against the paths' number
    for n in range(9):
        for lp in enumerate_lambda(n):
            heads, tails = path_halves(n, lp.shape)
            count = sum(len(tails[h[-1]]) for h in heads)
            assert count == len(enumerate_paths(n, lp.shape))


def test_restriction_shapes_are_truncations():
    for n in range(1, 8):
        for lp in enumerate_lambda(n):
            truncations = {truncated(p, n - 1)[-1]
                           for p in enumerate_paths(n, lp.shape)}
            assert {m for m in children(lp.shape) if m.size < n} == truncations


def test_trusted_tableaux_equal_validated_ones():
    for lp in enumerate_lambda(5):
        for path in enumerate_paths(5, lp.shape):
            checked = UpDownTableau(list(path))
            assert checked == path and path == checked
            assert hash(checked) == hash(path)
            assert truncated(path, 3) == UpDownTableau(path[:4])
    assert len({*enumerate_paths(4, EMPTY), *oracle_paths(4, EMPTY)}) == 3
    with pytest.raises(ValueError):
        UpDownTableau([EMPTY, Partition((2,))])


def test_enumerated_shapes_are_valid_partitions():
    # partitions_of builds its shapes without the validating constructor
    for n in range(13):
        for lp in enumerate_lambda(n):
            assert type(lp.shape) is Partition
            assert lp.shape == Partition(tuple(lp.shape))


def test_shapes_and_paths_are_tuples():
    shapes = list(partitions_of(6))
    for lam in shapes:
        assert isinstance(lam, tuple) and hash(lam) == hash(tuple(lam))
    assert [tuple(lam) for lam in sorted(shapes)] == sorted(tuple(lam) for lam in shapes)
    for lp in enumerate_lambda(6):
        for path in enumerate_paths(6, lp.shape):
            steps = tuple(path)
            assert isinstance(path, tuple) and UpDownTableau(steps) == steps
            assert hash(path) == hash(steps)
    # both public constructors validate
    for bad in ((1, 2), (-1,)):
        with pytest.raises(ValueError):
            Partition(bad)
    one, two = Partition((1,)), Partition((2,))
    for bad in ([EMPTY, two], [one, two], [], (1, 2), (-1,)):
        with pytest.raises(ValueError):
            UpDownTableau(bad)


def test_path_cap_refuses_before_walking(monkeypatch):
    # 15!! = 2,027,025 paths of length 16 return to the empty shape
    with pytest.raises(ResourceLimit, match="MAX_PATHS"):
        enumerate_paths(16, EMPTY)
    with pytest.raises(ResourceLimit, match="level 12"):
        path_counts(12)
    assert sum(path_counts(11).values()) == 669351
    assert enumerate_paths(40, Partition((40,))) == [canonical_path(Partition((40,)))]


def test_path_cap_refuses_before_any_head_or_tail(monkeypatch):
    # 16, EMPTY is refused at level 3, below the middle level 8: every
    # children() call made until then is one of the backward pass's, so no
    # head or tail of a path has been extended
    spread_in, asked = [], []
    spread, kids = tableaux._spread, tableaux.children
    monkeypatch.setattr(tableaux, "_spread",
                        lambda counts: spread_in.append(len(counts)) or spread(counts))
    monkeypatch.setattr(tableaux, "children", lambda s: asked.append(s) or kids(s))
    with pytest.raises(ResourceLimit, match="level 16"):
        enumerate_paths(16, EMPTY)
    assert len(spread_in) == 13 and len(asked) == sum(spread_in)
    spread_in.clear()
    asked.clear()
    with pytest.raises(ResourceLimit, match="level 16"):
        path_halves(16, EMPTY)
    assert len(spread_in) == 13 and len(asked) == sum(spread_in)


def test_path_cap_is_exact(monkeypatch):
    # the count is refused exactly when it exceeds the cap
    levels = [path_counts(n) for n in range(7)]
    for n in range(1, 7):
        counts = levels[n]
        for lam, c in counts.items():
            monkeypatch.setattr(tableaux, "MAX_PATHS", c)
            assert len(enumerate_paths(n, lam)) == c
            monkeypatch.setattr(tableaux, "MAX_PATHS", c - 1)
            with pytest.raises(ResourceLimit):
                enumerate_paths(n, lam)
        total = sum(counts.values())
        monkeypatch.setattr(tableaux, "MAX_PATHS", total)
        assert path_counts(n) == counts
        monkeypatch.setattr(tableaux, "MAX_PATHS", total - 1)
        with pytest.raises(ResourceLimit):
            path_counts(n)
