"""Spectral idempotent diagonals and their orthogonality."""

import pytest

from bmwcenter import idempotents, tableaux
from bmwcenter.errors import ResourceLimit
from bmwcenter.idempotents import spectral_idempotent
from bmwcenter.partitions import EMPTY, Partition, partitions_of
from bmwcenter.tableaux import children, drunk_path, enumerate_lambda, enumerate_paths
from oracles import extension_contents, oracle_values, orthogonality_check


def test_extension_contents_counts():
    # generically all branching values out of a shape are distinct: the
    # premise that makes the diagonal the drunk-path indicator
    for m in range(13):
        for mu in partitions_of(m):
            assert len(extension_contents(mu)) == len(children(mu))


def test_extension_contents_empty_shape():
    vals = extension_contents(EMPTY)
    assert len(vals) == 1


def test_selects_exactly_the_drunk_path():
    for n in range(1, 5):
        for lp in enumerate_lambda(n):
            diag = spectral_idempotent(n, lp.shape)
            drunk = drunk_path(n, lp.shape)
            assert diag.values == {drunk: 1}
            assert diag.selected() == [drunk]
            assert drunk in enumerate_paths(n, lp.shape)


def test_path_counts_at_level_three():
    # 7 paths at level 3; their squared counts sum to (2*3-1)!! = 15
    counts = [len(enumerate_paths(3, lp.shape)) for lp in enumerate_lambda(3)]
    assert sum(counts) == 7
    assert sum(c * c for c in counts) == 15


def test_orthogonality():
    for n in range(1, 5):
        assert orthogonality_check(n)


def test_diagonal_matches_oracle_in_order():
    for n in range(0, 8):
        every_path = [p for lp in enumerate_lambda(n) for p in enumerate_paths(n, lp.shape)]
        for lp in enumerate_lambda(n):
            want = oracle_values(n, lp.shape)
            # the oracle evaluates the product on every path of the level,
            # in enumerate_lambda and then enumerate_paths order
            assert list(want) == every_path
            got = spectral_idempotent(n, lp.shape).values
            assert list(got.items()) == [(p, v) for p, v in want.items() if v]


def test_level_cap_refuses_before_walking():
    with pytest.raises(ResourceLimit):
        spectral_idempotent(12, EMPTY)


def test_diagonal_does_not_walk_the_level(monkeypatch):
    def refuse(*args):
        raise AssertionError("the idempotent walked the paths of its level")

    # in tableaux, and in idempotents should it ever import them again
    for module in (tableaux, idempotents):
        for name in ("enumerate_paths", "enumerate_lambda"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    diag = spectral_idempotent(11, Partition((1,)))
    assert diag.values == {drunk_path(11, Partition((1,))): 1}
    with pytest.raises(ResourceLimit):
        spectral_idempotent(12, EMPTY)
