"""Spectral idempotent diagonals and their orthogonality."""

import pytest

from bmwcenter.errors import RegimeMismatch, ResourceLimit
from bmwcenter.idempotents import spectral_idempotent
from bmwcenter.partitions import EMPTY, Partition, partitions_of
from bmwcenter.scalars import power_regime
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


def test_requires_generic_regime():
    with pytest.raises(RegimeMismatch):
        spectral_idempotent(2, Partition((2,)), power_regime(1, 2))


def test_selects_exactly_the_drunk_path():
    for n in range(1, 5):
        total = sum(len(enumerate_paths(n, lp.shape)) for lp in enumerate_lambda(n))
        for lp in enumerate_lambda(n):
            diag = spectral_idempotent(n, lp.shape)
            assert len(diag.values) == total
            sel = diag.selected()
            assert sel == [drunk_path(n, lp.shape)]
            assert set(diag.values.values()) <= {0, 1}


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
        for lp in enumerate_lambda(n):
            got = spectral_idempotent(n, lp.shape).values
            assert list(got.items()) == list(oracle_values(n, lp.shape).items())


def test_level_cap_refuses_before_walking():
    with pytest.raises(ResourceLimit):
        spectral_idempotent(12, EMPTY)
