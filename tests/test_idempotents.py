"""Spectral idempotent diagonals and their orthogonality."""

import pytest

from bmwcenter.errors import RegimeMismatch, ResourceLimit
from bmwcenter.idempotents import extension_contents, spectral_idempotent
from bmwcenter.partitions import EMPTY, Partition
from bmwcenter.scalars import GENERIC, LaurentQT, content_value, power_regime
from bmwcenter.tableaux import (children, content_sequence, drunk_path,
                                enumerate_lambda, enumerate_paths)
from oracles import orthogonality_check


def test_extension_contents_counts():
    # generically all branching values out of a shape are distinct
    for m in range(7):
        from bmwcenter.partitions import partitions_of
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


def oracle_values(n, lam):
    """The interpolation product evaluated on every path from scratch."""
    drunk = drunk_path(n, lam)
    drunk_values = [content_value(c, GENERIC) for c in content_sequence(drunk)]
    levels = []
    for k in range(1, n + 1):
        target = drunk_values[k - 1]
        levels.append((target, sorted(extension_contents(drunk[k - 1]) - {target})))
    values = {}
    for lp in enumerate_lambda(n):
        for path in enumerate_paths(n, lp.shape):
            xs = [content_value(c, GENERIC) for c in content_sequence(path)]
            num = den = LaurentQT.const(1)
            value = 1
            for (target, nodes), x in zip(levels, xs):
                if x in nodes:
                    value = 0
                    break
                for c in nodes:
                    num = num * (x.monomial() - c.monomial())
                    den = den * (target.monomial() - c.monomial())
            assert value == 0 or num == den, path
            values[path] = value
    return values


def test_diagonal_matches_oracle_in_order():
    for n in range(0, 7):
        for lp in enumerate_lambda(n):
            got = spectral_idempotent(n, lp.shape).values
            assert list(got.items()) == list(oracle_values(n, lp.shape).items())


def test_level_cap_refuses_before_walking():
    with pytest.raises(ResourceLimit):
        spectral_idempotent(12, EMPTY)
