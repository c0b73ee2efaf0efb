"""Semisimplicity, admissibility and block partitions."""

from itertools import combinations
from math import comb

import pytest

from bmwcenter import blocks, center, cli, tableaux
from bmwcenter.blocks import (block_equivalent, block_partition,
                              check_admissible, is_admissible, is_semisimple,
                              verify_block_theorem)
from bmwcenter.center import separation_classes
from bmwcenter.contentfn import signature
from bmwcenter.errors import LevelMismatch, RegimeMismatch
from bmwcenter.partitions import EMPTY, Partition
from bmwcenter.scalars import GENERIC, power_regime
from bmwcenter.tableaux import enumerate_lambda, labeled
from oracles import oracle_block_partition


def test_semisimple_generic_always():
    for n in range(0, 8):
        assert is_semisimple(n, GENERIC)


def test_semisimple_known_cases():
    # t = q^2 keeps level 4 semisimple, t = q^-1 breaks level 2
    assert is_semisimple(4, power_regime(1, 2))
    assert not is_semisimple(2, power_regime(1, -1))
    # t = q^-1 and t = -q are special: semisimple exactly at levels 1, 3, 5
    # above the ground field at level 0
    for r in (power_regime(1, -1), power_regime(-1, 1)):
        assert [n for n in range(0, 8) if is_semisimple(n, r)] == [0, 1, 3, 5]
    # t = -q^-1 keeps level 2 semisimple
    assert is_semisimple(2, power_regime(-1, -1))
    # t = q^3 = q^(2k-3) for k = 3 fails from level 3 on
    assert not is_semisimple(3, power_regime(-1, 3))
    assert not is_semisimple(4, power_regime(-1, 3))
    # t = q^0 fails once k = 3 is reachable
    assert is_semisimple(2, power_regime(1, 0))
    assert not is_semisimple(3, power_regime(1, 0))
    # large exponents never collide at small levels
    assert is_semisimple(6, power_regime(1, 20))


def test_admissibility_goldens():
    lam = Partition((4, 2, 2))
    # not (1, (4,1,1))-admissible at t = q
    failed = check_admissible(lam, 1, Partition((4, 1, 1)), power_regime(1, 1))
    assert failed == [3]
    assert not is_admissible(lam, 1, Partition((4, 1, 1)), power_regime(1, 1))
    # (2, (4))-admissible at t = q^2
    assert is_admissible(lam, 2, Partition((4,)), power_regime(1, 2))


def test_admissibility_condition_one():
    r = power_regime(1, 2)
    assert check_admissible(Partition((2,)), 1, Partition((2,)), r) == [1]
    assert check_admissible(Partition((2,)), 0, Partition((1,)), r) == [1]
    assert check_admissible(Partition((1,)), 1, Partition((2,)), r) == [1]


def test_admissibility_trivial_pair():
    r = power_regime(1, 2)
    assert is_admissible(Partition((2,)), 0, Partition((2,)), r)


def test_admissibility_needs_power_regime():
    with pytest.raises(RegimeMismatch):
        check_admissible(Partition((2,)), 1, EMPTY, GENERIC)


def test_admissibility_unpaired_diagonal():
    # (2)/0 at t = q^4: contents q^4, q^6 pair with nothing
    assert check_admissible(Partition((2,)), 1, EMPTY, power_regime(1, 4)) == [2]


def test_block_equivalent_levels_checked():
    with pytest.raises(LevelMismatch):
        block_equivalent(labeled(2, Partition((2,))), labeled(4, Partition((2,))),
                         power_regime(1, 0))


def test_block_equivalent_generic_is_identity():
    a = labeled(4, Partition((2,)))
    b = labeled(4, Partition((1, 1)))
    assert block_equivalent(a, a, GENERIC)
    assert not block_equivalent(a, b, GENERIC)


def test_block_regression_n2_qinv():
    # signatures collide but blocks stay apart
    r = power_regime(1, -1)
    rep = separation_classes(2, r)
    assert not rep.separates
    a = labeled(2, EMPTY)
    b = labeled(2, Partition((2,)))
    assert not block_equivalent(a, b, r)
    assert check_admissible(Partition((2,)), 1, EMPTY, r) == [3]
    blocks = block_partition(2, r)
    assert all(len(c) == 1 for c in blocks.blocks)
    assert not blocks.agrees_with_W


def test_block_partition_generic_singletons():
    rep = block_partition(4, GENERIC)
    assert all(len(c) == 1 for c in rep.blocks)
    assert rep.agrees_with_W
    assert rep.closure_pairs == []


def test_block_partition_t_one_n3():
    # t = q^0 at level 3: (2,1) and the defect-1 vertex (1) share a block
    rep = block_partition(3, power_regime(1, 0))
    sizes = sorted(len(c) for c in rep.blocks)
    assert sizes == [1, 1, 2]
    assert sum(sizes) == len(enumerate_lambda(3))
    assert rep.agrees_with_W


def test_verify_block_theorem_guards():
    with pytest.raises(RegimeMismatch):
        verify_block_theorem(3, GENERIC)
    with pytest.raises(RegimeMismatch):
        verify_block_theorem(2, power_regime(1, -1))  # odd power
    with pytest.raises(RegimeMismatch):
        verify_block_theorem(2, power_regime(1, 2))  # semisimple


def test_verify_block_theorem_small_sweep():
    for n in range(2, 6):
        for sign in (1, -1):
            for a in range(0, max(0, n // 2 - 1)):
                r = power_regime(sign, 2 * a)
                if is_semisimple(n, r):
                    continue
                assert verify_block_theorem(n, r), (n, sign, a)


def test_blocks_refine_signature_classes():
    # condition (2) makes the skew content multiset closed under inversion,
    # so directly block-equivalent shapes share their reduced signature;
    # every power regime with |N| <= 2n + 2, both signs, n <= 8
    direct = 0
    for n in range(9):
        lps = enumerate_lambda(n)
        for eps in (1, -1):
            for N in range(-2 * n - 2, 2 * n + 3):
                r = power_regime(eps, N)
                sigs = [signature(n, lp.shape, r) for lp in lps]
                for i, j in combinations(range(len(lps)), 2):
                    if block_equivalent(lps[i], lps[j], r):
                        direct += 1
                        assert sigs[i] == sigs[j], (n, r, lps[i], lps[j])
    assert direct == 292  # of 96,256 pairs


def test_block_partition_closure_pairs(monkeypatch, capsys):
    # a chain relation inside the two three-shape signature classes of
    # Lambda_6 at t = q^3, {1, 11, 18} and {2, 12, 17}: 11 ~ 1 ~ 18 and
    # 2 ~ 12 ~ 17, so (11, 18) and (2, 17) are related only through the
    # transitive closure
    lps = enumerate_lambda(6)
    r = power_regime(1, 3)
    assert [c for c in separation_classes(6, r).classes if len(c) > 2] == [
        [lps[1], lps[11], lps[18]], [lps[2], lps[12], lps[17]]]
    direct = {(1, 11), (1, 18), (2, 12), (12, 17)}
    monkeypatch.setattr(blocks, "block_equivalent",
                        lambda a, b, r: (lps.index(a), lps.index(b)) in direct)
    rep = block_partition(6, r)
    assert [c for c in rep.blocks if len(c) > 1] == [
        [lps[1], lps[11], lps[18]], [lps[2], lps[12], lps[17]]]
    assert rep.closure_pairs == [(lps[2], lps[17]), (lps[11], lps[18])]
    assert cli.run(["blocks", "--n", "6", "--t", "q^3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("closure only:")] == [
        "closure only: (2,2,1,1, 0) ~ (2, 2)",
        "closure only: (1,1,1,1, 1) ~ (0, 3)"]


# every power regime with |N| <= 2n + 2, both signs, n <= 9
POWER_GRID = [(n, power_regime(eps, N)) for n in range(10) for eps in (1, -1)
              for N in range(-2 * n - 2, 2 * n + 3)]


def test_block_partition_matches_all_pairs_oracle():
    for n, r in POWER_GRID:
        fast, slow = block_partition(n, r), oracle_block_partition(n, r)
        assert fast.blocks == slow.blocks, (n, r)
        assert fast.closure_pairs == slow.closure_pairs, (n, r)
        assert fast.agrees_with_W == slow.agrees_with_W, (n, r)


@pytest.mark.parametrize("r", [power_regime(1, 2), power_regime(-1, 3)])
def test_block_equivalent_runs_on_same_signature_pairs_only(monkeypatch, r):
    calls = []

    def counted(a, b, r):
        calls.append((a, b))
        return block_equivalent(a, b, r)

    monkeypatch.setattr(blocks, "block_equivalent", counted)
    block_partition(12, r)
    classes = separation_classes(12, r).classes
    assert all(signature(12, a.shape, r) == signature(12, b.shape, r)
               for a, b in calls)
    # 64 at q^2 and 135 at -q^3, against 12,720 pairs in all of Lambda_12
    assert len(calls) == sum(comb(len(c), 2) for c in classes)


def test_block_partition_walks_lambda_once(monkeypatch):
    # Lambda_n comes from separation_classes alone; the blocks follow its
    # order all the same
    r = power_regime(1, 2)
    expected = oracle_block_partition(8, r)
    real, calls = tableaux.enumerate_lambda, []

    def counted(n):
        calls.append(n)
        return real(n)

    for module in (tableaux, center, blocks):
        monkeypatch.setattr(module, "enumerate_lambda", counted, raising=False)
    rep = block_partition(8, r)
    assert calls == [8]
    assert rep.blocks == expected.blocks
    assert rep.closure_pairs == expected.closure_pairs
