"""Drunk content multisets, reduced signatures, pairing and series checks."""

import random
from collections import Counter
from itertools import combinations

import pytest

from bmwcenter.contentfn import (_box_tally, drunk_content_values, drunk_contents,
                                 pairing_set, series_consistency, signature,
                                 signature_json, signature_key)
from bmwcenter.errors import RegimeMismatch, ShapeLevelMismatch
from bmwcenter.partitions import EMPTY, Partition, diagonal_datum
from bmwcenter.scalars import ADD, Content, ContentValue, GENERIC, power_regime
from bmwcenter.tableaux import content_sequence, drunk_path, enumerate_lambda
from bmwcenter.wheelpoly import wheel_coefficients
from oracles import (merge, multiplicativity_check, power_sig, reduce_values,
                     skew_signature)


def test_drunk_contents_closed_form():
    mult = drunk_contents(4, Partition((2,)))
    assert mult == Counter({Content(ADD, 0): 2, Content(-ADD, 0): 1,
                            Content(ADD, 1): 1})


def test_drunk_contents_match_walked_path():
    for n in range(1, 8):
        for lp in enumerate_lambda(n):
            closed = drunk_contents(n, lp.shape)
            walked = Counter(content_sequence(drunk_path(n, lp.shape)))
            assert closed == walked


def test_drunk_contents_level_checked():
    with pytest.raises(ShapeLevelMismatch):
        drunk_contents(3, Partition((2,)))


def test_reduce_values_cancels_inverse_pairs():
    v = ContentValue(1, 0, 4)
    assert reduce_values([v, v.inverse()]).is_trivial
    # self-inverse values never contribute
    one = ContentValue(1, 0, 0)
    assert reduce_values([one, one]).is_trivial


def test_reduce_values_order_independent():
    rng = random.Random(3)
    vals = [ContentValue(1, 0, y) for y in (-4, -2, -2, 0, 2, 4, 4, 6)]
    base = reduce_values(vals)
    for _ in range(10):
        shuffled = vals[:]
        rng.shuffle(shuffled)
        assert reduce_values(shuffled) == base


def test_signature_closed_form_matches_reduced_values():
    # the box tally against the reduction of the whole drunk value multiset,
    # generically and at t = +-q^N on both sides of every cancellation
    for n in range(9):
        regimes = [GENERIC] + [power_regime(eps, N) for eps in (1, -1)
                               for N in range(-2 * n - 3, 2 * n + 4)]
        lps = enumerate_lambda(n)
        for r in regimes:
            for lp in lps:
                closed = signature(n, lp.shape, r)
                reduced = reduce_values(drunk_content_values(n, lp.shape, r))
                assert closed == reduced, (n, lp, r)
                assert hash(closed) == hash(reduced)
                assert str(closed) == str(reduced)
                assert closed.sorted_entries() == reduced.sorted_entries()


def key_mismatches(key, top=8):
    """Pairs of Lambda_n, n <= top, generic and at every t = +-q^N with
    |N| <= 2n + 3, whose keys are equal while their signatures differ, or
    the other way round; and the number of pairs compared."""
    out, pairs = [], 0
    for n in range(top + 1):
        lps = enumerate_lambda(n)
        for r in [GENERIC] + [power_regime(eps, N) for eps in (1, -1)
                              for N in range(-2 * n - 3, 2 * n + 4)]:
            keys = [key(lp.shape, r) for lp in lps]
            sigs = [signature(n, lp.shape, r) for lp in lps]
            for i, j in combinations(range(len(lps)), 2):
                pairs += 1
                if (keys[i] == keys[j]) != (sigs[i] == sigs[j]):
                    out.append((n, str(r), lps[i], lps[j]))
    return out, pairs


def test_signature_key_equality_is_signature_equality():
    assert key_mismatches(signature_key) == ([], 103296)


def _key_as_list(lam, r):
    # the power-regime pairs kept as a list, not a set: a k tallied
    # together with -k yields its pair twice
    tally = _box_tally(lam, r.t[2])
    if r.t[1]:
        return tuple(sorted(tally.items()))
    get = tally.get
    return tuple(sorted([(k, get(-k, 0) - m) if k > 0 else (-k, m - get(-k, 0))
                         for k, m in tally.items() if m != get(-k, 0)]))


def _key_without_negative_k(lam, r):
    # the power-regime pairs of the tallied k > 0 only: a diagonal whose
    # mate -k alone is tallied goes missing
    tally = _box_tally(lam, r.t[2])
    if r.t[1]:
        return tuple(sorted(tally.items()))
    return tuple(sorted((k, tally.get(-k, 0) - m) for k, m in tally.items()
                        if k > 0 and m != tally.get(-k, 0)))


@pytest.mark.parametrize("mutant", [_key_as_list, _key_without_negative_k])
def test_signature_key_mutants_are_caught(mutant):
    mismatches, _ = key_mismatches(mutant)
    assert mismatches


def test_signature_antisymmetry():
    for n in range(1, 6):
        for r in (GENERIC, power_regime(1, 2), power_regime(-1, 3)):
            for lp in enumerate_lambda(n):
                sig = signature(n, lp.shape, r)
                for v, e in sig.exponents.items():
                    assert sig.exponents.get(v.inverse()) == -e


def test_signature_n2_t_one_table():
    # t = q^0: the three level-2 signatures are 1 and a reciprocal pair
    r = power_regime(1, 0)
    assert signature(2, EMPTY, r).is_trivial
    s2 = signature(2, Partition((2,)), r)
    s11 = signature(2, Partition((1, 1)), r)
    assert s2 == power_sig({-2: 1, 2: -1})
    assert s11 == power_sig({2: 1, -2: -1})
    assert str(s2) == "(1-q^-2T)/(1-q^2T)"


def test_signature_collision_t_qinv_n2():
    r = power_regime(1, -1)
    assert signature(2, EMPTY, r) == signature(2, Partition((2,)), r)
    assert signature(2, EMPTY, r) != signature(2, Partition((1, 1)), r)


_POWERS = [power_regime(eps, N) for eps in (1, -1) for N in range(-7, 8)]


def test_signature_equal_checks_kind():
    # a generic signature's values have x = +-1 and a power one's x = 0, so
    # nontrivial signatures of the two never compare equal; trivial ones
    # are the same empty map, printed 1 in every regime
    for n in range(6):
        for lp in enumerate_lambda(n):
            a = signature(n, lp.shape, GENERIC)
            assert a.is_trivial == (lp.shape == EMPTY)
            assert all(v.sign == 1 and v.x in (1, -1) for v in a.exponents)
            for r in _POWERS:
                b = signature(n, lp.shape, r)
                assert all(v.x == 0 for v in b.exponents)
                assert (a == b) == (a.is_trivial and b.is_trivial), (n, lp, r)
    a = signature(2, EMPTY, GENERIC)
    b = signature(2, EMPTY, power_regime(1, 2))
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "1"


def test_merge_checks_kind():
    # the value sets of the two regimes are disjoint, so merging a generic
    # signature with a power one cancels nothing: the exponent maps sit
    # side by side and the product is trivial only when both factors are
    for n in range(5):
        for lp in enumerate_lambda(n):
            a = signature(n, lp.shape, GENERIC)
            for r in _POWERS:
                b = signature(n, lp.shape, r)
                assert not set(a.exponents) & set(b.exponents), (n, lp, r)
                m = merge(a, b)
                assert m.exponents == {**a.exponents, **b.exponents}, (n, lp, r)
                assert m.is_trivial == (a.is_trivial and b.is_trivial)


def test_skew_signature_trivial_cases():
    # (4,2,2)/(4) at t=q^2 and (4,2,2)/(4,1,1) at t=q are both trivial
    lam = Partition((4, 2, 2))
    assert skew_signature(lam, Partition((4,)), power_regime(1, 2)).is_trivial
    assert skew_signature(lam, Partition((4, 1, 1)), power_regime(1, 1)).is_trivial
    # generically the same skew shapes are visible
    assert not skew_signature(lam, Partition((4,)), GENERIC).is_trivial


def test_multiplicativity():
    pairs = [(Partition((4, 2, 2)), Partition((4,))),
             (Partition((4, 2, 2)), Partition((4, 1, 1))),
             (Partition((3, 3, 1)), Partition((2, 1))),
             (Partition((5, 2)), Partition((3,)))]
    regimes = [GENERIC, power_regime(1, 2), power_regime(-1, 4),
               power_regime(1, -2)]
    for lam, mu in pairs:
        for r in regimes:
            assert multiplicativity_check(lam, mu, r)


def test_pairing_needs_even_power():
    with pytest.raises(RegimeMismatch):
        pairing_set(2, Partition((2,)), GENERIC)
    with pytest.raises(RegimeMismatch):
        pairing_set(2, Partition((2,)), power_regime(1, 1))


def test_pairing_n4_tq2():
    # t = q^2: diagonals i, j pair when i + j = -2; -1 is self-paired
    r = power_regime(1, 2)
    assert pairing_set(4, Partition((4,)), r) == {}
    assert pairing_set(4, Partition((1, 1, 1, 1)), r) == {0: -2, -1: -1, -2: 0}
    assert pairing_set(4, Partition((2, 2)), r) == {-1: -1}


def test_pairing_multiplicities_in_high_even_regimes():
    # distinct paired diagonals carry multiplicity one when 2a >= n - 2
    for n in range(2, 7):
        for a in range((n - 1) // 2, n):
            r = power_regime(1, 2 * a)
            for lp in enumerate_lambda(n):
                dd = diagonal_datum(lp.shape)
                for i, j in pairing_set(n, lp.shape, r).items():
                    if j != i:
                        assert dd[i] == 1
                        assert dd[j] == 1


def test_series_consistency():
    assert series_consistency(5, Partition((2, 1)), GENERIC, wheel_coefficients(5, 3))
    assert series_consistency(4, Partition((2,)), power_regime(1, 2),
                              wheel_coefficients(4, 4))


def test_signature_json_is_sorted():
    sig = signature(4, Partition((2,)), power_regime(1, 2))
    data = signature_json(sig)
    assert data == [{"value": "q^-4", "exponent": 1},
                    {"value": "q^-2", "exponent": 1},
                    {"value": "q^2", "exponent": -1},
                    {"value": "q^4", "exponent": -1}]


def test_signature_str_trivial():
    assert str(signature(2, EMPTY, power_regime(1, 0))) == "1"
