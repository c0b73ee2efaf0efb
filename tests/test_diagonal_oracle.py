"""Closed-form pairing and admissibility against content-value products.

At t = eps q^N the content of diagonal i is c(i) = eps q^(N + 2i), the
``ContentValue`` (eps, 0, N + 2i) in the one encoding (sign, x, y) of
sign * t^x * q^y, so ``blocks.check_admissible`` and
``contentfn.pairing_set`` find mates by diagonal arithmetic (j = -N - i).
The oracles below find them the slow way, by multiplying values (signs
multiply, exponents add) and comparing with the identity (1, 0, 0); the
values q and -q^-1 of conditions (3) and (4) are (1, 0, 1) and
(-1, 0, -1).  Both must agree on every skew shape lam/mu with |lam| <= 8
in every power regime with |N| <= 9.
"""

import pytest

from bmwcenter.blocks import check_admissible
from bmwcenter.contentfn import pairing_set
from bmwcenter.partitions import diagonal_datum, partitions_of, skew_datum
from bmwcenter.scalars import ADD, Content, content_value, power_regime
from oracles import is_one, value_product

MAX_SIZE = 8
REGIMES = [power_regime(eps, N) for eps in (1, -1) for N in range(-9, 10)]
SHAPES = [lam for m in range(MAX_SIZE + 1) for lam in partitions_of(m)]


def _values(counts, r):
    return {i: content_value(Content(ADD, i), r) for i in counts}


def oracle_admissible(lam, f, mu, r):
    """Failed conditions, found by searching all value products."""
    if not lam.contains(mu) or lam.size - mu.size != 2 * f or f < 0:
        return [1]
    sd = skew_datum(lam, mu)
    value = _values(sd, r)
    failed = []
    if any(not any(is_one(value_product(value[i], value[j])) and sd[i] == sd[j]
                   for j in sd) for i in sd):
        failed.append(2)
    for i in sorted(sd):
        v = value[i]
        if (v == (1, 0, 1) and is_one(value_product(v, value.get(i - 1, v)))
                and sd[i - 1] and sd[i] % 2):
            failed.append(3)
        if (v == (-1, 0, -1) and is_one(value_product(v, value.get(i + 1, v)))
                and sd[i + 1] and sd[i] % 2):
            failed.append(4)
    return failed


def oracle_mates(lam, r):
    """Every diagonal's partners j with c(i) c(j) = 1, by value products."""
    value = _values(diagonal_datum(lam), r)
    mates = {}
    for i in value:
        partners = tuple(sorted(j for j in value
                                if is_one(value_product(value[i], value[j]))))
        if partners:
            mates[i] = partners
    return mates


@pytest.mark.parametrize("r", REGIMES, ids=str)
def test_admissibility_matches_value_products(r):
    for lam in SHAPES:
        for mu in SHAPES:
            d = lam.size - mu.size
            if d >= 0 and d % 2 == 0 and lam.contains(mu):
                assert (check_admissible(lam, d // 2, mu, r)
                        == oracle_admissible(lam, d // 2, mu, r)), (lam, mu)


@pytest.mark.parametrize("r", [r for r in REGIMES if r.is_even_power], ids=str)
def test_pairing_matches_value_products(r):
    for lam in SHAPES:
        pairs = pairing_set(lam.size, lam, r)
        assert {i: (j,) for i, j in pairs.items()} == oracle_mates(lam, r), lam
