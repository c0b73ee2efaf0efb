"""Regimes, content values and exact Laurent/series arithmetic."""

import random
from fractions import Fraction

import pytest

from bmwcenter.scalars import (ADD, Content, ContentValue, GENERIC, LaurentQT,
                               REMOVE, content_value, expand_W_series,
                               power_regime, regime_from_text, wheel_series)
from bmwcenter.wheelpoly import MultiLaurent
from oracles import dense_product, format_oracle, is_one, value_product


def test_regime_parsing():
    assert regime_from_text("generic") is GENERIC
    assert regime_from_text("q^3") == power_regime(1, 3)
    assert regime_from_text("-q^-1") == power_regime(-1, -1)
    assert regime_from_text("1") == power_regime(1, 0)
    assert regime_from_text(" -q^12\n") == power_regime(-1, 12)
    # the error quotes the spec as given, sign and all
    # the exponent is ASCII digits with an optional minus, nothing int() adds
    for spec in ("z^2", "-1", " -z^2", "--q^1", "q^x", "-q^", "q^1_0", "q^+2",
                 "q^ 3", "-q^--1", "q^\u0663", "q^3\n1"):
        with pytest.raises(ValueError) as exc:
            regime_from_text(spec)
        assert str(exc.value) == "bad regime spec %r" % spec


def test_regime_predicates_and_str():
    assert GENERIC.is_generic and not GENERIC.is_power
    r = power_regime(-1, 4)
    assert r.is_power and r.is_even_power
    assert not power_regime(1, 3).is_even_power
    assert str(r) == "-q^4"
    assert str(power_regime(1, 0)) == "q^0"


def test_content_values_generic():
    assert content_value(Content(ADD, 0), GENERIC) == ContentValue(1, 1, 0)
    assert content_value(Content(ADD, 1), GENERIC) == ContentValue(1, 1, 2)
    assert content_value(Content(REMOVE, 1), GENERIC) == ContentValue(1, -1, -2)
    assert content_value(Content(ADD, -1), GENERIC) == ContentValue(1, 1, -2)


def test_content_values_power():
    # adding a box on diagonal 1 with t = -q^-1 gives the value -q
    r = power_regime(-1, -1)
    assert content_value(Content(ADD, 1), r) == ContentValue(-1, 0, 1)
    # removing it inverts the exponent but keeps the sign
    assert content_value(Content(REMOVE, 1), r) == ContentValue(-1, 0, -1)


def test_value_group_laws_exhaustive():
    for r in (GENERIC, power_regime(1, 2), power_regime(-1, 3)):
        vals = [content_value(Content(s, i), r)
                for s in (ADD, REMOVE) for i in range(-10, 11)]
        for v in vals:
            assert is_one(value_product(v, v.inverse()))
            assert v.inverse().inverse() == v
        for a in vals[:8]:
            for b in vals[:8]:
                assert value_product(a, b) == value_product(b, a)
                for c in vals[:4]:
                    assert (value_product(value_product(a, b), c)
                            == value_product(a, value_product(b, c)))


def test_values_of_different_regimes_are_disjoint():
    # the invariant that replaces a regime tag: a generic value has sign 1
    # and x = s != 0, a power value x = 0, so no value lies in both regimes
    generic, power = set(), set()
    for c in (Content(s, i) for s in (ADD, REMOVE) for i in range(-6, 7)):
        v = content_value(c, GENERIC)
        assert (v.sign, v.x) == (1, c.s)
        generic.add(v)
        for eps in (1, -1):
            for N in range(-15, 16):
                v = content_value(c, power_regime(eps, N))
                assert (v.sign, v.x) == (eps, 0)
                power.add(v)
    assert generic and power and not generic & power


def test_laurent_arithmetic():
    q = LaurentQT.monomial(1)
    t = LaurentQT.monomial(0, 1)
    p = (q + t) * (q - t)
    assert p == q * q - t * t
    assert (p - p).is_zero
    assert q.pow(3) == LaurentQT.monomial(3)
    assert q.pow(-2) == LaurentQT.monomial(-2)
    assert LaurentQT.const(Fraction(1, 2)) * 2 == LaurentQT.const(1)


def coefficient_types(*polys):
    return {type(c) for p in polys for c in p.terms.values()}


def test_coefficients_are_ints_or_fractions():
    # integer inputs keep every result integral
    q, t = LaurentQT.monomial(1), LaurentQT.monomial(0, 1)
    p = (q + t + LaurentQT.const(3)) * (q - t) - q.pow(-3) * 5
    assert coefficient_types(p) == {int}
    assert coefficient_types(*expand_W_series(
        [content_value(Content(ADD, i), GENERIC) for i in range(-2, 3)], 6)) == {int}
    # negative powers of a monomial: ints for +-1, Fractions otherwise
    for c in (1, -1, 2, -3):
        m = LaurentQT.monomial(2, -1, c)
        for k in range(-3, 4):
            want = int if k >= 0 or c in (1, -1) else Fraction
            assert coefficient_types(m.pow(k)) == {want}
            assert m.pow(k) * m.pow(-k) == LaurentQT.const(1)
    # constructors take exact values and never keep a float
    assert LaurentQT.const(Fraction(4, 2)).terms == {(0, 0): 2}
    assert coefficient_types(LaurentQT.const(Fraction(4, 2))) == {int}
    assert LaurentQT.const(0.5).terms == {(0, 0): Fraction(1, 2)}
    assert coefficient_types(LaurentQT({(0, 0): 2.0})) == {int}


def test_laurent_str():
    p = LaurentQT.monomial(2) - LaurentQT.const(1)
    assert str(p) == "- 1 + q^2"


COEFFICIENTS = (1, -1, 2, -7, 30, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))


def random_laurent(rng, n, nterms):
    """A LaurentQT (n = 2) or MultiLaurent in n variables, with exponents
    in [-3, 3] and small int and Fraction coefficients."""
    cls = LaurentQT if n == 2 else MultiLaurent
    return cls({tuple(rng.randint(-3, 3) for _ in range(n)): rng.choice(COEFFICIENTS)
                for _ in range(nterms)})


def test_printer_matches_the_term_by_term_oracle():
    rng = random.Random(3)
    cases = [LaurentQT(), LaurentQT.const(1), LaurentQT.const(-1),
             LaurentQT.const(Fraction(-2, 3)), LaurentQT.monomial(0, -2, -1),
             MultiLaurent(), MultiLaurent.const(3, -5)]
    for _ in range(300):
        n = rng.choice((1, 2, 2, 3, 4, 5))
        cases.append(random_laurent(rng, n, rng.randint(1, 6)))
    # every (q, t) branch: q only, t only, both and the constant, each with
    # coefficients 1, -1, 7 and -3/4, alone and after a lower term
    for e in ((2, 0), (0, -3), (-1, 4), (0, 0)):
        for c in (1, -1, 7, Fraction(-3, 4)):
            cases += [LaurentQT({e: c}), LaurentQT({(-5, -5): 1, e: c})]
    assert (str(LaurentQT({(2, 0): 7, (0, -3): Fraction(-3, 4), (-1, 4): -1, (0, 0): 1}))
            == "- q^-1*t^4 - 3/4*t^-3 + 1 + 7*q^2")
    seen = set()
    for p in cases:
        names = (("q", "t") if type(p) is LaurentQT
                 else ["x%d" % i for i in range(1, p.n + 1)])
        assert str(p) == format_oracle(p, names)
        seen.update(p.terms.values())
    # negative, Fraction and +-1 coefficients all printed
    assert {1, -1, Fraction(1, 2), Fraction(-3, 4)} <= seen


def test_monomial_products_match_the_dense_product():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.choice((1, 2, 2, 3, 5))
        mono = random_laurent(rng, n, 1)
        if rng.random() < 0.2:
            # the constant 1 must not hand back the other operand's terms
            mono = type(mono)({(0,) * n: 1})
        for other in (random_laurent(rng, n, rng.randint(0, 6)),
                      random_laurent(rng, n, 1), type(mono)()):
            before = [(p, dict(p.terms)) for p in (mono, other)]
            for a, b in ((mono, other), (other, mono)):
                got = a * b
                assert type(got) is type(mono)
                assert got == dense_product(a, b)
                # a fresh dict, and neither operand changed
                assert got.terms is not a.terms and got.terms is not b.terms
                got.terms[(9,) * n] = 1
                assert all(p.terms == terms for p, terms in before)


def test_products_match_the_dense_product():
    rng = random.Random(5)
    one, q, t = LaurentQT.const(1), LaurentQT.monomial(1), LaurentQT.monomial(0, 1)
    x1, x2 = MultiLaurent.variable(2, 0), MultiLaurent.variable(2, 1)
    xone = MultiLaurent.const(2, 1)
    # products whose middle terms cancel: 1 + q^3, q^2 - t^2, x1^2 - x2^2
    pairs = [(one + q, one - q + LaurentQT.monomial(2)), (q + t, q - t),
             (x1 - x2, x1 + x2), (xone + x1, xone - x1 + MultiLaurent.variable(2, 0, 2))]
    for _ in range(200):
        n = rng.choice((1, 2, 2, 3, 5))
        pairs.append((random_laurent(rng, n, rng.randint(0, 6)),
                      random_laurent(rng, n, rng.randint(2, 6))))
    for a, b in pairs:
        before = [(p, dict(p.terms)) for p in (a, b)]
        got = a * b
        assert type(got) is type(a)
        assert got == dense_product(a, b) == b * a
        assert 0 not in got.terms.values()
        assert got.terms is not a.terms and got.terms is not b.terms
        assert all(p.terms == terms for p, terms in before)
    assert [len((a * b).terms) for a, b in pairs[:4]] == [2, 2, 2, 2]


def test_integral_fractions_print_compare_and_hash_as_ints():
    # a scalar factor is normalised once, so an integral Fraction leaves ints
    p = LaurentQT.const(3) * Fraction(2, 1)
    assert p.terms == {(0, 0): 6} and coefficient_types(p) == {int}
    assert coefficient_types(Fraction(4, 2) * LaurentQT.monomial(1, 1, 5)) == {int}
    # a product of Fractions may keep an integral Fraction, which acts as its int
    p = LaurentQT.monomial(1, 0, Fraction(1, 2)) * LaurentQT.monomial(0, 1, 2)
    want = LaurentQT.monomial(1, 1)
    assert p == want and hash(p) == hash(want) and str(p) == str(want) == "q^1*t^1"
    assert {p, want} == {want}


def dense_series_product(a, b):
    """Truncated product of two coefficient lists through dense_product only."""
    K = min(len(a), len(b)) - 1
    out = [type(a[0])() for _ in range(K + 1)]
    for i in range(K + 1):
        for j in range(K + 1 - i):
            out[i + j] = out[i + j] + dense_product(a[i], b[j])
    return out


def dense_wheel_series(monomials, one, K):
    """prod (1 - m^-1 T) * sum_k m^k T^k over the monomials, truncated at T^K."""
    zero = type(one)()
    out = [one] + [zero] * K
    for m in monomials:
        out = dense_series_product(out, [one, -m.pow(-1)] + [zero] * K)
        out = dense_series_product(out, [m.pow(k) for k in range(K + 1)])
    return out


def test_wheel_series_matches_the_dense_series_product():
    for one, exps in ((LaurentQT.const(1), ((1, 0), (-2, 1), (0, -1))),
                      (MultiLaurent.const(3, 1), ((1, 0, 0), (0, -1, 2), (1, 1, -1)))):
        a, b, c = (type(one)({e: k}) for e, k in zip(exps, (2, -3, Fraction(1, 2))))
        # repeated and mutually inverse monomials, so that keys get deleted
        for monomials in ([a], [a, a], [a, a.pow(-1)], [c, c, c.pow(-1), b],
                          [a, b, c, b.pow(-1), a, c.pow(-1)]):
            for K in (0, 1, 4, 6):
                got = wheel_series(monomials, one, K)
                assert got == dense_wheel_series(monomials, one, K), (monomials, K)
                assert all(0 not in p.terms.values() for p in got)
        series = wheel_series([a, b, a.pow(-1), b.pow(-1)], one, 5)
        assert series == [one] + [type(one)()] * 5


def series_product(a, b):
    """Truncated product of two coefficient lists, by direct convolution."""
    K = min(len(a), len(b)) - 1
    out = [LaurentQT() for _ in range(K + 1)]
    for i in range(K + 1):
        for j in range(K + 1 - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def series_one(K):
    return [LaurentQT.const(1)] + [LaurentQT() for _ in range(K)]


def test_series_inverse():
    v = ContentValue(1, 0, 2)
    m = v.monomial()
    # 1 - vT and the geometric series 1/(1 - vT) = sum v^k T^k
    linear = [LaurentQT.const(1), -m] + [LaurentQT() for _ in range(5)]
    geometric = [m.pow(k) for k in range(7)]
    assert series_product(linear, geometric) == series_one(6)
    assert series_product(geometric, linear) == series_one(6)
    # the wheel series of v is (1 - v^-1 T) times the geometric series,
    # and the wheel series of v^-1 is its reciprocal
    one = LaurentQT.const(1)
    s = wheel_series([m], one, 6)
    inv_linear = [one, -m.pow(-1)] + [LaurentQT() for _ in range(5)]
    assert s == series_product(inv_linear, geometric)
    assert series_product(s, wheel_series([m.pow(-1)], one, 6)) == series_one(6)


def test_expand_W_series_single_value():
    v = ContentValue(1, 0, 2)
    s = expand_W_series([v], 3)
    # (1 - q^-2 T)/(1 - q^2 T): coefficient of T^k is q^2k - q^(2k-4)
    assert s[0] == LaurentQT.const(1)
    for k in range(1, 4):
        assert s[k] == LaurentQT.monomial(2 * k) - LaurentQT.monomial(2 * k - 4)


def test_expand_W_series_cancellation():
    v = ContentValue(1, 0, 3)
    s = expand_W_series([v, v.inverse()], 5)
    assert s == series_one(5)


def test_expand_W_series_is_multiplicative():
    rng = random.Random(4)
    for r in (GENERIC, power_regime(1, 2), power_regime(-1, 1), power_regime(1, -3)):
        for _ in range(12):
            a = [content_value(Content(rng.choice((ADD, REMOVE)), rng.randint(-4, 4)), r)
                 for _ in range(rng.randint(0, 4))]
            b = [content_value(Content(rng.choice((ADD, REMOVE)), rng.randint(-4, 4)), r)
                 for _ in range(rng.randint(0, 4))]
            K = rng.randint(0, 6)
            assert expand_W_series(a + b, K) == series_product(
                expand_W_series(a, K), expand_W_series(b, K))
            assert expand_W_series(a + [v.inverse() for v in a], K) == series_one(K)
