"""Wheel Laurent polynomials: generators, identities, membership, evaluation."""

import pytest

from bmwcenter import wheelpoly
from bmwcenter.cli import run
from bmwcenter.errors import ResourceLimit
from bmwcenter.partitions import Partition
from bmwcenter.scalars import GENERIC, power_regime, wheel_series
from bmwcenter.contentfn import drunk_content_values
from bmwcenter.wheelpoly import (MultiLaurent, degree_cap, evaluate,
                                 newton_check, power_sum, wheel_coefficients)
from oracles import (inverse_coeffs, is_symmetric, is_wheel,
                     newton_by_inverse_series)


def x(n, i, p=1):
    return MultiLaurent.variable(n, i, p)


def test_w0_is_one():
    for n in range(1, 5):
        assert wheel_coefficients(n, 0) == [MultiLaurent.const(n, 1)]


def test_w1_two_variables_golden():
    expected = x(2, 0) - x(2, 0, -1) + x(2, 1) - x(2, 1, -1)
    assert wheel_coefficients(2, 1)[1] == expected


def test_power_sum_basics():
    assert power_sum(3, 0).is_zero
    assert power_sum(1, 2) == x(1, 0, 2) - x(1, 0, -2)
    assert power_sum(2, 1) == wheel_coefficients(2, 1)[1]


def test_single_variable_newton():
    assert newton_check(1, 1)


def test_two_variable_second_newton():
    # p_2^- = 2 w_2 - w_1^2
    _, w1, w2 = wheel_coefficients(2, 2)
    assert power_sum(2, 2) == 2 * w2 - w1 * w1


def test_newton_identities_small():
    for n in range(1, 4):
        assert newton_check(n, min(6, degree_cap(n)))


def test_newton_check_matches_inverse_series_up_to_the_cap():
    for n in range(1, 5):
        reference = newton_by_inverse_series(n, degree_cap(n))
        assert all(reference)
        for K in range(degree_cap(n) + 1):
            assert newton_check(n, K) == all(reference[:K]), (n, K)


def test_newton_check_fails_on_a_perturbed_wheel(monkeypatch):
    def perturbed(monomials, one, order):
        w = wheel_series(monomials, one, order)
        if order >= 2:
            w[2] = w[2] + one
        return w

    monkeypatch.setattr(wheelpoly, "wheel_series", perturbed)
    for K in range(5):
        # k = 1 reads only w_0 and w_1, so the first failure is at k = 2
        assert newton_check(2, K) == (K < 2) == all(newton_by_inverse_series(2, K))


def test_inverse_series_convolution():
    for n in range(1, 4):
        K = min(6, degree_cap(n))
        w = wheel_coefficients(n, K)
        v = inverse_coeffs(n, K)
        for k in range(K + 1):
            conv = MultiLaurent()
            for i in range(k + 1):
                conv = conv + w[i] * v[k - i]
            expected = MultiLaurent.const(n, 1 if k == 0 else 0)
            assert conv == expected


def test_generators_are_wheel_polynomials():
    for n in range(1, 4):
        for wk in wheel_coefficients(n, min(5, degree_cap(n))):
            assert is_symmetric(wk)
            assert is_wheel(wk)


def test_non_wheel_rejected():
    # x1 + x2 is symmetric but not a wheel polynomial
    p = x(2, 0) + x(2, 1)
    assert is_symmetric(p)
    assert not is_wheel(p)
    # x1 alone is not even symmetric
    assert not is_wheel(x(2, 0))


def test_degree_cap_enforced():
    with pytest.raises(ResourceLimit):
        wheel_coefficients(2, degree_cap(2) + 1)
    with pytest.raises(ResourceLimit):
        newton_check(2, degree_cap(2) + 1)


def test_evaluate_matches_manual_substitution():
    lam = Partition((2, 1))
    for r in (GENERIC, power_regime(1, 2)):
        values = drunk_content_values(3, lam, r)
        w2 = wheel_coefficients(3, 2)[2]
        got = evaluate(w2, values)
        monos = [v.monomial() for v in values]
        from bmwcenter.scalars import LaurentQT
        acc = LaurentQT()
        for e, c in w2.terms.items():
            term = LaurentQT.const(c)
            for m, p in zip(monos, e):
                term = term * m.pow(p)
            acc = acc + term
        assert got == acc


def test_evaluate_arity_checked():
    with pytest.raises(ValueError):
        evaluate(wheel_coefficients(2, 1)[1], [])


def test_multilaurent_str():
    p = x(2, 0) - MultiLaurent.const(2, 1)
    s = str(p)
    assert "x1^1" in s and "1" in s


def test_wheel_series_is_expanded_once_per_order(monkeypatch, capsys):
    orders = []

    def counted(monomials, one, order):
        orders.append(order)
        return wheel_series(monomials, one, order)

    monkeypatch.setattr(wheelpoly, "wheel_series", counted)
    assert run(["wheel", "--n", "4", "--order", "6"]) == 0
    capsys.readouterr()
    # w_0 ... w_6 once to print, once more for the Newton check
    assert orders == [6, 6]
    # a lower order is a prefix of a higher one
    assert [wheel_coefficients(4, k)[k] for k in range(7)] == wheel_coefficients(4, 6)
    assert wheel_coefficients(4, 2) == wheel_coefficients(4, 6)[:3]
