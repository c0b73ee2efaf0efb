"""Symmetric wheel Laurent polynomials in x_1 ... x_n.

The elementary generators w_k are the T^k coefficients of
prod(1 - x_i^{-1} T) / prod(1 - x_i T); p_k^- = sum(x_i^k - x_i^{-k}) are
the signed power sums.  Both are computed by truncated series expansion
(numerator polynomial times geometric expansions of the denominator), never
by rational-function normalization.
"""

from __future__ import annotations

from .errors import ResourceLimit
from .scalars import LaurentQT, Regime, wheel_series


class MultiLaurent(LaurentQT):
    """LaurentQT in the variables x_1 ... x_n: exponent tuples of length n.

    ``n`` is read off the exponent tuples; the zero polynomial has n = 0
    and evaluates to 0 on any number of values.
    """

    __slots__ = ()

    @classmethod
    def const(cls, n, c):
        return cls({(0,) * n: c})

    @classmethod
    def variable(cls, n, i, power=1):
        exps = [0] * n
        exps[i] = power
        return cls({tuple(exps): 1})

    @property
    def n(self):
        return len(next(iter(self.terms), ()))

    def __str__(self):
        return self._format(["x%d" % (i + 1) for i in range(self.n)])

    def __repr__(self):
        return "MultiLaurent(n=%d, %s)" % (self.n, self)


def degree_cap(n):
    """Default cap on wheel-series orders; term counts grow quickly."""
    return 4 * n


def _check_cap(n, k):
    if k > degree_cap(n):
        raise ResourceLimit("order %d exceeds cap %d for n=%d"
                            % (k, degree_cap(n), n))


_EXPANSIONS = {}  # n -> the longest expansion w_0 ... w_K made so far


def _wheel_series(n, K):
    """w_0 ... w_K (or more) of prod(1-x_i^{-1}T)/prod(1-x_iT).

    One expansion per n is kept and made again only when a higher order
    is asked for, so lower orders read a prefix of it.
    """
    ws = _EXPANSIONS.get(n, ())
    if len(ws) <= K:
        xs = [MultiLaurent.variable(n, i) for i in range(n)]
        ws = _EXPANSIONS[n] = tuple(wheel_series(xs, MultiLaurent.const(n, 1), K))
    return ws


def wheel_coefficients(n, K):
    """[w_0, ..., w_K]: the T^0 ... T^K coefficients of the wheel series."""
    _check_cap(n, K)
    return list(_wheel_series(n, K)[:K + 1])


def power_sum(n, k) -> MultiLaurent:
    """p_k^- = sum_i (x_i^k - x_i^{-k}); zero for k = 0."""
    return sum((MultiLaurent.variable(n, i, k) - MultiLaurent.variable(n, i, -k)
                for i in range(n)), MultiLaurent())


def inverse_coeffs(n, K):
    """v_0 ... v_K with sum_i w_i v_{k-i} = delta_{k,0}.

    The reciprocal of prod(1-x_i^{-1}T)/prod(1-x_iT) is the same series
    in the inverted variables.
    """
    _check_cap(n, K)
    inverses = [MultiLaurent.variable(n, i, -1) for i in range(n)]
    return wheel_series(inverses, MultiLaurent.const(n, 1), K)


def newton_check(n, K) -> bool:
    """p_k^- = sum_{j=1}^k j w_j v_{k-j}, exactly, for all 1 <= k <= K."""
    w = _wheel_series(n, K)
    v = inverse_coeffs(n, K)
    for k in range(1, K + 1):
        rhs = MultiLaurent()
        for j in range(1, k + 1):
            rhs = rhs + j * (w[j] * v[k - j])
        if rhs != power_sum(n, k):
            return False
    return True


def evaluate(p: MultiLaurent, values, r: Regime) -> LaurentQT:
    """Exact substitution of content-value monomials for the variables."""
    if p.terms and len(values) != p.n:
        raise ValueError("expected %d values, got %d" % (p.n, len(values)))
    monos = [v.monomial() for v in values]
    out = LaurentQT()
    for e, c in p.terms.items():
        term = LaurentQT.const(c)
        for m, power in zip(monos, e):
            if power:
                term = term * m.pow(power)
        out = out + term
    return out
