"""Symmetric wheel Laurent polynomials in x_1 ... x_n.

The elementary generators w_k are the T^k coefficients of
prod(1 - x_i^{-1} T) / prod(1 - x_i T), computed by truncated series
expansion, never by rational-function normalization; p_k^- = sum(x_i^k -
x_i^{-k}) are the signed power sums, which the Newton identities tie to
the w_k.
"""

from __future__ import annotations

from .errors import ResourceLimit
from .scalars import LaurentQT, wheel_series


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
        """Terms in exponent order, each variable written as x<i>^exponent."""
        names = ["x%d^" % i for i in range(1, self.n + 1)]
        words = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join([f"{x}{p}" for x, p in zip(names, e) if p])
            sign, c = "-" if c < 0 else "+", abs(c)
            words.append(f"{sign} {c!s}*{mono}" if mono and c != 1
                         else f"{sign} {mono or c!s}")
        text = " ".join(words) or "0"
        return text[2:] if text[0] == "+" else text

    def __repr__(self):
        return "MultiLaurent(n=%d, %s)" % (self.n, self)


def degree_cap(n):
    """Default cap on wheel-series orders; term counts grow quickly."""
    return 4 * n


def wheel_coefficients(n, K):
    """[w_0, ..., w_K]: the T^0 ... T^K coefficients of the wheel series."""
    if K > degree_cap(n):
        raise ResourceLimit("order %d exceeds cap %d for n=%d"
                            % (K, degree_cap(n), n))
    xs = [MultiLaurent.variable(n, i) for i in range(n)]
    return wheel_series(xs, MultiLaurent.const(n, 1), K)


def power_sum(n, k) -> MultiLaurent:
    """p_k^- = sum_i (x_i^k - x_i^{-k}); zero for k = 0."""
    return sum((MultiLaurent.variable(n, i, k) - MultiLaurent.variable(n, i, -k)
                for i in range(n)), MultiLaurent())


def newton_check(n, K) -> bool:
    """k w_k = sum_{j=1}^k p_j^- w_{k-j}, exactly, for all 1 <= k <= K.

    These are the T^k coefficients of T W'(T) = W(T) sum_k p_k^- T^k, the
    logarithmic derivative of the wheel series W; each p_j^- has 2n terms.
    """
    w = wheel_coefficients(n, K)
    p = [power_sum(n, j) for j in range(K + 1)]
    for k in range(1, K + 1):
        rhs = MultiLaurent()
        for j in range(1, k + 1):
            rhs = rhs + p[j] * w[k - j]
        if rhs != k * w[k]:
            return False
    return True


def evaluate(p: MultiLaurent, values) -> LaurentQT:
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
