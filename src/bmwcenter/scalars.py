"""Parameter regimes and exact scalar arithmetic.

A regime is either generic (q, t algebraically independent, q not a root of
unity) or a power specialization t = eps * q^N with q transcendental.
Root-of-unity parameters are unrepresentable by construction.

A content value is one triple (sign, x, y) meaning sign * t^x * q^y: at
t = +-q^N every value has x = 0, and generically every value has sign +1
and x = +-1, so one tuple order and one printer serve both regimes.

LaurentQT is the sparse exact Laurent polynomial, in q and t here and in
x_1 ... x_n as wheelpoly.MultiLaurent; its arithmetic shifts and adds term
dicts in place through one kernel, _add_shifted.  Coefficients are ints,
and Fractions where a quotient is not integral (see exact_ratio).
wheel_series expands prod(1 - m^-1 T) / prod(1 - m T) over monomials of
either ring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import NamedTuple


# ---------------------------------------------------------------------------
# regimes


@dataclass(frozen=True)
class Regime:
    """Generic, or t = sign * q^exponent."""

    kind: str  # "generic" | "power"
    sign: int = 0
    exponent: int = 0

    def __post_init__(self):
        if self.kind == "power" and self.sign not in (1, -1):
            raise ValueError("power regime sign must be +-1")

    @property
    def is_generic(self):
        return self.kind == "generic"

    @property
    def is_power(self):
        return self.kind == "power"

    @property
    def is_even_power(self):
        return self.is_power and self.exponent % 2 == 0

    @cached_property
    def t(self):
        """The value of t: t itself, or sign * q^exponent."""
        return ContentValue(1, 1, 0) if self.is_generic else ContentValue(
            self.sign, 0, self.exponent)

    def __str__(self):
        if self.is_generic:
            return "generic"
        return "%sq^%d" % ("-" if self.sign < 0 else "", self.exponent)


GENERIC = Regime("generic")


def power_regime(sign, exponent):
    return Regime("power", sign, exponent)


def regime_from_text(text):
    """Parse "generic" | "q^N" | "-q^N" | "1"."""
    spec = text.strip()
    if spec == "generic":
        return GENERIC
    if spec == "1":
        return power_regime(1, 0)
    m = re.fullmatch(r"(-?)q\^(-?[0-9]+)", spec)
    if m is None:
        raise ValueError("bad regime spec %r" % text)
    return power_regime(-1 if m[1] else 1, int(m[2]))


# ---------------------------------------------------------------------------
# contents and their values

ADD = 1
REMOVE = -1


class Content(NamedTuple):
    """One updown step: (t q^{2i})^s with s = +1 for add, -1 for remove."""

    s: int  # ADD or REMOVE
    i: int  # diagonal of the moved box

    def __str__(self):
        return "(%s, %d)" % ("add" if self.s == ADD else "remove", self.i)


class ContentValue(NamedTuple):
    """sign * t^x * q^y, the exact value of a content in a regime.

    x = 0 at t = +-q^N; generically sign = +1 and x = +-1.
    """

    sign: int
    x: int
    y: int

    def inverse(self):
        return ContentValue(self.sign, -self.x, -self.y)  # sign = 1 / sign

    def monomial(self):
        """The value as a LaurentQT monomial."""
        return LaurentQT({(self.y, self.x): self.sign})

    def __str__(self):
        if self.x:
            return "t^%d*q^%d" % (self.x, self.y)
        return "%sq^%d" % ("-" if self.sign < 0 else "", self.y)


def content_value(c: Content, r: Regime) -> ContentValue:
    """Value of (t q^{2i})^s in the regime.

    With t's own value (sign, x, N) that is sign^s t^(xs) q^(s(N+2i)),
    and sign^s = sign for sign = +-1.
    """
    sign, x, N = r.t
    return ContentValue(sign, c.s * x, c.s * (N + 2 * c.i))


# ---------------------------------------------------------------------------
# sparse Laurent polynomials


def exact_ratio(a, b):
    """a / b exactly: an int when b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _coefficient(v):
    """v as a coefficient: an int when integral, else a Fraction."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


# arithmetic results get their terms directly, without a pass through __init__
_new = object.__new__


def _add_shifted(dst, src, e, c):
    """dst += c * x^e * src on term dicts, in place (c != 0, dst is not src)."""
    if len(e) == 2:  # (q, t) exponents unpack faster than a tuple map
        x, y = e
        keys = [(p + x, q + y) for p, q in src]
    else:
        keys = [(*map(add, k, e),) for k in src]
    get = dst.get
    for k, v in zip(keys, src.values()):
        w = get(k, 0) + v * c
        if w:
            dst[k] = w
        else:  # c != 0, so a zero sum means k was in dst
            del dst[k]


class LaurentQT:
    """Sparse Laurent polynomial with exact coefficients.

    ``terms`` maps exponent tuples, all of one length, to nonzero
    coefficients, ints or Fractions.  Integer inputs keep every result an
    int; products of Fractions may leave an integral Fraction, which prints,
    compares and hashes as its int.  The tuples are (q, t) exponents here;
    the subclass ``wheelpoly.MultiLaurent`` uses the same arithmetic in
    x_1 ... x_n.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: _coefficient(v) for k, v in (terms or {}).items() if v}

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, qexp, texp=0, coeff=1):
        return cls({(qexp, texp): coeff})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentQT):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k)
            if w is None:
                out[k] = v
            else:
                w += v
                if w:
                    out[k] = w
                else:
                    del out[k]
        r = _new(type(self))
        r.terms = out
        return r

    def __neg__(self):
        r = _new(type(self))
        r.terms = {k: -v for k, v in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        r = _new(type(self))
        if isinstance(other, (int, Fraction)):
            other = _coefficient(other)
            r.terms = {k: v * other for k, v in self.terms.items()} if other else {}
            return r
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        r.terms = out = {}
        for e, c in b.items():  # one shift of the longer operand per term
            _add_shifted(out, a, e, c)
        return r

    __rmul__ = __mul__

    def is_monomial(self):
        return len(self.terms) == 1

    def pow(self, k):
        """The k-th power of a monomial, for any integer k."""
        (e, c), = self.terms.items()
        r = _new(type(self))
        c = c ** k if k >= 0 else exact_ratio(1, c ** -k)
        r.terms = {tuple(k * x for x in e): c}
        return r

    def __str__(self):
        """Terms in (q, t) exponent order, e.g. "- 1 + 3/4*q^2*t^-1"."""
        words = []
        for (a, b), c in sorted(self.terms.items()):
            sign, c = "-" if c < 0 else "+", abs(c)
            k = "" if c == 1 else f"{c!s}*"
            words.append(f"{sign} {k}q^{a}*t^{b}" if a and b else f"{sign} {k}q^{a}" if a
                         else f"{sign} {k}t^{b}" if b else f"{sign} {c!s}")
        text = " ".join(words) or "0"
        return text[2:] if text[0] == "+" else text

    def __repr__(self):
        return "LaurentQT(%s)" % self


# ---------------------------------------------------------------------------
# the wheel series


def wheel_series(monomials, one, order):
    """T^0 ... T^order coefficients of prod(1 - m^-1 T) / prod(1 - m T).

    The product runs over the monomials m (a multiset; repeats allowed) and
    ``one`` is the constant 1 of their ring.  Each coefficient c_k is one
    term dict, updated in place by 2 * order shifts per m: multiplying by
    1 - m^-1 T adds -m^-1 c_{k-1} to c_k from the top down (-1/coeff formed
    once per m), dividing by 1 - m T adds m c_{k-1} from the bottom up.
    """
    c = [one * 1] + [one * 0 for _ in range(order)]  # each with a fresh dict
    for m in monomials:
        (e, coeff), = m.terms.items()
        inv, neg = tuple(-x for x in e), exact_ratio(-1, coeff)
        for k in range(order, 0, -1):
            _add_shifted(c[k].terms, c[k - 1].terms, inv, neg)
        for k in range(1, order + 1):
            _add_shifted(c[k].terms, c[k - 1].terms, e, coeff)
    return c


def expand_W_series(values, order: int):
    """Coefficients of prod (1 - v^-1 T) / prod (1 - v T) up to T^order.

    ``values`` is an iterable of ContentValue (a multiset; repeats allowed).
    """
    return wheel_series([v.monomial() for v in values], LaurentQT.const(1), order)
