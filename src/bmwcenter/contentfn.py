"""Content multisets of drunk paths and reduced wheel signatures.

W(lambda, t) = prod(1 - c^-1 T) / prod(1 - c T) over the drunk content
multiset.  We store only the reduced exponent function e(v), where e(v) is
the net exponent of (1 - vT) in the numerator; equal inverse pairs and
self-inverse values cancel, which is exactly rational-function reduction
because q is never a root of unity.  The defect's f contents t and t^-1
are such a pair, so ``signature`` reads e straight off the boxes of lambda:
each box on diagonal d, of value v = t q^2d, adds -1 at v and +1 at v^-1
unless v is self-inverse.  The tests hold it against the reduction of the
full value multiset (``reduce_values`` in tests/oracles.py).  Grouping
shapes needs only equality of signatures, so ``signature_key`` reads a
key of plain integer pairs off the same box tally, with no
``ContentValue`` or ``WheelSignature`` built.
"""

from __future__ import annotations

from collections import Counter

from .errors import RegimeMismatch
from .partitions import Partition, diagonal_datum
from .scalars import (ADD, Content, ContentValue, Regime, content_value,
                      expand_W_series)
from .tableaux import labeled
from .wheelpoly import evaluate


class WheelSignature:
    """Reduced exponent function of a wheel rational function.

    ``exponents`` maps ContentValue v to the net numerator exponent of the
    factor (1 - vT); it holds no zero entries and no self-inverse values,
    so e(v^-1) = -e(v) always.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        self.exponents = exponents

    @property
    def is_trivial(self):
        return not self.exponents

    def __eq__(self, other):
        return isinstance(other, WheelSignature) and self.exponents == other.exponents

    def __hash__(self):
        return hash(frozenset(self.exponents.items()))

    def sorted_entries(self):
        return sorted(self.exponents.items())

    def __str__(self):
        if self.is_trivial:
            return "1"
        num, den = [], []
        for v, e in self.sorted_entries():
            factor = "(1-%sT)" % (v,)
            if abs(e) > 1:
                factor += "^%d" % abs(e)
            (num if e > 0 else den).append(factor)
        top = "".join(num) or "1"
        if not den:
            return top
        return "%s/%s" % (top, "".join(den))

    def __repr__(self):
        return "WheelSignature(%s)" % self


def drunk_contents(n, lam: Partition):
    """Content multiset of the drunk path, in closed form.

    t appears with multiplicity f + m(0), t^-1 with multiplicity f, and
    t q^{2i} with multiplicity m(i) for each other diagonal of lam.
    """
    lp = labeled(n, lam)
    dd = diagonal_datum(lam)
    out = Counter()
    out[Content(ADD, 0)] = lp.defect + dd[0]
    out[Content(-ADD, 0)] = lp.defect
    for i in sorted(dd):
        if i != 0:
            out[Content(ADD, i)] = dd[i]
    return +out


def drunk_content_values(n, lam: Partition, r: Regime):
    """The drunk multiset as a flat list of regime values."""
    out = []
    for c, m in sorted(drunk_contents(n, lam).items()):
        out.extend([content_value(c, r)] * m)
    return out


def _box_tally(lam: Partition, N):
    """Boxes of lam tallied by k = N + 2d, d the diagonal: row i (from 0)
    of length a covers k = N - 2i, ..., N + 2(a - i - 1) in steps of 2."""
    tally = {}
    get = tally.get
    for i, a in enumerate(lam):
        for k in range(N - 2 * i, N + 2 * (a - i), 2):
            tally[k] = get(k, 0) + 1
    return tally


def signature(n, lam: Partition, r: Regime) -> WheelSignature:
    """Reduced signature of W(lam, t) at level n, from the box tally.

    With t = (sign, x, N) a box on diagonal d has value t q^2d, that is
    (sign, x, k) with k = N + 2d.  Its inverse is (sign, -x, -k), which is
    a box value only when x = 0 (t = +-q^N) and -k is tallied, and is the
    value itself when k = 0 there.
    """
    labeled(n, lam)  # validates the (shape, level) pair
    sign, x, N = r.t
    tally = _box_tally(lam, N)
    exps = {}
    for k, m in tally.items():
        e = (0 if x else tally.get(-k, 0)) - m
        if e:
            exps[ContentValue(sign, x, k)] = e
            exps[ContentValue(sign, -x, -k)] = -e
    return WheelSignature(exps)


def signature_key(lam: Partition, r: Regime):
    """Plain-integer key of lam's signature in regime r, unvalidated: two
    shapes share a key exactly when they share a signature.

    Generically (x != 0) no box value is the inverse of another, so the
    signature is the tally itself.  At t = +-q^N, e(k) = tally(-k) -
    tally(k) is odd in k, so the pairs (|k|, e(|k|)) with e != 0 fix it;
    a k tallied together with -k yields its pair twice, hence the set.
    """
    _, x, N = r.t
    tally = _box_tally(lam, N)
    if x:
        return tuple(sorted(tally.items()))
    get = tally.get
    return tuple(sorted({(k, get(-k, 0) - m) if k > 0 else (-k, m - get(-k, 0))
                     for k, m in tally.items() if m != get(-k, 0)}))


def pairing_set(n, lam: Partition, r: Regime):
    """Mate map of the diagonals i of lam admitting j with c(i) c(j) = 1.

    At t = eps q^N, c(i) c(j) = q^(2N + 2i + 2j), so the only mate of
    diagonal i is -N - i (a self-paired diagonal is its own mate).
    """
    if not r.is_even_power:
        raise RegimeMismatch("pairing needs an even-power regime, got %s" % r)
    labeled(n, lam)
    dd = diagonal_datum(lam)
    return {i: -r.exponent - i for i in dd if -r.exponent - i in dd}


def series_consistency(n, lam: Partition, r: Regime, wheels) -> bool:
    """The W-series coefficients agree with direct wheel evaluations.

    Coefficient of T^k in the expanded W series must equal w_k evaluated on
    the drunk content multiset, for every w_k in ``wheels``, the list
    ``wheel_coefficients(n, K)``.
    """
    values = drunk_content_values(n, lam, r)
    series = expand_W_series(values, len(wheels) - 1)
    return all(c == evaluate(w, values) for c, w in zip(series, wheels))


def signature_json(sig: WheelSignature):
    return [{"value": str(v), "exponent": e} for v, e in sig.sorted_entries()]
