"""Separation of Lambda_n by wheel signatures.

Provides the signature class decomposition (keyed by each shape's box
tally through ``signature_key``, so no signature is built), the
closed-form classification predicate for when the wheel evaluations
separate all of Lambda_n, exact evaluation matrices of the elementary
wheel family with fraction-free rank, and constructive unitriangular
separating families.  Evaluation is a ring map, so every evaluation at a
point (the ranks that fix the order K, and the choice of independent
rows) runs the W series on the content values there, mod p; the exact
matrix is built once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, prod

# signature stays importable from here, beside the key that groups by it
from .contentfn import drunk_content_values, signature, signature_key  # noqa: F401
from .errors import ResourceLimit, ZeroDenominator
from .scalars import (ContentValue, LaurentQT, Regime, _add_shifted, exact_ratio,
                      expand_W_series)
from .tableaux import enumerate_lambda


class SeparationReport:
    """Signature classes of Lambda_n in one regime."""

    __slots__ = ("n", "regime", "classes", "witnesses")

    def __init__(self, n, regime, classes, witnesses):
        self.n = n
        self.regime = regime
        self.classes = classes
        self.witnesses = witnesses

    @property
    def separates(self):
        return all(len(c) == 1 for c in self.classes)


def separation_classes(n, r: Regime) -> SeparationReport:
    """Partition Lambda_n by equality of reduced wheel signatures, read as
    ``signature_key`` off each shape's box tally."""
    groups = {}
    for lp in enumerate_lambda(n):
        groups.setdefault(signature_key(lp.shape, r), []).append(lp)
    # Lambda_n is sorted, so each class and the class order follow it
    classes = list(groups.values())
    witnesses = [pair for c in classes for pair in combinations(c, 2)]
    return SeparationReport(n, r, classes, witnesses)


def theorem1_predicate(n, r: Regime) -> bool:
    """Whether the wheel evaluations separate all of Lambda_n.

    True for the generic regime; for t = +-q^N with N even, true when
    |N| >= 2n or the algebra is semisimple; with N odd, true only for
    |N| >= 2n - 1 and for the n = 3, |N| = 1 exceptions.  Symmetric in N
    (inverting q swaps the regimes +-q^N and +-q^-N and conjugates shapes).
    """
    if r.is_generic:
        return True
    N = r.exponent
    if N % 2 == 0:
        from .blocks import is_semisimple
        return abs(N) >= 2 * n or is_semisimple(n, r)
    if abs(N) >= 2 * n - 1:
        return True
    return n == 3 and abs(N) == 1


# ---------------------------------------------------------------------------
# exact linear algebra over LaurentQT


def _shifted(p: LaurentQT):
    """Lowest (q, t) exponents of p, and the terms of p divided by them."""
    q0 = min(a for a, _ in p.terms)
    t0 = min(b for _, b in p.terms)
    return (q0, t0), {(a - q0, b - t0): c for (a, b), c in p.terms.items()}


def divexact(a: LaurentQT, b: LaurentQT):
    """Exact quotient a / b, or None when b does not divide a."""
    if a.is_zero:
        return LaurentQT()
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if b.is_monomial():
        return a * b.pow(-1)
    # normalize away the Laurent shifts, remembering the net monomial
    (qa, ta), ra = _shifted(a)
    (qb, tb), rb = _shifted(b)
    lb = max(rb)
    cb = rb[lb]
    quot = {}
    while ra:
        la = max(ra)
        da, db = la[0] - lb[0], la[1] - lb[1]
        if da < 0 or db < 0:
            return None
        coeff = exact_ratio(ra[la], cb)
        quot[(da, db)] = coeff
        _add_shifted(ra, rb, (da, db), -coeff)
    return LaurentQT({(x + qa - qb, y + ta - tb): c for (x, y), c in quot.items()})


def _eliminate(m, quotient, weight, prev=None):
    """Fraction-free forward elimination of the rows of m, in place.

    Walks the columns left to right with row swaps only.  In each column
    the pivot is the nonzero entry of least weight at or below the current
    row (the first on ties); a column without one is skipped.  Every update
    divides by the previous pivot, which Sylvester's identity makes exact
    (Bareiss 1968), so entries stay in the ring; the first step divides by
    ``prev``, or not at all when it is None.  Entries below a pivot are
    left as they were and never read again.  Returns the pivot columns.
    """
    pivots = []
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        live = [i for i in range(r, nrows) if m[i][c]]
        if not live:
            continue
        best = min(live, key=lambda i: weight(m[i][c]))
        m[r], m[best] = m[best], m[r]
        top = m[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            lead = row[c]
            for j in range(c + 1, ncols):
                v = piv * row[j] - lead * top[j]
                row[j] = v if prev is None else quotient(v, prev)
        prev = piv
        pivots.append(c)
    return pivots


class _Kronecker:
    """Kronecker substitution of a LaurentQT matrix's minors into ints.

    Row i is multiplied by u_i = d_i q^-a_i t^-b_i, with (a_i, b_i) its
    lowest exponents and d_i the lcm of its coefficient denominators, so
    every entry becomes an integer polynomial in y = q^g and z = t^h (g, h
    the gcds of the shifted exponents).  y^a z^b maps to x^(a + D b), and
    the polynomial is evaluated at x = 2^s with balanced digits in
    [-2^(s-1), 2^(s-1)).  D exceeds the y-degree, and 2^(s-1) the
    coefficients (Hadamard's bound over the torus), of every minor on at
    most k = min(rows, cols) rows; so every Bareiss entry, a minor of the
    scaled matrix, packs to an int that unpacks to it.  Substitution is a
    ring homomorphism, so the products and differences in between are
    exact whatever their size.
    """

    def __init__(self, matrix):
        self.scales = []  # (a_i, b_i, d_i) per row
        spans = []  # per entry of u_i p: (q span, t span, l1 norm)
        g = h = 0
        for row in matrix:
            exps = [e for p in row for e in p.terms] or [(0, 0)]
            a = min(e for e, _ in exps)
            b = min(f for _, f in exps)
            d = lcm(*(c.denominator for p in row for c in p.terms.values()))
            g = gcd(g, *(e - a for e, _ in exps))
            h = gcd(h, *(f - b for _, f in exps))
            self.scales.append((a, b, d))
            spans.append([(max(e for e, _ in p.terms) - a, max(f for _, f in p.terms) - b,
                           int(sum(abs(c) for c in p.terms.values()) * d))
                          if p else (0, 0, 0) for p in row])
        g, h = g or 1, h or 1
        self.g, self.h = g, h
        k = min(len(matrix), len(matrix[0]) if matrix else 0)

        def top(values):
            return sorted(values, reverse=True)[:k]

        # a minor on at most k rows is bounded through its rows and,
        # transposed, through its columns; each bound takes the k largest
        lines = (spans, list(zip(*spans)))
        ydeg = min(sum(top(max((x[0] for x in line), default=0) // g for line in ls))
                   for ls in lines)
        zdeg = min(sum(top(max((x[1] for x in line), default=0) // h for line in ls))
                   for ls in lines)
        norm2 = min(prod(top(max(sum(x[2] ** 2 for x in line), 1) for line in ls))
                    for ls in lines)
        self.D = ydeg + 1
        slots = ydeg + self.D * zdeg + 1
        self.s = s = (isqrt(norm2) + 1).bit_length() + 1
        ones = ((1 << s * slots) - 1) // ((1 << s) - 1)
        self.high = ones << (s - 1)  # 2^(s-1) in every slot
        self.low = self.high - ones  # 2^(s-1) - 1 in every slot
        self.slots = slots

    def pack(self, p, i):
        """The int image of u_i p."""
        a, b, d = self.scales[i]
        g, h, D, s = self.g, self.h, self.D, self.s
        return sum(int(c * d) << s * ((e - a) // g + D * ((f - b) // h))
                   for (e, f), c in p.terms.items())

    def terms(self, x):
        """Number of terms of the polynomial packed in x."""
        y = (x + self.high) ^ self.high  # nonzero digit <-> nonzero slot
        return ((((y & self.low) + self.low) | y) & self.high).bit_count()

    def unpack(self, x, rows):
        """The LaurentQT packed in x, divided by the u_i of the given rows."""
        a = sum(self.scales[i][0] for i in rows)
        b = sum(self.scales[i][1] for i in rows)
        d = prod(self.scales[i][2] for i in rows)
        s = self.s
        width = s * min(self.slots, abs(x).bit_length() // s + 2)  # zeros above
        bits = format(x + self.high & (1 << width) - 1, "b").rjust(width, "0")
        zero = "1" + "0" * (s - 1)
        terms = {}
        for k in range(width // s):
            digit = bits[width - s * (k + 1):width - s * k]
            if digit != zero:
                y, z = k % self.D, k // self.D
                terms[(a + self.g * y, b + self.h * z)] = exact_ratio(
                    int(digit, 2) - (1 << s - 1), d)
        return LaurentQT(terms)


class _ExactQuotient:
    """a / b for integers b must divide, by a 2-adic inverse of b.

    Bareiss divides every entry of a step by the same pivot, so the odd
    part of b is inverted once per pivot, mod 2^L by Newton lifting (L
    doubled as the quotients grow).  A quotient is then the product of
    a's low bits with that inverse, and one more product checks it
    exactly, where long division would take quadratic time.
    """

    def __init__(self):
        self.b = None

    def __call__(self, a, b):
        if b is not self.b:
            self.b = b
            self.shift = (b & -b).bit_length() - 1
            self.odd = b >> self.shift
            self.inv, self.bits = 1, 1  # odd * inv = 1 mod 2^bits
        n = max(a.bit_length() - b.bit_length() + 2, 1)  # |a / b| < 2^(n-1)
        while self.bits < n:
            self.bits *= 2
            self.inv = self.inv * (2 - self.odd * self.inv) & ((1 << self.bits) - 1)
        mask = (1 << n) - 1
        q = ((a >> self.shift) & mask) * (self.inv & mask) & mask
        if q >> (n - 1):
            q -= 1 << n
        if q * b != a:
            raise ZeroDenominator("Bareiss step: inexact quotient")
        return q


def _packed_elimination(matrix):
    """_eliminate over the Kronecker images of matrix's rows.

    Returns the pivot columns, the packing, the packed rows in their final
    order and, for each, the index of the matrix row it came from.  Row i
    of the result, at and after its pivot, carries the scale factors u of
    rows 0 ... i.
    """
    codec = _Kronecker(matrix)
    rows = [[codec.pack(p, i) for p in row] for i, row in enumerate(matrix)]
    origin = {id(row): i for i, row in enumerate(rows)}
    pivots = _eliminate(rows, _ExactQuotient(), codec.terms)
    return pivots, codec, rows, [origin[id(row)] for row in rows]


def bareiss_rank(matrix):
    """Rank of a LaurentQT matrix by fraction-free elimination."""
    return len(_packed_elimination(matrix)[0])


# evaluation points for the specialized computations, tried in this order
_POINTS = ((Fraction(17, 5), Fraction(23, 7)),
           (Fraction(29, 11), Fraction(31, 13)),
           (Fraction(41, 3), Fraction(43, 19)))
_P = (1 << 61) - 1  # the Mersenne prime of the rank probe


def _rank_mod_p(rows):  # reduced at every step, so no multiple of _P pivots
    return len(_eliminate(rows, lambda v, _: v % _P, abs, 1))


def matrix_rank(matrix, probe):
    """Exact rank over the fraction field of LaurentQT.

    ``probe`` is a lower bound on it, such as a rank at a point: one that
    reaches the column count certifies full column rank; otherwise fall
    back to exact elimination.
    """
    ncols = len(matrix[0]) if matrix else 0
    if probe == ncols:
        return ncols
    return bareiss_rank(matrix)


# ---------------------------------------------------------------------------
# evaluation matrices and separating families


def matrix_row_labels(K):
    """(j, k) labels meaning e_n^j * w_k, in row order."""
    return [(j, k) for j in (0, 1, -1) for k in range(K + 1)]


def _product(values):
    """e_n, the product of the content values, as a ContentValue."""
    sign, x, y = 1, 0, 0
    for s, i, j in values:
        sign, x, y = sign * s, x + i, y + j
    return ContentValue(sign, x, y)


def _build_matrix(values, K):
    # linear combinations of w_k alone can be rank deficient (first at
    # n = 5), so rows also cover the products e_n^{+-1} w_k
    columns = []
    for vs in values:
        w = expand_W_series(vs, K)
        e = _product(vs)
        up, down = e.monomial(), e.inverse().monomial()
        columns.append(w + [up * c for c in w] + [down * c for c in w])
    return [[col[k] for col in columns] for k in range(3 * (K + 1))]


def _point_rows(values, K, point=_POINTS[0]):
    """The rows of _build_matrix(values, K) at q, t = point, mod _P.

    Evaluation is a ring map, so the W series and e_n^{+-1} are formed on the
    values at the point as on their monomials.
    """
    q, t = (x.numerator * pow(x.denominator, -1, _P) % _P for x in point)

    def at(sign, x, y):  # sign * t^x * q^y at the point
        return sign * pow(t, x, _P) * pow(q, y, _P) % _P

    steps = {}  # per value m, the recurrence's m and -1/m
    for v in {v for vs in values for v in vs}:
        m = at(*v)
        steps[v] = m, -pow(m, -1, _P)
    columns = []
    for vs in values:
        w = [1] + [0] * K
        for v in vs:  # times (1 - m^-1 T), then over (1 - m T)
            up, down = steps[v]
            for k in range(K, 0, -1):
                w[k] = (w[k] + down * w[k - 1]) % _P
            for k in range(1, K + 1):
                w[k] = (w[k] + up * w[k - 1]) % _P
        e = at(*_product(vs))
        inv = pow(e, -1, _P)
        columns.append(w + [e * x % _P for x in w] + [inv * x % _P for x in w])
    return [list(row) for row in zip(*columns)]


def adaptive_matrix(n, r: Regime, shapes=None, order=None):
    """Evaluations of e_n^j * w_k (j = 0, 1, -1; k <= K) over the shapes.

    Rows follow matrix_row_labels(K); the w_k values are read off as T^k
    coefficients of the expanded W series and e_n is the product of the
    drunk contents.  ``shapes`` defaults to Lambda_n.  K is ``order`` when
    given; otherwise K grows until the rank at the first evaluation point,
    mod p, stabilizes or hits the column count.  Each shape's content
    values are derived once, and every rank at the point comes from them.
    The exact matrix is built once, at the final K, and its rank computed
    once, with the rank mod p as the lower bound.  Returns (matrix, rank, K).
    """
    if shapes is None:
        shapes = enumerate_lambda(n)
    return _order_search(n, [drunk_content_values(n, lp.shape, r) for lp in shapes],
                         order)


def _order_search(n, values, order):
    """adaptive_matrix on the content values of its shapes."""
    cap = 4 * len(enumerate_lambda(n))
    K = max(n, 1) if order is None else order
    if K > cap:
        raise ResourceLimit("order %d exceeds cap %d at level %d" % (K, cap, n))
    prev_probe = -1
    while True:
        probe = _rank_mod_p(_point_rows(values, K))  # fixes K, which is printed
        if (order is not None or probe == len(values) or probe == prev_probe
                or K >= cap):
            matrix = _build_matrix(values, K)
            return matrix, matrix_rank(matrix, probe), K
        prev_probe = probe
        K = min(2 * K, cap)


class LaurentFrac:
    """A separating-family coefficient num / den, as it is printed.

    The quotient is exact when den divides num; otherwise both parts are
    scaled so that den's leading coefficient is 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        q = divexact(num, den)
        if q is not None:
            num, den = q, LaurentQT.const(1)
        else:
            c = den.terms[max(den.terms)]
            num, den = (LaurentQT({e: exact_ratio(v, c) for e, v in p.terms.items()})
                        for p in (num, den))
        self.num = num
        self.den = den

    @property
    def is_zero(self):
        return self.num.is_zero

    def __str__(self):
        if self.den == LaurentQT.const(1):
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)


def separating_family(n, r: Regime):
    """Unitriangular combinations of the wheel family separating classes.

    Returns (representatives, coefficient vectors, K).  Combination i
    evaluates to 1 on representative i and to 0 on all earlier ones; the
    coefficient vectors follow matrix_row_labels(K).
    """
    report = separation_classes(n, r)
    reps = [c[0] for c in report.classes]
    values = [drunk_content_values(n, lp.shape, r) for lp in reps]
    matrix, rank, K = _order_search(n, values, None)
    if rank < len(reps):
        raise ResourceLimit("rank %d below %d classes at cap order" % (rank, len(reps)))
    rows = _independent_rows(lambda point: _point_rows(values, K, point), len(reps))
    m = len(reps)
    # fraction-free forward elimination on [A | I]; fractions appear only
    # in the final scaling by the row pivot
    aug = [[matrix[rows[i]][j] for j in range(m)]
           + [LaurentQT.const(1 if i == k else 0) for k in range(m)]
           for i in range(m)]
    pivots, codec, packed, origin = _packed_elimination(aug)
    if pivots != list(range(m)):
        raise ZeroDenominator("selected rows are not independent")
    zero = LaurentFrac(LaurentQT(), LaurentQT.const(1))
    family = []
    for i in range(m):
        scaled = origin[:i + 1]
        den = codec.unpack(packed[i][i], scaled)
        full = [zero] * len(matrix)
        for k in range(m):
            full[rows[k]] = LaurentFrac(codec.unpack(packed[i][m + k], scaled), den)
        family.append(full)
    return reps, family, K


def _independent_rows(rows_at, m):
    """Indices of the first m independent rows of a matrix.

    ``rows_at(point)`` gives the matrix's rows at q, t = point mod _P,
    each row scaled by a constant that is nonzero mod _P.  These are the
    lexicographically first basis, selected at the evaluation points tried
    in turn; a specialized submatrix invertible mod _P is invertible over Q,
    and so certifies symbolic invertibility.
    """
    for point in _POINTS:
        cols = [list(col) for col in zip(*rows_at(point))]
        chosen = _eliminate(cols, lambda v, _: v % _P, abs, 1)
        if len(chosen) >= m:
            return chosen[:m]
    raise ResourceLimit("specialization failed to certify %d rows" % m)
