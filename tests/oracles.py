"""Reference checks of the paper's properties, kept beside the tests.

Nothing in ``bmwcenter`` calls these: they are slow, direct restatements
of definitions (partitions by recursion on the first part, box geometry,
dominance, the Rui-Si order, wheel membership, the Newton identities
through the inverse series, the reduction of a content-value multiset to
its signature, multiplicativity of W, signature classes grouped by the
signatures themselves, the separation condition on the branching graph,
block classification over every pair of Lambda_n, the idempotents'
interpolation product and their orthogonality, LaurentQT matrices at a
point, as integers or mod p, and the order search of evaluation matrices
on exact rows) that the tests hold the library's fast paths against.
"""

import operator
from collections import Counter
from itertools import combinations
from math import lcm

from bmwcenter import center
from bmwcenter.blocks import BlockReport, block_equivalent
from bmwcenter.center import _POINTS, _P, _eliminate, _rank_mod_p, separation_classes
from bmwcenter.contentfn import WheelSignature, drunk_content_values, signature
from bmwcenter.idempotents import spectral_idempotent
from bmwcenter.partitions import EMPTY, Partition, skew_datum
from bmwcenter.scalars import (ADD, GENERIC, Content, ContentValue, LaurentQT,
                               content_value, wheel_series)
from bmwcenter.tableaux import (UpDownTableau, children, content_sequence, drunk_path,
                                edge_content, enumerate_lambda, enumerate_paths)
from bmwcenter.wheelpoly import MultiLaurent, power_sum, wheel_coefficients

# ---------------------------------------------------------------------------
# Young-diagram geometry


def partitions_desc(m, cap=None, acc=()):
    """Partitions of m into parts at most cap, lexicographically descending:
    every first part, largest first, then the partitions of the rest."""
    cap = m if cap is None else cap
    if m == 0:
        yield acc
    for first in range(min(m, cap), 0, -1):
        yield from partitions_desc(m - first, first, acc + (first,))


def row(lam, i):
    """Length of 1-based row i of lam (0 beyond the last row)."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def conjugate(lam):
    """Transpose of the Young diagram."""
    if not lam:
        return EMPTY
    return Partition(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def partition_of_diagonals(counts):
    """The unique partition whose diagonal tally is counts."""
    rows = Counter()
    for i, m in counts.items():
        # diagonal i starts at (1, 1+i) for i >= 0 and (1-i, 1) otherwise
        r0 = 1 if i >= 0 else 1 - i
        rows.update(range(r0, r0 + m))
    return Partition(rows[r] for r in range(1, len(rows) + 1))


def boundary_boxes(lam):
    """Removable and addable box positions (i, j) of lam.

    Removing a removable box leaves a partition, adding an addable box
    yields one; there is always exactly one more addable than removable.
    """
    removable = set()
    addable = {(len(lam) + 1, 1)}
    for i in range(1, len(lam) + 1):
        p = row(lam, i)
        if p > row(lam, i + 1):
            removable.add((i, p))
        if i == 1 or p < row(lam, i - 1):
            addable.add((i, p + 1))
    return removable, addable


def with_box_added(lam, i, j):
    rows = [row(lam, k) for k in range(1, max(len(lam), i) + 1)]
    rows[i - 1] += 1
    assert rows[i - 1] == j
    return Partition(rows)


def with_box_removed(lam, i, j):
    rows = list(lam)
    rows[i - 1] -= 1
    assert rows[i - 1] == j - 1
    return Partition(rows)


def children_by_boxes(lam):
    """The branching step from box positions: added boxes, then removed
    ones, each in box order."""
    removable, addable = boundary_boxes(lam)
    return ([with_box_added(lam, i, j) for (i, j) in sorted(addable)]
            + [with_box_removed(lam, i, j) for (i, j) in sorted(removable)])


EQUAL = "equal"
DOMINATES = "dominates"
DOMINATED = "dominated"
INCOMPARABLE = "incomparable"


def dominance(lam, mu):
    """Dominance comparison of two partitions of the same size."""
    if lam.size != mu.size:
        raise ValueError("|%s| != |%s|" % (lam, mu))
    if lam == mu:
        return EQUAL
    ge = le = True
    sl = sm = 0
    for k in range(1, max(len(lam), len(mu)) + 1):
        sl += row(lam, k)
        sm += row(mu, k)
        if sl < sm:
            ge = False
        if sl > sm:
            le = False
    if ge:
        return DOMINATES
    if le:
        return DOMINATED
    return INCOMPARABLE


def ruisi_greater(s, t):
    """Rui-Si order: s > t if at the last level where they differ, s's shape
    is strictly above t's (smaller size means larger defect, which wins;
    equal sizes compare by dominance)."""
    if len(s) != len(t) or s[-1] != t[-1]:
        return False
    for k in range(len(s) - 2, -1, -1):
        a, b = s[k], t[k]
        if a == b:
            continue
        if a.size != b.size:
            return a.size < b.size
        return dominance(a, b) == DOMINATES
    return False


def truncated(path, k):
    """The path (T_0, ..., T_k) cut from path, without re-validation."""
    return UpDownTableau._trusted(path[:k + 1])


# ---------------------------------------------------------------------------
# content values and wheel signatures


def value_product(v, w):
    """v * w in the value group: signs multiply, exponents add."""
    return ContentValue(v.sign * w.sign, v.x + w.x, v.y + w.y)


def is_one(v):
    """Whether v is the identity value."""
    return v == (1, 0, 0)


def power_sig(entries):
    """The power-regime signature with exponent e at value q^y, for {y: e}."""
    return WheelSignature({ContentValue(1, 0, y): e for y, e in entries.items()})


def _nonzero(exps):
    return WheelSignature({v: e for v, e in exps.items() if e})


def reduce_values(values) -> WheelSignature:
    """Signature of prod(1 - v^-1 T)/prod(1 - v T) over a value multiset:
    each value cancels against its inverse, and self-inverse ones drop."""
    exps = Counter()
    for v, m in Counter(values).items():
        inv = v.inverse()
        if v != inv:
            exps[v] -= m
            exps[inv] += m
    return _nonzero(exps)


def merge(a, b):
    """Signature of the product of the two rational functions."""
    out = Counter(a.exponents)
    out.update(b.exponents)
    return _nonzero(out)


def skew_signature(lam, mu, r):
    """Signature of W(lam/mu, t): contents (Add, i) with skew multiplicities."""
    values = []
    for i, m in sorted(skew_datum(lam, mu).items()):
        values.extend([content_value(Content(ADD, i), r)] * m)
    return reduce_values(values)


def multiplicativity_check(lam, mu, r):
    """W(lam,t) = W(mu,t) * W(lam/mu,t) at the reduced level."""
    lhs = signature(lam.size, lam, r)
    rhs = merge(signature(mu.size, mu, r), skew_signature(lam, mu, r))
    return lhs == rhs


def oracle_separation_classes(n, r):
    """``separation_classes`` grouping Lambda_n by each shape's
    ``WheelSignature`` itself, in Lambda_n's order."""
    groups = {}
    for lp in enumerate_lambda(n):
        groups.setdefault(signature(n, lp.shape, r), []).append(lp)
    return list(groups.values())


def separated(n, r):
    """The Okounkov-Vershik separation condition at level n (Mathas 2008):
    no two distinct updown paths of length n have equal content-value
    sequences.

    A pair DP over the branching graph: two such paths split at one shape
    into two children on edges of equal value and then step on equal
    values, so pairs of shapes are seeded by the first and advanced in
    lockstep by the second; the paths may meet again later.
    """
    steps = {}

    def out(shape):
        if shape not in steps:
            steps[shape] = [(content_value(edge_content(shape, c), r), c)
                            for c in children(shape)]
        return steps[shape]

    level, pairs = {EMPTY}, set()
    for _ in range(n):
        pairs = {(c, d) for a, b in pairs for v, c in out(a) for w, d in out(b)
                 if v == w}
        pairs |= {(c, d) for shape in level
                  for (v, c), (w, d) in combinations(out(shape), 2) if v == w}
        level = {c for shape in level for _, c in out(shape)}
    return not pairs


# ---------------------------------------------------------------------------
# blocks


def oracle_block_partition(n, r):
    """``block_partition`` testing every pair of Lambda_n, not only the
    pairs inside a signature class."""
    lps = enumerate_lambda(n)
    parent = list(range(len(lps)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    direct = set()
    for i, j in combinations(range(len(lps)), 2):
        if block_equivalent(lps[i], lps[j], r):
            direct.add((i, j))
            parent[find(i)] = find(j)
    groups = {}
    for i in range(len(lps)):
        groups.setdefault(find(i), []).append(i)
    closure = sorted(p for g in groups.values() for p in combinations(g, 2)
                     if p not in direct)
    blocks = [[lps[i] for i in g] for g in groups.values()]
    agrees = ({frozenset(c) for c in blocks}
              == {frozenset(c) for c in separation_classes(n, r).classes})
    return BlockReport(n, r, blocks, agrees, [(lps[i], lps[j]) for i, j in closure])


# ---------------------------------------------------------------------------
# wheel Laurent polynomials


def map_exponents(p, f):
    """p with each exponent tuple e replaced by f(e), like terms summed."""
    out = Counter()
    for e, c in p.terms.items():
        out[f(e)] += c
    return type(p)(out)


def is_symmetric(p):
    """Invariance under all adjacent transpositions."""
    return all(map_exponents(p, lambda e: e[:i] + (e[i + 1], e[i]) + e[i + 2:]) == p
               for i in range(p.n - 1))


def is_wheel(p):
    """Symmetric and p(x1, x1^{-1}, x3, ...) = p(1, 1, x3, ...)."""
    if not is_symmetric(p):
        return False
    if p.n < 2:
        return True
    lhs = map_exponents(p, lambda e: (e[0] - e[1], 0) + e[2:])
    rhs = map_exponents(p, lambda e: (0, 0) + e[2:])
    return lhs == rhs


def inverse_coeffs(n, K):
    """v_0 ... v_K with sum_i w_i v_{k-i} = delta_{k,0}.

    The reciprocal of prod(1-x_i^{-1}T)/prod(1-x_iT) is the same series
    in the inverted variables.
    """
    inverses = [MultiLaurent.variable(n, i, -1) for i in range(n)]
    return wheel_series(inverses, MultiLaurent.const(n, 1), K)


def newton_by_inverse_series(n, K):
    """Whether p_k^- = sum_{j=1}^k j w_j v_{k-j}, for k = 1 ... K in turn.

    The Newton identities through the inverse series, one dense product per
    term: newton_check(n, K) must equal all of the first K entries.
    """
    w = wheel_coefficients(n, K)
    v = inverse_coeffs(n, K)
    out = []
    for k in range(1, K + 1):
        rhs = MultiLaurent()
        for j in range(1, k + 1):
            rhs = rhs + j * (w[j] * v[k - j])
        out.append(rhs == power_sum(n, k))
    return out


# ---------------------------------------------------------------------------
# idempotents


def extension_contents(mu, r=GENERIC):
    """Distinct content values labeling branching edges out of mu."""
    return {content_value(edge_content(mu, m), r) for m in children(mu)}


def oracle_values(n, lam):
    """The interpolation product of e_{lam,n} evaluated on every path.

    At level k the nodes are the contents out of the drunk path's shape
    at level k - 1, less the drunk path's own k-th content (the target).
    """
    drunk = drunk_path(n, lam)
    drunk_values = [content_value(c, GENERIC) for c in content_sequence(drunk)]
    levels = []
    for k in range(1, n + 1):
        target = drunk_values[k - 1]
        levels.append((target, sorted(extension_contents(drunk[k - 1]) - {target})))
    values = {}
    for lp in enumerate_lambda(n):
        for path in enumerate_paths(n, lp.shape):
            xs = [content_value(c, GENERIC) for c in content_sequence(path)]
            num = den = LaurentQT.const(1)
            value = 1
            for (target, nodes), x in zip(levels, xs):
                if x in nodes:
                    value = 0
                    break
                for c in nodes:
                    num = num * (x.monomial() - c.monomial())
                    den = den * (target.monomial() - c.monomial())
            assert value == 0 or num == den, path
            values[path] = value
    return values


def orthogonality_check(n):
    """Each diagonal selects one path and distinct diagonals never overlap."""
    diagonals = [spectral_idempotent(n, lp.shape) for lp in enumerate_lambda(n)]
    drunk_set = set()
    for d in diagonals:
        sel = d.selected()
        if len(sel) != 1 or sel[0] != drunk_path(n, d.shape):
            return False
        drunk_set.add(sel[0])
    for a in range(len(diagonals)):
        for b in range(a + 1, len(diagonals)):
            for path, va in diagonals[a].values.items():
                if va and diagonals[b].values.get(path):
                    return False
    # the pointwise sum over all diagonals, a path absent from a diagonal
    # counting 0, is the drunk-path indicator on every path of the level
    for path in (p for lp in enumerate_lambda(n) for p in enumerate_paths(n, lp.shape)):
        total = sum(d.values.get(path, 0) for d in diagonals)
        if total != (1 if path in drunk_set else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# ranks, printing and products


def specialize(matrix, point=_POINTS[0]):
    """Rows of a LaurentQT matrix at q, t = point, each scaled to integers.

    With q = a/b and t = c/d, a row whose q and t exponents lie in [q0, q1]
    and [t0, t1] is scaled by a^-q0 b^q1 c^-t0 d^t1 and by the lcm D of its
    coefficient denominators, so the term x q^i t^j becomes the integer
    x D a^(i-q0) b^(q1-i) c^(j-t0) d^(t1-j).
    """
    (a, b), (c, d) = ((v.numerator, v.denominator) for v in point)
    rows = []
    for row in matrix:
        qs = {i for p in row for i, _ in p.terms} or {0}
        ts = {j for p in row for _, j in p.terms} or {0}
        q0, q1, t0, t1 = min(qs), max(qs), min(ts), max(ts)
        qpow = {i: a ** (i - q0) * b ** (q1 - i) for i in qs}
        tpow = {j: c ** (j - t0) * d ** (t1 - j) for j in ts}
        scale = lcm(*(x.denominator for p in row for x in p.terms.values()))
        rows.append([sum(x.numerator * (scale // x.denominator) * qpow[i] * tpow[j]
                         for (i, j), x in p.terms.items()) for p in row])
    return rows


def modular_rank(matrix):
    """Rank of a LaurentQT matrix at the first evaluation point, mod p.

    Every minor of the reduced matrix reduces a minor at the point, so this
    is a lower bound on the rank there (0 when a denominator vanishes mod p).
    """
    q, t = (v.numerator * pow(v.denominator, -1, _P) % _P for v in _POINTS[0])
    power = {(i, j): pow(q, i, _P) * pow(t, j, _P) % _P
             for i, j in {e for row in matrix for p in row for e in p.terms}}
    try:  # each value is an int, or a Fraction where a coefficient is one
        rows = [[(v := sum(c * power[e] for e, c in p.terms.items())).numerator
                 * pow(v.denominator, -1, _P) % _P for p in row] for row in matrix]
    except ValueError:
        return 0
    return _rank_mod_p(rows)


def exact_probe(matrix):
    """The rank at the first evaluation point as it was computed before the
    rank mod p: the integer rows, eliminated exactly."""
    return len(_eliminate(specialize(matrix), operator.floordiv, abs))


def probe(matrix):
    """The rank at the first evaluation point as it was certified on the
    exact matrix: the rank mod p where it reaches the distinct columns
    (equal columns add nothing to a rank), else the exact probe."""
    bound = modular_rank(matrix)
    return bound if bound == len(set(zip(*matrix))) else exact_probe(matrix)


def adaptive_loop(n, r, shapes=None, order=None):
    """The final (matrix, probe, K) of center.adaptive_matrix as it was
    found before the probe came from content values: the exact matrix is
    built at every K and probed mod p, and exactly only below full rank.
    adaptive_matrix returns (matrix, matrix_rank(matrix, probe), K)."""
    level = enumerate_lambda(n)
    cap = 4 * len(level)
    shapes = level if shapes is None else shapes
    values = [drunk_content_values(n, lp.shape, r) for lp in shapes]
    K = max(n, 1) if order is None else order
    prev_probe = -1
    while True:
        matrix = center._build_matrix(values, K)
        rank = modular_rank(matrix)
        if (rank < len(shapes) and order is None and K < cap
                and rank < len(set(zip(*matrix)))):
            rank = exact_probe(matrix)
        if (order is not None or rank == len(shapes) or rank == prev_probe
                or K >= cap):
            return matrix, rank, K
        prev_probe = rank
        K = min(2 * K, cap)


def format_oracle(p, names):
    """The term-by-term printer that LaurentQT.__str__ and
    MultiLaurent.__str__ replaced."""
    if not p.terms:
        return "0"
    bits = []
    for e, c in sorted(p.terms.items()):
        mono = ["%s^%d" % (x, k) for x, k in zip(names, e) if k]
        if not mono or abs(c) != 1:
            mono.insert(0, str(abs(c)))
        s = "*".join(mono)
        bits.append(("- " if c < 0 else "+ " if bits else "") + s)
    return " ".join(bits).lstrip("+ ")


def dense_product(a, b):
    """a * b by collecting every pair of terms, of a's type."""
    out = Counter()
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out[tuple(x + y for x, y in zip(e1, e2))] += c1 * c2
    return type(a)(out)
