"""Separation classes, exact rank computations and separating families."""

import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from bmwcenter import center
from bmwcenter.center import (LaurentFrac, adaptive_matrix, bareiss_rank,
                              divexact, matrix_rank,
                              matrix_row_labels, separating_family,
                              separation_classes, theorem1_predicate)
from bmwcenter.errors import ResourceLimit, ZeroDenominator
from bmwcenter.blocks import is_semisimple
from bmwcenter.contentfn import drunk_content_values, signature
from bmwcenter.scalars import GENERIC, LaurentQT, content_value, power_regime
from bmwcenter.tableaux import content_sequence, enumerate_lambda, enumerate_paths
import oracles
from oracles import (adaptive_loop, exact_probe, map_exponents, modular_rank, probe,
                     specialize)


def random_poly(rng, nterms=3, span=3):
    p = LaurentQT()
    for _ in range(nterms):
        p = p + LaurentQT.monomial(rng.randint(-span, span),
                                   rng.randint(-span, span),
                                   rng.randint(-4, 4))
    return p


def test_generic_separation_small():
    for n in range(1, 5):
        rep = separation_classes(n, GENERIC)
        assert rep.separates
        assert len(rep.classes) == len(enumerate_lambda(n))
        assert rep.witnesses == []


def test_separation_classes_match_the_signature_grouping():
    # classes keyed by the box tally against classes grouped by the
    # signatures themselves, in order; generic and every t = +-q^N with
    # |N| <= 2n + 3
    for n in range(10):
        for r in [GENERIC] + [power_regime(eps, N) for eps in (1, -1)
                              for N in range(-2 * n - 3, 2 * n + 4)]:
            assert separation_classes(n, r).classes == \
                oracles.oracle_separation_classes(n, r), (n, str(r))


def test_separation_collision_reported():
    rep = separation_classes(2, power_regime(1, -1))
    assert not rep.separates
    assert len(rep.classes) == 2
    assert len(rep.witnesses) == 1
    a, b = rep.witnesses[0]
    assert {str(a), str(b)} == {"(0, 1)", "(2, 0)"}


def test_theorem1_predicate_matches_computation():
    for n in range(2, 5):
        for sign in (1, -1):
            for N in range(-2 * n - 1, 2 * n + 2):
                r = power_regime(sign, N)
                if not is_semisimple(n, r):
                    continue
                assert separation_classes(n, r).separates == \
                    theorem1_predicate(n, r), (n, sign, N)


def test_theorem1_predicate_generic_and_symmetry():
    assert theorem1_predicate(4, GENERIC)
    for n in range(2, 6):
        for sign in (1, -1):
            for N in range(0, 2 * n + 2):
                assert theorem1_predicate(n, power_regime(sign, N)) == \
                    theorem1_predicate(n, power_regime(sign, -N))


def check_separation(n, r):
    """The Okounkov-Vershik separation condition at level n in regime r
    against semisimplicity and the closed-form separation predicate."""
    sep = oracles.separated(n, r)
    ss, pred = is_semisimple(n, r), theorem1_predicate(n, r)
    if sep:
        assert ss and pred, (n, str(r))
    if r.is_even_power:
        assert sep == ss, (n, str(r))
    if (n, abs(r.exponent)) != (3, 1):  # the predicate's own exceptions
        assert sep == pred, (n, str(r))


def test_separation_condition_matches_semisimplicity_and_predicate():
    for n in range(0, 11):
        regimes = [GENERIC] + [power_regime(eps, N) for eps in (1, -1)
                               for N in range(-2 * n - 3, 2 * n + 4)]
        for r in regimes:
            check_separation(n, r)
        if n <= 5:  # the pair DP against every path of the level
            paths = [p for lp in enumerate_lambda(n) for p in enumerate_paths(n, lp.shape)]
            for r in regimes:
                spectra = {tuple(content_value(c, r) for c in content_sequence(p))
                           for p in paths}
                assert oracles.separated(n, r) == (len(spectra) == len(paths)), (n, str(r))
    # generically content sequences separate paths; at t = q^-1 the two
    # level-2 paths through (1) to (2) and to the empty shape do not
    assert oracles.separated(6, GENERIC)
    assert not oracles.separated(2, power_regime(1, -1))


def test_divexact_oracle():
    rng = random.Random(5)
    for _ in range(40):
        a = random_poly(rng)
        b = random_poly(rng)
        if b.is_zero:
            continue
        prod = a * b
        q = divexact(prod, b)
        assert q is not None and q == a
    # a non-multiple is rejected
    q = LaurentQT.monomial(1) + LaurentQT.const(1)
    assert divexact(LaurentQT.monomial(1) + LaurentQT.const(2), q) is None


def test_divexact_zero_cases():
    assert divexact(LaurentQT(), LaurentQT.const(3)).is_zero
    with pytest.raises(ZeroDivisionError):
        divexact(LaurentQT.const(1), LaurentQT())


def fraction_rows(matrix, qv, tv):
    """The entries of matrix at q, t = qv, tv, in Fraction arithmetic."""
    return [[sum((c * qv ** x * tv ** y for (x, y), c in p.terms.items()),
                 Fraction(0)) for p in row] for row in matrix]


def specialized_rank_oracle(matrix):
    """Rank over Q after substituting random rationals, maximized over trials."""
    best = 0
    rng = random.Random(9)
    for _ in range(4):
        qv = Fraction(rng.randint(2, 30), rng.randint(2, 30))
        tv = Fraction(rng.randint(2, 30), rng.randint(2, 30))
        rows = fraction_rows(matrix, qv, tv)
        rank = 0
        ncols = len(rows[0])
        for col in range(ncols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for i in range(rank + 1, len(rows)):
                if rows[i][col]:
                    f = rows[i][col] / rows[rank][col]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
            rank += 1
        best = max(best, rank)
    return best


def test_bareiss_rank_on_random_matrices():
    rng = random.Random(17)
    for _ in range(15):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[random_poly(rng, nterms=2, span=2) for _ in range(cols)]
             for _ in range(rows)]
        assert bareiss_rank(m) == specialized_rank_oracle(m)


def test_bareiss_rank_known_cases():
    one = LaurentQT.const(1)
    zero = LaurentQT()
    q = LaurentQT.monomial(1)
    assert bareiss_rank([[one, q], [q, q * q]]) == 1
    assert bareiss_rank([[one, zero], [zero, q]]) == 2
    assert bareiss_rank([]) == 0


def random_combination(rng, rows):
    out = [LaurentQT() for _ in rows[0]]
    for row in rows:
        c = random_poly(rng, nterms=2, span=1)
        out = [x + c * y for x, y in zip(out, row)]
    return out


def test_bareiss_rank_of_row_combinations():
    rng = random.Random(23)
    for _ in range(10):
        rank = rng.randint(1, 3)
        cols = rng.randint(rank, 5)
        basis = [[random_poly(rng, nterms=2, span=2) for _ in range(cols)]
                 for _ in range(rank)]
        m = basis + [random_combination(rng, basis)
                     for _ in range(rng.randint(1, 3))]
        rng.shuffle(m)
        assert bareiss_rank(m) == specialized_rank_oracle(m) == rank


def dict_quotient(a, b):
    q = divexact(a, b)
    if q is None:
        raise ZeroDenominator("Bareiss step: %s does not divide %s" % (b, a))
    return q


def dict_eliminate(matrix):
    """The oracle: the one elimination kernel run directly over LaurentQT
    entries, with divexact as the quotient and the term count as weight.
    Returns the pivots, the rows in their final order and the index of the
    matrix row each came from."""
    rows = [list(row) for row in matrix]
    ids = {id(row): i for i, row in enumerate(rows)}
    pivots = center._eliminate(rows, dict_quotient, lambda p: len(p.terms))
    return pivots, rows, [ids[id(row)] for row in rows]


def packed_echelon(matrix):
    """Pivots, row origins and unpacked rows of the packed elimination; the
    rows are the pivot rows, unpacked at and after their pivots (the
    entries callers read) and None before them."""
    pivots, codec, rows, origin = center._packed_elimination(matrix)
    read = [[codec.unpack(x, origin[:i + 1]) if j >= pivots[i] else None
             for j, x in enumerate(row)] for i, row in enumerate(rows[:len(pivots)])]
    return pivots, origin, read


def assert_packed_matches_dict(matrix):
    """Same pivots, same pivot rows in the same order, same entries read."""
    pivots, origin, read = packed_echelon(matrix)
    want_pivots, want_rows, want_origin = dict_eliminate(matrix)
    assert pivots == want_pivots
    assert origin[:len(pivots)] == want_origin[:len(pivots)]
    for got, want, c in zip(read, want_rows, pivots):
        assert got[c:] == want[c:]
    return len(pivots)


def test_elimination_skips_a_column_without_pivot():
    one = LaurentQT.const(1)
    q = LaurentQT.monomial(1)
    # after the first pivot the middle column is zero below row 0
    m = [[one, q, one], [q, q * q, one + q]]
    assert dict_eliminate(m)[0] == [0, 2]
    assert packed_echelon(m)[0] == [0, 2]
    assert bareiss_rank(m) == 2
    assert matrix_rank(m, modular_rank(m)) == 2


def test_elimination_pivots_on_the_sparsest_entry_first_on_ties():
    one = LaurentQT.const(1)
    q = LaurentQT.monomial(1)
    t = LaurentQT.monomial(0, 1)
    dense, first, second = [one + q, one], [q, one], [t, q]
    m = [dense, first, second]
    assert center._eliminate(m, dict_quotient, lambda p: len(p.terms)) == [0, 1]
    assert m[0] is first
    # the packed kernel counts terms the same way: in column 1 the dense
    # row is left with -1 and the last one with q^2 - t
    pivots, origin, _ = packed_echelon([dense, first, second])
    assert pivots == [0, 1] and origin[:2] == [1, 0]


def test_inexact_quotient_raises():
    q = LaurentQT.monomial(1)
    one = LaurentQT.const(1)
    assert divexact(q + one + one, q + one) is None
    with pytest.raises(ZeroDenominator):
        dict_quotient(q + one + one, q + one)
    codec = center._Kronecker([[q + one + one, q + one]])
    quotient = center._ExactQuotient()
    with pytest.raises(ZeroDenominator):
        quotient(codec.pack(q + one + one, 0), codec.pack(q + one, 0))
    # an odd and an even divisor, of either sign, divide exactly
    for b in (7, -7, 12, -12, 3 << 200, -(5 << 70)):
        for c in (0, 1, -1, 123456789 << 90, -(3 ** 300)):
            assert quotient(b * c, b) == c
        with pytest.raises(ZeroDenominator):
            quotient(b * 5 + 1, b)


def random_matrix(rng, rows, cols, span, bivariate):
    def entry():
        p = random_poly(rng, nterms=rng.randint(0, 3), span=span)
        return p if bivariate else map_exponents(p, lambda e: (e[0], 0))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("bivariate", [False, True])
def test_packed_elimination_matches_dict_kernel(bivariate):
    rng = random.Random(101 + bivariate)
    ranks = set()
    for trial in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, 3, bivariate)
        if trial % 2:
            # rank deficient: append combinations of the rows
            m = m + [random_combination(rng, m) for _ in range(rng.randint(1, 2))]
            rng.shuffle(m)
        ranks.add((assert_packed_matches_dict(m), min(len(m), cols)))
    assert any(r < k for r, k in ranks) and any(r == k for r, k in ranks)


def test_packed_elimination_of_evaluation_matrices():
    for n, r in ((3, GENERIC), (3, power_regime(-1, 1)), (4, power_regime(1, 0)),
                 (4, power_regime(1, 2))):
        matrix, _, _ = adaptive_matrix(n, r)
        assert_packed_matches_dict(matrix)


def test_packed_elimination_of_rational_entries():
    rng = random.Random(7)
    for _ in range(10):
        m = [[p * Fraction(1, rng.randint(1, 6)) for p in row]
             for row in random_matrix(rng, 3, 3, 2, True)]
        assert_packed_matches_dict(m)


def greedy_rows_oracle(matrix, m):
    """The first m independent rows at q, t = 17/5, 23/7, one row at a time."""
    rows = fraction_rows(matrix, Fraction(17, 5), Fraction(23, 7))
    chosen = []
    work = []
    for idx, row in enumerate(rows):
        cand = list(row)
        for lead, other in work:
            if cand[lead]:
                f = cand[lead] / other[lead]
                cand = [x - f * y for x, y in zip(cand, other)]
        lead = next((j for j, x in enumerate(cand) if x), None)
        if lead is None:
            continue
        work.append((lead, cand))
        chosen.append(idx)
        if len(chosen) == m:
            return chosen
    return None


def rows_of(matrix):
    """The rows of a LaurentQT matrix at each point mod p, by the oracle."""
    return lambda point: [[x % center._P for x in row] for row in specialize(matrix, point)]


def test_independent_rows_match_greedy_selection():
    for n, r in ((3, GENERIC), (4, GENERIC), (3, power_regime(-1, 1)),
                 (4, power_regime(1, 2)), (4, power_regime(1, 0))):
        reps = [c[0] for c in separation_classes(n, r).classes]
        matrix, _, K = adaptive_matrix(n, r, reps)
        values = [drunk_content_values(n, lp.shape, r) for lp in reps]
        want = greedy_rows_oracle(matrix, len(reps))
        assert center._independent_rows(
            lambda point: center._point_rows(values, K, point), len(reps)) == want
        assert center._independent_rows(rows_of(matrix), len(reps)) == want
    rng = random.Random(31)
    for _ in range(10):
        cols = rng.randint(1, 4)
        basis = [[random_poly(rng, nterms=2, span=2) for _ in range(cols)]
                 for _ in range(cols)]
        m = basis + [random_combination(rng, basis) for _ in range(2)]
        rng.shuffle(m)
        expected = greedy_rows_oracle(m, cols)
        if expected is not None:
            assert center._independent_rows(rows_of(m), cols) == expected


def test_specialized_rows_are_proportional_to_fraction_values():
    rng = random.Random(41)
    matrices = [adaptive_matrix(n, r)[0]
                for n, r in ((3, GENERIC), (4, power_regime(1, 2)),
                             (4, power_regime(-1, 1)))]
    for _ in range(6):
        matrices.append([[random_poly(rng, nterms=3, span=3) * Fraction(1, rng.randint(1, 6))
                          for _ in range(3)] for _ in range(3)])
    matrices.append([[LaurentQT(), LaurentQT.const(2)], [LaurentQT(), LaurentQT()]])
    for matrix in matrices:
        for point in center._POINTS:
            spec = specialize(matrix, point)
            for got, exact in zip(spec, fraction_rows(matrix, *point)):
                assert all(type(v) is int for v in got)
                lead = next((j for j, v in enumerate(exact) if v), None)
                if lead is None:
                    assert not any(got)
                    continue
                ratio = Fraction(got[lead]) / exact[lead]
                assert ratio and got == [ratio * v for v in exact]


def counted_specialize(monkeypatch):
    calls = []

    def counted(matrix, *point):
        calls.append(len(matrix))
        return specialize(matrix, *point)

    monkeypatch.setattr(oracles, "specialize", counted)
    return calls


def test_probe_eliminates_exactly_only_below_the_distinct_columns(monkeypatch):
    one, q, t = LaurentQT.const(1), LaurentQT.monomial(1), LaurentQT.monomial(0, 1)
    calls = counted_specialize(monkeypatch)
    # equal columns: the rank mod p reaches the 2 distinct ones
    assert probe([[one, one, q], [q, q, t]]) == 2
    assert probe([[one, q], [t, one]]) == 2
    assert calls == []
    # three distinct columns of rank 1: the integer rows decide
    assert probe([[one, q, one + q], [q, q * q, q + q * q]]) == 1
    assert calls == [2]
    # a probe mod p of 0 is still a lower bound: Bareiss then gives every rank
    cases = [(3, GENERIC), (4, power_regime(-1, 1)), (4, power_regime(1, 0)),
             (5, power_regime(1, 2))]
    want = [adaptive_matrix(n, r)[1] for n, r in cases]
    with monkeypatch.context() as m:
        m.setattr(center, "_rank_mod_p", lambda rows: 0)
        assert [adaptive_matrix(n, r)[1] for n, r in cases] == want
    # the order search probes mod p alone: (4, -q^1) has 5 distinct columns
    # among 8, and the rank mod p reaches them at K = 8
    monkeypatch.setattr(center, "matrix_rank", lambda matrix, probe: probe)
    assert adaptive_matrix(4, power_regime(-1, 1))[1:] == (5, 8)


def test_a_multiple_of_p_never_pivots():
    P = center._P
    # determinant P: rank 1 mod P after the first step, 2 over the rationals
    m = [[LaurentQT.const(2), LaurentQT.const(1)],
         [LaurentQT.const(1), LaurentQT.const((P + 1) // 2)]]
    assert modular_rank(m) == 1
    assert probe(m) == exact_probe(m) == matrix_rank(m, modular_rank(m)) == 2


def test_a_denominator_divisible_by_p_falls_back_to_the_exact_probe(monkeypatch):
    calls = counted_specialize(monkeypatch)
    m = [[LaurentQT.const(Fraction(1, 2 ** 61 - 1)), LaurentQT.monomial(1)]]
    assert modular_rank(m) == 0
    assert probe(m) == 1 and calls == [1]
    assert matrix_rank(m, modular_rank(m)) == 1


def test_specialized_rank_is_the_exact_probe_on_evaluation_matrices():
    for n, r in ((3, GENERIC), (4, GENERIC), (4, power_regime(1, 0)),
                 (4, power_regime(-1, 1)), (4, power_regime(1, 2))):
        for K in (n, 2 * n):
            matrix = adaptive_matrix(n, r, order=K)[0]
            assert modular_rank(matrix) <= exact_probe(matrix) == probe(matrix)


def regime_grid(n):
    """Generic and t = +-q^N for |N| <= 2n + 3."""
    return [GENERIC] + [power_regime(s, N) for s in (1, -1)
                        for N in range(-2 * n - 3, 2 * n + 4)]


class PowersModP(dict):
    """(i, j) -> q^i t^j mod p at an evaluation point, filled lazily."""

    def __init__(self, point):
        P = center._P
        self.q, self.t = (x.numerator * pow(x.denominator, -1, P) % P for x in point)

    def __missing__(self, e):
        P = center._P
        x = self[e] = pow(self.q, e[0], P) * pow(self.t, e[1], P) % P
        return x


def values_mod_p(matrix, powers):
    """Each entry at the point of powers mod p, term by term."""
    return [[sum(map(operator.mul, p.terms.values(), map(powers.__getitem__, p.terms)))
             % center._P for p in row] for row in matrix]


def rows_up_to(matrix, K):
    """The rows e_n^j w_k with k <= K of an evaluation matrix of higher order."""
    top = len(matrix) // 3
    return [row for i, row in enumerate(matrix) if i % top <= K]


def test_probe_rows_and_order_match_the_exact_matrices(monkeypatch):
    # the rows mod p are the exact matrix at each point, term by term; their
    # rank is the exact probe; and the order search on them ends where the
    # search on exact rows ended
    build, built = center._build_matrix, {}

    def memo_build(values, K):
        # each case's exact matrix is built once, at the highest order asked
        # for; w_k does not depend on K, so a lower order is a row subset
        top = max(built, default=-1)
        if K > top:
            built[K] = build(values, K)
            return built[K]
        return rows_up_to(built[top], K)

    monkeypatch.setattr(center, "_build_matrix", memo_build)
    # both hand (matrix, probe) to matrix_rank, so equal pairs give equal ranks
    monkeypatch.setattr(center, "matrix_rank", lambda matrix, probe: probe)
    cases = [(n, r) for n in range(1, 6) for r in regime_grid(n)]
    cases += [(6, GENERIC), (6, power_regime(1, 2)), (6, power_regime(-1, -3))]
    powers = [PowersModP(point) for point in center._POINTS]
    for n, r in cases:
        built.clear()
        shapes = enumerate_lambda(n)
        values = [drunk_content_values(n, lp.shape, r) for lp in shapes]
        if n <= 5:
            exact = memo_build(values, 2 * n)
            mod_p = values_mod_p(exact, powers[0])
            assert center._point_rows(values, 2 * n) == mod_p, (n, r)
            assert center._point_rows(values, n) == rows_up_to(mod_p, n), (n, r)
        if n <= 4:
            # equal (signature, e_n) pairs give equal columns at every order
            pairs = {(signature(n, lp.shape, r), center._product(vs))
                     for lp, vs in zip(shapes, values)}
            assert len(pairs) >= len(set(zip(*exact))), (n, r)
            # evaluation is entry by entry, so a lower order is a row subset
            at = [values_mod_p(exact, p) for p in powers]
            for K in sorted({1, n, 2 * n}):
                for point, rows in zip(center._POINTS, at):
                    assert center._point_rows(values, K, point) == rows_up_to(rows, K), \
                        (n, r, K, point)
                rank = center._rank_mod_p(center._point_rows(values, K))
                assert rank == exact_probe(rows_up_to(exact, K)), (n, r, K)
        assert adaptive_matrix(n, r) == adaptive_loop(n, r), (n, r)
    # the row subsets are the matrices of the lower order
    for n, r in ((4, GENERIC), (5, power_regime(-1, 3))):
        values = [drunk_content_values(n, lp.shape, r) for lp in enumerate_lambda(n)]
        assert rows_up_to(build(values, 2 * n), n) == build(values, n)


def test_content_values_are_derived_once(monkeypatch):
    calls = Counter()

    def count(name):
        f = getattr(center, name)

        def counted(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(center, name, counted)

    count("drunk_content_values")
    count("_build_matrix")
    monkeypatch.setattr(center, "matrix_rank", lambda matrix, probe: probe)
    for n, r, shapes in ((4, power_regime(1, 0), 8), (6, power_regime(1, 2), 19)):
        calls.clear()
        adaptive_matrix(n, r)
        assert calls == {"drunk_content_values": shapes, "_build_matrix": 1}, (n, r)
    # a separating family derives its representatives' values once, for
    # both the order search and the row choice
    calls.clear()
    reps = separating_family(4, power_regime(1, 0))[0]
    assert calls == {"drunk_content_values": len(reps), "_build_matrix": 1}


@pytest.mark.parametrize("n, r, K, rank", [
    (4, power_regime(-1, 1), 8, 5), (4, power_regime(1, 0), 8, 7),
    (5, power_regime(1, 2), 10, 9), (6, GENERIC, 6, 19)])
def test_adaptive_matrix_order_and_rank(n, r, K, rank):
    assert adaptive_matrix(n, r)[1:] == (rank, K)


def test_independent_rows_survive_an_unlucky_point():
    # vanishes at the first evaluation point only
    p = LaurentQT.monomial(1) - LaurentQT.const(Fraction(17, 5))
    assert center._independent_rows(rows_of([[p]]), 1) == [0]
    with pytest.raises(ResourceLimit):
        center._independent_rows(rows_of([[LaurentQT()]]), 1)


def test_evaluation_matrix_full_rank_generic():
    for n in range(1, 5):
        K = max(n, 1)
        matrix, rank, _ = adaptive_matrix(n, GENERIC, order=K)
        assert len(matrix) == 3 * (K + 1)
        assert rank == len(enumerate_lambda(n))
        assert len(matrix_row_labels(K)) == len(matrix)


def test_evaluation_matrix_cap():
    with pytest.raises(ResourceLimit, match="order 1000 exceeds cap 12 at level 2"):
        adaptive_matrix(2, GENERIC, order=1000)


def test_rank_drop_in_collapsing_regime():
    # t = q^-1 at level 2 merges two columns
    _, rank, _ = adaptive_matrix(2, power_regime(1, -1), order=4)
    assert rank == 2


def test_adaptive_matrix_stops_at_full_rank():
    matrix, rank, K = adaptive_matrix(3, GENERIC)
    assert rank == len(enumerate_lambda(3))
    assert K >= 3
    assert matrix_rank(matrix, modular_rank(matrix)) == rank


def test_laurent_frac_coefficients_stay_exact():
    q = LaurentQT.monomial(1)
    one = LaurentQT.const(1)
    # scaling by the leading coefficient 2 of the denominator: Fractions
    # exactly where the quotient is not integral
    frac = LaurentFrac(q + one, q * 2 + one * 3)
    assert frac.num.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(1, 2)}
    assert frac.den.terms == {(1, 0): 1, (0, 0): Fraction(3, 2)}
    assert type(frac.den.terms[(1, 0)]) is int
    # an integral quotient stays integral
    frac = LaurentFrac((q + one) * (q * 2 - one), q * 2 - one)
    assert frac.num == q + one and {type(c) for c in frac.num.terms.values()} == {int}
    # a monomial denominator divides: the quotient is the numerator
    frac = LaurentFrac(q + one, q.pow(2) * 3)
    assert frac.num.terms == {(-1, 0): Fraction(1, 3), (-2, 0): Fraction(1, 3)}
    assert frac.den == one
    frac = LaurentFrac(LaurentQT(), q + one)
    assert frac.is_zero and frac.den == one
    with pytest.raises(ZeroDivisionError):
        LaurentFrac(q + one, LaurentQT())
    # a denominator that does not divide is made monic, the ratio kept
    num, den = q.pow(2) * 5 + one, q.pow(3) * 4 - q * 2 + one * 7
    frac = LaurentFrac(num, den)
    assert frac.den.terms[max(frac.den.terms)] == 1
    assert frac.den.terms[(0, 0)] == Fraction(7, 4)
    assert frac.num * den == num * frac.den
    assert divexact(q * 3 + one * 3, q + one) == LaurentQT.const(3)
    assert divexact(q + one, q * 2 + one * 2) == LaurentQT.const(Fraction(1, 2))
    for n, r in ((3, GENERIC), (3, power_regime(-1, 1)), (4, power_regime(1, 0))):
        for combo in separating_family(n, r)[1]:
            for c in combo:
                for p in (c.num, c.den):
                    assert all(type(x) in (int, Fraction) for x in p.terms.values())


def test_separating_family_unitriangular():
    # combination i, times the product L of its distinct denominators, is
    # a polynomial combination of the rows that gives L on representative
    # i and 0 on every earlier one
    one = LaurentQT.const(1)
    for n, r in ((2, GENERIC), (3, GENERIC), (2, power_regime(1, -1))):
        reps, family, K = separating_family(n, r)
        matrix = adaptive_matrix(n, r, reps)[0]
        assert len(matrix) == len(matrix_row_labels(K))
        for i, combo in enumerate(family):
            assert len(combo) == len(matrix)
            L = one
            for den in {c.den for c in combo if not c.is_zero}:
                L = L * den
            for j in range(i + 1):
                dot = LaurentQT()
                for row, c in zip(matrix, combo):
                    if not c.is_zero:
                        dot = dot + c.num * divexact(L, c.den) * row[j]
                assert dot == (L if j == i else LaurentQT()), (n, r, i, j)
