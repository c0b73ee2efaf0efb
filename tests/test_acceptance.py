"""End-to-end acceptance checks: worked examples, classification sweeps and
exhaustive small-level verifications."""

from collections import Counter

from bmwcenter.blocks import (check_admissible, is_admissible, is_semisimple,
                              verify_block_theorem)
from bmwcenter.center import (adaptive_matrix, separation_classes,
                              theorem1_predicate)
from bmwcenter.contentfn import drunk_contents, pairing_set, signature
from bmwcenter.idempotents import spectral_idempotent
from bmwcenter.partitions import (EMPTY, Partition, diagonal_datum,
                                  partitions_of)
from bmwcenter.scalars import (ContentValue, GENERIC, content_value,
                               power_regime)
from bmwcenter.tableaux import (UpDownTableau, children, content_sequence,
                                drunk_path, enumerate_lambda, enumerate_paths,
                                path_counts)
from bmwcenter.wheelpoly import (MultiLaurent, newton_check, power_sum,
                                 evaluate, wheel_coefficients)
from oracles import (boundary_boxes, inverse_coeffs, is_wheel,
                     orthogonality_check, partition_of_diagonals, power_sig,
                     with_box_added, with_box_removed)


# ---------------------------------------------------------------------------
# 1. worked-example golden values


def test_golden_content_sequence():
    path = UpDownTableau([EMPTY, Partition((1,)), Partition((2,)),
                          Partition((1,)), Partition((1, 1))])
    values = [content_value(c, GENERIC) for c in content_sequence(path)]
    # t, t q^2, t^-1 q^-2, t q^-2
    assert values == [ContentValue(1, 1, 0), ContentValue(1, 1, 2),
                      ContentValue(1, -1, -2), ContentValue(1, 1, -2)]
    assert [str(v) for v in values] == [
        "t^1*q^0", "t^1*q^2", "t^-1*q^-2", "t^1*q^-2"]


def test_golden_two_variable_identities():
    _, w1, w2 = wheel_coefficients(2, 2)
    assert w1 == power_sum(2, 1)
    assert power_sum(2, 2) == 2 * w2 - w1 * w1


def test_golden_level_four_reduced_signatures():
    r = power_regime(1, 2)
    assert is_semisimple(4, r)
    expected = {
        ("0", 2): power_sig({}),
        ("1,1", 1): power_sig({-2: 1, 2: -1}),
        ("2", 1): power_sig({-2: 1, -4: 1, 2: -1, 4: -1}),
        ("1,1,1,1", 0): power_sig({4: 1, -4: -1}),
        ("2,1,1", 0): power_sig({-4: 1, 4: -1}),
        ("2,2", 0): power_sig({-2: 2, -4: 1, 2: -2, 4: -1}),
        ("3,1", 0): power_sig({-2: 1, -4: 1, -6: 1, 2: -1, 4: -1, 6: -1}),
        ("4", 0): power_sig({-2: 1, -4: 1, -6: 1, -8: 1,
                             2: -1, 4: -1, 6: -1, 8: -1}),
    }
    got = {(str(lp.shape), lp.defect): signature(4, lp.shape, r)
           for lp in enumerate_lambda(4)}
    assert got == expected
    assert str(got[("1,1,1,1", 0)]) == "(1-q^4T)/(1-q^-4T)"
    # the reduced expressions are pairwise distinct, so they separate
    assert separation_classes(4, r).separates


def test_golden_hook_pairing_and_two_factor_signature():
    # one row of length two over a column, t = q^8
    lam = Partition((2,) + (1,) * 7)
    r = power_regime(1, 8)
    assert sorted(pairing_set(9, lam, r)) == [-7, -6, -5, -4, -3, -2, -1]
    sig = signature(9, lam, r)
    assert sig == power_sig({-8: 1, -10: 1, 8: -1, 10: -1})
    assert str(sig) == "(1-q^-10T)(1-q^-8T)/(1-q^8T)(1-q^10T)"


# ---------------------------------------------------------------------------
# 2. generic separation and full evaluation rank


def test_generic_separation_and_rank():
    expected_sizes = {1: 1, 2: 3, 3: 4, 4: 8, 5: 11, 6: 19}
    for n in range(1, 7):
        lps = enumerate_lambda(n)
        assert len(lps) == expected_sizes[n]
        rep = separation_classes(n, GENERIC)
        assert rep.separates and len(rep.classes) == len(lps)
        _, rank, _ = adaptive_matrix(n, GENERIC)
        assert rank == len(lps)


# ---------------------------------------------------------------------------
# 3. regime grid against the classification predicate


def test_regime_grid_matches_predicate():
    # all 540 cases n <= 10, |N| <= 2n + 2, both signs, semisimple or not
    cases = 0
    for n in range(1, 11):
        for sign in (1, -1):
            for N in range(-2 * n - 2, 2 * n + 3):
                r = power_regime(sign, N)
                computed = separation_classes(n, r).separates
                assert computed == theorem1_predicate(n, r), (n, sign, N)
                cases += 1
    assert cases == 540


def test_level_three_exceptional_regimes_separate():
    for r in (power_regime(1, 1), power_regime(1, -1), power_regime(-1, 1)):
        assert is_semisimple(3, r)
        assert separation_classes(3, r).separates
        assert theorem1_predicate(3, r)


def test_odd_power_collision_witnesses():
    def collide(n, a, lam, mu):
        r = power_regime(1, 2 * a - 1)
        return signature(n, lam, r) == signature(n, mu, r)

    # a = 1: W((n-2,2)) = W((n-2))
    for n in (4, 5):
        assert collide(n, 1, Partition((n - 2, 2)), Partition((n - 2,)))
    # a >= 2: W((n-a,1^a)) = W((n-a,1^(a-2)))
    for n, a in ((4, 2), (5, 2), (5, 3), (6, 2), (6, 3)):
        lam = Partition((n - a,) + (1,) * a)
        mu = Partition((n - a,) + (1,) * (a - 2))
        assert collide(n, a, lam, mu), (n, a)
    # boundary cases
    assert collide(3, 2, Partition((1, 1, 1)), Partition((1,)))
    assert collide(2, 1, Partition((1, 1)), EMPTY)


# ---------------------------------------------------------------------------
# 4. closed-form drunk multiset vs the constructed path


def test_drunk_multiset_oracle():
    for n in range(1, 9):
        for lp in enumerate_lambda(n):
            closed = drunk_contents(n, lp.shape)
            walked = Counter(content_sequence(drunk_path(n, lp.shape)))
            assert closed == walked, lp


# ---------------------------------------------------------------------------
# 5. path-independence of wheel evaluations


def test_wheel_evaluations_are_path_independent():
    for n in range(1, 6):
        wheels = wheel_coefficients(n, min(4, n * 4))
        for lp in enumerate_lambda(n):
            reference = None
            for path in enumerate_paths(n, lp.shape):
                values = [content_value(c, GENERIC)
                          for c in content_sequence(path)]
                evals = tuple(evaluate(w, values) for w in wheels)
                if reference is None:
                    reference = evals
                else:
                    assert evals == reference, lp


# ---------------------------------------------------------------------------
# 6. Newton and inverse-series identities


def test_newton_and_inverse_identities():
    for n in range(1, 5):
        K = min(8, 4 * n)
        assert newton_check(n, K)
        w = wheel_coefficients(n, K)
        v = inverse_coeffs(n, K)
        for k in range(K + 1):
            conv = MultiLaurent()
            for i in range(k + 1):
                conv = conv + w[i] * v[k - i]
            assert conv == MultiLaurent.const(n, 1 if k == 0 else 0)
        for wk in w:
            assert is_wheel(wk)


# ---------------------------------------------------------------------------
# 7. block partition equals signature partition


def test_block_theorem_sweep():
    for n in range(2, 7):
        for sign in (1, -1):
            for a in range(0, max(0, n // 2 - 1)):
                r = power_regime(sign, 2 * a)
                if is_semisimple(n, r):
                    continue
                assert verify_block_theorem(n, r), (n, sign, a)


def test_block_counterexample_regression():
    r = power_regime(1, -1)
    assert signature(2, EMPTY, r) == signature(2, Partition((2,)), r)
    from bmwcenter.blocks import block_equivalent, block_partition
    from bmwcenter.tableaux import labeled
    assert not block_equivalent(labeled(2, EMPTY), labeled(2, Partition((2,))), r)
    # the obstruction is the parity condition on the content-q diagonal
    assert check_admissible(Partition((2,)), 1, EMPTY, r) == [3]
    assert not block_partition(2, r).agrees_with_W


# ---------------------------------------------------------------------------
# 8. admissibility golden cases


def test_admissibility_goldens():
    lam = Partition((4, 2, 2))
    assert not is_admissible(lam, 1, Partition((4, 1, 1)), power_regime(1, 1))
    assert check_admissible(lam, 1, Partition((4, 1, 1)), power_regime(1, 1)) == [3]
    assert is_admissible(lam, 2, Partition((4,)), power_regime(1, 2))


# ---------------------------------------------------------------------------
# 9. idempotent diagonals select the drunk path


def test_idempotent_selection():
    for n in range(1, 6):
        for lp in enumerate_lambda(n):
            diag = spectral_idempotent(n, lp.shape)
            assert diag.selected() == [drunk_path(n, lp.shape)], lp


def test_idempotent_orthogonality():
    for n in range(1, 5):
        assert orthogonality_check(n)


# ---------------------------------------------------------------------------
# 10. combinatorial sanity


def test_squared_path_counts():
    expected = 1
    for n in range(1, 8):
        expected *= 2 * n - 1
        assert sum(c * c for c in path_counts(n).values()) == expected


def test_diagonal_datum_round_trip():
    for m in range(13):
        for lam in partitions_of(m):
            assert partition_of_diagonals(diagonal_datum(lam)) == lam


def test_restriction_sets_are_adjacent_shapes():
    for n in range(1, 7):
        for lp in enumerate_lambda(n):
            lam = lp.shape
            expected = set()
            # lam - box always fits; lam + box needs a spare excursion
            removable, addable = boundary_boxes(lam)
            for (i, j) in removable:
                expected.add(with_box_removed(lam, i, j))
            if lp.defect >= 1:
                for (i, j) in addable:
                    expected.add(with_box_added(lam, i, j))
            assert {m for m in children(lam) if m.size < n} == expected, lp
