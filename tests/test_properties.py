"""Property tests; skipped when hypothesis is not installed."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from bmwcenter import center, cli  # noqa: E402
from bmwcenter.blocks import is_semisimple, verify_block_theorem  # noqa: E402
from bmwcenter.errors import ZeroDenominator  # noqa: E402
from bmwcenter.partitions import partitions_of  # noqa: E402
from bmwcenter.scalars import GENERIC, LaurentQT, power_regime  # noqa: E402
from bmwcenter.tableaux import (UpDownTableau, enumerate_lambda,  # noqa: E402
                                enumerate_paths, path_counts)
from oracles import (exact_probe, modular_rank, multiplicativity_check,  # noqa: E402
                     probe)

LEVEL_AND_SHAPE = st.integers(0, 9).flatmap(
    lambda n: st.sampled_from([(n, lp.shape) for lp in enumerate_lambda(n)]))


@settings(max_examples=60, deadline=None, database=None)
@given(LEVEL_AND_SHAPE)
def test_path_counts_match_enumeration(case):
    n, lam = case
    paths = enumerate_paths(n, lam)
    assert len(paths) == path_counts(n)[lam]
    assert len(set(paths)) == len(paths)
    for path in paths:
        assert path[-1] == lam and len(path) - 1 == n
        assert UpDownTableau(path) == path  # validates the steps


def _polys(t_exponents):
    exps = st.tuples(st.integers(-8, 8), t_exponents)
    return st.dictionaries(exps, st.integers(-60, 60), max_size=8).map(LaurentQT)


# univariate (t exponent 0, as in the power regimes) or bivariate
POLY_PAIRS = st.sampled_from([st.just(0), st.integers(-4, 4)]).flatmap(
    lambda ts: st.tuples(_polys(ts), _polys(ts)))


@settings(max_examples=150, deadline=None, database=None)
@given(POLY_PAIRS)
def test_packing_round_trips_and_multiplies(pair):
    a, b = pair
    zero = LaurentQT()
    # a * b is a 2 x 2 minor of the matrix, so its product packs within bounds
    codec = center._Kronecker([[a, zero], [zero, b]])
    x, y = codec.pack(a, 0), codec.pack(b, 1)
    assert codec.unpack(x, [0]) == a and codec.unpack(y, [1]) == b
    assert codec.terms(x) == len(a.terms)
    assert codec.unpack(x * y, [0, 1]) == a * b
    assert codec.terms(x * y) == len((a * b).terms)


# small matrices, univariate or bivariate like POLY_PAIRS, with some entries
# zero and some rows repeated, so that rank deficiency is common
MATRICES = st.sampled_from([st.just(0), st.integers(-4, 4)]).flatmap(
    lambda ts: st.integers(1, 4).flatmap(lambda cols: st.lists(
        st.lists(_polys(ts), min_size=cols, max_size=cols), min_size=1, max_size=4)
        .flatmap(lambda rows: st.lists(st.sampled_from(rows), min_size=len(rows),
                                       max_size=len(rows) + 2))))


@settings(max_examples=100, deadline=None, database=None)
@given(MATRICES)
def test_specialized_rank_bounds_exact_rank(m):
    exact = center.bareiss_rank(m)
    at_point = exact_probe(m)
    assert modular_rank(m) <= at_point <= exact <= min(len(m), len(m[0]))
    assert probe(m) == at_point
    assert center.matrix_rank(m, modular_rank(m)) == exact


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(), st.integers().filter(bool), st.integers(0, 10 ** 6))
def test_exact_quotient_of_integers(a, b, r):
    quotient = center._ExactQuotient()
    assert quotient(a * b, b) == a
    if abs(b) > 1:
        with pytest.raises(ZeroDenominator):
            quotient(a * b + 1 + r % (abs(b) - 1), b)


SHAPES = [lam for m in range(9) for lam in partitions_of(m)]
SKEW_SHAPES = st.sampled_from(SHAPES).flatmap(lambda lam: st.tuples(
    st.just(lam), st.sampled_from([mu for mu in SHAPES if lam.contains(mu)])))
REGIMES = st.one_of(st.just(GENERIC), st.builds(
    power_regime, st.sampled_from((1, -1)), st.integers(-9, 9)))


@settings(max_examples=200, deadline=None, database=None)
@given(SKEW_SHAPES, REGIMES)
def test_wheel_signature_is_multiplicative(skew, r):
    lam, mu = skew
    # W(lam) = W(mu) * W(lam/mu) at the reduced level
    assert multiplicativity_check(lam, mu, r)


# every level n <= 14 and even-power regime t = +-q^N, |N| <= 2n, where the
# algebra is not semisimple: exactly |N| <= n - 3.  CI runs the same grid
# to n <= 20 (324 cases) through `verify-blocks`.
NON_SEMISIMPLE_EVEN = [
    (n, r) for n in range(15) for r in
    (power_regime(eps, N) for eps in (1, -1) for N in range(-2 * n, 2 * n + 1, 2))
    if not is_semisimple(n, r)]


def test_block_theorem_on_non_semisimple_even_grid():
    assert len(NON_SEMISIMPLE_EVEN) == 144
    for n, r in NON_SEMISIMPLE_EVEN:
        assert verify_block_theorem(n, r), (n, r)


# text that needs escaping: quotes, backslashes, control characters and
# non-ASCII letters, symbols and astral characters
TEXT = st.text() | st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f a\xe9\u20ac\U0001d11e'))
JSON_LEAVES = (TEXT | st.integers() | st.integers(-10 ** 40, 10 ** 40)
               | st.booleans() | st.none())
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(TEXT) | st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(TEXT, inner)),
    max_leaves=40)


@settings(max_examples=300, deadline=None, database=None)
@given(JSON_PAYLOADS)
def test_emit_is_the_indent_2_sorted_layout(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload)
    assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
