"""Property tests; skipped when hypothesis is not installed."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from bmwcenter.tableaux import (UpDownTableau, enumerate_lambda,  # noqa: E402
                                enumerate_paths, path_counts)

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
        assert path.shape == lam and path.level == n
        assert UpDownTableau(path.steps) == path  # validates the steps
