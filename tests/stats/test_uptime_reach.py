"""Closed-form reachable up sets and the chain-shared uptime solves.

A fitted chain mixes every row with the column marginal, so each column
of ``trans > 0`` is all true or all false, and the up states a walk from
``s`` reaches are the levels below ``k`` with an incoming edge plus
``s`` itself.  These tests hold that closed form to the graph walk, and
the cached point-mass solves behind ``expected_uptime_batch`` to the
uncached dense solve, bit for bit, for every (start, up-state count).
Chains failing the column test take the dense solve directly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.markov import (
    PriceMarkovModel,
    RollingMarkovFitter,
    _reachable_up_states,
)

LEVELS = [0.27, 0.3, 0.5, 0.8, 1.4, 2.4]


def walk(model: PriceMarkovModel, s: int, k: int) -> np.ndarray:
    """Graph-walk reference for the up states reachable from ``s``."""
    idx = np.arange(model.num_states)
    return _reachable_up_states(model.trans, idx < k, idx == s)


def assert_reach_matches_walk(model: PriceMarkovModel) -> None:
    for k in range(1, model.num_states + 1):
        for s in range(k):
            np.testing.assert_array_equal(model._reachable(s, k), walk(model, s, k))


def assert_batch_matches_dense(model: PriceMarkovModel) -> None:
    """Every start's batch uptimes equal the dense reference bit for bit."""
    bids = np.concatenate(
        ([model.levels[0] - 0.01], model.levels, [model.levels[-1] + 1.0])
    )
    counts = model.up_counts(bids)
    for level in model.levels:
        m = model.with_initial(float(level))
        got = m.expected_uptime_batch(bids)
        dense = np.array([m._solve_uptime_dense(int(k)) for k in counts])
        assert got.tobytes() == dense.tobytes()


def hand_built(mask: np.ndarray, weights: np.ndarray) -> PriceMarkovModel:
    trans = np.where(mask, weights, 0.0)
    trans = trans / trans.sum(axis=1, keepdims=True)
    n = trans.shape[0]
    initial = np.zeros(n)
    initial[0] = 1.0
    return PriceMarkovModel(
        levels=np.array(LEVELS[:n]), trans=trans, initial=initial,
        fit_window_s=n * 3600.0,
    )


@st.composite
def sparse_chains(draw, column_pattern: bool):
    """Hand-built chains: any sparsity, or all-or-nothing columns."""
    n = draw(st.integers(1, len(LEVELS)))
    weights = np.array(draw(st.lists(
        st.floats(0.05, 1.0), min_size=n * n, max_size=n * n,
    ))).reshape(n, n)
    if column_pattern:
        cols = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if not any(cols):
            cols[draw(st.integers(0, n - 1))] = True
        mask = np.broadcast_to(np.array(cols), (n, n))
    else:
        mask = np.array(draw(st.lists(
            st.booleans(), min_size=n * n, max_size=n * n,
        ))).reshape(n, n)
        mask[np.arange(n), draw(st.lists(
            st.integers(0, n - 1), min_size=n, max_size=n,
        ))] = True  # every row keeps at least one successor
    return hand_built(mask, weights)


@given(seq=st.lists(st.sampled_from(LEVELS), min_size=2, max_size=120))
@settings(max_examples=60, deadline=None)
def test_fitted_chains_use_closed_form(seq):
    model = PriceMarkovModel.fit(np.array(seq))
    assert model._incoming() is not None
    assert_reach_matches_walk(model)
    assert_batch_matches_dense(model)


@given(
    seq=st.lists(st.sampled_from(LEVELS), min_size=4, max_size=160),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_rolling_fitter_chains_use_closed_form(seq, data):
    fitter = RollingMarkovFitter(np.array(seq))
    lo = data.draw(st.integers(0, len(seq) - 2))
    hi = data.draw(st.integers(lo + 2, len(seq)))
    fitter.set_window(lo, hi)
    model = fitter.model(seq[lo])
    assert model._incoming() is not None
    assert_reach_matches_walk(model)
    assert_batch_matches_dense(model)


@given(model=sparse_chains(column_pattern=True))
@settings(max_examples=60, deadline=None)
def test_hand_built_column_pattern_chains(model):
    assert model._incoming() is not None
    assert_reach_matches_walk(model)
    assert_batch_matches_dense(model)


def solve_keys(model: PriceMarkovModel) -> list:
    return [key for key in model._chain_shared if key[0] == "solve"]


@given(model=sparse_chains(column_pattern=False))
@settings(max_examples=80, deadline=None)
def test_hand_built_sparse_chains(model):
    # a chain passing the column test takes the closed form; any other
    # takes the dense solve and leaves no cached point-mass solve
    if model._incoming() is not None:
        assert_reach_matches_walk(model)
    assert_batch_matches_dense(model)
    if model._incoming() is None:
        assert solve_keys(model) == []


def test_unsmoothed_fit_fails_the_column_test():
    model = PriceMarkovModel.fit(np.array([0.3, 0.5, 0.3, 0.8, 0.3]), smoothing=0.0)
    assert model._incoming() is None
    assert_batch_matches_dense(model)
    assert solve_keys(model) == []


class TestStartWithoutIncomingEdge:
    """The window's first level never recurs, so no edge enters it."""

    SERIES = np.array([0.2] + [0.5, 0.9] * 24)

    def models(self):
        fitted = PriceMarkovModel.fit(self.SERIES, current_price=0.2)
        fitter = RollingMarkovFitter(self.SERIES)
        fitter.set_window(0, self.SERIES.size)
        return fitted, fitter.model(0.2)

    def test_start_joins_the_reach_set(self):
        for model in self.models():
            assert model._incoming().tolist() == [False, True, True]
            assert model._reachable(0, 2).tolist() == [0, 1]
            assert model._reachable(1, 2).tolist() == [1]

    def test_uptime_counts_the_extra_step(self):
        fitted, rolled = self.models()
        # query a start with an incoming edge first, so a solve keyed
        # without the start would be served to 0.2 from 0.5's entry
        from_mid = fitted.with_initial(0.5).expected_uptime(0.6)
        here = fitted.expected_uptime(0.6)
        assert here == rolled.expected_uptime(0.6)
        assert here == fitted._solve_uptime_dense(2)
        assert here == pytest.approx(
            fitted.expected_uptime_iterative(0.6, max_steps=20_000), rel=1e-9
        )
        # one step to leave 0.2, then the walk from 0.5
        assert here > from_mid
        assert here == pytest.approx(300.0 + from_mid, rel=0.05)
        assert_batch_matches_dense(fitted)
