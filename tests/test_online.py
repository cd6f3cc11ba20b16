import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coal.data import sparse_vector
from coal.online import (
    OnlineRegressor,
    _gap_fraction,
    batch_cost_ranges,
    online_update,
    sensitivity,
)

X1 = sparse_vector([(0, 1.0)])


def warmed(weights, accumulators, rate=0.5):
    return OnlineRegressor(np.array(weights, float), np.array(accumulators, float), rate)


def random_state(rng, dim=4, rate=None):
    return OnlineRegressor(
        rng.uniform(-0.5, 1.0, dim),
        rng.uniform(0.05, 2.0, dim),
        rate if rate is not None else float(rng.uniform(0.1, 1.0)),
    )


def random_point(rng, dim=4):
    size = int(rng.integers(1, dim + 1))
    idx = np.sort(rng.choice(dim, size=size, replace=False))
    vals = rng.uniform(0.2, 1.0, size) * rng.choice([-1.0, 1.0], size)
    return sparse_vector([(int(i), float(v)) for i, v in zip(idx, vals)])


def one_range(g, x, delta):
    """(lo, hi) of one regressor: batch_cost_ranges with a single row."""
    lo, hi = batch_cost_ranges(g.weights[None], g.accumulators[None], g.base_rate, x, delta)
    return float(lo[0]), float(hi[0])


def test_zero_weight_update_is_noop():
    g = warmed([0.3], [0.5])
    online_update(g, X1, 1.0, 0.0)
    assert g.weights[0] == 0.3
    assert g.accumulators[0] == 0.5


def test_empty_point_update_is_noop():
    g = warmed([0.3], [0.5])
    online_update(g, sparse_vector([]), 1.0, 2.0)
    assert g.weights[0] == 0.3


def test_update_moves_toward_cost():
    g = warmed([0.0], [0.0], rate=0.01)
    online_update(g, X1, 1.0, 1.0)
    assert g.raw(X1) > 0.0
    assert g.accumulators[0] == 1.0


def test_update_never_overshoots_target():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = random_state(rng)
        x = random_point(rng)
        c = float(rng.uniform())
        before = g.raw(x) - c
        online_update(g, x, c, float(rng.uniform(0.0, 3.0)))
        after = g.raw(x) - c
        # the residual decays geometrically: same sign, smaller magnitude
        assert abs(after) <= abs(before) + 1e-12
        assert after * before >= -1e-12


def test_split_update_equals_single_update():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        g_once = random_state(rng)
        g_twice = OnlineRegressor(
            g_once.weights.copy(), g_once.accumulators.copy(), g_once.base_rate
        )
        x = random_point(rng)
        c = float(rng.uniform())
        w = float(rng.uniform(0.0, 2.0))
        online_update(g_once, x, c, w)
        online_update(g_twice, x, c, w / 2)
        online_update(g_twice, x, c, w / 2)
        worst = max(worst, float(np.abs(g_once.weights - g_twice.weights).max()))
        worst = max(worst, abs(g_once.raw(x) - g_twice.raw(x)))
    assert worst <= 1e-6


def test_update_accepts_negative_weight_while_accumulators_hold():
    g = warmed([0.5], [1.0])
    online_update(g, X1, 1.0, -0.5)
    assert g.accumulators[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        online_update(g, X1, 1.0, -0.6)


def test_update_rejects_non_finite_weight():
    g = warmed([0.5], [1.0])
    with pytest.raises(ValueError):
        online_update(g, X1, 1.0, math.nan)


def test_regressor_validation():
    with pytest.raises(ValueError):
        OnlineRegressor(np.zeros(2), np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        OnlineRegressor(np.zeros(2), np.array([1.0, -1.0]), 0.5)
    with pytest.raises(ValueError):
        OnlineRegressor(np.zeros(2), np.zeros(2), 0.0)


def test_sensitivity_zero_for_empty_point():
    g = warmed([0.5], [1.0])
    assert sensitivity(g, sparse_vector([]), 1.0) == 0.0


def test_sensitivity_zero_at_target():
    g = warmed([0.5], [1.0])
    x = X1  # prediction is exactly 0.5
    assert sensitivity(g, x, 0.5) == 0.0


def test_sensitivity_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = random_state(rng)
        x = random_point(rng)
        t = float(rng.integers(0, 2))
        s = sensitivity(g, x, t)
        if s < 1e-6:
            continue
        step = 1e-5
        plus = OnlineRegressor(g.weights.copy(), g.accumulators.copy(), g.base_rate)
        minus = OnlineRegressor(g.weights.copy(), g.accumulators.copy(), g.base_rate)
        online_update(plus, x, t, step)
        online_update(minus, x, t, -step)
        fd = abs(plus.raw(x) - minus.raw(x)) / (2 * step)
        assert fd == pytest.approx(s, rel=1e-4)


def test_anchor_sensitivity_unit():
    # p = 0.5, one feature with accumulator 0.25 and rate 0.5 gives s = 1
    g = warmed([0.5], [0.25], rate=0.5)
    assert sensitivity(g, X1, 0.0) == pytest.approx(1.0)
    assert sensitivity(g, X1, 1.0) == pytest.approx(1.0)


def test_range_collapses_without_sensitivity():
    g = warmed([0.5], [0.25], rate=0.5)
    # empty point predicts 0 and cannot move
    assert one_range(g, sparse_vector([]), 0.01) == (0.0, 0.0)


def reference_gap_fraction(r):
    """Root u in [0, 1] of u^2 (2 - u) = r by bisection to full float64 precision."""
    if r >= 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid * mid * (2.0 - mid) <= r:
            lo = mid
        else:
            hi = mid
    return lo


def test_range_anchor_cubic_root():
    cases = [
        # lower side solves w^2 - w^3 = 0.01; frozen root from a high-precision solve
        (0.25, 0.01, 0.5 - 0.105747450727784316),
        # s = 5e5, so the break-even weight lies below cap = g / s = 1e-6:
        # delta = r * g^3 / s at r = 0.5 and r = 0.9
        (1e-14, 0.5 * 0.125 / 5e5, 0.201516),
        (1e-14, 0.9 * 0.125 / 5e5, 0.046136),
    ]
    for accum, delta, lo in cases:
        g = warmed([0.5], [accum], rate=0.5)
        range_lo, range_hi = one_range(g, X1, delta)
        # p = 0.5 sits mid-way, so both sides move by the same amount
        assert range_lo == pytest.approx(lo, abs=2e-6)
        assert range_hi == pytest.approx(1.0 - lo, abs=2e-6)


def test_gap_fraction_matches_bisection():
    rng = np.random.default_rng(6)
    r = np.concatenate(
        [
            10.0 ** rng.uniform(-20, -12, 300),
            rng.uniform(0.0, 1.0, 300),
            1.0 - 10.0 ** rng.uniform(-15, -2, 300),
            [0.0, 1.0, 1.5, math.inf],
        ]
    )
    u = _gap_fraction(r)
    ref = np.array([reference_gap_fraction(v) for v in r])
    assert np.abs(u - ref).max() <= 1e-8


def test_range_saturates_for_huge_budget():
    g = warmed([0.5], [0.25], rate=0.5)
    assert one_range(g, X1, 1e9) == (0.0, 1.0)


def test_range_contains_prediction():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_state(rng)
        x = random_point(rng)
        lo, hi = one_range(g, x, float(rng.uniform(0.0001, 1.0)))
        p = min(1.0, max(0.0, g.raw(x)))
        assert lo - 1e-12 <= p <= hi + 1e-12


def test_range_shrinks_with_budget():
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = random_state(rng)
        x = random_point(rng)
        d_small = float(rng.uniform(0.0001, 0.5))
        d_big = d_small + float(rng.uniform(0.0, 1.0))
        small_lo, small_hi = one_range(g, x, d_small)
        big_lo, big_hi = one_range(g, x, d_big)
        assert big_lo <= small_lo + 1e-9
        assert big_hi >= small_hi - 1e-9


@given(st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_breakeven_objective_monotone(p, s):
    # w (p^2 - (p - w s)^2) is nondecreasing on (0, p/s]
    grid = np.linspace(1e-9, p / s, 64)
    vals = grid * (p * p - (p - grid * s) ** 2)
    assert np.all(np.diff(vals) >= -1e-12)


def test_batch_matches_scalar_op():
    rng = np.random.default_rng(5)
    dim = 5
    k = 6
    weights = rng.uniform(-0.5, 1.2, (k, dim))
    accums = rng.uniform(0.0, 2.0, (k, dim))
    rate = 0.7
    for _ in range(20):
        x = random_point(rng, dim)
        deltas = rng.uniform(0.001, 2.0, k)
        lo, hi = batch_cost_ranges(weights, accums, rate, x, deltas)
        for y in range(k):
            g = OnlineRegressor(weights[y].copy(), accums[y].copy(), rate)
            one_lo, one_hi = one_range(g, x, float(deltas[y]))
            assert lo[y] == pytest.approx(one_lo, abs=1e-12)
            assert hi[y] == pytest.approx(one_hi, abs=1e-12)


def test_batch_broadcasts_scalar_delta():
    weights = np.array([[0.5], [0.2]])
    accums = np.array([[0.25], [1.0]])
    lo, hi = batch_cost_ranges(weights, accums, 0.5, X1, 0.01)
    g0 = warmed([0.5], [0.25], rate=0.5)
    one_lo, one_hi = one_range(g0, X1, 0.01)
    assert lo[0] == pytest.approx(one_lo, abs=2e-6)
    assert hi[0] == pytest.approx(one_hi, abs=2e-6)
