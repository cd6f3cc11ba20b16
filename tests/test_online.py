import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coal.cost_range import RadiusSchedule
from coal.data import sparse_vector
from coal.driver import LearnerState
from coal.online import (
    ACCUM_FLOOR,
    OnlineRegressor,
    _gap_fraction,
    batch_cost_ranges,
    online_update,
    sensitivity,
)
from coal.synthetic import GroundTruth

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


def test_update_with_a_squared_norm_below_the_float_range_is_noop():
    # 1e-170 squares to 0.0, so |x|^2 is 0 although x has a nonzero value
    g = warmed([0.3, -0.2], [0.5, 0.0])
    online_update(g, sparse_vector([(0, 1e-170)]), 1.0, 1.0)
    assert g.weights.tolist() == [0.3, -0.2]
    assert g.accumulators.tolist() == [0.5, 0.0]


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


def test_one_update_over_a_tables_rows_is_each_rows_update_alone():
    # one online_update over a subset of a table's rows against online_update
    # on each row's own OnlineRegressor view in turn. Each row's residual is
    # its own dot and its decay math.exp, so the rows match bit for bit; rows
    # outside the subset stay as they were, and a zero squared norm moves
    # nothing
    rng = np.random.default_rng(23)
    k, dim = 5, 41  # odd, so that the rows of a dense block start unaligned
    seen = set()
    for trial in range(300):
        weights = rng.uniform(-0.5, 1.0, (k, dim))
        accums = rng.uniform(0.0, 2.0, (k, dim)) * (rng.uniform(size=(k, dim)) < 0.8)
        rate = float(rng.uniform(0.1, 1.0))
        rows = np.sort(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
        costs = rng.uniform(0.0, 1.0, rows.size)
        weight = float(rng.choice([1.0, rng.uniform(0.0, 3.0)]))
        kind = ("dense", "sparse", "zero norm")[trial % 3]
        if kind == "dense":
            x = sparse_vector(list(enumerate(rng.uniform(-1.0, 1.0, dim))))
        elif kind == "sparse":
            x = random_point(rng, dim)
        else:
            x = sparse_vector([(int(rng.integers(dim)), 1e-170)])
        table = OnlineRegressor(weights.copy(), accums.copy(), rate)
        assert online_update(table, x, costs, weight, rows) is table
        alone = OnlineRegressor(weights.copy(), accums.copy(), rate)
        for y, c in zip(rows, costs):
            row = OnlineRegressor(alone.weights[y], alone.accumulators[y], rate)
            online_update(row, x, float(c), weight)
        assert np.array_equal(table.weights, alone.weights), trial
        assert np.array_equal(table.accumulators, alone.accumulators), trial
        untouched = np.setdiff1d(np.arange(k), rows) if kind != "zero norm" else np.arange(k)
        assert np.array_equal(table.weights[untouched], weights[untouched])
        assert np.array_equal(table.accumulators[untouched], accums[untouched])
        if kind != "zero norm":
            assert not np.array_equal(table.accumulators[rows], accums[rows])
        seen.add((kind, rows.size))
    assert seen >= {(kind, q) for kind in ("dense", "sparse") for q in range(1, k + 1)}, seen


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


def test_empty_point_gives_zeros_without_a_special_case():
    # a point with no features predicts 0 and cannot move, for every radius
    rng = np.random.default_rng(5)
    weights, accums = rng.uniform(-0.5, 1.0, (3, 4)), rng.uniform(0.0, 2.0, (3, 4))
    empty = sparse_vector([])
    for delta in (math.inf, 0.3, 0.0, np.array([0.1, math.inf, 0.0])):
        lo, hi = batch_cost_ranges(weights, accums, 0.5, empty, delta)
        assert np.array_equal(lo, np.zeros(3)) and np.array_equal(hi, np.zeros(3))
    assert sensitivity(OnlineRegressor(weights[0], accums[0], 0.5), empty, 1.0) == 0.0
    state = LearnerState(3, 4, RadiusSchedule(n=10, d=4, k=3, delta_prob=0.01), mode="online")
    state.weights[:] = weights
    assert np.array_equal(state.predicted_costs(empty), np.zeros(3))
    assert np.array_equal(GroundTruth(weights, "none").true_costs(empty), np.zeros(3))


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


def per_side_ranges(weight_rows, accum_rows, base_rate, x, deltas):
    """batch_cost_ranges as one pass per side, each gathering its live labels."""

    def gap_moves(gap, s, deltas):
        live = (gap > 0) & (s > 0)
        u = np.zeros(gap.shape)
        u[live] = _gap_fraction(deltas[live] * s[live] / gap[live] ** 3)
        return u * gap

    idx, val = x.indices, x.values
    deltas = np.broadcast_to(np.asarray(deltas, dtype=np.float64), weight_rows.shape[:1])
    raw = weight_rows[:, idx] @ val
    p = np.clip(raw, 0.0, 1.0)
    acc = np.maximum(accum_rows[:, idx], ACCUM_FLOOR)
    scale = (val * val / np.sqrt(acc)).sum(axis=1)
    s_lo = 2.0 * base_rate * np.abs(raw) * scale
    s_hi = 2.0 * base_rate * np.abs(raw - 1.0) * scale
    lo = p - gap_moves(p, s_lo, deltas)
    hi = p + gap_moves(1.0 - p, s_hi, deltas)
    return np.maximum(lo, 0.0), np.minimum(hi, 1.0)


def kernel_cases(rng, k=6, dim=5):
    """Random (weights, accumulators, rate, point, deltas) reaching every kernel case.

    Every point carries feature 0 = 1.0. Label 0 is fresh (raw exactly 0, zero
    accumulators, so no sensitivity toward 0), label 1 predicts exactly 1 on
    feature 0, and the others' raw values spread past both clip ends. One case
    in four is round 1 of the mellow schedule: zero accumulators and delta = inf.
    """
    for trial in range(400):
        weights = rng.uniform(-0.8, 1.8, (k, dim))
        accums = rng.uniform(0.0, 2.0, (k, dim)) * (rng.uniform(size=(k, dim)) < 0.7)
        weights[:2] = 0.0
        weights[1, 0] = 1.0
        accums[0] = 0.0
        size = int(rng.integers(0, dim))
        idx = [0] + sorted(int(i) for i in rng.choice(np.arange(1, dim), size, replace=False))
        vals = [1.0] + list(rng.uniform(0.2, 1.0, size) * rng.choice([-1.0, 1.0], size))
        x = sparse_vector(list(zip(idx, vals)))
        rate = float(rng.uniform(0.1, 1.0))
        kind = trial % 4
        if kind == 0:
            accums[:] = 0.0
            deltas = math.inf
        elif kind == 1:
            deltas = float(10.0 ** rng.uniform(-6, 3))
        else:
            deltas = 10.0 ** rng.uniform(-6, 3, k)
        yield weights, accums, rate, x, deltas


def test_fused_kernel_is_bit_equal_to_the_per_side_passes():
    rng = np.random.default_rng(16)
    seen = {"clip 0": 0, "clip 1": 0, "raw 0": 0, "raw 1": 0, "inside": 0, "saturated": 0}
    for weights, accums, rate, x, deltas in kernel_cases(rng):
        got = batch_cost_ranges(weights, accums, rate, x, deltas)
        want = per_side_ranges(weights, accums, rate, x, deltas)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        raw = weights[:, x.indices] @ x.values
        seen["clip 0"] += int(np.sum(raw < 0.0))
        seen["clip 1"] += int(np.sum(raw > 1.0))
        seen["raw 0"] += int(np.sum(raw == 0.0))
        seen["raw 1"] += int(np.sum(raw == 1.0))
        seen["inside"] += int(np.sum((got[0] > 0.0) & (got[1] < 1.0)))
        seen["saturated"] += int(np.sum((got[0] == 0.0) & (got[1] == 1.0)))
    assert min(seen.values()) > 0, seen


def test_fused_kernel_past_the_float_range_saturates_without_a_warning():
    # delta * s overflows to inf here; the per-side passes need the warning
    # silenced, the kernel silences it only past CALM_RADIUS
    rng = np.random.default_rng(17)
    for weights, accums, rate, x, deltas in kernel_cases(rng):
        deltas = 1e300 * np.asarray(deltas) if np.ndim(deltas) else 1e300
        got = batch_cost_ranges(weights, accums, rate, x, deltas)
        with np.errstate(over="ignore", divide="ignore"):
            want = per_side_ranges(weights, accums, rate, x, deltas)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_fused_kernel_spans_a_gap_whose_cube_underflows_without_a_warning():
    # 1e-110 ** 3 underflows to 0: the division used to warn "divide by zero";
    # the move spans so small a gap, as the saturated root says (a gap of
    # 1e-104 has a subnormal cube, whose quotient overflowed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1e-110, 1e-104):
            lo, hi = batch_cost_ranges(
                np.array([[p], [0.5]]), np.ones((2, 1)), 0.5, sparse_vector([(0, 1.0)]), 0.01
            )
            assert lo[0] == 0.0 and 0.0 < hi[0] < 1.0 and 0.0 < lo[1] < 0.5 < hi[1] < 1.0
