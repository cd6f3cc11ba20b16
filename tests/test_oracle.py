import math

import numpy as np
import pytest

from coal.cost_range import RangeProblem
from coal.data import sparse_vector
from coal.oracle import (
    LabelState,
    RIDGE,
    LinearRegressor,
    PrefixBlock,
    WeightedPoint,
    fit_weighted,
    refit,
    solve_bounded_least_squares,
)


def pt(pairs, cost, weight=1.0):
    return WeightedPoint(sparse_vector(pairs), cost, weight)


def test_fit_single_point_interpolates():
    g = fit_weighted([pt([(0, 1.0)], 0.5)], bound=10.0)
    assert sparse_vector([(0, 1.0)]).dot(g.weights) == pytest.approx(0.5, abs=1e-9)


def test_fit_two_points_same_x_averages():
    g = fit_weighted([pt([(0, 1.0)], 0.0), pt([(0, 1.0)], 1.0)], bound=10.0)
    assert sparse_vector([(0, 1.0)]).dot(g.weights) == pytest.approx(0.5, abs=1e-9)


def test_fit_respects_norm_bound_anchor():
    # unconstrained optimum is weight 0.5; the ball stops at 0.25
    g = fit_weighted([pt([(0, 2.0)], 1.0)], bound=0.25)
    assert g.weights[0] == pytest.approx(0.25, abs=1e-8)
    assert sparse_vector([(0, 2.0)]).dot(g.weights) == pytest.approx(0.5, abs=1e-7)

    # independent 1-d grid over the admissible weights
    grid = np.linspace(-0.25, 0.25, 100001)
    objective = (2.0 * grid - 1.0) ** 2
    fitted = (2.0 * g.weights[0] - 1.0) ** 2
    assert fitted <= objective.min() + 1e-10


def test_fit_empty_returns_zero_regressor():
    g = fit_weighted([], bound=10.0, dim=3)
    assert not g.weights.any()


def test_fit_ignores_zero_weight_points():
    anchor = pt([(0, 1.0)], 0.5)
    g1 = fit_weighted([anchor], bound=10.0)
    g2 = fit_weighted([anchor, pt([(0, 1.0)], 1.0, weight=0.0)], bound=10.0)
    assert np.allclose(g1.weights, g2.weights)


def test_weighted_point_validation():
    with pytest.raises(ValueError):
        pt([(0, 1.0)], 0.5, weight=-1.0)
    with pytest.raises(ValueError):
        pt([(0, 1.0)], 1.5)
    with pytest.raises(ValueError):
        pt([(0, 1.0)], math.nan)
    with pytest.raises(ValueError):
        pt([(0, 1.0)], 0.5, weight=math.inf)


def test_regressor_norm_invariant():
    with pytest.raises(ValueError):
        LinearRegressor(np.array([3.0, 4.0]), norm_bound=4.99)
    LinearRegressor(np.array([3.0, 4.0]), norm_bound=5.0)  # exactly on the ball


def test_empirical_risk_round_one_is_zero():
    state = LabelState(1, dim=1)
    assert state.risk_of_weights(np.array([0.7]), 1) == 0.0


def test_empirical_risk_normalizes_by_rounds():
    # one queried point, raw prediction 0.3 vs cost 0.5, evaluated at round 3
    state = LabelState(1, dim=1)
    state.append_point(1, sparse_vector([(0, 1.0)]), 0.5)
    assert state.risk_of_weights(np.array([0.3]), 3) == pytest.approx(0.04 / 2)

    # two queried points with residuals 0.1 and 0.3
    state2 = LabelState(1, dim=1)
    state2.append_point(1, sparse_vector([(0, 1.0)]), 0.4)
    state2.append_point(2, sparse_vector([(0, 1.0)]), 0.0)
    assert state2.risk_of_weights(np.array([0.3]), 3) == pytest.approx((0.01 + 0.09) / 2)


def test_empirical_risk_uses_raw_predictions():
    state = LabelState(1, dim=1)
    state.append_point(1, sparse_vector([(0, 1.0)]), 1.0)
    # raw prediction 1.5; clamped it would be 1.0
    assert state.risk_of_weights(np.array([1.5]), 2) == pytest.approx(0.25)


def test_risk_only_counts_prefix_rounds():
    state = LabelState(1, dim=1)
    state.append_point(1, sparse_vector([(0, 1.0)]), 0.0)
    state.append_point(5, sparse_vector([(0, 1.0)]), 1.0)
    w = np.array([0.0])
    # round 4 sees only the first point
    assert state.risk_of_weights(w, 4) == pytest.approx(0.0)
    assert state.risk_of_weights(w, 6) == pytest.approx(1.0 / 5)


def _random_instance(rng):
    d = rng.integers(1, 5)
    n = rng.integers(1, 9)
    bound = rng.choice([0.3, 1.0, 10.0])
    points = []
    for _ in range(n):
        idx = rng.choice(d, size=rng.integers(1, d + 1), replace=False)
        pairs = [(int(i), float(rng.normal())) for i in sorted(idx)]
        points.append(pt(pairs, float(rng.uniform()), float(rng.uniform(0.0, 2.0))))
    return points, float(bound), int(d)


def _objective(weights, points, dim):
    total = 0.0
    for p in points:
        total += p.weight * (p.features.dot(weights) - p.cost) ** 2
    return total


def test_oracle_optimality_against_random_feasible_regressors():
    rng = np.random.default_rng(7)
    for _ in range(200):
        points, bound, d = _random_instance(rng)
        g = fit_weighted(points, bound, dim=d)
        best = _objective(g.weights, points, d)
        # 1000 random points of the ball, dense near the boundary
        dirs = rng.normal(size=(1000, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = bound * rng.uniform(size=(1000, 1)) ** (1.0 / d)
        for w in dirs * radii:
            assert best <= _objective(w, points, d) + 1e-8


def test_feasible_set_is_convex():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = rng.integers(1, 6)
        bound = float(rng.uniform(0.1, 5.0))
        a = rng.normal(size=d)
        b = rng.normal(size=d)
        a *= bound / max(np.linalg.norm(a), bound)
        b *= bound / max(np.linalg.norm(b), bound)
        lam = float(rng.uniform())
        assert np.linalg.norm(lam * a + (1 - lam) * b) <= bound + 1e-12


def test_added_point_monotonicity():
    # heavier fake point: risk on the rest rises, fit at the fake point tightens
    rng = np.random.default_rng(13)
    for _ in range(100):
        points, bound, d = _random_instance(rng)
        fake_x = sparse_vector([(i, float(rng.normal())) for i in range(d)])
        c = float(rng.uniform())
        w_small = float(rng.uniform(0.0, 1.0))
        w_big = w_small + float(rng.uniform(0.0, 2.0))
        g_small = fit_weighted(points + [WeightedPoint(fake_x, c, w_small)], bound, dim=d)
        g_big = fit_weighted(points + [WeightedPoint(fake_x, c, w_big)], bound, dim=d)
        risk_small = _objective(g_small.weights, points, d)
        risk_big = _objective(g_big.weights, points, d)
        assert risk_big >= risk_small - 1e-8
        res_small = (fake_x.dot(g_small.weights) - c) ** 2
        res_big = (fake_x.dot(g_big.weights) - c) ** 2
        assert res_big <= res_small + 1e-8


def projected_gradient(gram, moment, bound, start, steps=2000):
    """Reference minimiser of w'Gw - 2b'w over ||w|| <= bound."""
    step = 1.0 / (2.0 * max(np.linalg.eigvalsh(gram)[-1], 1e-12))
    v = start
    for _ in range(steps):
        v = v - step * 2.0 * (gram @ v - moment)
        v = v * min(1.0, bound / np.linalg.norm(v))
    return v


def test_solve_bounded_matches_closed_form_on_diagonal():
    # min (w1-1)^2 + (w2-2)^2 s.t. ||w|| <= 1: radial projection of (1, 2)
    gram = np.eye(2)
    moment = np.array([1.0, 2.0])
    w = solve_bounded_least_squares(gram, moment, bound=1.0)
    expected = moment / np.linalg.norm(moment)
    assert np.allclose(w, expected, atol=1e-9)

    # random non-diagonal PSD grams (some rank-deficient) with the ball
    # active: the KKT solution sits on the sphere and no feasible reference
    # point, radial projection or projected gradient, has a lower objective
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        rows = rng.normal(size=(int(rng.integers(1, 2 * d)), d))
        gram = rows.T @ rows * float(rng.uniform(0.1, 10.0))
        moment = gram @ rng.normal(size=d) + 0.1 * rng.normal(size=d)
        free = np.linalg.solve(gram + RIDGE * np.eye(d), moment)
        bound = float(rng.uniform(0.05, 0.95)) * min(np.linalg.norm(free), 10.0)
        w = solve_bounded_least_squares(gram, moment, bound)
        assert abs(np.linalg.norm(w) - bound) <= 1e-9

        def objective(v):
            return float(v @ gram @ v - 2.0 * (moment @ v))

        radial = free * (bound / np.linalg.norm(free))
        reference = projected_gradient(gram, moment, bound, radial)
        obj = objective(w)
        slack = 1e-12 * max(1.0, abs(obj))
        assert obj <= objective(radial) + slack
        assert obj <= objective(reference) + slack


def test_solve_bounded_returns_the_minimum_norm_solution_on_a_singular_system():
    # at this scale a 1e-12 ridge is lost in rounding, so no ridge makes the
    # system regular; the eigenbasis drops the null direction instead
    gram = np.full((2, 2), 1e5)
    moment = np.array([5e4, 5e4])
    w = solve_bounded_least_squares(gram, moment, bound=10.0)
    assert np.all(np.isfinite(w))
    assert np.linalg.norm(w) <= 10.0
    # every w with w1 + w2 = 0.5 minimises; the solve returns the one of least norm
    assert np.allclose(gram @ w, moment, rtol=0, atol=1e-9)
    assert np.allclose(w, np.linalg.pinv(gram) @ moment, rtol=0, atol=1e-12)
    assert np.allclose(w, [0.25, 0.25], rtol=0, atol=1e-12)


def rank_deficient_sums(rng):
    """Gram and moment of points in a random subspace, summed in two orders."""
    d = int(rng.integers(3, 7))
    basis = rng.normal(size=(int(rng.integers(1, d)), d))
    points = rng.normal(size=(int(rng.integers(1, 8)), basis.shape[0])) @ basis
    costs = rng.uniform(size=len(points))
    sums = []
    for order in (range(len(points)), reversed(range(len(points)))):
        gram, moment = np.zeros((d, d)), np.zeros(d)
        for i in order:
            gram += np.outer(points[i], points[i])
            moment += costs[i] * points[i]
        sums.append((gram, moment))
    return basis, sums


def test_solve_bounded_keeps_rank_deficient_weights_on_the_span():
    # the minimum-norm minimiser lies in the span of the points: nothing of
    # the rounding on the Gram's null directions may reach the weights
    rng = np.random.default_rng(41)
    for _ in range(200):
        basis, sums = rank_deficient_sums(rng)
        q, _ = np.linalg.qr(basis.T)
        bound = float(rng.choice((0.5, 10.0)))
        first, second = (solve_bounded_least_squares(g, h, bound) for g, h in sums)
        for w in (first, second):
            off_span = w - q @ (q.T @ w)
            assert np.linalg.norm(off_span) <= 1e-12 * max(1.0, np.linalg.norm(w))
        assert np.linalg.norm(first - second) <= 1e-12 * max(1.0, np.linalg.norm(first))


def reference_solve(gram, moment, bound):
    """solve_bounded_least_squares as first written: eye-built ridge, norm test."""
    d = gram.shape[0]
    h = (gram + gram.T) / 2.0 + RIDGE * np.eye(d)
    w = np.linalg.solve(h, moment)
    if np.linalg.norm(w) <= bound:
        return w
    lam, q = np.linalg.eigh(h)
    beta = q.T @ moment
    lo, hi = 0.0, float(np.linalg.norm(beta)) / bound + 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if np.sum((beta / (lam + mid)) ** 2) > bound * bound:
            lo = mid
        else:
            hi = mid
    return q @ (beta / (lam + (lo + hi) / 2.0))


def random_augmented_rows(rng, d):
    """A (d+1, d+1) block [[G, h], [h', s]] of a random PSD Gram, as the games hold."""
    rows = rng.normal(size=(int(rng.integers(1, 2 * d + 1)), d + 1))
    block = rows.T @ rows
    block[d, d] = float(rng.uniform())
    return block


def test_label_history_is_the_augmented_row_the_games_stack():
    rng = np.random.default_rng(43)
    d = 3
    state = LabelState(1, dim=d)
    augmented = []
    for r in range(1, 12):
        if r % 3:  # some rounds query nothing: their ledger entries share a prefix
            xd = rng.normal(size=d)
            cost = float(rng.uniform())
            state.append_point(r, sparse_vector(list(enumerate(xd))), cost)
            augmented.append(np.append(xd, cost))
        state.append_ledger(r + 1, 0.0, 0.5)

    for count in range(state.n_points + 1):
        row = state.prefix_row(count)
        want = np.zeros((d + 1, d + 1))
        for u in augmented[:count]:
            want = want + np.outer(u, u)
        assert np.array_equal(row, want)
        gram, moment, sq = state.prefix_sums(count)
        if count:  # the empty prefix's row is built anew on each call
            assert np.shares_memory(gram, row) and np.shares_memory(moment, row)
        assert np.array_equal(gram, want[:d, :d]) and np.array_equal(moment, want[:d, d])
        assert sq == want[d, d]

    problem = RangeProblem(sparse_vector([(0, 1.0)]), state, 10.0)
    rounds = state.constraint_view()[0]
    assert problem.m == len(rounds) > 1
    for j, round_j in enumerate(rounds, start=1):
        for _ in range(5):
            w = rng.normal(size=d)
            v = np.append(w, -1.0)
            game_value = float(problem.stack[j] @ np.outer(v, v).ravel())
            want = max(game_value, 0.0) / (round_j - 1)
            assert state.risk_of_weights(w, int(round_j)) == pytest.approx(want, rel=1e-12)


def test_solve_bounded_reads_strided_views_and_leaves_them_unchanged():
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        stack = np.stack([random_augmented_rows(rng, d) for _ in range(3)])
        gram, moment = stack[1, :d, :d], stack[1, :d, d]  # strided views
        assert not moment.flags.c_contiguous or d == 1
        before = stack.copy()
        free = np.linalg.norm(np.linalg.lstsq(gram, moment, rcond=None)[0])
        bound = float(rng.choice((0.5, 2.0))) * free  # about half ball-active
        w = solve_bounded_least_squares(gram, moment, bound)
        assert np.array_equal(stack, before)
        copied = solve_bounded_least_squares(gram.copy(), moment.copy(), bound)
        assert np.array_equal(w, copied)


def test_solve_bounded_agrees_with_the_first_form():
    # asymmetric Grams: the eigenbasis solve symmetrises as (g + g')/2 does,
    # and agrees with the ridge-and-bisection form to rounding on both the
    # interior and the sphere path
    rng = np.random.default_rng(37)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        rows = rng.normal(size=(d + 1, d))
        gram = rows.T @ rows + 1e-3 * rng.normal(size=(d, d))
        moment = rng.normal(size=d)
        bound = float(rng.uniform(0.01, 3.0))
        before = gram.copy()
        got = solve_bounded_least_squares(gram, moment, bound)
        assert np.array_equal(gram, before)
        want = reference_solve(gram, moment, bound)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
        sym = (gram + gram.T) / 2.0

        def objective(v):
            return float(v @ sym @ v - 2.0 * (moment @ v))

        assert abs(objective(got) - objective(want)) <= 1e-12 * abs(objective(want))
        assert np.linalg.norm(got) <= bound * (1.0 + 1e-12)


def test_label_state_enforces_round_order_and_cost_range():
    state = LabelState(1, dim=2)
    state.append_point(3, sparse_vector([(0, 1.0)]), 0.5)
    with pytest.raises(ValueError):
        state.append_point(3, sparse_vector([(0, 1.0)]), 0.5)
    with pytest.raises(ValueError):
        state.append_point(4, sparse_vector([(0, 1.0)]), 1.5)


def test_ledger_entry_budget_is_risk_plus_radius():
    state = LabelState(1, dim=1)
    state.append_point(1, sparse_vector([(0, 1.0)]), 0.5)
    entry = state.append_ledger(2, 0.125, 0.5)
    assert entry.delta_tilde == pytest.approx(0.625)
    with pytest.raises(ValueError):
        state.append_ledger(2, 0.0, 0.5)  # rounds must increase


def test_constraint_view_keeps_first_entry_per_prefix():
    state = LabelState(1, dim=1)
    state.append_point(1, sparse_vector([(0, 1.0)]), 0.5)
    state.append_ledger(2, 0.1, 1.0)
    state.append_ledger(3, 0.1, 0.9)  # same prefix, later round: redundant
    state.append_point(3, sparse_vector([(0, 1.0)]), 0.5)
    state.append_ledger(4, 0.2, 0.8)
    rounds, counts, budgets, radii = state.constraint_view()
    assert list(rounds) == [2, 4]
    assert list(counts) == [1, 2]
    assert budgets == pytest.approx([1.1, 1.0])
    assert radii == pytest.approx([1.0, 0.8])
    assert len(state.ledger) == 3  # the full ledger keeps every entry


def test_erm_weights_match_fit_weighted():
    rng = np.random.default_rng(3)
    state = LabelState(1, dim=3)
    points = []
    for j in range(6):
        pairs = [(i, float(rng.normal())) for i in range(3)]
        c = float(rng.uniform())
        x = sparse_vector(pairs)
        state.append_point(j + 1, x, c)
        points.append(WeightedPoint(x, c, 1.0))
    w_state = state.erm_weights(7, bound=10.0)
    w_direct = fit_weighted(points, 10.0, dim=3).weights
    assert np.allclose(w_state, w_direct, atol=1e-8)


def test_stacked_solve_matches_each_lone_system_bit_for_bit():
    # the refit solves a round's systems with one eigh; each answer is that
    # of the system solved alone, bit for bit, whether it lies inside the
    # ball, on its sphere, or comes from a singular or an empty Gram
    rng = np.random.default_rng(31)
    seen = {"inside": 0, "sphere": 0, "singular": 0, "empty": 0}
    for d in range(1, 7):
        for _ in range(40):
            systems = []
            for _ in range(int(rng.integers(1, 6))):
                rank = int(rng.integers(0, d + 1))  # below d: a singular Gram; 0: an empty one
                points = rng.normal(size=(int(rng.integers(1, 2 * d + 1)), rank))
                points = points @ rng.normal(size=(rank, d))
                costs = rng.uniform(size=len(points))
                systems.append((points.T @ points, points.T @ costs))
            grams, moments = map(np.array, zip(*systems))
            bound = float(rng.choice((0.1, 1.0, 10.0)))
            got = solve_bounded_least_squares(grams, moments, bound)
            for gram, moment, weights in zip(grams, moments, got):
                want = solve_bounded_least_squares(gram, moment, bound)
                assert np.array_equal(weights, want)
                norm = np.linalg.norm(want)
                seen["empty"] += not gram.any()
                seen["singular"] += bool(gram.any()) and np.linalg.matrix_rank(gram) < d
                seen["sphere" if norm >= bound * (1 - 1e-9) else "inside"] += 1
    assert min(seen.values()) >= 20, seen


def test_label_joining_a_filled_block_is_refused():
    # the block's arrays and its filled list hold no lane for a late label,
    # so every later cost range on the block would fail; LearnerState builds
    # all its labels first. The history is in the block from the first point,
    # before any prefix.
    block = PrefixBlock(1)
    first = LabelState(1, 1, block)
    first.append_point(1, sparse_vector([(0, 1.0)]), 0.5)
    with pytest.raises(ValueError, match="before any point"):
        LabelState(2, 1, block)
    assert block.labels == [first] and first.n_prefixes == 0
    first.append_ledger(2, 0.0, 0.1)
    before = first.prefix_cache()
    with pytest.raises(ValueError, match="before any point"):
        LabelState(2, 1, block)
    assert block.labels == [first]
    assert all(np.array_equal(a, b) for a, b in zip(before, first.prefix_cache()))


def test_refit_memo_matches_each_label_fitted_alone():
    # refit fills the erm_weights memo of many labels with one stacked solve:
    # the weights are those of each label's own system solved alone, bit for
    # bit, on full-rank and rank-deficient histories alike
    rng = np.random.default_rng(53)
    for d in range(1, 10):
        for _ in range(12):
            block = PrefixBlock(d)
            labels = [LabelState(y, d, block) for y in range(1, 5)]
            basis = rng.normal(size=(int(rng.integers(1, d + 1)), d))
            round_i = 1
            for round_i in range(1, int(rng.integers(2, 3 * d + 3))):
                for label in labels:
                    if rng.uniform() < 0.6:
                        z = rng.normal(size=len(basis)) @ basis
                        x, cost = sparse_vector(list(enumerate(z))), float(rng.uniform())
                        label.append_point(round_i, x, cost)
            bound = float(rng.choice((0.1, 1.0, 10.0)))
            refit(labels, round_i + 1, bound)
            for label in labels:
                g, h, _ = label.prefix_sums(label.n_points)
                assert label._fit[:2] == (label.n_points, bound)
                assert np.array_equal(label._fit[2], solve_bounded_least_squares(g, h, bound))
                assert label.erm_weights(round_i + 1, bound) is label._fit[2]
