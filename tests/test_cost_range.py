import math

import numpy as np
import pytest

from coal.cost_range import (
    CERTIFICATE_SLACK,
    CHECK_EVERY,
    CostInterval,
    MwConfig,
    MwFeasible,
    MwInfeasible,
    MwSettings,
    RadiusSchedule,
    RangeProblem,
    cost_interval,
    eps_bound,
    max_cost,
    min_cost,
    mw_config_for,
    mw_iterations,
    radius,
    separation_oracle,
)
from coal.data import sparse_vector
from coal.oracle import (
    LabelState,
    LinearRegressor,
    WeightedPoint,
    fit_weighted,
    solve_bounded_least_squares,
)
from coal.synthetic import brute_force_cost_range

X1 = sparse_vector([(0, 1.0)])


def single_point_state(cost=0.3, budget_risk=0.0, delta=0.04, dim=1):
    """One queried point at x=[1] plus one ledger constraint at round 2."""
    state = LabelState(1, dim=dim)
    state.append_point(1, X1, cost)
    state.append_ledger(2, budget_risk, delta)
    return state


# ---------------------------------------------------------------- radii


def test_radius_round_one_theory():
    sched = RadiusSchedule(n=100, d=4, k=2, delta_prob=0.01, kappa=3.0)
    assert radius(1, sched) == 3.0


def test_radius_theory_saturates_at_kappa():
    # the concentration term is far above 1 at this scale
    sched = RadiusSchedule(n=100, d=4, k=2, delta_prob=0.01, kappa=3.0)
    assert eps_bound(100, 4, 2, 0.01) == pytest.approx(12188.30261145533)
    assert radius(2, sched) == 3.0


def test_radius_mellow_evaluates_prefix_eps():
    sched = RadiusSchedule(
        n=10**6, d=1, k=2, delta_prob=0.01, mode="mellow", mellowness=0.01
    )
    assert radius(101, sched) == pytest.approx(0.7415198993547679, rel=1e-12)
    assert math.isinf(radius(1, sched))


def test_radius_rejects_round_zero():
    sched = RadiusSchedule(n=10, d=1, k=2, delta_prob=0.01)
    with pytest.raises(ValueError):
        radius(0, sched)


def test_schedule_validation():
    with pytest.raises(ValueError):
        RadiusSchedule(n=10, d=1, k=2, delta_prob=0.5)  # delta above 1/e
    with pytest.raises(ValueError):
        RadiusSchedule(n=10, d=1, k=2, delta_prob=0.01, kappa=1.5)  # theory floor
    RadiusSchedule(n=10, d=1, k=2, delta_prob=0.01, kappa=1.5, mode="mellow")
    for bad in ({"kappa": math.nan}, {"mode": "mellow", "mellowness": math.nan}):
        with pytest.raises(ValueError):
            RadiusSchedule(n=10, d=1, k=2, delta_prob=0.01, **bad)


def test_radius_nonincreasing_after_round_one():
    sched = RadiusSchedule(n=10**7, d=3, k=4, delta_prob=0.05, kappa=3.0)
    vals = [radius(i, sched) for i in range(2, 200)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- config


def test_mw_config_eta_formula():
    cfg = mw_config_for(5, 100, rho=3.0)
    assert cfg.t == 100
    assert cfg.eta == pytest.approx(0.12686362411795196, rel=1e-12)
    assert cfg.rho == 3.0


def test_mw_config_floors_t_to_keep_eta_small():
    cfg = mw_config_for(100, 1, rho=3.0)
    assert cfg.t == 19  # ceil(4 log 100)
    assert cfg.eta == pytest.approx(0.4923183707824639, rel=1e-12)
    assert cfg.eta <= 0.5


def test_mw_config_validation():
    with pytest.raises(ValueError):
        MwConfig(t=0, eta=0.1, rho=3.0)
    with pytest.raises(ValueError):
        MwConfig(t=10, eta=0.6, rho=3.0)
    with pytest.raises(ValueError):
        MwConfig(t=10, eta=0.1, rho=0.0)


def test_mw_iterations_formula_and_cap():
    assert mw_iterations(3, 2.0, 0.5) == 799
    assert mw_iterations(3, 0.001, 0.1) == 2000  # capped
    assert mw_iterations(3, math.inf, 0.5) == 1  # vacuous radius
    custom = MwSettings(t_max=50)
    assert mw_iterations(3, 0.001, 0.1, custom) == 50


def test_cost_interval_invariants():
    CostInterval(0.2, 0.1, tol=0.06)  # inverted within 2*tol is allowed
    with pytest.raises(ValueError):
        CostInterval(0.5, 0.1, tol=0.01)
    with pytest.raises(ValueError):
        CostInterval(-0.1, 0.5, tol=0.0)
    with pytest.raises(ValueError):
        CostInterval(0.1, 1.5, tol=0.0)
    assert CostInterval(0.25, 0.75, 0.0).width == pytest.approx(0.5)


# ------------------------------------------------------- separation oracle


def test_separation_objective_only_fits_target():
    state = single_point_state()
    g = separation_oracle([1.0, 0.0], 1, X1, state, bound=10.0)
    assert (X1.dot(g.weights) - 1.0) ** 2 == pytest.approx(0.0, abs=1e-9)


def test_separation_single_round_recovers_erm():
    state = single_point_state()
    g = separation_oracle([0.0, 1.0], 1, X1, state, bound=10.0)
    erm = state.erm_weights(2, 10.0)
    assert np.allclose(g.weights, erm, atol=1e-8)


def test_separation_mixed_weights_match_normal_equations():
    # objective: mu0 (g - 1)^2 + mu1 (g - 0.3)^2 on scalar g (x = [1])
    state = single_point_state(cost=0.3)
    mu0, mu1 = 0.25, 2.0
    g = separation_oracle([mu0, mu1], 1, X1, state, bound=10.0)
    expected = (mu0 * 1.0 + mu1 * 0.3) / (mu0 + mu1)
    assert g.weights[0] == pytest.approx(expected, abs=1e-9)


def test_separation_oracle_aggregates_nested_prefixes():
    # two ledger entries; the round-1 point is inside both prefixes
    state = LabelState(1, dim=1)
    state.append_point(1, X1, 0.2)
    state.append_ledger(2, 0.0, 0.5)
    state.append_point(2, X1, 0.8)
    state.append_ledger(3, 0.09, 0.5)
    mu = [0.5, 1.0, 3.0]
    g = separation_oracle(mu, 0, X1, state, bound=10.0)
    # hand-built normal equations over the same weighted squared losses:
    # mu0 (g-0)^2 + mu1/(2-1) (g-0.2)^2 + mu2/(3-1) [(g-0.2)^2 + (g-0.8)^2]
    w_fake, w1, w2 = mu[0], mu[1] / 1.0, mu[2] / 2.0
    num = w1 * 0.2 + w2 * (0.2 + 0.8)
    den = w_fake + w1 + 2 * w2
    assert g.weights[0] == pytest.approx(num / den, abs=1e-9)


def separation_by_points(mu, t, x, points, ledger_rounds, bound, dim):
    """Reference best response: one WeightedPoint per queried point, weighted
    by every ledger constraint whose prefix holds it, fitted by fit_weighted.

    Also returns the Gram matrix of the weighted points.
    """
    weighted = [WeightedPoint(x, float(t), float(mu[0]))]
    for round_q, xq, cost in points:
        agg = sum(
            mu[1 + j] / (round_j - 1)
            for j, round_j in enumerate(ledger_rounds)
            if round_q < round_j
        )
        weighted.append(WeightedPoint(xq, cost, agg))
    dense = [(p.weight, p.features.to_dense(dim)) for p in weighted]
    gram = sum(w * np.outer(v, v) for w, v in dense)
    return fit_weighted(weighted, bound, dim=dim), gram


@pytest.mark.parametrize("bound", [0.05, 0.5, 10.0])
def test_separation_oracle_matches_per_point_aggregation(bound):
    rng = np.random.default_rng(17)
    for _ in range(60):
        dim = int(rng.integers(1, 5))
        state = LabelState(1, dim=dim)
        points, ledger_rounds = [], []
        for round_i in range(1, int(rng.integers(2, 10))):
            if rng.uniform() < 0.6:  # otherwise the next entry adds no new point
                x = sparse_vector([(i, float(rng.normal())) for i in range(dim)])
                cost = float(rng.uniform())
                state.append_point(round_i, x, cost)
                points.append((round_i, x, cost))
            state.append_ledger(round_i + 1, float(rng.uniform(0, 0.1)), 0.5)
            ledger_rounds.append(round_i + 1)
        mu = rng.exponential(size=1 + len(ledger_rounds))
        mu[rng.uniform(size=mu.size) < 0.3] = 0.0
        x = sparse_vector([(i, float(rng.normal())) for i in range(dim)])
        t = int(rng.integers(0, 2))
        got = separation_oracle(mu, t, x, state, bound=bound)
        want, gram = separation_by_points(mu, t, x, points, ledger_rounds, bound, dim)
        # Off the span of the weighted points the objective is flat: there the
        # regularized Gram's eigenvalue is RIDGE, and both fits hold rounding
        # noise divided by RIDGE, which differs between the two sums. Compare
        # the weights on the span, where the objective pins them.
        lam, q = np.linalg.eigh(gram)
        span = q[:, lam > 1e-6 * lam.max()]
        assert np.abs(span.T @ (got.weights - want.weights)).max(initial=0.0) <= 1e-9


def test_separation_oracle_validates_mu():
    state = single_point_state()
    with pytest.raises(ValueError):
        separation_oracle([1.0], 1, X1, state)
    with pytest.raises(ValueError):
        separation_oracle([1.0, -0.5], 1, X1, state)


def test_separation_all_zero_mu_returns_zero_regressor():
    state = single_point_state()
    g = separation_oracle([0.0, 0.0], 1, X1, state, bound=10.0)
    assert not g.weights.any()


# --------------------------------------------------------- mw feasibility


def test_mw_empty_ledger_is_feasible():
    state = LabelState(1, dim=1)
    cfg = mw_config_for(1, 50, rho=3.0)
    res = RangeProblem(X1, state, 10.0).run(1.0, 1, cfg)
    assert res.feasible
    assert res.iterations == 1  # no adversary to play against
    assert res.value_averages[0] == pytest.approx(0.0, abs=1e-9)


def test_mw_pinned_class_reports_infeasible():
    # version space pins g(x) to ~0.2; (g-1)^2 <= 0 is hopeless
    state = single_point_state(cost=0.2, delta=1e-6)
    cfg = mw_config_for(2, 2000, rho=3.0)
    res = RangeProblem(X1, state, 10.0).run(0.0, 1, cfg)
    assert not res.feasible
    assert res.certificate_value >= res.threshold + 1e-9
    assert res.weights.size == 2


def test_mw_feasible_guess_never_certified():
    # guess far above the true optimum: must come back feasible
    state = single_point_state(cost=0.2, delta=0.01)
    cfg = mw_config_for(2, 500, rho=3.0)
    res = RangeProblem(X1, state, 10.0).run(0.9, 1, cfg)
    assert res.feasible


def test_mw_average_violations_within_theorem_slack():
    rng = np.random.default_rng(5)
    settings = MwSettings(early_stop=False)
    for _ in range(10):
        state = LabelState(1, dim=2)
        for j in range(4):
            pairs = [(0, 1.0), (1, float(rng.normal()))]
            state.append_point(j + 1, sparse_vector(pairs), float(rng.uniform()))
        state.append_ledger(5, 0.0, float(rng.uniform(0.3, 1.0)))
        probe = sparse_vector([(0, 1.0), (1, float(rng.normal()))])
        t_budget = 400
        cfg = mw_config_for(2, t_budget, rho=3.0)
        res = RangeProblem(probe, state, 2.0).run(1.0, 1, cfg, settings)
        assert res.feasible
        bound = 2.0 * cfg.rho * math.sqrt(math.log(2) / cfg.t)
        assert res.violations.max(initial=0.0) <= bound + 1e-12
        assert res.iterations == cfg.t


def two_part_game(x, state, bound, c, t, cfg, settings):
    """Reference game: the target's terms kept apart from the ledger stack.

    This is the loop RangeProblem.run played before the target became row 0
    of its constraint stack: the target's Gram, moment and value are formed
    on their own and joined to the m ledger rows, with branches for m = 0.
    """
    x = x.to_dense(state.dim)
    xx = np.outer(x, x)
    rounds, counts, budgets, radii = state.constraint_view()
    denoms = (rounds - 1).astype(np.float64)
    m = int(rounds.size)
    gram_stack = np.zeros((m, x.size, x.size))
    moment_stack = np.zeros((m, x.size))
    sq_stack = np.zeros(m)
    for j, count in enumerate(counts):
        gram_stack[j], moment_stack[j], sq_stack[j] = state.prefix_sums(count)
    bounds = np.concatenate(([c], budgets))
    widths = np.concatenate(([2.0], radii + 1.0))
    mu = np.full(m + 1, 1.0 / (m + 1))
    t_loop = cfg.t if cfg.eta > 0 else 1
    slack_target = 2.0 * cfg.rho * math.sqrt(math.log(m + 1) / cfg.t) if m else 0.0

    weight_sum = np.zeros(x.size)
    value_sum = np.zeros(m + 1)
    it = 0
    for it in range(1, t_loop + 1):
        nu = mu[1:] / denoms if m else mu[1:]
        h = mu[0] * xx
        b = mu[0] * t * x
        if m:
            h = h + np.einsum("m,mij->ij", nu, gram_stack)
            b = b + nu @ moment_stack
        w = solve_bounded_least_squares(h, b, bound)
        fake = (w @ x - t) ** 2
        if m:
            quads = (
                np.einsum("mij,i,j->m", gram_stack, w, w)
                - 2.0 * (moment_stack @ w)
                + sq_stack
            )
            risks = np.maximum(quads, 0.0) / denoms
        else:
            risks = np.empty(0)
        values = np.concatenate(([fake], risks))
        gap = mu @ (values - bounds)
        if gap >= CERTIFICATE_SLACK:
            return MwInfeasible(it, float(mu @ values), float(mu @ bounds), mu.copy())
        value_sum += values
        weight_sum += w
        if cfg.eta > 0:
            ratios = np.clip((bounds - values) / widths, -1.0, 1.0)
            mu = mu * (1.0 - cfg.eta * ratios)
            mu = mu / mu.sum()
        if (
            settings.early_stop
            and it < t_loop
            and it % CHECK_EVERY == 0
            and np.all(value_sum / it <= bounds + slack_target)
        ):
            break
    avg = value_sum / it
    return MwFeasible(
        regressor=LinearRegressor(weight_sum / it, bound),
        value_averages=avg,
        violations=np.maximum(avg - bounds, 0.0),
        iterations=it,
    )


def random_ledger_state(rng, dim, m, bound):
    """A label state with m deduplicated ledger constraints.

    Points are drawn from a random subspace of rank at most dim, so about
    half the stacks are rank-deficient; some ledger rounds add no point.
    """
    basis = rng.normal(size=(dim, int(rng.integers(1, dim + 1))))
    state = LabelState(1, dim=dim)
    round_i = 1
    for _ in range(m):
        z = basis @ rng.normal(size=basis.shape[1])
        x = sparse_vector([(i, float(v)) for i, v in enumerate(z)])
        state.append_point(round_i, x, float(rng.uniform()))
        for _ in range(int(rng.integers(1, 3))):  # a repeat adds no constraint
            round_i += 1
            erm = state.erm_weights(round_i, bound)
            risk = state.risk_of_weights(erm, round_i)
            state.append_ledger(round_i, risk, float(rng.uniform(0.001, 0.3)))
    return state, basis


@pytest.mark.parametrize("bound", [0.5, 2.0, 10.0])
def test_stacked_game_matches_two_part_reference(bound):
    rng = np.random.default_rng(23)
    for dim in range(1, 6):
        for m in range(12):
            state, basis = random_ledger_state(rng, dim, m, bound)
            # the probe leaves the points' span in about half the cases
            z = basis @ rng.normal(size=basis.shape[1])
            if rng.uniform() < 0.5:
                z = z + rng.normal(size=dim)
            x = sparse_vector([(i, float(v)) for i, v in enumerate(z)])
            problem = RangeProblem(x, state, bound)
            assert problem.m == m
            for target in (0, 1):
                for early_stop in (True, False):
                    settings = MwSettings(early_stop=early_stop)
                    # a small rho shrinks the slack, so the early stop waits
                    rho = float(rng.choice((0.03, 0.3, 3.0)))
                    cfg = mw_config_for(m + 1, int(rng.integers(1, 65)), rho)
                    c = float(rng.uniform()) ** 2
                    got = problem.run(c, target, cfg, settings)
                    want = two_part_game(x, state, bound, c, target, cfg, settings)
                    assert got.feasible == want.feasible
                    assert got.iterations == want.iterations
                    if not want.feasible:
                        assert got.certificate_value == pytest.approx(
                            want.certificate_value, abs=1e-12
                        )
                        assert got.threshold == pytest.approx(want.threshold, abs=1e-12)
                        assert np.abs(got.weights - want.weights).max() <= 1e-12
                        continue
                    assert np.abs(got.value_averages - want.value_averages).max() <= 1e-12
                    assert np.abs(got.violations - want.violations).max() <= 1e-12
                    # Off the span of the stack's Grams the game's objective
                    # is flat: there both sides hold rounding noise divided by
                    # the ridge, and the two orders of summation round apart.
                    lam, q = np.linalg.eigh(problem.grams.sum(axis=0))
                    span = q[:, lam > 1e-6 * lam.max(initial=0.0)]
                    diff = got.regressor.weights - want.regressor.weights
                    assert np.abs(span.T @ diff).max(initial=0.0) <= 1e-9


# ------------------------------------------------------------ max / min


def test_round_one_interval_is_everything():
    state = LabelState(1, dim=1)
    hi = max_cost(X1, state, tol=0.2, round_i=1, delta_i=3.0)
    lo = min_cost(X1, state, tol=0.2, round_i=1, delta_i=3.0)
    assert hi.value == pytest.approx(1.0, abs=1e-9)
    assert lo.value == pytest.approx(0.0, abs=1e-9)


def test_constant_class_interval_anchor():
    # (g - 0.3)^2 <= 0.04 confines predictions at x=[1] to [0.1, 0.5]
    state = single_point_state(cost=0.3, budget_risk=0.0, delta=0.04)
    settings = MwSettings(t_max=20000)
    hi = max_cost(X1, state, tol=0.05, round_i=2, delta_i=0.04, settings=settings)
    lo = min_cost(X1, state, tol=0.05, round_i=2, delta_i=0.04, settings=settings)
    # sound side: never inside the true range
    assert hi.value >= 0.5 - 1e-9
    assert lo.value <= 0.1 + 1e-9
    # accurate side: within the requested tol plus the realized solver slack
    assert hi.value <= 0.5 + 0.05 + hi.mw_slack
    assert lo.value >= 0.1 - 0.05 - lo.mw_slack
    assert hi.bracket_hi - hi.bracket_lo <= 0.05**2 / 2


def test_bracket_tightness_contract():
    state = single_point_state()
    est = max_cost(X1, state, tol=0.3, round_i=2, delta_i=0.04)
    assert est.bracket_hi - est.bracket_lo <= 0.3**2 / 2
    assert est.guesses >= 1
    assert est.tol >= math.sqrt(est.bracket_hi - est.bracket_lo)


def test_cost_interval_combines_both_ends():
    state = single_point_state()
    iv = cost_interval(X1, state, tol=0.2, round_i=2, delta_i=0.04)
    assert 0.0 <= iv.lo <= iv.hi <= 1.0
    assert iv.tol > 0.0


def test_interval_sandwich_against_grid():
    rng = np.random.default_rng(17)
    grid = np.linspace(-2.0, 2.0, 4001)[:, None]  # constant class, bound 2
    for _ in range(5):
        state = LabelState(1, dim=1)
        n = int(rng.integers(1, 4))
        for j in range(n):
            state.append_point(j + 1, X1, float(rng.uniform(0.2, 0.8)))
        erm = state.erm_weights(n + 1, 2.0)
        risk = state.risk_of_weights(erm, n + 1)
        delta = float(rng.uniform(0.05, 0.5))
        state.append_ledger(n + 1, risk, delta)
        truth = brute_force_cost_range(grid, state, X1)
        assert truth is not None
        est_hi = max_cost(X1, state, tol=0.25, round_i=n + 1, delta_i=delta, bound=2.0)
        est_lo = min_cost(X1, state, tol=0.25, round_i=n + 1, delta_i=delta, bound=2.0)
        step = 4.0 / 4000
        assert truth.hi <= est_hi.value + 1e-9
        assert est_hi.value <= truth.hi + est_hi.tol + step
        assert est_lo.value <= truth.lo + 1e-9
        assert est_lo.value >= truth.lo - est_lo.tol - step


def test_space_below_zero_saturates_min():
    # every consistent prediction at the probe is near -0.8, so all clamped
    # costs are 0; the distance search alone would report |p| instead
    state = single_point_state(cost=0.8, delta=0.01)
    probe = sparse_vector([(0, -1.0)])
    settings = MwSettings(t_max=4000)
    lo = min_cost(probe, state, tol=0.05, round_i=2, delta_i=0.01, bound=2.0, settings=settings)
    hi = max_cost(probe, state, tol=0.05, round_i=2, delta_i=0.01, bound=2.0, settings=settings)
    assert lo.value == 0.0
    assert hi.value <= 0.1


def test_space_above_one_saturates_max():
    # every consistent prediction at the probe is near 1.35, so all clamped
    # costs are 1
    state = single_point_state(cost=0.9, delta=0.01)
    probe = sparse_vector([(0, 1.5)])
    settings = MwSettings(t_max=4000)
    hi = max_cost(probe, state, tol=0.05, round_i=2, delta_i=0.01, bound=2.0, settings=settings)
    lo = min_cost(probe, state, tol=0.05, round_i=2, delta_i=0.01, bound=2.0, settings=settings)
    assert hi.value == 1.0
    assert lo.value >= 0.9


def test_nesting_across_rounds():
    # adding a constraint can only shrink the version space
    state = LabelState(1, dim=1)
    state.append_point(1, X1, 0.4)
    state.append_ledger(2, 0.0, 0.3)
    before = cost_interval(X1, state, tol=0.1, round_i=2, delta_i=0.3)
    state.append_point(2, X1, 0.5)
    erm = state.erm_weights(3, 10.0)
    state.append_ledger(3, state.risk_of_weights(erm, 3), 0.15)
    after = cost_interval(X1, state, tol=0.1, round_i=3, delta_i=0.15)
    assert after.lo >= before.lo - after.tol
    assert after.hi <= before.hi + after.tol


def test_infeasibility_soundness_against_grid():
    # whenever a guess is certified infeasible, no grid regressor beats it
    state = single_point_state(cost=0.3, delta=0.04)
    problem = RangeProblem(X1, state, bound=2.0)
    cfg = mw_config_for(2, 500, rho=3.0)
    grid = np.linspace(-2.0, 2.0, 4001)
    feasible = np.abs(grid - 0.3) <= math.sqrt(0.04) + 1e-12
    best = ((grid[feasible] - 1.0) ** 2).min()
    for guess in np.linspace(0.0, 1.0, 21):
        res = problem.run(guess, 1, cfg)
        if not res.feasible:
            assert guess < best + 1e-9
