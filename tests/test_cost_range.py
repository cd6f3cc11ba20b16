import math

import numpy as np
import pytest

from coal.cost_range import (
    CERTIFICATE_SLACK,
    CHECK_EVERY,
    STEP_MARGIN,
    Brackets,
    CostInterval,
    MwConfig,
    MwFeasible,
    MwInfeasible,
    MwSettings,
    RadiusSchedule,
    RangeProblem,
    _bisect_cost,
    cost_interval,
    cost_intervals,
    eps_bound,
    max_cost,
    min_cost,
    mw_config_for,
    mw_iterations,
    mw_slack,
    radius,
)
from coal.data import sparse_vector
from coal.driver import LearnerState, observe_costs, process_example
from coal.harness import ExperimentConfig, parse_synthetic_spec, run_experiment
from coal.oracle import (
    RIDGE,
    LabelState,
    LinearRegressor,
    PrefixBlock,
    WeightedPoint,
    fit_weighted,
    solve_bounded_least_squares,
)
from coal.synthetic import brute_force_cost_range, gen_stream, massart
from test_acceptance import _ball_grid, _sandwich_instance

X1 = sparse_vector([(0, 1.0)])


def separation_oracle(mu, t, x, state, bound=10.0):
    """Best response to constraint weights mu over the full ledger.

    mu[0] weighs the target constraint at x; mu[1 + j] weighs the ledger
    entry j. This is the full-ledger form of the oracle step of
    RangeProblem.run: one weighted least-squares fit whose normal equations
    add mu[0] (x, t) to mu[1 + j] / (round_j - 1) times the prefix sums of
    entry j, so a queried point carries the accumulated weight of every
    ledger constraint whose prefix contains it.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.size != 1 + len(state.ledger):
        raise ValueError("need one weight for the target plus one per ledger entry")
    if not np.all(np.isfinite(mu) & (mu >= 0)):
        raise ValueError("constraint weights must be finite and nonnegative")
    xd = x.to_dense(state.dim)
    gram = mu[0] * np.outer(xd, xd)
    moment = mu[0] * t * xd
    for weight, entry in zip(mu[1:], state.ledger):
        count = state.n_points_before(entry.round)
        if count:
            row, d = state.prefix_row(count), state.dim
            g, h = row[:d, :d], row[:d, d]
            gram = gram + weight / (entry.round - 1) * g
            moment = moment + weight / (entry.round - 1) * h
    return LinearRegressor(solve_bounded_least_squares(gram, moment, bound), bound)


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
    for bad in (
        {"kappa": math.nan},
        {"kappa": math.inf},
        {"mode": "mellow", "mellowness": math.nan},
        {"mode": "mellow", "mellowness": math.inf},
    ):
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
    assert mw_iterations(3, 1e-300, 0.5) == 2000  # (12 / Delta)^2 leaves the float range
    custom = MwSettings(t_max=50)
    assert mw_iterations(3, 0.001, 0.1, custom) == 50


class _Lanes:
    """A stand-in round kernel for _searches: lane k holds k ledger prefixes,
    k = 0..300, and every seventh search is left open."""

    def __init__(self, x, labels, bound):
        k = len(labels)
        self.m, self.side, self.c_lo = list(range(k)), np.zeros((2, k)), np.zeros((2, k))
        self.c_hi, self.leverage = (np.arange(2 * k).reshape(2, k) % 7 == 0) * 1.0, np.ones(k)


def test_every_search_takes_its_games_slack(monkeypatch):
    # A closed search's slack comes without its game's MwConfig, and an open
    # one plays mw_config_for's game; either way the slack that reaches its
    # tol is mw_slack(m + 1, mw_config_for(m + 1, t, rho)) bit for bit (it
    # takes math.log, which np.log is not). t covers every budget up to 64,
    # past ceil(4 log 301) = 23 where mw_config_for raises it, then every
    # 97th up to t_max.
    from coal import cost_range

    games, slacks = [], []
    monkeypatch.setattr(cost_range, "Brackets", _Lanes)
    monkeypatch.setattr(cost_range, "RangeProblem", lambda x, label, bound, lanes: label)
    monkeypatch.setattr(
        cost_range, "_bisect_cost", lambda t, lane, *ends: games.append(ends[4]) or ends[:3]
    )
    monkeypatch.setattr(cost_range, "_estimates", lambda *args: slacks.append(args[3]))
    labels = [LabelState(1, 1)] * 301
    t_max = MwSettings().t_max
    for rho in (1e-3, 3.0, 1e3):
        for t in [*range(1, 65), *range(65, t_max, 97), t_max]:
            games.clear()
            # at so small a radius the budget is t_max's
            cost_range._searches(X1, labels, 0.1, 2, 1e-300, rho, 10.0, MwSettings(t_max=t))
            cfgs = [mw_config_for(m + 1, t, rho) for m in range(301)]
            want = [mw_slack(m + 1, cfg) for m, cfg in enumerate(cfgs)]
            assert list(slacks.pop()) == want, (rho, t)
            opened = [k for row in (0, 1) for k in range(301) if (301 * row + k) % 7 == 0]
            assert games == [cfgs[k] for k in opened], (rho, t)


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
    """
    weighted = [WeightedPoint(x, float(t), float(mu[0]))]
    for round_q, xq, cost in points:
        agg = sum(
            mu[1 + j] / (round_j - 1)
            for j, round_j in enumerate(ledger_rounds)
            if round_q < round_j
        )
        weighted.append(WeightedPoint(xq, cost, agg))
    return fit_weighted(weighted, bound, dim=dim)


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
        want = separation_by_points(mu, t, x, points, ledger_rounds, bound, dim)
        # both sums give the minimum-norm fit: it is zero off the weighted
        # points' span, so the whole weight vectors agree
        assert np.abs(got.weights - want.weights).max() <= 1e-9


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
        row = state.prefix_row(count)
        gram_stack[j], moment_stack[j], sq_stack[j] = row[:-1, :-1], row[:-1, -1], row[-1, -1]
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
                    # the oracle's fits are of least norm, so the two orders of
                    # summation agree off the stack's span too
                    diff = got.regressor.weights - want.regressor.weights
                    assert np.abs(diff).max() <= 1e-9


def test_replayed_problem_matches_fresh_problems():
    # run rewrites row 0 for each target; a problem replayed over both
    # targets and shuffled guesses must leave nothing behind from one call
    # to the next
    rng = np.random.default_rng(29)
    for dim in (1, 3, 5):
        for m in (0, 1, 4, 9):
            state, basis = random_ledger_state(rng, dim, m, 2.0)
            z = basis @ rng.normal(size=basis.shape[1]) + 0.3 * rng.normal(size=dim)
            x = sparse_vector([(i, float(v)) for i, v in enumerate(z)])
            cfg = mw_config_for(m + 1, 40, 0.3)
            calls = [(target, float(c)) for target in (0, 1) for c in rng.uniform(size=6) ** 2]
            calls = [calls[i] for i in rng.permutation(len(calls))]
            replayed = RangeProblem(x, state, 2.0)
            for target, c in calls:
                got = replayed.run(c, target, cfg)
                want = RangeProblem(x, state, 2.0).run(c, target, cfg)
                assert (got.feasible, got.iterations) == (want.feasible, want.iterations)
                if want.feasible:
                    assert np.array_equal(got.value_averages, want.value_averages)
                    assert np.array_equal(got.regressor.weights, want.regressor.weights)
                else:
                    assert np.array_equal(got.weights, want.weights)


# ------------------------------------------------------------ max / min


def test_round_one_interval_is_everything():
    state = LabelState(1, dim=1)
    hi = max_cost(X1, state, tol=0.2, round_i=1, delta_i=3.0)
    lo = min_cost(X1, state, tol=0.2, round_i=1, delta_i=3.0)
    assert hi.value == pytest.approx(1.0, abs=1e-9)
    assert lo.value == pytest.approx(0.0, abs=1e-9)


def settled_search(target, x, state, tol, round_i, delta_i, settings):
    """The search against target as max_cost and min_cost run it, at rho 3
    and bound 10: the kernel's (c_lo, c_hi, side), the (c_lo, c_hi, side)
    that _bisect_cost settles it to, the games it plays and their slack."""
    lanes = Brackets(x.to_dense(state.dim), [state], 10.0)
    problem = RangeProblem(x, state, 10.0, lanes)
    cfg = mw_config_for(problem.m + 1, mw_iterations(round_i, delta_i, tol, settings), 3.0)
    games, run = [], problem.run
    problem.run = lambda *args: games.append(args) or run(*args)
    start = lanes.c_lo[target, 0], lanes.c_hi[target, 0], lanes.side[target, 0]
    end = _bisect_cost(target, problem, *start, tol, cfg, settings)
    return start, end, len(games), mw_slack(problem.m + 1, cfg)


def test_constant_class_interval_anchor():
    # (g - 0.3)^2 <= 0.04 confines predictions at x=[1] to [0.1, 0.5]
    state = single_point_state(cost=0.3, budget_risk=0.0, delta=0.04)
    settings = MwSettings(t_max=20000)
    hi = max_cost(X1, state, tol=0.05, round_i=2, delta_i=0.04, settings=settings)
    lo = min_cost(X1, state, tol=0.05, round_i=2, delta_i=0.04, settings=settings)
    _, (hi_lo, hi_hi, _), _, hi_slack = settled_search(1, X1, state, 0.05, 2, 0.04, settings)
    *_, lo_slack = settled_search(0, X1, state, 0.05, 2, 0.04, settings)
    # sound side: never inside the true range
    assert hi.value >= 0.5 - 1e-9
    assert lo.value <= 0.1 + 1e-9
    # accurate side: within the requested tol plus the realized solver slack
    assert hi.value <= 0.5 + 0.05 + hi_slack
    assert lo.value >= 0.1 - 0.05 - lo_slack
    assert hi_hi - hi_lo <= 0.05**2 / 2


def test_bracket_tightness_contract():
    # (g - 0.3)^2 <= 0.04 confines predictions at x=[1] to [0.1, 0.5], so the
    # search against t = 1 has its optimum at c = 0.25
    state = single_point_state()
    est = max_cost(X1, state, tol=0.3, round_i=2, delta_i=0.04)
    _, (c_lo, c_hi, _), *_ = settled_search(1, X1, state, 0.3, 2, 0.04, MwSettings())
    assert c_hi - c_lo <= 0.3**2 / 2
    assert c_lo <= 0.25 <= c_hi
    assert est.tol >= math.sqrt(c_hi - c_lo)


def test_games_narrow_what_the_bracket_leaves_open():
    # The anchor (the fit 0.5 on both points) breaks the first row's budget
    # g^2 <= 0.01, so the bracket has no witness and leaves c_hi at 1; its
    # outer bound is the optimum 0.81 (g = 0.1), and the games close the rest.
    state = LabelState(1, dim=1)
    state.append_point(1, X1, 0.0)
    state.append_ledger(2, 0.0, 0.01)
    state.append_point(2, X1, 1.0)
    state.append_ledger(3, 0.25, 0.3)
    lanes = Brackets(X1.to_dense(1), [state], 10.0)
    c_lo, c_hi = lanes.c_lo[1, 0], lanes.c_hi[1, 0]
    assert lanes.broken[0] and c_hi == 1.0
    assert c_lo == pytest.approx(0.81, abs=1e-9)
    assert c_hi - c_lo > 0.3**2 / 2
    _, (end_lo, end_hi, _), games, _ = settled_search(1, X1, state, 0.3, 3, 0.3, MwSettings())
    assert games >= 1
    assert c_lo <= end_lo <= end_hi < c_hi
    assert end_hi - end_lo <= 0.3**2 / 2
    assert end_lo <= 0.81 + 1e-9


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


# ------------------------------------------------------- closed-form bracket


def within_budgets(weights, state):
    """Rows of weights that meet every ledger budget, with brute_force_cost_range's 1e-12."""
    v = np.column_stack((weights, -np.ones(len(weights))))
    ok = np.ones(len(weights), dtype=bool)
    for entry in state.ledger:
        row = state.prefix_row(state.n_points_before(entry.round))
        risks = np.maximum(np.einsum("gi,ij,gj->g", v, row, v), 0.0) / (entry.round - 1)
        ok &= risks <= entry.delta_tilde + 1e-12
    return ok


def test_bracket_is_sound_against_grid(monkeypatch):
    # the ledgers, probes and grids of acceptance criterion 1 (d = 1 and 2)
    bound = 2.0
    games, run = [], RangeProblem.run
    monkeypatch.setattr(RangeProblem, "run", lambda *args: games.append(args) or run(*args))
    grids = {1: _ball_grid(1, bound)[0], 2: _ball_grid(2, bound)[0]}
    witnesses = 0
    for idx in range(50):
        d, _, state, _, probe = _sandwich_instance(idx, bound)
        grid, x = grids[d], probe.to_dense(d)
        preds = grid[within_budgets(grid, state)] @ x
        truth = brute_force_cost_range(grid, state, probe)
        lanes = Brackets(x, [state], bound)
        for target in (0, 1):
            c_lo, c_hi = lanes.c_lo[target, 0], lanes.c_hi[target, 0]
            witness = None if lanes.broken[0] else lanes.witness[target, 0]
            # outer: no feasible grid point lies nearer to t than c_lo says
            assert c_lo <= ((preds - target) ** 2).min() + 1e-12
            assert c_lo <= c_hi <= 1.0
            if witness is None:
                assert c_hi == 1.0
                continue
            # inner: the witness itself is feasible, and c_hi is its distance
            witnesses += 1
            assert np.linalg.norm(witness) <= bound
            assert within_budgets(witness[None], state)[0]
            assert c_hi == pytest.approx(min(max((witness @ x - target) ** 2, c_lo), 1.0))
        # in cost terms: with a tol too loose for any game, the ends that the
        # bracket alone gives contain the brute-force interval
        hi = max_cost(probe, state, tol=2.0, round_i=100, delta_i=0.1, bound=bound)
        lo = min_cost(probe, state, tol=2.0, round_i=100, delta_i=0.1, bound=bound)
        assert not games
        assert lo.value <= truth.lo + 1e-9 and truth.hi <= hi.value + 1e-9
    assert witnesses >= 90  # 98 of the 100 searches have one


def test_exact_run_settles_its_searches_in_closed_form(monkeypatch):
    # The exact-coal benchmark stream for benchmark seed 1. Each round's
    # kernel (cost_intervals) runs 2 K searches; at most 2% of them may play
    # a game.
    from coal import cost_range, driver

    calls = {"rounds": 0, "games": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(driver, "cost_intervals", counted("rounds", driver.cost_intervals))
    problem = cost_range.RangeProblem
    monkeypatch.setattr(problem, "run", counted("games", problem.run))
    spec = parse_synthetic_spec("massart:k=3,dim=4,tau=0.3,n=80,noise=none")
    cfg = ExperimentConfig(
        synthetic=spec, mode="exact", seeds=1, out_dir="", synthetic_seed_base=1_001_000
    )
    run_experiment(cfg)
    searches = 2 * 3 * calls["rounds"]
    assert searches >= 400
    assert calls["games"] <= 0.02 * searches


def test_exact_round_factorises_each_prefix_once(monkeypatch):
    # The exact-coal benchmark stream for benchmark seed 1. coal.oracle and
    # coal.cost_range look np.linalg's functions up on numpy's module, so the
    # wrappers see every call: one factorisation per deduplicated ledger
    # prefix, at its first read, not one per prefix and search; eigh outside
    # the games (the stacked refit, whose memo the next round's anchors
    # share) at most once per label and round. This guards the O(m d^2)
    # round untimed.
    from coal import driver, harness

    calls = {"factorisations": 0, "eigh": 0, "game_eigh": 0, "rounds": 0}
    depth = [0]

    def counted(original, name):
        def wrapper(*args, **kwargs):
            # a stacked (..., d, d) argument factorises every matrix it holds
            matrices = int(np.prod(np.shape(args[0])[:-2])) if name != "rounds" else 1
            calls["game_eigh" if name == "eigh" and depth[0] else name] += matrices
            return original(*args, **kwargs)

        return wrapper

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), "factorisations"))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, "eigh"))
    monkeypatch.setattr(driver, "cost_intervals", counted(driver.cost_intervals, "rounds"))
    run = RangeProblem.run

    def game(*args, **kwargs):
        depth[0] += 1
        try:
            return run(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(RangeProblem, "run", game)
    states = []
    run_seed = harness.run_seed

    def kept(*args, **kwargs):
        result = run_seed(*args, **kwargs)
        states.append(result[1])
        return result

    monkeypatch.setattr(harness, "run_seed", kept)
    spec = parse_synthetic_spec("massart:k=3,dim=4,tau=0.3,n=80,noise=none")
    cfg = ExperimentConfig(
        synthetic=spec, mode="exact", seeds=1, out_dir="", synthetic_seed_base=1_001_000
    )
    run_experiment(cfg)
    (state,) = states
    prefixes = sum(label.n_prefixes for label in state.labels)
    assert prefixes == sum(len(label.constraint_view()[0]) for label in state.labels) > 200
    assert calls["rounds"] == state.round - 1  # one kernel a round, for every label's searches
    state.labels[0].block.fill()  # the prefixes the last refit added, read by no round
    assert calls["factorisations"] == prefixes
    assert calls["eigh"] <= state.k * (state.round - 1)


def stacked_reference(x, state, bound):
    """The prefix quantities and brackets as RangeProblem built them per problem
    before the prefix cache: one np.stack of every prefix row, m stacked
    solves of G_eps against [x, h], and a fresh anchor fit."""
    rounds, counts, budgets, _ = state.constraint_view()
    m, d = rounds.size, x.size
    rows = np.stack([state.prefix_row(c) for c in (0, *counts)])
    grams, moments = rows[:, :d, :d], rows[:, :d, d]
    rhs = np.stack((np.broadcast_to(x, (m, d)), moments[1:]), axis=-1)
    sols = np.linalg.solve(grams[1:] + RIDGE * np.eye(d), rhs)
    directions, fits = sols[..., 0], sols[..., 1]
    denoms = rounds - 1.0
    residuals = rows[1:, d, d] - np.einsum("ij,ij->i", moments[1:], fits)
    anchor = solve_bounded_least_squares(grams[-1], moments[-1], bound) if m else np.zeros(d)

    def bracket(t):
        unnormalised = budgets * denoms
        fit_norms = np.sqrt(np.einsum("ij,ij->i", fits, fits))
        rho = np.maximum(unnormalised + RIDGE * (bound + fit_norms) ** 2 - residuals, 0.0)
        half = np.sqrt(rho * np.maximum(directions @ x, 0.0))
        centres, reach = fits @ x, bound * math.sqrt(float(x @ x))
        lo = float(np.max(centres - half, initial=-reach))
        hi = float(np.min(centres + half, initial=reach))
        c_lo = min(max(lo - t, t - hi, 0.0) ** 2, 1.0)
        start = float(anchor @ x)
        step = math.copysign(1.0, t - start) * (directions[-1] if m else x)
        v, dv = np.append(anchor, -1.0), np.append(step, 0.0)
        forms = np.stack((np.outer(v, v), np.outer(v, dv), np.outer(dv, dv)))
        ball = [anchor @ anchor, anchor @ step, step @ step]
        a, b, c = np.vstack((rows.reshape(m + 1, -1)[1:] @ forms.reshape(3, -1).T, ball)).T
        room = np.append(unnormalised, bound**2) - a
        if np.any(room < 0.0):
            return c_lo, 1.0, None
        c = np.maximum(c, 0.0)
        disc = np.sqrt(b * b + c * room)
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.where(b < 0.0, (disc - b) / c, room / (b + disc))
            alpha = min(float(roots.min()), abs((t - start) / (x @ step)))
        alpha = alpha if math.isfinite(alpha) else 0.0
        witness = anchor + alpha * (1.0 - STEP_MARGIN) * step
        return c_lo, min(max((witness @ x - t) ** 2, c_lo), 1.0), witness

    leverage = float(np.min(denoms * (directions @ x), initial=np.inf))
    return dict(directions=directions, fits=fits, residuals=residuals, leverage=leverage,
                anchor=anchor, bracket=bracket)  # fmt: skip


def test_prefix_cache_matches_the_stacked_construction():
    # Random ledgers with d from 1 to 6: points from a random subspace (so
    # most prefixes of the rank-deficient ones are singular), several points
    # between ledger entries and no-query stretches (deduplicated entries),
    # append_ledger called directly as criterion 1 does, and up to 40
    # prefixes, so the cache doubles up to six times.
    #
    # Stated tolerances. The fits and residuals come from the same solve and
    # agree to 1e-12 (measured: bit for bit). Where G_eps is well conditioned
    # (every prefix of full rank, cond <= 1e8), G_eps^-1 x from the cached
    # inverse and from a solve agree to 1e-9, and so do both brackets
    # (measured worst: 2.4e-15). A singular prefix's G_eps has cond near
    # 1e13, and the two differ by up to a few percent in G_eps^-1 x (exact
    # rational arithmetic puts both within 4e-2 of the leverage), which moves
    # c_lo and c_hi by at most 1e-2 here (measured worst: 8.2e-4).
    rng = np.random.default_rng(5)
    worst = {"well": 0.0, "singular": 0.0}
    for trial in range(300):
        d = int(rng.integers(1, 7))
        rank = d if trial % 2 else int(rng.integers(1, d + 1))
        basis = rng.normal(size=(d, rank))
        state = LabelState(1, dim=d)
        bound = float(rng.choice((0.5, 2.0, 10.0)))
        round_i = 1
        for _ in range(int(rng.integers(0, 41))):
            for _ in range(int(rng.integers(1, 4))):
                z = basis @ rng.normal(size=rank)
                state.append_point(round_i, sparse_vector(list(enumerate(z))), rng.uniform())
                round_i += 1
            for _ in range(int(rng.integers(1, 3))):
                round_i += 1
                state.append_ledger(round_i, rng.uniform(0.0, 0.2), rng.uniform(0.001, 0.3))
        z = basis @ rng.normal(size=rank) + (rng.uniform() < 0.5) * rng.normal(size=d)
        x = sparse_vector(list(enumerate(z)))
        problem = RangeProblem(x, state, bound)
        lanes, counts = Brackets(problem.x, [state], bound), state.constraint_view()[1]
        want = stacked_reference(problem.x, state, bound)
        fits, parts = state.block.fits[state.lane, counts], state.block.parts[state.lane, counts]
        residuals = parts[:, 0]
        assert problem.m == state.n_prefixes == len(counts)
        assert np.allclose(fits, want["fits"], rtol=1e-12, atol=0.0)
        assert np.allclose(residuals, want["residuals"], rtol=1e-12, atol=1e-300)
        # the anchor is the memoised fit, the very solve a fresh call makes
        assert np.array_equal(lanes.anchors[0], want["anchor"])
        well = rank == d and all(
            np.linalg.cond(state.prefix_row(c)[:d, :d] + RIDGE * np.eye(d)) <= 1e8
            for c in counts
        )
        if well and problem.m:
            scale = np.abs(want["directions"]).max()
            directions = lanes.directions[0, counts - 1]
            assert np.abs(directions - want["directions"]).max() <= 1e-9 * scale
            assert lanes.leverage[0] == pytest.approx(want["leverage"], rel=1e-9)
        for target in (0, 1):
            witness = None if lanes.broken[0] else lanes.witness[target, 0]
            got = lanes.c_lo[target, 0], lanes.c_hi[target, 0], witness
            ref = want["bracket"](target)
            gap = max(abs(got[0] - ref[0]), abs(got[1] - ref[1]))
            key = "well" if well else "singular"
            worst[key] = max(worst[key], gap)
            assert (got[2] is None) == (ref[2] is None)
            if well and got[2] is not None:
                assert np.abs(got[2] - ref[2]).max() <= 1e-9 * bound
    assert worst["well"] <= 1e-9 and worst["singular"] <= 1e-2, worst


def test_constraint_view_copies_leave_later_problems_unchanged():
    rng = np.random.default_rng(7)
    state, basis = random_ledger_state(rng, 3, 6, 2.0)
    x = sparse_vector(list(enumerate(basis @ rng.normal(size=basis.shape[1]))))
    before = RangeProblem(x, state, 2.0)
    outer, budgets = Brackets(before.x, [state], 2.0).outer, before.budgets.copy()
    for array in state.constraint_view():
        array[:] = 0
    after = RangeProblem(x, state, 2.0)
    assert all(map(np.array_equal, Brackets(after.x, [state], 2.0).outer, outer))
    assert np.array_equal(after.budgets, budgets)
    assert np.array_equal(after.stack, before.stack)
    assert list(state.constraint_view()[0]) == list(after.denoms[1:] + 1.0)


class OneLabelProblem:
    """RangeProblem as it was built one label at a time, before the round
    kernel: the reference the kernel's lanes are checked against. Its
    bracket forms each budget row's witness quadratic with one product of
    the stack per problem; its games are RangeProblem's."""

    run = RangeProblem.run

    def __init__(self, x, state, bound):
        self.x = x = x.to_dense(state.dim)
        self.bound = float(bound)
        rounds, counts, self.budgets, radii = state.constraint_view()
        block, lane = state.block, state.lane
        block.fill()
        self.stack = block.stack[lane, np.concatenate(([0], counts))]
        inverses, self.fits = block.inverses[lane, counts], block.fits[lane, counts]
        residuals, fit_norms = block.parts[lane, counts, 0], block.parts[lane, counts, 1]
        self.m = m = len(counts)
        self.widths = np.concatenate(([2.0], radii + 1.0))
        self.denoms = np.concatenate(([1.0], rounds - 1.0))
        self.directions = inverses @ x
        leverages = np.maximum(self.directions @ x, 0.0)
        self.leverage = float(np.min(self.denoms[1:] * leverages, initial=np.inf))
        self.anchor = state.erm_weights(int(rounds[-1]), self.bound) if m else np.zeros(x.size)
        budgets = self.budgets * self.denoms[1:]
        rho = np.maximum(budgets + RIDGE * (self.bound + fit_norms) ** 2 - residuals, 0.0)
        centres, half = self.fits @ x, np.sqrt(rho) * np.sqrt(leverages)
        reach = self.bound * math.sqrt(float(x @ x))
        lo, hi = np.max(centres - half, initial=-reach), np.min(centres + half, initial=reach)
        self.outer, self.start = (float(lo), float(hi)), float(self.anchor @ x)
        self.up = self.directions[-1] if m else x
        v, dv = np.append(self.anchor, -1.0), np.append(self.up, 0.0)
        forms = np.stack((np.outer(v, v), np.outer(v, dv), np.outer(dv, dv)))
        ball = [self.anchor @ self.anchor, self.anchor @ self.up, self.up @ self.up]
        a, self.slopes, c = np.vstack((self.stack[1:] @ forms.reshape(3, -1).T, ball)).T
        self.room = np.append(budgets, self.bound**2) - a
        self.broken = bool(np.any(self.room < 0.0))
        self.curvatures = np.maximum(c, 0.0)
        self.disc = np.hypot(self.slopes, np.sqrt(self.curvatures) * np.sqrt(np.abs(self.room)))

    def bracket(self, t):
        lo, hi = self.outer
        c_lo = min(max(lo - t, t - hi, 0.0) ** 2, 1.0)
        if self.broken:
            return c_lo, 1.0, None
        x, start = self.x, self.start
        sign = math.copysign(1.0, t - start)
        step, b = sign * self.up, sign * self.slopes
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            disc, c = self.disc, self.curvatures
            roots = np.where(b < 0.0, (disc - b) / c, self.room / (b + disc))
            alpha = min(float(roots.min()), abs((t - start) / (x @ step)))
        if not math.isfinite(alpha):
            alpha = 0.0
        witness = self.anchor + alpha * (1.0 - STEP_MARGIN) * step
        return c_lo, min(max((witness @ x - t) ** 2, c_lo), 1.0), witness


def one_label_interval(x, state, tol, round_i, delta_i, rho, bound, settings):
    """cost_interval of one label as it was computed before the round kernel."""
    problem = OneLabelProblem(x, state, bound)
    cfg = mw_config_for(problem.m + 1, mw_iterations(round_i, delta_i, tol, settings), rho)
    slack, geom, reach = mw_slack(problem.m + 1, cfg), 0.0, bound * math.sqrt(problem.x @ problem.x)
    if slack > 0.0:
        geom = min(math.sqrt(slack * problem.leverage), 2.0 * reach)
    ends = []
    for t in (0, 1):
        c_lo, c_hi, witness = problem.bracket(t)
        side = problem.start if witness is None else float(witness @ problem.x)
        c_lo, c_hi, side = _bisect_cost(t, problem, c_lo, c_hi, side, tol, cfg, settings)
        if t == 1:
            raw = 1.0 if side > 1.0 else 1.0 - math.sqrt(c_lo)
        else:
            raw = 0.0 if side < 0.0 else math.sqrt(c_lo)
        ends.append((min(1.0, max(0.0, raw)), math.sqrt((c_hi - c_lo) + slack) + geom))
    (lo, lo_tol), (hi, hi_tol) = ends
    iv = CostInterval(lo=lo, hi=hi, tol=max(lo_tol, hi_tol))
    return iv.lo, iv.hi, iv.tol, problem


def random_lanes(rng, d, k, bound):
    """k labels sharing one PrefixBlock, with unequal ledgers: from 0 to 12
    prefixes each, points from a random subspace (so many prefixes are
    rank-deficient), costs from a noisy linear truth, and radii down to 1e-4,
    tight enough that the anchor often breaks an earlier budget."""
    block = PrefixBlock(d)
    labels = [LabelState(y, d, block) for y in range(1, k + 1)]
    basis = rng.normal(size=(d, int(rng.integers(1, d + 1))))
    truth = rng.normal(size=d) / math.sqrt(d)
    rounds, points = 1, []
    for label in labels:
        scale = 10.0 ** rng.uniform(-4, -0.5)
        round_i = 1
        for _ in range(int(rng.choice([0, 1, 1, 2, 3, 5, 8, 12]))):
            z = basis @ rng.normal(size=basis.shape[1])
            points.append((label, z))
            cost = float(np.clip(0.5 + z @ truth / 4 + rng.normal(scale=0.2), 0.0, 1.0))
            label.append_point(round_i, sparse_vector(list(enumerate(z))), cost)
            for _ in range(int(rng.integers(1, 3))):  # a repeat adds no constraint
                round_i += 1
                erm = label.erm_weights(round_i, bound)
                risk = label.risk_of_weights(erm, round_i)
                label.append_ledger(round_i, risk, scale * float(rng.uniform(0.5, 2.0)))
        rounds = max(rounds, round_i)
    return labels, basis, rounds, points


def lanes_round(rng, d):
    """One random round of 2 to 4 lanes at dimension d: the labels, x, the
    kernel's arguments after x and the norm bound."""
    k = int(rng.integers(2, 5))
    bound = float(rng.choice((0.5, 2.0, 10.0)))
    labels, basis, rounds, points = random_lanes(rng, d, k, bound)
    z = basis @ rng.normal(size=basis.shape[1]) + (rng.uniform() < 0.5) * rng.normal(size=d)
    # on the line of a one-prefix lane's point, where that lane's range is finite
    lines = [z for label, z in points if label.n_prefixes == 1]
    if lines and rng.uniform() < 0.5:
        z = lines[int(rng.integers(len(lines)))] * rng.uniform(0.5, 2.0)
    x = sparse_vector(list(enumerate(z)))
    tol = float(rng.choice((0.05, 0.1, 0.25)))
    args = (tol, rounds, float(10.0 ** rng.uniform(-3, 0)), float(rng.choice((1.0, 3.0))))
    return labels, x, args, bound


def lanes_case(rng, d, settings):
    """lanes_round, and each label's interval computed alone (or the
    ValueError of an empty version space)."""
    labels, x, args, bound = lanes_round(rng, d)
    wants = []
    for label in labels:
        try:
            wants.append(one_label_interval(x, label, *args, bound, settings))
        except ValueError as error:  # an empty version space: lo past hi
            wants.append(error)
    return labels, x, args, bound, wants


def test_round_kernel_lanes_match_the_one_label_path():
    # The K-lane kernel against each label's interval computed alone, as
    # before the kernel: every lane's lo, hi and tol within 1e-12 (measured:
    # lo and hi at most 2.2e-16 apart, tol 7.1e-14). Every search the kernel
    # settles reads the same outer range up to rounding; an open search plays
    # the same games from a bracket whose witness is the same regressor up to
    # rounding. Up to d = 8, that is; the trials at d = 9 and 10 follow.
    rng = np.random.default_rng(17)
    seen = {"m=0": 0, "m=1": 0, "closed": 0, "open": 0, "broken": 0, "padded": 0, "singular": 0}
    seen["open, with a witness"] = seen["empty"] = 0
    settings = MwSettings(t_max=300)
    for trial in range(240):
        d = trial % 8 + 1
        labels, x, args, bound, wants = lanes_case(rng, d, settings)
        tol = args[0]
        lo, hi, tols = cost_intervals(x, labels, *args, bound, settings)
        empty = np.array([isinstance(want, ValueError) for want in wants])
        if empty.any():  # nothing is known of such a lane's cost: [0, 1]
            assert (lo[empty] == 0.0).all() and (hi[empty] == 1.0).all()
            seen["empty"] += 1
            continue
        counts = [label.n_prefixes for label in labels]
        for label, got, (*want, problem) in zip(labels, zip(lo, hi, tols), wants):
            assert np.abs(np.subtract(got, want)).max() <= 1e-12, (trial, got, want)
            width = [problem.bracket(t) for t in (0, 1)]
            opened = sum(c_hi - c_lo > tol * tol / 2.0 for c_lo, c_hi, _ in width)
            seen["open"] += opened
            seen["open, with a witness"] += opened * (not problem.broken)
            seen["closed"] += 2 - opened
            seen["broken"] += problem.broken
            seen["m=0"] += problem.m == 0
            seen["m=1"] += problem.m == 1
            seen["padded"] += problem.m < max(counts)
            grams = problem.stack[1:].reshape(-1, d + 1, d + 1)[:, :d, :d]
            seen["singular"] += any(np.linalg.matrix_rank(g) < d for g in grams)
        # padded rows decide nothing: whatever they hold past a lane's
        # points, the intervals stay (the noise has its own generator, so the
        # trials do not depend on the block's layout)
        block, noise = labels[0].block, np.random.default_rng(trial)
        if any(label.n_points for label in labels) and trial % 3 == 0:
            for name in block.shapes:
                rows = getattr(block, name)
                for lane, label in enumerate(labels):
                    padded = rows[lane, label.n_points + 1 :]
                    padded[...] = noise.uniform(-1e3, 1e3, padded.shape)
            again = cost_intervals(x, labels, *args, bound, settings)
            assert all(np.array_equal(a, b) for a, b in zip((lo, hi, tols), again)), trial
    seen.pop("empty")  # rare in these ledgers; the next test makes one for sure
    assert min(seen.values()) >= 20, seen

    # At d = 9 and 10 some lanes' games take other paths than the one
    # label's, from brackets that differ by rounding: each end lies within
    # the larger of the two tols, and tol within 1e-2. Measured over 60 trials each of
    # three seeds: ends at most 3.0e-4 apart, tol 3.3e-3, no end gap past
    # 3.6e-4 of its tol (these 40: 10 of 130 lanes part, by 1.7e-4, 3.3e-3
    # and 2.0e-4).
    rng, parted = np.random.default_rng(19), 0
    for trial in range(40):
        labels, x, args, bound, wants = lanes_case(rng, 9 + trial % 2, settings)
        lo, hi, tols = cost_intervals(x, labels, *args, bound, settings)
        for got_lo, got_hi, got_tol, want in zip(lo, hi, tols, wants):
            if isinstance(want, ValueError):
                assert (got_lo, got_hi) == (0.0, 1.0)
                continue
            want_lo, want_hi, want_tol, _ = want
            reach = max(got_tol, want_tol)
            assert abs(got_lo - want_lo) <= reach and abs(got_hi - want_hi) <= reach, trial
            assert abs(got_tol - want_tol) <= 1e-2, trial
            parted += max(abs(got_lo - want_lo), abs(got_hi - want_hi)) > 1e-12
    assert parted > 0  # the bound is met where the paths part, not only where they agree


def test_each_lane_side_alone_matches_the_round_kernel():
    # max_cost and min_cost of each label alone against one cost_intervals
    # call over all its lanes: each end, and the larger of the two tols,
    # within 1e-12 (measured: 350 lanes, at most 2.2e-16 apart; their
    # kernels leave about 1700 games to play). Both run the same searches,
    # the alone call from a one-lane kernel. A lane whose ends cross (an
    # empty version space) is widened to [0, 1] by cost_intervals alone, so
    # it is skipped and counted.
    rng = np.random.default_rng(23)
    settings = MwSettings(t_max=400)
    checked = empty = 0
    for trial in range(120):
        labels, x, args, bound = lanes_round(rng, trial % 8 + 1)
        lo, hi, tols = cost_intervals(x, labels, *args, bound, settings)
        for label, got in zip(labels, zip(lo, hi, tols)):
            low, high = (side(x, label, *args, bound, settings) for side in (min_cost, max_cost))
            tol = max(low.tol, high.tol)
            if low.value > high.value + 2.0 * tol + 1e-9:
                assert got[:2] == (0.0, 1.0)
                empty += 1
                continue
            assert np.abs(np.subtract(got, (low.value, high.value, tol))).max() <= 1e-12, trial
            checked += 1
    assert checked >= 300, (checked, empty)


def test_round_kernel_widens_an_empty_version_space_to_the_unit_interval():
    # label 2's first budget pins w within 0.01 of 0 and its second within
    # about 0.01 of 0.5: no regressor meets both, the games certify both
    # searches past each other, and the label alone raises CostInterval's
    # error. The kernel gives it [0, 1], since nothing is known of its cost,
    # and leaves the interval of a label whose range is fine as it is alone.
    block = PrefixBlock(1)
    fine, empty = LabelState(1, 1, block), LabelState(2, 1, block)
    for label in (fine, empty):
        label.append_point(1, X1, 0.0)
        label.append_ledger(2, 0.0, 1e-4)
    empty.append_point(2, X1, 1.0)
    empty.append_ledger(3, empty.risk_of_weights(empty.erm_weights(3, 10.0), 3), 1e-4)
    args = (0.05, 4, 0.01, 0.1, 10.0, MwSettings(t_max=300))
    lo, hi, tol, _ = one_label_interval(X1, fine, *args)
    assert lo == 0.0 and hi == pytest.approx(0.01)
    with pytest.raises(ValueError, match="^lo 0.99"):
        one_label_interval(X1, empty, *args)
    los, his, tols = cost_intervals(X1, [fine, empty], *args)
    assert (los[0], his[0]) == (lo, hi) and abs(tols[0] - tol) <= 1e-12
    assert (los[1], his[1]) == (0.0, 1.0) and math.isfinite(tols[1]) and tols[1] >= 0.0


def test_round_kernel_lane_of_one_prefix_matches_alone():
    # A lane with one prefix beside longer lanes, probed on its point's line
    # (where its range is finite). The lone label forms its one-row products
    # with dot, and the kernel forms every lane's with one matrix-vector
    # product, which rounds otherwise: lo, hi and tol agree to 1e-12
    # (measured: lo and hi at most 2.2e-16 apart, tol 1.3e-15).
    rng = np.random.default_rng(41)
    settings = MwSettings(t_max=50)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        block = PrefixBlock(d)
        labels = [LabelState(y, d, block) for y in (1, 2)]
        for label, n in zip(labels, (1, int(rng.integers(2, 6)))):
            for round_i in range(1, n + 1):
                z = rng.normal(size=d)
                label.append_point(round_i, sparse_vector(list(enumerate(z))), rng.uniform())
                erm = label.erm_weights(round_i + 1, 10.0)
                label.append_ledger(round_i + 1, label.risk_of_weights(erm, round_i + 1), 0.01)
        z = labels[0].prefix_row(1)[:d, d] * rng.uniform(0.5, 2.0)  # cost times the point
        x = sparse_vector(list(enumerate(z)))
        lo, hi, tol = cost_intervals(x, labels, 0.05, 20, 0.01, 3.0, 10.0, settings)
        want = one_label_interval(x, labels[0], 0.05, 20, 0.01, 3.0, 10.0, settings)
        assert np.abs(np.subtract((lo[0], hi[0], tol[0]), want[:3])).max() <= 1e-12


@pytest.mark.parametrize(
    "dim, n, noise, mellowness",
    [(4, 80, "none", 0.01), (6, 80, "bernoulli", 1e-4)],  # d = 5 and 7 with the bias
)
def test_run_kernel_matches_a_fresh_block(monkeypatch, dim, n, noise, mellowness):
    # An exact run fills its block a few prefixes at a time, round after
    # round. The same appends replayed into a fresh block, which fills every
    # prefix at once at the first read, give the same kernel bit for bit: no
    # state kept across rounds reaches it. The Bernoulli stream at a small
    # mellowness has anchors that break a budget. d stays below 8, where
    # the gemv kernel rounds a row block unlike a lone row.
    calls = []
    for name in ("append_point", "append_ledger"):
        method = getattr(LabelState, name)

        def record(label, *args, method=method):
            calls.append((label.lane, method, args))
            return method(label, *args)

        monkeypatch.setattr(LabelState, name, record)
    k = 3
    stream, _ = gen_stream(k, dim, massart(0.3), n, seed=dim, cost_noise=noise)
    schedule = RadiusSchedule(n, dim + 1, k, 0.01, mode="mellow", mellowness=mellowness)
    state = LearnerState(k, dim + 1, schedule)
    for ex in stream:
        observe_costs(state, ex.features, process_example(state, ex.features), ex.costs)
    monkeypatch.undo()
    block = PrefixBlock(dim + 1)
    fresh = [LabelState(y, dim + 1, block) for y in range(1, k + 1)]
    for lane, method, args in calls:
        method(fresh[lane], *args)
    probes, _ = gen_stream(k, dim, massart(0.3), 50, seed=dim + 100)
    broken = 0
    for ex in probes:
        x = ex.features.to_dense(dim + 1)
        run, replay = (Brackets(x, labels, state.norm_bound) for labels in (state.labels, fresh))
        for name in ("c_lo", "c_hi", "witness", "side", "leverage"):
            assert np.array_equal(getattr(run, name), getattr(replay, name)), name
        assert all(map(np.array_equal, run.outer, replay.outer))
        broken += int(run.broken.sum())
    assert min(label.n_prefixes for label in fresh) >= 10
    assert (broken > 0) == (noise == "bernoulli"), broken


def test_history_is_held_once_and_no_game_writes_it(monkeypatch):
    # The block's stack is the one store of the query history: after an
    # exact run every prefix row of every label is a view of it. On Bernoulli
    # costs at a tight radius the searches play games, each on a stack it
    # gathers for itself, so after them row 0 of every lane is still zero,
    # every other row is unchanged, and a fresh kernel is the one built
    # before them, bit for bit.
    k, dim, n = 3, 4, 80
    stream, _ = gen_stream(k, dim, massart(0.3), n, seed=7, cost_noise="bernoulli")
    schedule = RadiusSchedule(n, dim + 1, k, 0.01, mode="mellow", mellowness=1e-4)
    state = LearnerState(k, dim + 1, schedule)
    for ex in stream:
        observe_costs(state, ex.features, process_example(state, ex.features), ex.costs)
    labels, block = state.labels, state.labels[0].block
    history = [[label.prefix_row(c) for c in range(label.n_points + 1)] for label in labels]
    assert all(np.shares_memory(row, block.stack) for rows in history for row in rows)
    before = [[row.copy() for row in rows] for rows in history]
    games, run = [], RangeProblem.run

    def counted(*args, **kwargs):
        games.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(RangeProblem, "run", counted)
    probes, _ = gen_stream(k, dim, massart(0.3), 5, seed=107)
    for ex in probes:
        x = ex.features.to_dense(dim + 1)
        kernel = Brackets(x, labels, state.norm_bound)
        process_example(state, ex.features)
        again = vars(Brackets(x, labels, state.norm_bound))
        for name, value in vars(kernel).items():
            assert np.array_equal(np.asarray(value), np.asarray(again[name])), name
    assert len(games) >= 20
    assert not block.stack[:, 0].any()
    for label, rows in zip(labels, before):
        assert all(np.array_equal(label.prefix_row(c), row) for c, row in enumerate(rows))
