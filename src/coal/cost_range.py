"""Version-space cost ranges via bisection over a feasibility solver.

For a label with query history and risk ledger, the achievable costs at a
point x are the predictions of regressors whose empirical risk stays within
the ledger budget at every recorded round. The largest achievable cost is
found by bisecting on a guessed squared distance c from the target value
t = 1 (t = 0 for the smallest): each guess asks whether

    exists g, ||g|| <= bound:  (g(x) - t)^2 <= c  and
                               risk_j(g) <= budget_j  for every ledger round j

and the question is answered with a multiplicative-weights game between the
constraints and a weighted least-squares oracle. Each of the m + 1
constraints is quadratic in g, so RangeProblem holds it as the augmented row
[[G, h], [h', s]] of coal.oracle, whose quadratic form at [g; -1] is its
value. A game iteration is two products with that stack: the mu-weighted row
sum gives the H and b of one oracle.solve_bounded_least_squares call, and
the product with [g; -1][g; -1]' gives every constraint value.
separation_oracle is the oracle step's full-ledger form, which weighs every
ledger entry. An infeasibility verdict exhibits a nonnegative combination of
constraints that no regressor can satisfy, so it is sound no matter how few
iterations ran; a feasible verdict comes with the averaged iterate and its
measured constraint violations.

The returned estimates carry a realized tolerance

    tol = sqrt(bracket + s) + min(sqrt(s * leverage), 2 * bound * |x|),
    s = 2 * rho * sqrt(log(m + 1) / T)

the per-side prediction-space error implied by the final bisection bracket
plus the game's average-violation slack. The slack enters twice: directly
through the target constraint, and through the risk constraints scaled by
the point's leverage (how far a unit of extra risk budget moves the
prediction at x under the tightest ledger constraint), capped by the reach
of the norm ball itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import RIDGE, LinearRegressor, solve_bounded_least_squares

DEFAULT_KAPPA = 3.0
DEFAULT_NORM_BOUND = 10.0
MW_CONSTANT = 12.0  # numerator of the iteration budget, see mw_iterations
CHECK_EVERY = 8  # game iterations between early-stop checks
CERTIFICATE_SLACK = 1e-9  # least weighted overshoot that certifies infeasibility


@dataclass(frozen=True)
class RadiusSchedule:
    """Per-round risk radii Delta_i.

    theory mode:  Delta_1 = kappa, Delta_i = kappa * min{eps(n)/(i-1), 1}
    mellow mode:  Delta_1 = inf,   Delta_i = mellowness * eps(i-1)/(i-1)

    where eps is the concentration bound below, evaluated at the full horizon
    n in theory mode and at the current prefix length in mellow mode.
    """

    n: int
    d: int
    k: int
    delta_prob: float
    kappa: float = DEFAULT_KAPPA
    mode: str = "theory"
    mellowness: float = 0.01

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.k < 1:
            raise ValueError("n, d, k must be positive")
        if not 0.0 < self.delta_prob <= 1.0 / math.e:
            raise ValueError("delta must lie in (0, 1/e]")
        if not 0.0 < self.kappa < math.inf:  # NaN fails too
            raise ValueError("kappa must be positive and finite")
        if self.mode not in ("theory", "mellow"):
            raise ValueError(f"unknown radius mode {self.mode!r}")
        if self.mode == "theory" and self.kappa < 2.0:
            raise ValueError("theory radius needs kappa >= 2")
        if not 0.0 < self.mellowness < math.inf:
            raise ValueError("mellowness must be positive and finite")


def eps_bound(n, d, k, delta_prob):
    """Concentration radius 324 (d log n + log(8 K e (d+1) n^2 / delta)); n >= 1."""
    return 324.0 * (
        d * math.log(n) + math.log(8.0 * k * math.e * (d + 1) * n * n / delta_prob)
    )


def radius(round_i, schedule):
    """Risk radius Delta_i for the given 1-based round."""
    if round_i < 1:
        raise ValueError("rounds are 1-based")
    if schedule.mode == "theory":
        if round_i == 1:
            return schedule.kappa
        e = eps_bound(schedule.n, schedule.d, schedule.k, schedule.delta_prob)
        return schedule.kappa * min(e / (round_i - 1), 1.0)
    if round_i == 1:
        return math.inf
    e = eps_bound(round_i - 1, schedule.d, schedule.k, schedule.delta_prob)
    return schedule.mellowness * e / (round_i - 1)


@dataclass(frozen=True)
class CostInterval:
    """Estimated achievable-cost interval [lo, hi] with per-side error tol."""

    lo: float
    hi: float
    tol: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= 1.0 and 0.0 <= self.hi <= 1.0):
            raise ValueError("interval ends must lie in [0, 1]")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.lo > self.hi + 2.0 * self.tol + 1e-9:
            raise ValueError(f"lo {self.lo} exceeds hi {self.hi} beyond 2*tol")

    @property
    def width(self):
        return self.hi - self.lo


@dataclass(frozen=True)
class MwConfig:
    """Iteration budget and step size for one feasibility game."""

    t: int
    eta: float
    rho: float

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("iteration budget must be at least 1")
        if not 0.0 <= self.eta <= 0.5:
            raise ValueError("eta must lie in [0, 1/2]")
        if self.rho <= 0:
            raise ValueError("rho must be positive")


@dataclass(frozen=True)
class MwSettings:
    """Solver knobs shared by every guess of a bisection search."""

    t_max: int = 2000
    early_stop: bool = True


DEFAULT_SETTINGS = MwSettings()


def mw_iterations(round_i, delta_i, tol, settings=DEFAULT_SETTINGS):
    """Iteration budget log(i+1) (constant/Delta_i)^2 / tol^4, capped."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if math.isfinite(delta_i):
        base = math.log(round_i + 1) * (MW_CONSTANT / delta_i) ** 2 / tol**4
    else:
        base = 0.0
    return max(1, min(settings.t_max, math.ceil(base)))


def mw_slack(m_experts, cfg):
    """The average-violation slack s of the module docstring; m_experts = m + 1."""
    return 2.0 * cfg.rho * math.sqrt(math.log(m_experts) / cfg.t)


def mw_config_for(m_experts, t, rho):
    # raise t until eta = sqrt(log m / t) lands at or below 1/2; a lone
    # expert (log 1 = 0) gets eta = 0 and keeps its t
    t = max(t, math.ceil(4.0 * math.log(m_experts)))
    eta = min(math.sqrt(math.log(m_experts) / t), 0.5)
    return MwConfig(t=t, eta=eta, rho=rho)


@dataclass(frozen=True)
class MwFeasible:
    """No certificate found: averaged iterate plus measured constraint slack.

    value_averages[0] is the average squared distance to the target,
    value_averages[1:] the average ledger risks, in constraint order;
    violations holds their overshoot beyond the respective bounds.
    """

    regressor: LinearRegressor
    value_averages: np.ndarray
    violations: np.ndarray
    iterations: int

    feasible = True


@dataclass(frozen=True)
class MwInfeasible:
    """Certificate: the weighted constraint combination no regressor meets."""

    iterations: int
    certificate_value: float
    threshold: float
    weights: np.ndarray

    feasible = False


class RangeProblem:
    """One (point, label-state) feasibility instance, reusable across guesses.

    Holds the game's m + 1 quadratic constraints as one stack of augmented
    rows (coal.oracle): row j flattens a (d+1)x(d+1) matrix A whose value at
    weights w is v'Av / n for v = [w; -1] and a normaliser n. Rows 1..m are
    the label state's rows of the deduplicated ledger prefixes, stacked as
    LabelState.prefix_row returns them; row 0 is the target's, which each run
    writes for its t. grams and moments view the stack; m counts rows 1..m.
    """

    def __init__(self, x, state, bound):
        self.x = x.to_dense(state.dim)
        self.bound = float(bound)
        rounds, counts, budgets, radii = state.constraint_view()
        self.m = int(rounds.size)
        self.budgets = budgets
        self.widths = np.concatenate(([2.0], radii + 1.0))
        self.denoms = np.concatenate(([1.0], rounds - 1.0))
        d = self.x.size
        rows = np.stack([state.prefix_row(count) for count in (0, *counts)])
        self.stack = rows.reshape(self.m + 1, -1)
        self.grams, self.moments = rows[:, :d, :d], rows[:, :d, d]
        # regularised, not a pseudo-inverse: a probe off the span of a
        # prefix's points must read as unbounded leverage under that prefix
        rhs = np.broadcast_to(self.x.reshape(1, d, 1), (self.m, d, 1))
        sols = np.linalg.solve(self.grams[1:] + RIDGE * np.eye(d), rhs)[..., 0]
        self.leverage = float(np.min(self.denoms[1:] * (sols @ self.x), initial=np.inf))

    def anchor_prediction(self):
        """Prediction at x of the least-squares fit on the largest prefix."""
        if not self.m:  # the empty prefix: the zero fit
            return 0.0
        w = solve_bounded_least_squares(self.grams[-1], self.moments[-1], self.bound)
        return float(w @ self.x)

    def run(self, c, t, cfg, settings=DEFAULT_SETTINGS):
        """Play the feasibility game for guess c against target t."""
        d = self.x.size
        u = np.append(self.x, t)
        self.stack[0] = np.outer(u, u).ravel()
        bounds = np.concatenate(([c], self.budgets))
        limit = bounds + mw_slack(self.m + 1, cfg)
        mu = np.full(self.m + 1, 1.0 / (self.m + 1))
        t_loop = cfg.t if cfg.eta > 0 else 1
        v = np.full(d + 1, -1.0)

        weight_sum = np.zeros(d)
        value_sum = np.zeros(self.m + 1)
        it = 0
        for it in range(1, t_loop + 1):
            hb = ((mu / self.denoms) @ self.stack).reshape(d + 1, d + 1)
            w = solve_bounded_least_squares(hb[:d, :d], hb[:d, d], self.bound)
            v[:d] = w
            values = np.maximum(self.stack @ np.outer(v, v).ravel(), 0.0)
            values /= self.denoms
            ratios = bounds - values
            if -(mu @ ratios) >= CERTIFICATE_SLACK:
                return MwInfeasible(it, float(mu @ values), float(mu @ bounds), mu)
            value_sum += values
            weight_sum += w
            ratios /= self.widths
            np.minimum(np.maximum(ratios, -1.0, out=ratios), 1.0, out=ratios)
            mu *= 1.0 - cfg.eta * ratios
            mu /= mu.sum()
            if (
                settings.early_stop
                and it < t_loop
                and it % CHECK_EVERY == 0
                and np.all(value_sum / it <= limit)
            ):
                break
        avg = value_sum / it
        return MwFeasible(
            regressor=LinearRegressor(weight_sum / it, self.bound),
            value_averages=avg,
            violations=np.maximum(avg - bounds, 0.0),
            iterations=it,
        )


def separation_oracle(mu, t, x, state, bound=DEFAULT_NORM_BOUND):
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
            g, h, _ = state.prefix_sums(count)
            gram = gram + weight / (entry.round - 1) * g
            moment = moment + weight / (entry.round - 1) * h
    return LinearRegressor(solve_bounded_least_squares(gram, moment, bound), bound)


@dataclass(frozen=True)
class CostEstimate:
    """One end of an achievable-cost interval with its realized error bound."""

    value: float
    tol: float
    bracket_lo: float
    bracket_hi: float
    mw_slack: float
    guesses: int


def _bisect_cost(target, problem, tol, round_i, delta_i, rho, settings):
    t_budget = mw_iterations(round_i, delta_i, tol, settings)
    cfg = mw_config_for(problem.m + 1, t_budget, rho)
    c_lo, c_hi = 0.0, 1.0
    guesses = 0
    witness = None
    while c_hi - c_lo > tol * tol / 2.0:
        c_mid = (c_lo + c_hi) / 2.0
        guesses += 1
        outcome = problem.run(c_mid, target, cfg, settings)
        if outcome.feasible:
            c_hi = c_mid
            witness = float(outcome.regressor.weights @ problem.x)
        else:
            c_lo = c_mid
    slack = mw_slack(problem.m + 1, cfg)
    geom = 0.0
    if slack > 0.0:  # with no ledger the leverage is unbounded, and unused
        ball_reach = 2.0 * problem.bound * math.sqrt(float(problem.x @ problem.x))
        geom = min(math.sqrt(slack * problem.leverage), ball_reach)
    # the guess measures |prediction - target|, which cannot tell a space just
    # short of the target from one just past it; the witness prediction (or
    # the anchor fit when nothing was feasible) pins the side, and a space
    # past the target saturates the clamped cost at that end
    if witness is None:
        witness = problem.anchor_prediction()
    if target == 1:
        raw = 1.0 if witness > 1.0 else 1.0 - math.sqrt(c_lo)
    else:
        raw = 0.0 if witness < 0.0 else math.sqrt(c_lo)
    return CostEstimate(
        value=min(1.0, max(0.0, raw)),
        tol=math.sqrt((c_hi - c_lo) + slack) + geom,
        bracket_lo=c_lo,
        bracket_hi=c_hi,
        mw_slack=slack,
        guesses=guesses,
    )


def max_cost(
    x,
    state,
    tol,
    round_i,
    delta_i,
    rho=DEFAULT_KAPPA,
    bound=DEFAULT_NORM_BOUND,
    settings=DEFAULT_SETTINGS,
):
    """Largest cost any ledger-consistent regressor assigns to x.

    Sound from below: the returned value never undershoots the true maximum
    achievable clamped cost by more than the reported tol, and infeasibility
    certificates guarantee it never exceeds 1 - sqrt of the true optimum.
    """
    problem = RangeProblem(x, state, bound)
    return _bisect_cost(1, problem, tol, round_i, delta_i, rho, settings)


def min_cost(
    x,
    state,
    tol,
    round_i,
    delta_i,
    rho=DEFAULT_KAPPA,
    bound=DEFAULT_NORM_BOUND,
    settings=DEFAULT_SETTINGS,
):
    """Smallest cost any ledger-consistent regressor assigns to x."""
    problem = RangeProblem(x, state, bound)
    return _bisect_cost(0, problem, tol, round_i, delta_i, rho, settings)


def cost_interval(
    x,
    state,
    tol,
    round_i,
    delta_i,
    rho=DEFAULT_KAPPA,
    bound=DEFAULT_NORM_BOUND,
    settings=DEFAULT_SETTINGS,
):
    """Achievable-cost interval for one label at x: [min_cost, max_cost]."""
    problem = RangeProblem(x, state, bound)
    lo = _bisect_cost(0, problem, tol, round_i, delta_i, rho, settings)
    hi = _bisect_cost(1, problem, tol, round_i, delta_i, rho, settings)
    return CostInterval(lo=lo.value, hi=hi.value, tol=max(lo.tol, hi.tol))
