"""Version-space cost ranges via bisection over a feasibility solver.

For a label with query history and risk ledger, the achievable costs at a
point x are the predictions of regressors whose empirical risk stays within
the ledger budget at every recorded round. The largest achievable cost is
found by bisecting on a guessed squared distance c from the target value
t = 1 (t = 0 for the smallest): each guess asks whether

    exists g, ||g|| <= bound:  (g(x) - t)^2 <= c  and
                               risk_j(g) <= budget_j  for every ledger round j

The bisection starts from the closed-form bracket of RangeProblem.bracket: a
sound lower end from the ellipsoid each ledger row confines the weights to,
and an upper end from an exactly feasible witness; RangeProblem takes views
of the label's prefix cache and computes the target-free parts once. Only
the guesses inside what the bracket leaves open play a
multiplicative-weights game between the constraints and a minimum-norm
least-squares oracle. Each of the m + 1 constraints is quadratic in g, so
RangeProblem holds it as the augmented row [[G, h], [h', s]] of coal.oracle,
whose quadratic form at [g; -1] is its value. A game iteration is two
products with that stack: the mu-weighted row sum gives the H and b of one
oracle.solve_bounded_least_squares call, and the product with
[g; -1][g; -1]' gives every constraint value. separation_oracle is the
oracle step's full-ledger form, which weighs every ledger entry. An
infeasibility verdict exhibits a nonnegative combination of constraints that
no regressor can satisfy, so it is sound no matter how few iterations ran; a
feasible verdict comes with the averaged iterate and its measured constraint
violations.

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
STEP_MARGIN = 1e-9  # relative shortening of the bracket's witness step, for rounding


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
        # past 1e150 the ratio's square would leave the float range; the cap binds first
        base = math.log(round_i + 1) * min(MW_CONSTANT / delta_i, 1e150) ** 2 / tol**4
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
    weights w is v'Av / n for v = [w; -1] and a normaliser n. The stack and
    the per-prefix arrays view LabelState.prefix_cache: rows 1..m are the
    deduplicated ledger prefixes' rows, row 0 the cache's scratch row, which
    each run writes for its t. directions holds each prefix's G_eps^-1 x, one
    product with the cached inverses, and fits its ridge fit G_eps^-1 h, with
    G_eps = G + RIDGE I; anchor is the label's memoised ERM fit on the
    largest prefix. The bracket's parts that do not depend on t are built here.
    """

    def __init__(self, x, state, bound):
        self.x = x = x.to_dense(state.dim)
        self.bound = float(bound)
        self.stack, inverses, self.fits, residuals, fit_norms, table = state.prefix_cache()
        self.m = m = len(table)
        self.budgets = table[:, 2]
        self.widths = np.concatenate(([2.0], table[:, 3] + 1.0))
        self.denoms = np.concatenate(([1.0], table[:, 0] - 1.0))
        self.directions = inverses @ x
        leverages = np.maximum(self.directions @ x, 0.0)
        self.leverage = float(np.min(self.denoms[1:] * leverages, initial=np.inf))
        self.anchor = state.erm_weights(int(table[-1, 0]), self.bound) if m else np.zeros(x.size)
        # The outer range, and the witness path: the anchor plus alpha times
        # the step up, the last prefix's G_eps^-1 x. Along it each budget row
        # and the ball's |w|^2 is c alpha^2 + 2 b alpha + a; toward a smaller
        # target only b's sign changes. Square roots taken factor by factor,
        # and hypot, keep every product within the float range.
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
        self.broken = bool(np.any(self.room < 0.0))  # the anchor itself breaks a budget
        self.curvatures = np.maximum(c, 0.0)
        self.disc = np.hypot(self.slopes, np.sqrt(self.curvatures) * np.sqrt(np.abs(self.room)))

    def bracket(self, t):
        """Closed-form (c_lo, c_hi, witness) for the search against target t.

        c_lo is sound. Since q_j(w) = q_eps(w) - RIDGE |w|^2, ledger row j
        confines w to (w - fit_j)' G_eps (w - fit_j) <= rho_j, so the
        prediction at x lies within sqrt(rho_j x'G_eps^-1 x) of fit_j . x;
        c_lo is the squared distance from t to the intersection of these
        ranges and the ball's +-bound |x| (outer). c_hi comes from an exactly
        feasible regressor: the anchor fit moved along the last prefix's
        G_eps^-1 x toward t. Every row's value and |w|^2 are quadratics in the
        step, so the largest step within every budget is a minimum of roots;
        it stops where the prediction reaches t, less STEP_MARGIN for
        rounding. witness is its weights, or None (and c_hi is 1) when the
        anchor itself breaks a budget.
        """
        lo, hi = self.outer
        c_lo = min(max(lo - t, t - hi, 0.0) ** 2, 1.0)
        if self.broken:
            return c_lo, 1.0, None
        x, start = self.x, self.start
        sign = math.copysign(1.0, t - start)
        step, b = sign * self.up, sign * self.slopes
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the larger root of c alpha^2 + 2 b alpha = room, in its
            # cancellation-free form; one past the float range is no limit
            disc, c = self.disc, self.curvatures
            roots = np.where(b < 0.0, (disc - b) / c, self.room / (b + disc))
            alpha = min(float(roots.min()), abs((t - start) / (x @ step)))
        # nan: a row at its budget with no slope; inf: x = 0, no step moves
        # the prediction. Either way the witness is the anchor.
        if not math.isfinite(alpha):
            alpha = 0.0
        witness = self.anchor + alpha * (1.0 - STEP_MARGIN) * step
        return c_lo, min(max((witness @ x - t) ** 2, c_lo), 1.0), witness

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
    c_lo, c_hi, witness = problem.bracket(target)
    guesses = 0
    while c_hi - c_lo > tol * tol / 2.0:
        c_mid = (c_lo + c_hi) / 2.0
        guesses += 1
        outcome = problem.run(c_mid, target, cfg, settings)
        if outcome.feasible:
            c_hi = c_mid
            witness = outcome.regressor.weights
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
    side = problem.start if witness is None else float(witness @ problem.x)
    if target == 1:
        raw = 1.0 if side > 1.0 else 1.0 - math.sqrt(c_lo)
    else:
        raw = 0.0 if side < 0.0 else math.sqrt(c_lo)
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
