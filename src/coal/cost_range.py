"""Version-space cost ranges via bisection over a feasibility solver.

For a label with query history and risk ledger, the achievable costs at a
point x are the predictions of regressors whose empirical risk stays within
the ledger budget at every recorded round. The largest achievable cost is
found by bisecting on a guessed squared distance c from the target value
t = 1 (t = 0 for the smallest): each guess asks whether

    exists g, ||g|| <= bound:  (g(x) - t)^2 <= c  and
                               risk_j(g) <= budget_j  for every ledger round j

Each search starts from a closed-form bracket: a sound lower end from the
ellipsoid each ledger row confines the weights to, and an upper end from an
exactly feasible witness. The round kernel (Brackets) computes both
searches' brackets for every label at once, each quantity one numpy
operation over the lanes of the learner's PrefixBlock (coal.oracle), and
cost_intervals settles every search the bracket closes. Only a search left
open builds its label's RangeProblem, from the label's lane of the kernel,
whose guesses inside the bracket play a multiplicative-weights game between
the constraints and a minimum-norm least-squares oracle (_bisect_cost); one
formula (_estimates) turns every search's final bracket into its end and
tol. Each of the m + 1 constraints is quadratic in g, so
RangeProblem holds it as the augmented row [[G, h], [h', s]] of coal.oracle,
whose quadratic form at [g; -1] is its value. A game iteration is two
products with that stack: the mu-weighted row sum gives the H and b of one
oracle.solve_bounded_least_squares call, and the product with
[g; -1][g; -1]' gives every constraint value. An infeasibility verdict
exhibits a nonnegative combination of constraints that no regressor can
satisfy, so it is sound no matter how few iterations ran; a feasible
verdict comes with the averaged iterate and its measured constraint
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
ROOT_MAX = 1e154  # a saturated budget's square root stays below it, so its square is finite
_TARGETS = np.array([[0.0], [1.0]])  # the target of each row of the kernel's (2, K) arrays


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


class Brackets:
    """The round kernel: both searches' closed-form brackets for consecutive
    lanes of one PrefixBlock (coal.oracle), each quantity one numpy operation
    over rows 1..c of all lanes, c the largest point count of a lane's last
    ledger prefix, with every row that is not a prefix of its lane masked
    out. Row 0 of the (2, L) c_lo, c_hi, side and witness is the search
    against t = 0, row 1 against t = 1; column k is block lane first_lane + k.

    c_lo is sound. Since q_j(w) = q_eps(w) - RIDGE |w|^2, ledger row j
    confines w to (w - fit_j)' G_eps (w - fit_j) <= rho_j, so the prediction
    at x lies within sqrt(rho_j x'G_eps^-1 x) of fit_j . x; c_lo is the
    squared distance from t to the intersection of these ranges and the
    ball's +-bound |x| (outer). c_hi comes from an exactly feasible
    regressor: the anchor (the label's ERM fit on its largest prefix) moved
    toward t along up, the last prefix's G_eps^-1 x. Every budget row and
    |w|^2 is a quadratic c alpha^2 + 2 b alpha + a in the step, so the
    largest step within every budget is a minimum of roots; it stops where
    the prediction reaches t, less STEP_MARGIN for rounding. Where the anchor
    itself breaks a budget (broken) there is no witness, and c_hi is 1. A
    budget that is infinite, or whose product with its round leaves the
    float range, saturates at the largest risk a regressor in the ball
    reaches on its prefix, (bound sqrt(trace G) + sqrt(s))^2: its row stays
    slack.
    """

    def __init__(self, x, labels, bound):
        block, L, d = labels[0].block, len(labels), x.size
        self.first_lane = labels[0].lane
        ends = np.array([label.last_prefix for label in labels])
        anchors = [label.anchor(bound) for label in labels]
        block.fill()
        self.m = m = np.array([label.n_prefixes for label in labels])
        count = int(ends.max())
        self.anchors = anchors = np.array(anchors)
        rows = slice(self.first_lane, self.first_lane + L), slice(1, count + 1)
        stack, inverses, fits, parts = (getattr(block, name)[rows] for name in block.shapes)
        residuals, fit_norms, denoms, budgets, trace_roots, cost_roots = parts.transpose(2, 0, 1)
        live = (denoms > 0.0) & (np.arange(1, count + 1) <= ends[:, None])
        single = [k for k, c in enumerate(ends) if c == 1] if count > 1 else []
        # one product per lane; within a lane the rows are contiguous, so no copy
        self.directions = (inverses.reshape(L, -1, d) @ x).reshape(L, count, d)
        leverages = np.maximum(_row_dots(self.directions, x, single), 0.0)
        self.leverage = np.minimum.reduce(denoms * leverages, 1, where=live, initial=np.inf)
        self.saturated = budgets == np.inf
        reaches = np.minimum(bound * trace_roots + cost_roots, ROOT_MAX)
        self.budgets = budgets = np.where(self.saturated, np.square(reaches), budgets)
        rho = np.maximum(budgets + RIDGE * (bound + fit_norms) ** 2 - residuals, 0.0)
        # square roots taken factor by factor, and hypot below, keep every
        # product within the float range
        centres, half = _row_dots(fits, x, single), np.sqrt(rho) * np.sqrt(leverages)
        reach = bound * math.sqrt(float(x @ x))
        lo = np.maximum.reduce(centres - half, 1, where=live, initial=-reach)
        hi = np.minimum.reduce(centres + half, 1, where=live, initial=reach)
        self.outer = lo, hi
        self.c_lo = np.minimum(np.maximum(np.maximum(lo - _TARGETS, _TARGETS - hi), 0.0) ** 2, 1.0)
        self.start = start = _dots(anchors, x)
        up = self.directions[np.arange(L), ends - 1] if count else np.tile(x, (L, 1))
        if 0 in m:
            up[m == 0] = x
        v = np.concatenate((anchors, -np.ones((L, 1))), axis=1)
        dv = np.concatenate((up, np.zeros((L, 1))), axis=1)
        products = (stack.reshape(L, -1, d + 1) @ v[:, :, None]).reshape(L, count, d + 1)  # A_j v
        # each quadratic's rows, and the ball's |w|^2 as the last column
        a, b, room, c = np.empty((4, L, count + 1))
        a[:, :count], room[:, :count] = (products @ v[:, :, None])[..., 0], budgets
        b[:, :count] = (products[..., :d] @ up[:, :, None])[..., 0]
        c[:, :count] = (stack @ (dv[:, :, None] * dv[:, None, :]).reshape(L, -1, 1))[..., 0]
        a[:, count], b[:, count] = _dots(anchors, anchors), _dots(anchors, up)
        c[:, count], room[:, count] = _dots(up, up), bound**2
        room -= a
        np.maximum(c, 0.0, out=c)
        live = np.concatenate((live, np.ones((L, 1), dtype=bool)), axis=1)
        self.broken = np.logical_or.reduce(room < 0.0, 1, where=live)
        disc = np.hypot(b, np.sqrt(c) * np.sqrt(np.abs(room)))
        sign = np.copysign(1.0, _TARGETS - start)
        b = sign[..., None] * b
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the larger root of c alpha^2 + 2 b alpha = room, in its
            # cancellation-free form; one past the float range is no limit
            roots = np.where(b < 0.0, (disc - b) / c, room / (b + disc))
            limit = np.abs(_TARGETS - start) / np.abs(_dots(up, x))
        first = np.minimum.reduce(roots, 2, where=live, initial=np.inf)
        alpha = np.where(limit < first, limit, first)
        # nan: a row at its budget with no slope; inf: x = 0, no step moves
        # the prediction. Either way the witness is the anchor.
        alpha = np.where(np.isfinite(alpha), alpha, 0.0)
        self.witness = anchors + (alpha * (1.0 - STEP_MARGIN))[..., None] * (sign[..., None] * up)
        reached = (self.witness[..., None, :] @ x)[..., 0]
        c_hi = np.minimum(np.maximum((reached - _TARGETS) ** 2, self.c_lo), 1.0)
        self.c_hi = np.where(self.broken, 1.0, c_hi)
        self.side = np.where(self.broken, start, reached)


def _dots(u, v):
    """Each row pair's product through dot, as a lone pair's: the anchor's
    decide the ball's room and the side of the start."""
    return (u[:, None, :] @ v[..., None])[:, 0, 0]


def _row_dots(rows, x, single):
    """rows @ x; a lane that holds one prefix (in single) takes the one-row
    product, a dot, which rounds unlike the matrix-vector kernel."""
    dots = rows @ x
    for k in single:
        dots[k, 0] = rows[k, 0] @ x
    return dots


class RangeProblem:
    """One (point, label-state) feasibility instance, reusable across guesses.

    Holds the game's m + 1 quadratic constraints as one stack of augmented
    rows (coal.oracle): row j flattens a (d+1)x(d+1) matrix A whose value at
    weights w is v'Av / n for v = [w; -1] and a normaliser n. The stack is
    gathered from the label's lane of its PrefixBlock: rows 1..m are the
    deduplicated ledger prefixes' rows, row 0 a scratch row, which each run
    writes for its t, so no game writes the history. Its bracket and
    target-free parts are the label's lane of a round kernel: lanes, the
    round's Brackets, when given, or else a one-lane Brackets of its own.
    """

    def __init__(self, x, state, bound, lanes=None):
        self.x = x = x.to_dense(state.dim)
        self.bound = float(bound)
        self.stack, *_, table = state.prefix_cache()
        self.m = m = len(table)
        lanes = Brackets(x, [state], self.bound) if lanes is None else lanes
        k, rows = state.lane - lanes.first_lane, table[:, 1].astype(np.intp) - 1
        self.anchor, self.start = lanes.anchors[k], float(lanes.start[k])
        self.directions, self.leverage = lanes.directions[k, rows], float(lanes.leverage[k])
        self.outer = float(lanes.outer[0][k]), float(lanes.outer[1][k])
        self.denoms = np.concatenate(([1.0], table[:, 0] - 1.0))
        self.widths = np.concatenate(([2.0], table[:, 3] + 1.0))
        saturated, budgets = lanes.saturated[k, rows], lanes.budgets[k, rows]
        self.budgets = np.where(saturated, budgets / self.denoms[1:], table[:, 2])
        c_lo, c_hi = lanes.c_lo[:, k].tolist(), lanes.c_hi[:, k].tolist()
        witnesses = [None if lanes.broken[k] else lanes.witness[t, k] for t in (0, 1)]
        self._ends = list(zip(c_lo, c_hi, witnesses))

    def bracket(self, t):
        """Closed-form (c_lo, c_hi, witness) for the search against target t, 0
        or 1, as Brackets defines them; witness is None when c_hi is 1 for lack
        of one."""
        return self._ends[t]

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


@dataclass(frozen=True)
class CostEstimate:
    """One end of an achievable-cost interval with its realized error bound."""

    value: float
    tol: float
    bracket_lo: float
    bracket_hi: float
    mw_slack: float
    guesses: int


def _bisect_cost(target, problem, tol, cfg, settings):
    """Bisect the search against target from the problem's bracket, one game
    per guess, until the bracket is at most tol^2 / 2 wide. Returns the final
    (c_lo, c_hi), the side (the last feasible regressor's prediction, or
    the anchor's when none was feasible) and the number of guesses."""
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
    side = problem.start if witness is None else float(witness @ problem.x)
    return c_lo, c_hi, side, guesses


def _estimates(t, c_lo, c_hi, side, slack, leverage, x, bound):
    """The (value, tol) of searches against targets t (0 or 1) that ended at
    [c_lo, c_hi] with the witness's prediction at side, their games' slack
    being slack: the module docstring's tol, whose second term is 0 with no
    ledger (slack 0, where the leverage is unbounded and unused). The guess
    measures |prediction - t|, which cannot tell a space just short of the
    target from one just past it; side pins it, and a space past the target
    saturates the clamped cost at t. Broadcasts, so it serves one search or
    a round's (2, K) of them alike."""
    with np.errstate(over="ignore"):  # a product past the float range is inf, capped below
        geom = np.multiply(slack, leverage, out=np.zeros(np.shape(c_lo)), where=slack > 0.0)
    geom = np.minimum(np.sqrt(geom), 2.0 * bound * math.sqrt(float(x @ x)))
    near = t + (1 - 2 * t) * np.sqrt(c_lo)  # sqrt(c_lo) from t = 0, 1 - sqrt(c_lo) from t = 1
    value = np.where(side * (2 * t - 1) > t, t, near)  # side < 0, or side > 1
    return np.minimum(np.maximum(value, 0.0), 1.0), np.sqrt((c_hi - c_lo) + slack) + geom


def _search(target, x, state, tol, round_i, delta_i, rho, bound, settings):
    problem = RangeProblem(x, state, bound)
    cfg = mw_config_for(problem.m + 1, mw_iterations(round_i, delta_i, tol, settings), rho)
    c_lo, c_hi, side, guesses = _bisect_cost(target, problem, tol, cfg, settings)
    slack = mw_slack(problem.m + 1, cfg)
    value, est = _estimates(target, c_lo, c_hi, side, slack, problem.leverage, problem.x, bound)
    return CostEstimate(float(value), float(est), c_lo, c_hi, slack, guesses)


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
    return _search(1, x, state, tol, round_i, delta_i, rho, bound, settings)


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
    return _search(0, x, state, tol, round_i, delta_i, rho, bound, settings)


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
    lo, hi, tol = cost_intervals(x, [state], tol, round_i, delta_i, rho, bound, settings)
    return CostInterval(lo=float(lo[0]), hi=float(hi[0]), tol=float(tol[0]))


def cost_intervals(x, labels, tol, round_i, delta_i, rho, bound, settings):
    """Every label's achievable-cost interval at x, as (lo, hi, tol) arrays.

    labels are consecutive lanes of one PrefixBlock. The round kernel
    (Brackets) brackets every search; only a search its bracket leaves open
    builds its label's RangeProblem and bisects with games (_bisect_cost).
    _estimates turns every search's final bracket into its end and tol. The
    intervals pass CostInterval's checks, or raise its ValueError.
    """
    dense = x.to_dense(labels[0].dim)
    lanes = Brackets(dense, labels, bound)
    t_budget = mw_iterations(round_i, delta_i, tol, settings)
    counts = lanes.m.tolist()
    cfgs = [mw_config_for(m + 1, t_budget, rho) for m in counts]
    slack = np.array([mw_slack(m + 1, cfg) for m, cfg in zip(counts, cfgs)])
    c_lo, c_hi, side = lanes.c_lo.copy(), lanes.c_hi.copy(), lanes.side.copy()
    problems = {}
    for target, k in zip(*np.nonzero(c_hi - c_lo > tol * tol / 2.0)):
        if k not in problems:
            problems[k] = RangeProblem(x, labels[k], bound, lanes)
        search = _bisect_cost(int(target), problems[k], tol, cfgs[k], settings)
        c_lo[target, k], c_hi[target, k], side[target, k] = search[:3]
    ends, tols = _estimates(_TARGETS, c_lo, c_hi, side, slack, lanes.leverage, dense, bound)
    lo, hi, tol = ends[0], ends[1], np.maximum(tols[0], tols[1])
    # the ends are clamped to [0, 1] and the tols nonnegative, or NaN, which fails here too
    valid = lo <= hi + 2.0 * tol + 1e-9
    if not valid.all():
        for k in np.flatnonzero(~valid):  # raises CostInterval's ValueError
            CostInterval(lo=float(lo[k]), hi=float(hi[k]), tol=float(tol[k]))
    return lo, hi, tol
