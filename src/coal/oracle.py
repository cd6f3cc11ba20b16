"""Norm-bounded weighted least squares and per-label query history.

In exact mode the learner keeps, for every label, its query history and a
ledger of per-round risk budgets. The history is held as augmented rows: for
each prefix of the queried points, the (d+1)x(d+1) sum of u u' with
u = [x; cost], whose blocks [[G, h], [h', s]] are the Gram, the moment and
the squared costs, and whose quadratic form at [w; -1] is the squared loss
of w. Only LabelState builds these rows; coal.cost_range stacks them as the
constraints of its feasibility games. Regressors are linear with an L2 norm
bound; fitting solves

    min_g  sum_i w_i (g(x_i) - c_i)^2   s.t.  ||g||_2 <= bound

with one solver, solve_bounded_least_squares: the ridge-regularized normal
equations, and, when their solution leaves the ball, the exact KKT solution
on the sphere. Every least-squares fit in the package (the ERM refit, the
feasibility games' oracle, the separation oracle) goes through it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

RIDGE = 1e-12


@dataclass(frozen=True, eq=False)
class LinearRegressor:
    """Linear predictor with an enforced L2 norm bound on the weights."""

    weights: np.ndarray
    norm_bound: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if self.norm_bound < 0:
            raise ValueError("norm bound must be nonnegative")
        n = float(np.linalg.norm(w))
        if n > self.norm_bound + 1e-8:
            raise ValueError(f"weight norm {n} exceeds bound {self.norm_bound}")


@dataclass(frozen=True)
class WeightedPoint:
    """A regression target with nonnegative importance weight."""

    features: object  # SparseVector
    cost: float
    weight: float

    def __post_init__(self):
        if not math.isfinite(self.weight) or self.weight < 0:
            raise ValueError("point weight must be finite and nonnegative")
        if not math.isfinite(self.cost) or not 0.0 <= self.cost <= 1.0:
            raise ValueError("point cost must lie in [0, 1]")


def solve_bounded_least_squares(gram, moment, bound):
    """argmin_w w'Gw - 2 b'w subject to ||w|| <= bound.

    Solves the normal equations (G + RIDGE I) w = b. When that solution
    leaves the ball (or the solve yields no finite solution), the constraint
    is active and the minimiser is the KKT point w(mu) = (H + mu I)^-1 b with
    H = G + RIDGE I and ||w(mu)|| = bound: mu comes from bisection in the
    eigenbasis of H, where ||w(mu)||^2 = sum_i beta_i^2 / (lam_i + mu)^2 is
    strictly decreasing in mu >= 0. G and b may be views; neither is written.
    """
    d = gram.shape[0]
    if d == 0:
        return np.zeros(0)
    h = gram + gram.T
    h *= 0.5
    h.flat[:: d + 1] += RIDGE
    try:
        w = np.linalg.solve(h, moment)
    except np.linalg.LinAlgError:
        w = np.linalg.lstsq(h, moment, rcond=None)[0]
    if bound == 0:
        return np.zeros(d)
    if math.sqrt(w @ w) <= bound:
        return w
    lam, q = np.linalg.eigh(h)
    beta = q.T @ np.ascontiguousarray(moment)  # BLAS sums a strided view in another order
    lo, hi = 0.0, float(np.linalg.norm(beta)) / bound + 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if np.sum((beta / (lam + mid)) ** 2) > bound * bound:
            lo = mid
        else:
            hi = mid
    return q @ (beta / (lam + (lo + hi) / 2.0))


def fit_weighted(points, bound, dim=None):
    """Weighted norm-bounded least-squares fit over WeightedPoints.

    dim fixes the ambient dimension; when omitted it is inferred from the
    largest feature index present. No points (or all-zero weights) gives the
    zero regressor.
    """
    if dim is None:
        dim = max((p.features.max_index for p in points), default=-1) + 1
    gram = np.zeros((dim, dim))
    moment = np.zeros(dim)
    for p in points:
        if p.weight == 0.0:
            continue
        x = p.features.to_dense(dim)
        gram += p.weight * np.outer(x, x)
        moment += p.weight * p.cost * x
    return LinearRegressor(solve_bounded_least_squares(gram, moment, bound), bound)


@dataclass(frozen=True)
class LedgerEntry:
    """Risk budget recorded after a round: ERM risk plus radius."""

    round: int
    delta_tilde: float


class LabelState:
    """Query history and risk ledger for a single label.

    Keeps the queried points' rounds in order and the augmented row of each
    prefix of those points (module docstring), so the empirical risk of any
    weight vector on any prefix is a single quadratic form. The ledger holds
    one entry per completed round from round 2 on; rounds strictly increase.
    Only a tracked ledger appends points, and nothing of size dim^2 exists
    before the first one: the empty prefix's row is built on demand.
    """

    def __init__(self, label, dim):
        self.label = label
        self.dim = dim
        self.rounds = []
        self.ledger = []
        self._rows = []  # augmented rows of the first 1, 2, ... points
        # earliest ledger entry per distinct point count: the binding
        # constraint of each no-query stretch (later rounds only relax it)
        self._dedup = []

    @property
    def n_points(self):
        return len(self.rounds)

    def append_point(self, round_i, x, cost):
        if self.rounds and round_i <= self.rounds[-1]:
            raise ValueError("query rounds must be strictly increasing")
        if not 0.0 <= cost <= 1.0:
            raise ValueError(f"cost {cost} outside [0, 1]")
        u = np.append(x.to_dense(self.dim), cost)
        self._rows.append(self.prefix_row(self.n_points) + np.outer(u, u))
        self.rounds.append(round_i)

    def n_points_before(self, round_j):
        """How many queried points lie in rounds < round_j."""
        return bisect.bisect_left(self.rounds, round_j)

    def prefix_row(self, count):
        """The (dim+1)x(dim+1) augmented row of the first count points."""
        if count == 0:
            return np.zeros((self.dim + 1, self.dim + 1))
        return self._rows[count - 1]

    def prefix_sums(self, count):
        """(Gram, moment, sum of squared costs): the blocks of prefix_row(count)."""
        row, d = self.prefix_row(count), self.dim
        return row[:d, :d], row[:d, d], row[d, d]

    def risk_of_weights(self, weights, round_j):
        """Empirical risk of raw predictions on the prefix before round_j.

        The row's quadratic form at [w; -1], normalized by (round_j - 1)
        however many of those rounds queried this label; rounds 0 and 1 have
        zero risk by convention.
        """
        k = self.n_points_before(round_j)
        if round_j <= 1 or k == 0:
            return 0.0
        v = np.append(weights, -1.0)
        return max(float(v @ self.prefix_row(k) @ v), 0.0) / (round_j - 1)

    def erm_weights(self, round_j, bound):
        """Bounded least-squares weights for the prefix before round_j."""
        g, h, _ = self.prefix_sums(self.n_points_before(round_j))
        return solve_bounded_least_squares(g, h, bound)

    def append_ledger(self, round_j, erm_risk, delta):
        if self.ledger and round_j <= self.ledger[-1].round:
            raise ValueError("ledger rounds must be strictly increasing")
        if erm_risk < 0 or delta < 0:
            raise ValueError("risk and radius must be nonnegative")
        entry = LedgerEntry(round_j, erm_risk + delta)
        self.ledger.append(entry)
        count = self.n_points_before(round_j)
        if count > 0 and (not self._dedup or count > self._dedup[-1][1]):
            self._dedup.append((round_j, count, entry.delta_tilde, delta))
        return entry

    def constraint_view(self):
        """Deduplicated ledger constraints as (rounds, counts, budgets, radii)."""
        table = np.array(self._dedup, dtype=np.float64).reshape(-1, 4)
        rounds, counts = table[:, :2].T.astype(np.int64)
        return rounds, counts, table[:, 2], table[:, 3]
