"""Norm-bounded weighted least squares and per-label query history.

In exact mode the learner keeps, for every label, its query history and a
ledger of per-round risk budgets. The history is held as augmented rows: for
each prefix of the queried points, the (d+1)x(d+1) sum of u u' with
u = [x; cost], whose blocks [[G, h], [h', s]] are the Gram, the moment and
the squared costs, and whose quadratic form at [w; -1] is the squared loss
of w. Only LabelState builds these rows; once per deduplicated ledger prefix
it caches all that coal.cost_range reads of one (LabelState.prefix_cache),
and it memoises its last ERM fit, which the refit and the next round's cost
ranges share. Regressors are linear with an L2 norm bound; fitting solves

    min_g  sum_i w_i (g(x_i) - c_i)^2   s.t.  ||g||_2 <= bound

with one solver, solve_bounded_least_squares. One symmetric eigendecomposition
per call gives the minimiser of least norm: inside the ball, or on its sphere,
where Newton steps on 1/||w(mu)|| climb to the multiplier mu from a lower
bound (Gander 1981; More and Sorensen 1983). Every least-squares fit in the
package (the ERM refit, the games' oracle, the separation oracle) uses it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

RIDGE = 1e-12  # the prefix cache's solves use G + RIDGE I; the bounded solve needs none
RANGE_RTOL = 1e-8  # a part of b on a null direction below this share of ||b|| is rounding
NEWTON_RTOL = 1e-13  # the sphere's ||w|| is returned within this relative distance of the bound
NEWTON_CAP = 50  # a safety net: from the lower bound Newton needs a handful of steps


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
    """argmin_w w'Gw - 2 b'w subject to ||w|| <= bound, of least norm.

    Eigenvalues of G + G' at or below d eps lam_max, and b's parts on them below
    RANGE_RTOL ||b||, count as 0. The minimum-norm solution is the answer when b
    has no other part there and it lies in the ball. G and b are not written.
    """
    d = gram.shape[0]
    if d == 0 or bound == 0:
        return np.zeros(d)
    lam, q = np.linalg.eigh(gram + gram.T)
    beta = np.dot(moment + moment, q)  # (G + G')w = 2b; np.dot is cheaper than @ at this size
    cut = d * math.ulp(1.0) * lam[-1]
    if lam[0] <= cut:  # eigh sorts ascending; keep a null direction only where b has a part
        null = lam <= cut
        keep = ~null | (np.abs(beta) > RANGE_RTOL * math.sqrt(beta @ beta))
        lam[null] = 0.0
        lam, beta, q = lam[keep], beta[keep], q[:, keep]
    if not lam.size or lam[0] > 0.0:  # no null direction is left: b lies in G's range
        w = beta / lam
        if np.dot(w, w) <= bound * bound:
            return np.dot(q, w)
    mu = max(np.linalg.norm(beta) / bound - lam[-1], np.linalg.norm(beta[lam == 0]) / bound, 0.0)
    for _ in range(NEWTON_CAP):  # 1/||w(mu)|| is concave: its Newton steps stay below the root
        w = beta / (lam + mu)
        norm2 = w @ w
        if norm2 <= (bound * (1.0 + NEWTON_RTOL)) ** 2:
            break
        mu += norm2 * (math.sqrt(norm2) - bound) / (bound * (w @ (w / (lam + mu))))
    return q @ w


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
        # (round, count, budget, radius) of the earliest ledger entry per
        # distinct point count, the binding one (later rounds only relax it)
        self._table, self.n_prefixes = np.zeros((0, 4)), 0
        self._cache, self._cached = (), 0  # prefix_cache's arrays; prefixes filled
        self._fit = (None,) * 4  # memo: (count, bound, weights, unnormalised risk)

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
        if weights is self._fit[2] and k == self._fit[0]:  # the memoised fit
            return self._fit[3] / (round_j - 1)
        v = np.append(weights, -1.0)
        return max(float(v @ self.prefix_row(k) @ v), 0.0) / (round_j - 1)

    def erm_weights(self, round_j, bound):
        """Bounded least-squares weights for the prefix before round_j.

        Memoised, read-only, for the last prefix and bound, together with the
        fit's unnormalised risk, which risk_of_weights of these weights reads.
        """
        count = self.n_points_before(round_j)
        if self._fit[:2] != (count, bound):
            g, h, _ = self.prefix_sums(count)
            w = solve_bounded_least_squares(g, h, bound)
            w.flags.writeable = False
            v = np.append(w, -1.0)
            self._fit = (count, bound, w, max(float(v @ self.prefix_row(count) @ v), 0.0))
        return self._fit[2]

    def append_ledger(self, round_j, erm_risk, delta):
        if self.ledger and round_j <= self.ledger[-1].round:
            raise ValueError("ledger rounds must be strictly increasing")
        if erm_risk < 0 or delta < 0:
            raise ValueError("risk and radius must be nonnegative")
        entry = LedgerEntry(round_j, erm_risk + delta)
        self.ledger.append(entry)
        count = self.n_points_before(round_j)
        m = self.n_prefixes
        if count > (self._table[m - 1, 1] if m else 0):
            if m == len(self._table):  # double the capacity
                self._table = np.resize(self._table, (2 * m + 1, 4))
            self._table[m] = round_j, count, entry.delta_tilde, delta
            self.n_prefixes = m + 1
        return entry

    def prefix_cache(self):
        """Per deduplicated prefix, in ledger order, views of: the flattened
        augmented rows (stack, whose extra row 0 is scratch for the caller's
        own), G_eps^-1 for G_eps = G + RIDGE I, the ridge fits G_eps^-1 h,
        s - h'fit, |fit| and the (round, count, budget, radius) entries.

        Each prefix is filled in once, at the first read after the ledger
        added it, so a ledger that no cost range reads solves nothing.
        """
        m, d = self.n_prefixes, self.dim
        shapes = ((d + 1) ** 2,), (d, d), (d,), (), ()
        if not m:  # a scratch row and empty views, none of them kept
            return (*(np.zeros((int(i == 0), *s)) for i, s in enumerate(shapes)), self._table[:0])
        if not self._cache or m >= len(self._cache[0]):  # allocate, or double
            old = self._cache or [np.zeros((1, *shape)) for shape in shapes]
            self._cache = [np.resize(a, (2 * m + 1, *a.shape[1:])) for a in old]
        stack, inverses, fits, residuals, fit_norms = self._cache
        for j in range(self._cached + 1, m + 1):
            row = self._rows[int(self._table[j - 1, 1]) - 1]
            h, rhs = row[:d, d], np.eye(d, d + 1)
            # regularised, not a pseudo-inverse: a probe off the span of a
            # prefix's points must read as unbounded leverage under that prefix
            gram = row[:d, :d] + RIDGE * rhs[:, :d]
            rhs[:, d] = h
            solved = np.linalg.solve(gram, rhs)  # [G_eps^-1 | fit]
            stack[j], inverses[j], fits[j] = row.ravel(), solved[:, :d], solved[:, d]
            residuals[j] = row[d, d] - np.einsum("i,i->", h, fits[j])
            fit_norms[j] = math.sqrt(np.einsum("i,i->", fits[j], fits[j]))
        self._cached = m
        return stack[: m + 1], *(a[1 : m + 1] for a in self._cache[1:]), self._table[:m]

    def constraint_view(self):
        """Deduplicated ledger constraints as (rounds, counts, budgets, radii), copied."""
        table = self._table[: self.n_prefixes]
        rounds, counts = table[:, :2].T.astype(np.int64)
        return rounds, counts, table[:, 2].copy(), table[:, 3].copy()
