"""Norm-bounded weighted least squares and per-label query history.

In exact mode the learner keeps, for every label, its query history and a
ledger of per-round risk budgets. The history is held as augmented rows: for
each prefix of the queried points, the (d+1)x(d+1) sum of u u' with
u = [x; cost], whose blocks [[G, h], [h', s]] are the Gram, the moment and
the squared costs, and whose quadratic form at [w; -1] is the squared loss
of w. A learner's labels share one PrefixBlock: LabelState writes row c of
its label's lane once, as the sum of the first c points (prefix_row reads
it), and the block caches at each deduplicated ledger prefix's row, which
constraint_view lists, all that coal.cost_range reads of it. Each label
memoises its last ERM fit, which the ledger and the next round's cost
ranges read; refit alone solves these fits, at the point counts its caller
holds, and erm_weights calls it for one label on a miss. After a round,
record_round does each quantity once over the lanes: one stacked refit, one
norm check, every risk in one product (_risks, the formula risk_of_weights
runs for one lane) and each ledger entry. Regressors are linear with an L2
norm bound; fitting solves

    min_g  sum_i w_i (g(x_i) - c_i)^2   s.t.  ||g||_2 <= bound

with one solver, solve_bounded_least_squares. One symmetric eigendecomposition
per system gives the minimiser of least norm: inside the ball, or on its
sphere, where Newton steps on 1/||w(mu)|| climb to the multiplier mu from a
lower bound (Gander 1981; More and Sorensen 1983). Every least-squares fit in
the package (the ERM refit, the games' oracle) uses it.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

FLOAT_MAX = sys.float_info.max
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
    A stack of systems, (n, d, d) and (n, d), shares one eigh call; each is
    then solved as it would be alone.
    """
    if gram.shape[-1] == 0 or bound == 0:
        return np.zeros(np.shape(moment))
    lams, qs = np.linalg.eigh(gram + gram.swapaxes(-1, -2))
    if gram.ndim == 2:
        return _min_norm(lams, qs, moment, bound)
    return np.array([_min_norm(*system, bound) for system in zip(lams, qs, moment)])


def _min_norm(lam, q, moment, bound):
    d = lam.size
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


class PrefixBlock:
    """One learner's query histories and per-prefix caches: (K, capacity, ...)
    arrays, one lane per label, whose row c belongs to the label's first c
    points. The stack's row c is their flattened augmented row (row 0 is
    zero). fill() caches every lane's new deduplicated ledger prefixes, with
    one stacked solve, at their rows: G_eps^-1 for G_eps = G + RIDGE I, the
    ridge fit G_eps^-1 h, and the x-free parts s - h'fit, |fit|, round - 1,
    budget * (round - 1) (inf past the float range), sqrt(trace G) and
    sqrt(s); other rows stay zero. Until an array grows, by doubling, its
    one row 0 is zeros of stride 0, so nothing of size dim^2 is allocated.
    """

    def __init__(self, dim):
        d = self.dim = dim
        self.labels, self.filled = [], []  # per lane: prefixes filled
        self.shapes = {"stack": ((d + 1) ** 2,), "inverses": (d, d), "fits": (d,), "parts": (6,)}

    def join(self, label):
        """Add label and return its lane; refused once a point is appended,
        since the grown arrays hold no lane for a late label."""
        if any(other.n_points for other in self.labels):
            raise ValueError("a label must join its block before any point is appended")
        self.labels.append(label)
        self.filled.append(0)
        for name, shape in self.shapes.items():
            setattr(self, name, np.broadcast_to(0.0, (len(self.labels), 1, *shape)))
        return len(self.labels) - 1

    def reserve(self, names, count):
        """Room for count rows in each named array: short of it, 2 count - 1."""
        for name in names:
            held = getattr(self, name)
            if count > held.shape[1]:
                grown = np.zeros((len(self.labels), 2 * count - 1, *self.shapes[name]))
                grown[:, : held.shape[1]] = held
                setattr(self, name, grown)

    def fill(self):
        lanes, new = [], []
        for k, (label, done) in enumerate(zip(self.labels, self.filled)):
            if label.n_prefixes > done:
                new.append(label._table[done + 1 : label.n_prefixes + 1])
                lanes += [k] * len(new[-1])
        if not lanes:
            return
        table, lanes, n, d = np.concatenate(new), np.array(lanes), len(lanes), self.dim
        rows = table[:, 1].astype(np.intp)
        self.reserve(("inverses", "fits", "parts"), int(rows.max()) + 1)
        aug = self.stack[lanes, rows].reshape(n, d + 1, d + 1)
        rhs, grams = np.zeros((n, d, d + 1)), aug[:, :d, :d].copy()
        rhs.reshape(n, -1)[:, :: d + 2], rhs[:, :, d] = 1.0, aug[:, :d, d]  # [I | h]
        grams.reshape(n, -1)[:, :: d + 1] += RIDGE  # G_eps
        # regularised, not a pseudo-inverse: a probe off the span of a
        # prefix's points must read as unbounded leverage under that prefix
        solved = np.linalg.solve(grams, rhs)  # [G_eps^-1 | fit]
        fits = np.ascontiguousarray(solved[:, :, d])  # rounds its norms as a lone row does
        self.inverses[lanes, rows], self.fits[lanes, rows] = solved[:, :, :d], fits
        denoms, budgets = table[:, 0] - 1.0, table[:, 2]
        scaled = np.full(n, np.inf)
        np.multiply(budgets, denoms, out=scaled, where=budgets <= FLOAT_MAX / 2.0 / denoms)
        residuals = aug[:, d, d] - np.einsum("bi,bi->b", rhs[:, :, d], fits)
        fit_norms = np.sqrt(np.einsum("bi,bi->b", fits, fits))
        diagonal = aug.reshape(n, -1)[:, :: d + 2]  # G's diagonal and s
        roots = np.sqrt(diagonal[:, :d].sum(axis=1)), np.sqrt(diagonal[:, d])
        self.parts[lanes, rows] = np.array((residuals, fit_norms, denoms, scaled, *roots)).T
        self.filled = [label.n_prefixes for label in self.labels]


class LabelState:
    """Query history and risk ledger for a single label.

    Keeps the queried points' rounds in order and, in its lane of block, the
    augmented row of each prefix of those points (module docstring), so the
    empirical risk of any weight vector on any prefix is a single quadratic
    form. The ledger holds one entry per completed round from round 2 on;
    rounds strictly increase. Only a tracked ledger appends points. block is
    a PrefixBlock shared by the learner's labels, which every label joins
    before any appends a point; a label built alone owns a block of one
    lane.
    """

    def __init__(self, label, dim, block=None):
        self.label = label
        self.dim = dim
        self.rounds = []
        self.ledger = []
        # row j: (round, count, budget, radius) of ledger prefix j, the
        # earliest entry per distinct point count, the binding one (later
        # rounds only relax it); row 0 is the empty prefix's zeros, and
        # last_prefix the point count of row n_prefixes
        self._table, self.n_prefixes, self.last_prefix = np.zeros((1, 4)), 0, 0
        self.block = PrefixBlock(dim) if block is None else block
        self.lane = self.block.join(self)
        self._fit = (None,) * 3  # memo: (count, bound, weights), written by refit alone

    @property
    def n_points(self):
        return len(self.rounds)

    def append_point(self, round_i, x, cost):
        if self.rounds and round_i <= self.rounds[-1]:
            raise ValueError("query rounds must be strictly increasing")
        if not 0.0 <= cost <= 1.0:
            raise ValueError(f"cost {cost} outside [0, 1]")
        n, d, u = len(self.rounds), self.dim, np.empty(self.dim + 1)
        u[:d], u[d] = x.to_dense(d), cost
        self.block.reserve(("stack",), n + 2)
        lane = self.block.stack[self.lane]
        np.add(lane[n], (u[:, None] * u).ravel(), out=lane[n + 1])
        self.rounds.append(round_i)

    def n_points_before(self, round_j):
        """How many queried points lie in rounds < round_j."""
        return bisect.bisect_left(self.rounds, round_j)

    def prefix_row(self, count):
        """The (dim+1)x(dim+1) augmented row of the first count points: a view
        of row count of the label's lane of the block's stack."""
        return self.block.stack[self.lane, count].reshape(self.dim + 1, self.dim + 1)

    def risk_of_weights(self, weights, round_j):
        """Empirical risk of raw predictions on the prefix before round_j.

        The row's quadratic form at [w; -1], normalized by (round_j - 1)
        however many of those rounds queried this label (_risks). It solves
        nothing (refit alone solves fits) and keeps nothing: the memoised
        ERM's risk is this same form.
        """
        k = self.n_points_before(round_j)
        return float(_risks(self.prefix_row(k)[None], [weights], round_j)[0]) if k else 0.0

    def erm_weights(self, round_j, bound):
        """Bounded least-squares weights for the prefix before round_j.

        Memoised, read-only, for the last prefix and bound. refit alone solves
        fits: on a miss this label is refit alone.
        """
        count = self.n_points_before(round_j)
        if self._fit[:2] != (count, bound):
            refit([self], [count], bound)
        return self._fit[2]

    def anchor(self, bound):
        """The memoised ERM fit on the largest ledger prefix; zeros without one."""
        m = self.n_prefixes
        return self.erm_weights(int(self._table[m, 0]), bound) if m else np.zeros(self.dim)

    def append_ledger(self, round_j, erm_risk, delta):
        if self.ledger and round_j <= self.ledger[-1].round:
            raise ValueError("ledger rounds must be strictly increasing")
        if erm_risk < 0 or delta < 0:
            raise ValueError("risk and radius must be nonnegative")
        entry = LedgerEntry(round_j, erm_risk + delta)
        self.ledger.append(entry)
        count = self.n_points_before(round_j)
        m = self.n_prefixes
        if count > self.last_prefix:
            if m + 1 == len(self._table):  # double the capacity
                self._table = np.resize(self._table, (2 * m + 2, 4))
            self._table[m + 1] = round_j, count, entry.delta_tilde, delta
            self.n_prefixes, self.last_prefix = m + 1, count
        return entry

    def constraint_view(self):
        """Deduplicated ledger constraints as (rounds, counts, budgets, radii), copied."""
        table = self._table[1 : self.n_prefixes + 1]
        rounds, counts = table[:, :2].T.astype(np.int64)
        return rounds, counts, table[:, 2].copy(), table[:, 3].copy()


def refit(labels, counts, bound):
    """Fill the erm_weights memo of every label whose fit on its first count
    points (counts, the callers' own, one per label) is stale, with one
    stacked solve: after a round, those of the labels it queried. The only
    code that solves a label's ERM fit or writes its memo."""
    stale = [(label, c) for label, c in zip(labels, counts) if label._fit[:2] != (c, bound)]
    if stale:
        d, lanes = labels[0].dim, [label.lane for label, _ in stale]
        rows = labels[0].block.stack[lanes, [c for _, c in stale]].reshape(-1, d + 1, d + 1)
        fits = solve_bounded_least_squares(rows[:, :d, :d], rows[:, :d, d], bound)
        fits.flags.writeable = False  # each memo is a read-only row of it
        for (label, count), weights in zip(stale, fits):
            label._fit = (count, bound, weights)


def record_round(labels, round_j, delta, bound):
    """Close a round of a tracked ledger over labels, a learner's lanes, whose
    points all lie before round_j, so each prefix is all of its label's
    points: refit at those counts, check the fits' norms, take their risks in
    one product (_risks) and append each entry. Returns the (K, dim) fits."""
    lanes, counts = [label.lane for label in labels], [label.n_points for label in labels]
    refit(labels, counts, bound)
    fits, d = np.array([label._fit[2] for label in labels]), labels[0].dim
    norms = np.sqrt(np.vecdot(fits, fits))  # np.linalg.norm's dot, row by row
    if bound < 0 or norms.max() > bound + 1e-8:
        LinearRegressor(fits[norms.argmax()], bound)  # raises the fit's own error
    rows = labels[0].block.stack[lanes, counts].reshape(-1, d + 1, d + 1)
    for label, risk in zip(labels, _risks(rows, fits, round_j).tolist()):
        label.append_ledger(round_j, risk, delta)
    return fits


def _risks(rows, weights, round_j):
    """The one risk formula, over lanes: each (d+1)x(d+1) row's quadratic
    form at [w; -1], w the matching row of weights, clipped at 0 and
    normalised by round_j - 1; rounds 0 and 1 have zero risk by convention.
    Each lane's products round as a lone row's v @ row @ v."""
    if round_j <= 1:
        return np.zeros(len(rows))
    v = np.empty((len(rows), rows.shape[-1]))
    v[:, :-1], v[:, -1] = weights, -1.0
    return np.maximum(((v[:, None, :] @ rows) @ v[:, :, None])[:, 0, 0], 0.0) / (round_j - 1)
