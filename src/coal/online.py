"""Streaming cost regressors with closed-form sensitivity and cost ranges.

The exact learner refits a constrained least-squares problem per label per
round; this module is the cheap streaming stand-in. Each label keeps a linear
regressor plus per-feature squared-gradient accumulators. An update with
importance weight w moves the prediction toward the observed cost by a factor
that integrates a per-feature adaptive step size:

    D(w)   = sum_k 2 (sqrt(G_k + w x_k^2) - sqrt(G_k))
    resid' = resid * exp(-2 * base_rate * D(w))

with the weight vector moving along x / ||x||^2 by the residual change, and
G_k growing by w x_k^2. Composing an update of weight a then b from the same
point equals one update of weight a+b exactly (decay factors multiply,
accumulators add), so importance-weight splitting is invariant to float
rounding rather than to first order.

The sensitivity of the prediction to an infinitesimal update toward target t
has the closed form  2 * base_rate * |g(x) - t| * sum_k x_k^2 / sqrt(G_k),
which is the exact w-derivative of the update above at w = 0. Fresh features
(G_k = 0) make it effectively unbounded, forcing the cost range to [0, 1]
until the direction has been explored; the accumulator is floored at 1e-12
inside the sum to keep the arithmetic finite.

A label's cost range is how far the prediction can move toward 0 and toward
1 before the importance-weighted update that moves it there costs more
squared error than the round's risk radius allows. The break-even weight is
the root of a cubic, which has a closed form (see _gap_moves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ACCUM_FLOOR = 1e-12
# delta * s stays finite up to this radius unless s > 1e208; an inf saturates u at 1 anyway
CALM_RADIUS = 1e100
CALM_RATE = 1e100  # so does s itself up to this learning rate; inf times a zero gap moves nothing
_SIDES = np.array([[0.0], [1.0]])  # the cost each row of the (2, K) range arrays moves toward


@dataclass
class OnlineRegressor:
    """Linear predictors with per-feature squared-gradient accumulators: 1-d, or one per row."""

    weights: np.ndarray
    accumulators: np.ndarray
    base_rate: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.accumulators = np.asarray(self.accumulators, dtype=np.float64)
        if self.weights.shape != self.accumulators.shape or self.weights.ndim not in (1, 2):
            raise ValueError("weights and accumulators must be 1-d or 2-d arrays of equal shape")
        if np.any(self.accumulators < 0):
            raise ValueError("accumulators must be nonnegative")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")

    def raw(self, x):
        return self.weights[..., x.indices] @ x.values


def online_update(regressor, x, cost, weight, rows=None):
    """Apply one importance-weighted observation in place; returns regressor.

    With rows, the listed rows of 2-d tables move toward their entries of cost
    in one pass, each by the dot and math.exp that a lone regressor takes.
    Negative weights are accepted only as the analytic continuation used by
    derivative checks, and only while every touched accumulator stays
    positive; operational callers pass weight >= 0.
    """
    if not math.isfinite(weight):
        raise ValueError("weight must be finite")
    idx, val = x.indices, x.values
    norm_sq = float(val @ val)
    # a squared norm of 0 (no features, or squares below the float range) moves nothing
    if weight == 0.0 or norm_sq == 0.0:
        return regressor
    rows, cost = (np.zeros(1, dtype=np.intp), [cost]) if rows is None else (rows, cost)
    weights, accumulators = np.atleast_2d(regressor.weights, regressor.accumulators)
    at = (rows[:, None], idx)
    acc = accumulators[at]
    grown = acc + weight * val * val
    if weight < 0 and np.any(grown <= 0):
        raise ValueError("negative weight would empty an accumulator")
    d_ints = (2.0 * (np.sqrt(grown) - np.sqrt(acc)).sum(axis=1)).tolist()
    block = weights[at]
    rate, per_row = -2.0 * regressor.base_rate, zip(block, cost, d_ints)
    steps = [(float(w @ val) - c) * (1.0 - math.exp(rate * d)) / norm_sq for w, c, d in per_row]
    weights[at] = block - np.multiply.outer(steps, val)
    accumulators[at] = grown
    return regressor


def sensitivity(regressor, x, target):
    """Derivative of the prediction per unit importance weight toward target."""
    acc = np.maximum(regressor.accumulators[x.indices], ACCUM_FLOOR)
    scale = float(np.sum(x.values * x.values / np.sqrt(acc)))
    return 2.0 * regressor.base_rate * abs(regressor.raw(x) - target) * scale


def _gap_fraction(r):
    """Root u in [0, 1] of u^2 (2 - u) = r (r >= 0, array), saturating at 1.

    The trigonometric root of the cubic is
    u = 2/3 + 4/3 cos(arccos(1 - 27 r / 16) / 3 - 2 pi / 3). Rewritten with
    arccos(1 - 2 z^2) = 2 arcsin(z) and the angle-difference formula it is the
    sum of two nonnegative terms below, which keeps full float64 precision as
    r -> 0 (the arccos form loses about sqrt(eps) there) and gives u(0) = 0.
    """
    phi = (2.0 / 3.0) * np.arcsin(np.sqrt(np.minimum(r, 1.0) * (27.0 / 32.0)))
    u = (4.0 / 3.0) * np.sin(phi / 2.0) ** 2 + (2.0 / math.sqrt(3.0)) * np.sin(phi)
    return np.where(r >= 1.0, 1.0, u)


def _gap_moves(gap, s, deltas):
    """How far each prediction can move across its gap within its budget.

    A move of importance weight w covers w * s of the gap and raises the
    weighted squared error by w (gap^2 - (gap - w s)^2) = w^2 s (2 gap - w s),
    which grows until the move spans the gap (w s = gap). With u = w s / gap
    the break-even weight solves u^2 (2 - u) = delta s / gap^3, and the move
    is u * gap. gap and s are (2, K) (one row per side), deltas a scalar or
    (K,); r is 0 off the live entries, where round 1 of the mellow schedule
    pairs delta = inf with s = 0. Where delta s reaches gap^3 the move spans
    the gap (r >= 1), so only the rest is divided: a gap within about 1e-103
    of a side, whose cube underflows, is never a divisor.
    """
    live = (gap > 0) & (s > 0)
    r = np.multiply(deltas, s, out=np.zeros(gap.shape), where=live)
    cube = gap**3
    spans = r >= cube
    np.divide(r, cube, out=r, where=~spans)
    return _gap_fraction(np.maximum(r, spans, out=r)) * gap


def _break_even(p_sq_gap, s, delta, cap):
    """Largest w in (0, cap] with w (p_sq_gap - (sqrt(p_sq_gap) - w s)^2) <= delta.

    The scalar form of the root behind batch_cost_ranges; the objective
    increases up to w = sqrt(p_sq_gap) / s, so cap should not exceed that.
    """
    gap = math.sqrt(p_sq_gap)
    u = _gap_fraction(np.asarray(delta * s / gap**3))
    return min(float(u) * gap / s, cap)


def batch_cost_ranges(weight_rows, accum_rows, base_rate, x, deltas):
    """Cost intervals of K regressors sharing one point, as (lo, hi) arrays.

    weight_rows/accum_rows are (K, dim); deltas is a scalar or one per label.
    Each side asks how far the prediction could move toward 0 (row 0 of the
    (2, K) gaps and sensitivities) or toward 1 (row 1) before the weighted
    squared-error increase of the move exceeds delta; the move per
    importance weight w is w * sensitivity.
    """
    idx, val = x.indices, x.values
    raw = weight_rows[:, idx] @ val
    p = np.minimum(np.maximum(raw, 0.0), 1.0)
    acc = np.maximum(accum_rows[:, idx], ACCUM_FLOOR)
    scale = (val * val / np.sqrt(acc)).sum(axis=1)
    gaps, offsets = np.abs(_SIDES - p), np.abs(raw - _SIDES)
    calm = deltas <= CALM_RADIUS  # a float radius skips numpy's reduction below
    if base_rate <= CALM_RATE and (calm is True or np.all(calm)):
        moves = _gap_moves(gaps, 2.0 * base_rate * offsets * scale, deltas)
    else:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            moves = _gap_moves(gaps, 2.0 * base_rate * offsets * scale, deltas)
    return np.maximum(p - moves[0], 0.0), np.minimum(p + moves[1], 1.0)
