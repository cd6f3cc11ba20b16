"""Synthetic cost-sensitive streams with exact margins and known truth.

The construction encodes the true expected costs directly into the features:
index 0 is the bias (value 1.0), slot y in 1..K carries the true cost of
label y as its value, and the true regressor for label y is the unit vector
on slot y. Realizability is exact, the truth has norm 1, and the margin
between the best and second-best expected cost is drawn from the requested
low-noise law. Slots K+1..dim are distractor features with zero true weight,
each present in an example with probability DISTRACTOR_DENSITY.

Margin laws:

* massart(tau): margins never fall below tau; an atom sits at exactly tau.
* tsybakov(tau0, alpha, beta): P[margin <= t] = beta * t^alpha for
  t <= tau0, with the leftover mass strictly above tau0.

Observed costs are either Bernoulli draws with the true cost as mean, or the
exact expected costs (noise "none").
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .cost_range import CostInterval
from .data import examples_from_arrays

COST_NOISES = ("bernoulli", "none")
DISTRACTOR_DENSITY = 0.5


@dataclass(frozen=True)
class NoiseSpec:
    """Margin law for the gap between best and second-best expected cost."""

    kind: str
    tau: float = 0.0
    tau0: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.kind == "massart":
            if not 0.0 < self.tau <= 0.7:
                raise ValueError("massart tau must lie in (0, 0.7]")
        elif self.kind == "tsybakov":
            if not 0.0 < self.tau0 <= 0.7:
                raise ValueError("tsybakov tau0 must lie in (0, 0.7]")
            if not (self.alpha > 0 and self.beta > 0):  # NaN fails too
                raise ValueError("tsybakov alpha and beta must be positive")
            if self.beta * self.tau0**self.alpha > 1.0 + 1e-12:
                raise ValueError("tsybakov law needs beta * tau0^alpha <= 1")
        else:
            raise ValueError(f"unknown margin law {self.kind!r}")


def massart(tau):
    return NoiseSpec(kind="massart", tau=tau)


def tsybakov(tau0, alpha, beta):
    return NoiseSpec(kind="tsybakov", tau0=tau0, alpha=alpha, beta=beta)


@dataclass(frozen=True)
class GroundTruth:
    """True per-label weight vectors over the ambient feature space."""

    weights: np.ndarray  # (k, dim + 1) rows, bias column included
    noise: str

    def true_costs(self, x):
        """Exact expected costs of every label at x."""
        return self.weights[:, x.indices] @ x.values


def _draw_margin(spec, rng):
    # two uniforms always, so the draw count per example is fixed (random() is uniform())
    u1, u2 = rng.random(), rng.random()
    if spec.kind == "massart":
        spread = min(0.2, 0.9 - spec.tau)
        return spec.tau if u1 < 0.5 else spec.tau + u2 * spread
    mass_below = spec.beta * spec.tau0**spec.alpha
    if u1 <= mass_below:
        return (u1 / spec.beta) ** (1.0 / spec.alpha)
    return min(1.25 * spec.tau0, 0.9)


def gen_stream(k, dim, spec, n, seed, cost_noise="bernoulli"):
    """Generate n examples plus the ground truth that produced them.

    dim counts the feature slots beyond the bias; slots 1..k encode the true costs, slots
    k+1..dim are distractors, each drawn with probability DISTRACTOR_DENSITY, so dim >= k
    is required. The stream is a pure function of the arguments (numpy default_rng(seed)).
    It is built in bulk and checked once per stream (data.examples_from_arrays), not per example.
    """
    if k < 2:
        raise ValueError("need at least two labels")
    if dim < k:
        raise ValueError(f"dim {dim} must be at least k {k}")
    if cost_noise not in COST_NOISES:
        raise ValueError(f"unknown cost noise {cost_noise!r}")
    rng = np.random.default_rng(seed)
    truth = np.zeros((k, dim + 1))
    truth[np.arange(k), np.arange(1, k + 1)] = 1.0

    idx, val, ends = array("q"), array("d"), []  # every example's entries, end to end
    observed = np.empty((n, k))
    row = np.ones(dim + 1)  # one example's bias, true costs and distractor values
    kept = np.ones(dim + 1, dtype=bool)  # the slots it holds
    for i in range(n):
        m = _draw_margin(spec, rng)
        y_star = int(rng.integers(k))
        c_best = rng.uniform(0.02, min(0.35, 1.0 - m - 0.05))
        runner = int(rng.integers(k - 1))
        runner = runner if runner < y_star else runner + 1
        headroom = 1.0 - (c_best + m)
        true_costs = row[1 : k + 1]
        np.add(c_best + m, rng.uniform(0.0, headroom, size=k), out=true_costs)
        true_costs[runner] = c_best + m
        true_costs[y_star] = c_best
        draw = rng.random((dim - k, 2))  # (coin, value) of each distractor slot
        np.less(draw[:, 0], DISTRACTOR_DENSITY, out=kept[k + 1 :])
        row[k + 1 :] = draw[:, 1] * (1.0 - 0.1) + 0.1  # uniform(0.1, 1.0)'s own arithmetic
        slots = np.flatnonzero(kept)
        idx.frombytes(slots.tobytes())
        val.frombytes(row[slots].tobytes())
        ends.append(len(idx))
        observed[i] = rng.binomial(1, true_costs) if cost_noise == "bernoulli" else true_costs

    idx, val = np.frombuffer(idx, dtype=np.int64), np.frombuffer(val)
    examples = examples_from_arrays(idx, val, ends, observed, np.ones((n, k), dtype=bool))
    return examples, GroundTruth(weights=truth, noise=cost_noise)


def brute_force_cost_range(grid, state, x):
    """Reference cost range: scan a grid of weight vectors against the ledger.

    grid is an iterable of weight vectors (or objects with .weights); a grid
    member is feasible when its empirical risk meets every ledger budget.
    Returns the clamped [min, max] prediction interval over feasible members,
    or None when nothing on the grid is feasible.
    """
    rows = [getattr(g, "weights", g) for g in grid]
    w = np.asarray(rows, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != state.dim:
        raise ValueError(f"grid must be (g, {state.dim}) weight rows")
    feasible = np.ones(w.shape[0], dtype=bool)
    for entry in state.ledger:
        count = state.n_points_before(entry.round)
        if count == 0:
            continue
        gram, moment, sq = state.prefix_sums(count)
        quads = np.einsum("gi,ij,gj->g", w, gram, w) - 2.0 * (w @ moment) + sq
        risks = np.maximum(quads, 0.0) / (entry.round - 1)
        feasible &= risks <= entry.delta_tilde + 1e-12
    if not np.any(feasible):
        return None
    preds = w[feasible] @ x.to_dense(state.dim)
    lo = min(1.0, max(0.0, float(preds.min())))
    hi = min(1.0, max(0.0, float(preds.max())))
    return CostInterval(lo=lo, hi=hi, tol=0.0)
