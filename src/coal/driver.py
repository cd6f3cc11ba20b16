"""The round loop: overlapping cost ranges decide which labels to query.

Each round i the learner sees a point, computes a per-label achievable-cost
interval, keeps the candidate labels whose interval is not dominated (its low
end does not exceed the smallest high end), and queries the candidates whose
interval is still wider than the round threshold psi_i = 1 / sqrt(i). Queried
costs extend each label's history; the risk ledger then gains one entry per
label with the refit empirical risk plus the next round's radius.

Two modes share the loop: "exact" computes intervals from the ledger via the
bisection solver, "online" from streaming regressors' closed-form ranges.
Baseline policies reuse the same state machinery with different query rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_range import (
    DEFAULT_NORM_BOUND,
    DEFAULT_SETTINGS,
    CostInterval,
    cost_intervals,
    radius,
)
from .data import QueryLog, SparseVector
from .oracle import LabelState, PrefixBlock, record_round
from .online import OnlineRegressor, batch_cost_ranges, online_update

POLICIES = ("coal", "passive", "allornone", "nodom")
MODES = ("exact", "online")


class ContractError(RuntimeError):
    """The observe step was fed costs inconsistent with its decision."""


def psi(round_i):
    """Query-width threshold for a 1-based round."""
    return 1.0 / math.sqrt(round_i)


@dataclass(frozen=True, eq=False)
class QueryDecision:
    """What one round decided: interval ends, candidate labels, labels to query.

    lo, hi and tol are arrays with one entry per label (label y at index
    y - 1); intervals builds the checked CostIntervals from them when read.
    nondominated is always the overlap candidate set (labels whose interval
    low end does not exceed the smallest interval high end); to_query follows
    the active policy. Labels are 1-based.
    """

    round: int
    lo: np.ndarray
    hi: np.ndarray
    tol: np.ndarray
    nondominated: tuple
    to_query: tuple
    psi: float

    @property
    def intervals(self):
        return tuple(CostInterval(*map(float, ends)) for ends in zip(self.lo, self.hi, self.tol))


class LearnerState:
    """Mutable state of one learner run over a stream.

    Holds one LabelState per label, the (K, dim) weight table that predicts
    every label's cost in both modes (exact mode stores each label's refit ERM
    in its row, online mode updates the rows in place), the online step-size
    accumulators (None in exact mode), online mode's one OnlineRegressor over
    both tables, a row per label (built once; None in exact mode), the query
    log, and the round counter (1-based: round = processed examples + 1). The
    LabelStates keep history and ledger only under track_exact_ledger (exact
    mode's default), so an online run keeps O(K * dim) state; their
    histories and caches are the lanes of one PrefixBlock, which allocates
    nothing before the first point is appended, so that one kernel
    (cost_intervals) brackets every label's searches per round. Each round
    reads policy afresh, so run_seed plays its warm-up rounds by switching it
    to passive.
    """

    def __init__(
        self,
        k,
        dim,
        schedule,
        policy="coal",
        mode="exact",
        base_rate=0.5,
        norm_bound=DEFAULT_NORM_BOUND,
        settings=DEFAULT_SETTINGS,
        track_exact_ledger=None,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if k < 2:
            raise ValueError("need at least two labels")
        self.k = k
        self.schedule = schedule
        self.policy = policy
        self.mode = mode
        self.base_rate = base_rate
        self.norm_bound = norm_bound
        self.settings = settings
        self.track_exact_ledger = (
            (mode == "exact") if track_exact_ledger is None else track_exact_ledger
        )
        self.round = 1
        block = PrefixBlock(dim)
        self.labels = [LabelState(y, dim, block) for y in range(1, k + 1)]
        self.weights = np.zeros((k, dim))
        self.accumulators = self.regressor = None
        if mode == "online":
            self.accumulators = np.zeros((k, dim))
            self.regressor = OnlineRegressor(self.weights, self.accumulators, base_rate)
        self.log = QueryLog(k)

    def predicted_costs(self, x):
        """Current clamped cost predictions, one per label; a list of vectors gets a row
        each, from weights gathered at the concatenated features: no (n, dim) array."""
        split = [x] if isinstance(x, SparseVector) else x
        if not split:
            return np.zeros((0, self.k))
        idx, val = map(np.concatenate, zip(*[(v.indices, v.values) for v in split]))
        owner = np.repeat(np.arange(len(split)), [v.indices.size for v in split])
        raw = np.column_stack([np.bincount(owner, w[idx] * val, len(split)) for w in self.weights])
        costs = np.minimum(np.maximum(raw, 0.0), 1.0)
        return costs[0] if isinstance(x, SparseVector) else costs


def _decide(policy, los, his, threshold):
    """Candidate and query sets from 0-based interval ends, for coal, nodom and allornone."""
    candidate = los <= his.min()
    wide = his - los > threshold
    nondominated = candidate.nonzero()[0]
    if policy == "nodom":
        to_query = wide.nonzero()[0]
    else:
        # a lone candidate is the round's best label, so it is never queried
        to_query = (candidate & wide & (nondominated.size > 1)).nonzero()[0]
        if policy == "allornone" and to_query.size:
            to_query = np.arange(los.size)
    return nondominated, to_query


def process_example(state, x):
    """Compute interval ends and the query decision for the current round.

    A passive round queries every label, so it runs no cost range and no
    decision pass: its ends are 0 and 1, its tols 1, both its sets all labels.
    """
    i = state.round
    threshold = psi(i)
    if state.policy == "passive":  # every lo (0) is at most every hi (1): all are candidates
        every, k = tuple(range(1, state.k + 1)), state.k
        return QueryDecision(i, np.zeros(k), np.ones(k), np.ones(k), every, every, threshold)
    if state.mode == "online":
        los, his = batch_cost_ranges(
            state.weights, state.accumulators, state.base_rate, x, radius(i, state.schedule)
        )
        tols = np.zeros(state.k)
    else:
        los, his, tols = cost_intervals(
            x, state.labels, threshold / 4.0, i, radius(i, state.schedule),
            state.schedule.kappa, state.norm_bound, state.settings,
        )  # fmt: skip
    sets = _decide(state.policy, los, his, threshold)
    nondominated, to_query = [tuple((s + 1).tolist()) for s in sets]
    return QueryDecision(i, los, his, tols, nondominated, to_query, threshold)


def observe_costs(state, x, decision, costs):
    """Fold queried costs into the state and close the round.

    Updates the queried rows of the online tables in one call (online mode)
    and records the query log; when the ledger is tracked, appends each
    queried point, then closes the ledger with one operation per quantity
    over the labels (oracle.record_round: refits, norm check, risks, entries)
    and, in exact mode, stores the fits as the predictor. Advances the round
    counter. Raises ContractError, before changing anything, if the decision
    is stale, queries a label twice or outside 1..K, or queries a cost that
    is unobserved.
    """
    if decision.round != state.round:
        raise ContractError(f"decision from round {decision.round} applied at round {state.round}")
    queried = decision.to_query
    if len(set(queried)) != len(queried) or not all(1 <= y <= state.k for y in queried):
        raise ContractError(f"queried labels {queried} are not distinct labels in 1..{state.k}")
    for y in queried:
        if not costs.is_observed(y):
            raise ContractError(f"label {y} was queried but its cost is unobserved")

    i = state.round
    if state.mode == "online" and queried:
        rows = np.array(queried) - 1
        online_update(state.regressor, x, costs.costs[rows], 1.0, rows)
    state.log.record(queried)

    if state.track_exact_ledger:
        for y in queried:
            state.labels[y - 1].append_point(i, x, costs.cost_of(y))
        delta_next = radius(i + 1, state.schedule)
        fits = record_round(state.labels, i + 1, delta_next, state.norm_bound)
        if state.mode == "exact":
            state.weights[:] = fits

    state.round += 1
    return state


def predict_label(state, x):
    """Label with the smallest predicted cost, ties to the smallest; one per vector of a list."""
    return np.argmin(state.predicted_costs(x), axis=-1) + 1
