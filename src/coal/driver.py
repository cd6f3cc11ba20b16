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
    cost_interval,
    radius,
)
from .data import QueryLog
from .oracle import LabelState, LinearRegressor
from .online import OnlineRegressor, batch_cost_ranges, online_update

POLICIES = ("coal", "passive", "allornone", "nodom")
MODES = ("exact", "online")


class ContractError(RuntimeError):
    """The observe step was fed costs inconsistent with its decision."""


def psi(round_i):
    """Query-width threshold for a 1-based round."""
    return 1.0 / math.sqrt(round_i)


@dataclass(frozen=True)
class QueryDecision:
    """What one round decided: intervals, candidate labels, labels to query.

    nondominated is always the overlap candidate set (labels whose interval
    low end does not exceed the smallest interval high end); to_query follows
    the active policy. Labels are 1-based.
    """

    round: int
    intervals: tuple
    nondominated: tuple
    to_query: tuple
    psi: float


class LearnerState:
    """Mutable state of one learner run over a stream.

    Holds one LabelState per label, the (K, dim) weight table that predicts
    every label's cost in both modes (exact mode stores each label's refit ERM
    in its row, online mode updates the rows in place), the online step-size
    accumulators (None in exact mode), the query log, and the round counter
    (1-based: round = processed examples + 1). The LabelStates keep history
    and ledger only under track_exact_ledger (exact mode's default), so an
    online run keeps O(K * dim) state.
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
        self.labels = [LabelState(y, dim) for y in range(1, k + 1)]
        self.weights = np.zeros((k, dim))
        self.accumulators = np.zeros((k, dim)) if mode == "online" else None
        self.log = QueryLog(k)

    def predicted_costs(self, x):
        """Current clamped cost predictions, one per label."""
        if x.nnz == 0:
            return np.zeros(self.k)
        return np.clip(self.weights[:, x.indices] @ x.values, 0.0, 1.0)


def _decide(policy, los, his, threshold):
    """Candidate set and query set from interval ends (0-based arrays)."""
    candidate = los <= his.min()
    wide = his - los > threshold
    nondominated = np.flatnonzero(candidate)
    if policy == "passive":
        to_query = np.arange(los.size)
    elif policy == "nodom":
        to_query = np.flatnonzero(wide)
    else:
        overlap_query = (
            np.flatnonzero(candidate & wide) if nondominated.size > 1 else np.empty(0, int)
        )
        if policy == "coal":
            to_query = overlap_query
        else:  # allornone
            to_query = np.arange(los.size) if overlap_query.size else np.empty(0, int)
    return nondominated, to_query


def process_example(state, x):
    """Compute intervals and the query decision for the current round."""
    i = state.round
    threshold = psi(i)
    delta_i = radius(i, state.schedule)
    if state.mode == "online":
        los, his = batch_cost_ranges(
            state.weights,
            state.accumulators,
            state.base_rate,
            x,
            delta_i,
        )
        intervals = tuple(
            CostInterval(float(l), float(h), 0.0) for l, h in zip(los, his)
        )
    else:
        if state.policy == "passive":
            # passive ignores intervals; skip the solver work
            intervals = tuple(CostInterval(0.0, 1.0, 1.0) for _ in range(state.k))
        else:
            intervals = tuple(
                cost_interval(
                    x,
                    label_state,
                    threshold / 4.0,
                    i,
                    delta_i,
                    rho=state.schedule.kappa,
                    bound=state.norm_bound,
                    settings=state.settings,
                )
                for label_state in state.labels
            )
        los = np.array([iv.lo for iv in intervals])
        his = np.array([iv.hi for iv in intervals])
    nondominated, to_query = _decide(state.policy, los, his, threshold)
    return QueryDecision(
        round=i,
        intervals=intervals,
        nondominated=tuple(int(y) + 1 for y in nondominated),
        to_query=tuple(int(y) + 1 for y in to_query),
        psi=threshold,
    )


def observe_costs(state, x, decision, costs):
    """Fold queried costs into the state and close the round.

    Updates the online regressors (online mode) and records the query log;
    when the ledger is tracked, appends the query history, refits each
    label's ERM for the risk ledger and, in exact mode, stores it as that
    label's predictor. Advances the round counter. Raises ContractError if
    the decision is stale or a queried cost is unobserved.
    """
    if decision.round != state.round:
        raise ContractError(
            f"decision from round {decision.round} applied at round {state.round}"
        )
    for y in decision.to_query:
        if not costs.is_observed(y):
            raise ContractError(f"label {y} was queried but its cost is unobserved")

    i = state.round
    for y in decision.to_query:
        c = costs.cost_of(y)
        if state.track_exact_ledger:
            state.labels[y - 1].append_point(i, x, c)
        if state.mode == "online":
            # the regressor views the label's rows, so the update writes the tables
            rows = state.weights[y - 1], state.accumulators[y - 1]
            online_update(OnlineRegressor(*rows, state.base_rate), x, c, 1.0)
    state.log.record(decision.to_query)

    if state.track_exact_ledger:
        delta_next = radius(i + 1, state.schedule)
        for idx, label_state in enumerate(state.labels):
            weights = LinearRegressor(
                label_state.erm_weights(i + 1, state.norm_bound), state.norm_bound
            ).weights
            if state.mode == "exact":
                state.weights[idx] = weights
            risk = label_state.risk_of_weights(weights, i + 1)
            label_state.append_ledger(i + 1, risk, delta_next)

    state.round += 1
    return state


def predict_label(state, x):
    """Label with the smallest predicted cost; ties go to the smallest label."""
    return int(np.argmin(state.predicted_costs(x))) + 1
