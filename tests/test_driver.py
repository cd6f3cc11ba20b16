import tracemalloc

import numpy as np
import pytest

from coal.cost_range import CostInterval, MwSettings, RadiusSchedule, radius
from coal.data import full_costs, partial_costs, sparse_vector
from coal.driver import (
    ContractError,
    LearnerState,
    QueryDecision,
    _decide,
    observe_costs,
    predict_label,
    process_example,
    psi,
)
from coal.online import OnlineRegressor
from coal.synthetic import gen_stream, massart

BIAS = sparse_vector([(0, 1.0)])


def mellow_schedule(n=100, d=2, k=2, mellowness=1.0):
    return RadiusSchedule(
        n=n, d=d, k=k, delta_prob=0.01, mode="mellow", mellowness=mellowness
    )


def fresh_state(k=2, dim=2, policy="coal", mode="exact", **kwargs):
    return LearnerState(
        k, dim, mellow_schedule(d=dim, k=k), policy=policy, mode=mode, **kwargs
    )


def test_psi_schedule():
    assert psi(1) == 1.0
    assert psi(4) == 0.5
    assert psi(100) == pytest.approx(0.1)


def test_state_validation():
    with pytest.raises(ValueError):
        fresh_state(k=1)
    with pytest.raises(ValueError):
        fresh_state(policy="greedy")
    with pytest.raises(ValueError):
        fresh_state(mode="batch")


def test_predict_label_argmin():
    state = fresh_state(k=3, dim=3, mode="online")
    state.weights[:] = [[0.2, 0, 0], [0.5, 0, 0], [0.9, 0, 0]]
    assert predict_label(state, BIAS) == 1
    state.weights[:] = [[0.9, 0, 0], [0.2, 0, 0], [0.5, 0, 0]]
    assert predict_label(state, BIAS) == 2


def test_predict_label_tie_breaks_low():
    state = fresh_state(k=2, dim=1, mode="online")
    state.weights[:] = [[0.3], [0.3]]
    assert predict_label(state, BIAS) == 1


def test_predict_label_all_zero():
    state = fresh_state(k=3, dim=2, mode="online")
    assert predict_label(state, BIAS) == 1


@pytest.mark.parametrize("mode", ["exact", "online"])
def test_predicted_costs_clamps(mode):
    state = fresh_state(k=4, dim=1, mode=mode)
    state.weights[:] = [[0.0], [1.7], [0.42], [-0.3]]
    assert state.predicted_costs(BIAS) == pytest.approx([0.0, 1.0, 0.42, 0.0])
    assert state.predicted_costs(sparse_vector([(0, 2.0)])) == pytest.approx(
        [0.0, 1.0, 0.84, 0.0]
    )
    assert not state.predicted_costs(sparse_vector([])).any()


def test_decide_domination_anchor():
    # third interval sits entirely above the second's high end
    los = np.array([0.0, 0.05, 0.6])
    his = np.array([0.1, 0.2, 0.9])
    nondom, to_query = _decide("coal", los, his, threshold=0.04)
    assert list(nondom) == [0, 1]
    assert list(to_query) == [0, 1]


def test_decide_policies_share_candidates():
    los = np.array([0.0, 0.05, 0.6])
    his = np.array([0.1, 0.2, 0.9])
    _, passive = _decide("passive", los, his, 0.04)
    assert list(passive) == [0, 1, 2]
    _, allornone = _decide("allornone", los, his, 0.04)
    assert list(allornone) == [0, 1, 2]  # coal set nonempty -> everything
    _, nodom = _decide("nodom", los, his, 0.04)
    assert list(nodom) == [0, 1, 2]  # width filter alone keeps the dominated label


def test_decide_allornone_goes_quiet_with_coal():
    # narrow intervals: coal queries nothing, so allornone queries nothing
    los = np.array([0.1, 0.5])
    his = np.array([0.12, 0.52])
    _, coal = _decide("coal", los, his, threshold=0.1)
    _, allornone = _decide("allornone", los, his, threshold=0.1)
    assert coal.size == 0 and allornone.size == 0


def test_decide_singleton_candidate_set_never_queries():
    los = np.array([0.0, 0.6])
    his = np.array([0.1, 0.9])
    nondom, to_query = _decide("coal", los, his, threshold=0.01)
    assert list(nondom) == [0]
    assert to_query.size == 0


def test_decide_coal_subset_of_nodom_random():
    rng = np.random.default_rng(8)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        los = rng.uniform(0.0, 1.0, k)
        his = np.minimum(los + rng.uniform(0.0, 1.0, k), 1.0)
        thr = float(rng.uniform(0.0, 1.0))
        _, coal = _decide("coal", los, his, thr)
        _, nodom = _decide("nodom", los, his, thr)
        assert set(coal) <= set(nodom)


def test_round_one_issues_no_queries():
    state = fresh_state()
    decision = process_example(state, BIAS)
    assert decision.psi == 1.0
    assert decision.nondominated == (1, 2)
    assert decision.to_query == ()
    for iv in decision.intervals:
        assert (iv.lo, iv.hi) == (0.0, 1.0)


def test_observe_empty_query_only_advances_round():
    state = fresh_state()
    decision = process_example(state, BIAS)
    observe_costs(state, BIAS, decision, full_costs([0.2, 0.8]))
    assert state.round == 2
    assert (state.log.l1, state.log.l2) == (0, 0)
    # exact mode keeps the ledger: one entry per label for round 2
    for label_state in state.labels:
        assert [e.round for e in label_state.ledger] == [2]


def test_observe_single_query_counts():
    state = fresh_state(k=3, dim=2)
    state.round = 5
    decision = QueryDecision(5, np.zeros(3), np.ones(3), np.ones(3), (2,), (2,), psi(5))
    observe_costs(state, BIAS, decision, partial_costs(3, {2: 0.4}))
    assert (state.log.l1, state.log.l2) == (1, 1)
    assert state.labels[1].n_points == 1
    assert state.labels[0].n_points == 0


def test_observe_passive_round_counts():
    state = fresh_state(k=3, dim=2, policy="passive")
    decision = process_example(state, BIAS)
    assert decision.to_query == (1, 2, 3)
    observe_costs(state, BIAS, decision, full_costs([0.2, 0.5, 0.9]))
    assert (state.log.l1, state.log.l2) == (1, 3)


def test_observe_rejects_stale_decision():
    state = fresh_state()
    decision = process_example(state, BIAS)
    observe_costs(state, BIAS, decision, full_costs([0.2, 0.8]))
    with pytest.raises(ContractError):
        observe_costs(state, BIAS, decision, full_costs([0.2, 0.8]))


def test_observe_rejects_missing_cost():
    cases = (
        ((1, 2), partial_costs(2, {1: 0.2})),  # label 2's cost is unobserved
        ((0,), full_costs([0.2, 0.8])),  # label 0 would index label 2's row
        ((2, 2), full_costs([0.2, 0.8])),  # label 2 twice
    )
    for mode in ("exact", "online"):
        for to_query, costs in cases:
            state = fresh_state(k=2, dim=2, mode=mode)
            state.round = 9  # wide psi has passed; queries will fire
            decision = QueryDecision(
                9, np.zeros(2), np.ones(2), np.ones(2), (1, 2), to_query, psi(9)
            )
            with pytest.raises(ContractError):
                observe_costs(state, BIAS, decision, costs)
            # the failed call must not have recorded anything
            assert state.round == 9
            assert all(label_state.n_points == 0 for label_state in state.labels)
            assert not state.weights.any()
            assert (state.log.l1, state.log.l2) == (0, 0)


def test_passive_exact_skips_interval_solves(monkeypatch):
    # in either mode a passive round queries everything and probes nothing
    def probe(*args, **kwargs):
        raise AssertionError("a passive round computed a cost range")

    monkeypatch.setattr("coal.driver.batch_cost_ranges", probe)
    monkeypatch.setattr("coal.driver.cost_intervals", probe)
    for mode in ("exact", "online"):
        state = fresh_state(policy="passive", mode=mode)
        state.round = 9
        decision = process_example(state, BIAS)
        assert decision.to_query == (1, 2)
        assert all(iv.tol == 1.0 for iv in decision.intervals), mode


def test_online_intervals_are_read_back_from_the_ends():
    stream, _ = gen_stream(3, 3, massart(0.2), 30, seed=5)
    state = fresh_state(k=3, dim=4, mode="online")
    for ex in stream:
        decision = process_example(state, ex.features)
        assert isinstance(decision.lo, np.ndarray)
        # the dataclasses compare field by field, so the floats match exactly
        assert decision.intervals == tuple(
            CostInterval(float(lo), float(hi), 0.0) for lo, hi in zip(decision.lo, decision.hi)
        )
        observe_costs(state, ex.features, decision, ex.costs)
    assert state.log.l2 > 0


def test_reading_intervals_checks_them():
    # lo exceeds hi by 0.3 > 2 * tol: the decision holds the arrays, and
    # reading its intervals runs CostInterval's check
    decision = QueryDecision(
        2, np.array([0.0, 0.6]), np.array([1.0, 0.3]), np.full(2, 0.1), (1,), (), psi(2)
    )
    with pytest.raises(ValueError):
        decision.intervals


def test_track_exact_ledger_defaults():
    assert fresh_state(mode="exact").track_exact_ledger
    assert not fresh_state(mode="online").track_exact_ledger
    assert fresh_state(mode="online", track_exact_ledger=True).track_exact_ledger


def test_online_observe_updates_view_backed_regressors():
    state = fresh_state(mode="online")
    state.round = 3
    decision = QueryDecision(3, np.zeros(2), np.ones(2), np.ones(2), (1, 2), (1,), psi(3))
    observe_costs(state, BIAS, decision, full_costs([1.0, 0.0]))
    assert state.weights[0, 0] > 0.0  # moved toward cost 1
    assert state.weights[1, 0] == 0.0
    assert state.accumulators[0, 0] == 1.0
    assert not state.labels[1].ledger  # online mode leaves the ledger off


def test_online_regressors_view_the_tables_and_are_built_once(monkeypatch):
    # online mode's K regressors are the rows of one OnlineRegressor over the
    # state's tables, which every round's update writes in place
    state = fresh_state(k=3, dim=4, mode="online")
    weights, accumulators, regressor = state.weights, state.accumulators, state.regressor
    assert regressor.weights is weights and regressor.accumulators is accumulators
    state.weights[:] = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(regressor.weights[2], [8.0, 9.0, 10.0, 11.0])
    state.weights[:] = 0.0

    built = []

    def counting(*args):
        built.append(args)
        return OnlineRegressor(*args)

    monkeypatch.setattr("coal.driver.OnlineRegressor", counting)
    stream, _ = gen_stream(3, 3, massart(0.2), 50, seed=7)
    for ex in stream:
        decision = process_example(state, ex.features)
        observe_costs(state, ex.features, decision, ex.costs)
    assert state.log.l2 > 0 and weights.any() and accumulators.any()
    assert built == []
    assert state.regressor is regressor
    assert state.weights is weights and state.accumulators is accumulators
    assert fresh_state(mode="exact").regressor is None


def test_online_ledger_tracking_opt_in():
    # only a tracked ledger writes the per-label history; passive queries all
    cases = (("online", None, 0), ("online", True, 3), ("exact", None, 3))
    for mode, track, recorded in cases:
        state = fresh_state(policy="passive", mode=mode, track_exact_ledger=track)
        for _ in range(3):
            decision = process_example(state, BIAS)
            observe_costs(state, BIAS, decision, full_costs([0.2, 0.8]))
        for label_state in state.labels:
            assert label_state.n_points == recorded
            assert len(label_state.ledger) == recorded


def test_online_state_allocates_no_dim_squared_arrays():
    # dim^2 floats per label would be 20 GB here: a dense allocation either
    # fails or, on an overcommitting host, reserves pages nothing touches.
    # One 5 x 50 000 table is 1.9 MiB: online mode holds two (weights and
    # accumulators), exact mode one
    for mode, limit in (("online", 4.5), ("exact", 2.5)):
        tracemalloc.start()
        try:
            state = LearnerState(5, 50_000, mellow_schedule(d=50_000, k=5), mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20, mode
        assert all(label_state.n_points == 0 for label_state in state.labels)
    assert state.accumulators is None


def test_tracked_ledger_leaves_online_weights_alone():
    stream, _ = gen_stream(3, 3, massart(0.3), 6, seed=3)
    tables = []
    for track in (False, True):
        state = fresh_state(k=3, dim=4, policy="passive", mode="online", track_exact_ledger=track)
        for ex in stream:
            decision = process_example(state, ex.features)
            observe_costs(state, ex.features, decision, ex.costs)
        tables.append(state.weights)
    assert tables[0].any()
    assert np.array_equal(tables[0], tables[1])


def test_online_run_allocates_no_block_array():
    # without a tracked ledger no point is appended, so every array of the
    # labels' prefix block is still the zeros of stride 0 it joined with
    stream, _ = gen_stream(3, 3, massart(0.3), 30, seed=5)
    state = fresh_state(k=3, dim=4, mode="online")
    for ex in stream:
        observe_costs(state, ex.features, process_example(state, ex.features), ex.costs)
    block = state.labels[0].block
    assert state.log.l2 > 0 and block.labels == state.labels
    for name in block.shapes:
        assert not any(getattr(block, name).strides), name


def test_exact_weights_are_the_refit_erms():
    stream, _ = gen_stream(3, 3, massart(0.3), 6, seed=4)
    state = fresh_state(k=3, dim=4, policy="passive")
    for ex in stream:
        decision = process_example(state, ex.features)
        observe_costs(state, ex.features, decision, ex.costs)
        for y, label_state in enumerate(state.labels):
            erm = label_state.erm_weights(state.round, state.norm_bound)
            assert np.array_equal(state.weights[y], erm)
    assert state.weights.any()


@pytest.mark.parametrize(
    "mode, cost_noise", [("exact", "bernoulli"), ("exact", "none"), ("online", "bernoulli")]
)
def test_each_ledger_entry_holds_its_own_rounds_refit_risk(mode, cost_noise):
    # the budget a round appends is the risk of that round's refit ERM, to
    # the bit, plus the next radius: for queried labels, whose fit the round
    # solves, and for the others, whose memoised fit it reads again
    stream, _ = gen_stream(3, 3, massart(0.3), 60, seed=2, cost_noise=cost_noise)
    schedule = mellow_schedule(n=60, d=4, k=3, mellowness=1e-4)
    state = LearnerState(3, 4, schedule, mode=mode, track_exact_ledger=True)
    bound = state.norm_bound
    for ex in stream:
        observe_costs(state, ex.features, process_example(state, ex.features), ex.costs)
        for label in state.labels:
            risk = label.risk_of_weights(label.erm_weights(state.round, bound), state.round)
            assert label.ledger[-1].round == state.round
            assert label.ledger[-1].delta_tilde == risk + radius(state.round, schedule)
    assert 0 < state.log.l2 < 3 * 60


def test_query_flow_over_stream_invariants():
    stream, _ = gen_stream(3, 4, massart(0.2), 40, seed=0)
    state = LearnerState(
          3, 5, mellow_schedule(d=5, k=3, mellowness=0.01), policy="coal", mode="online"
    )
    for ex in stream:
        decision = process_example(state, ex.features)
        assert set(decision.to_query) <= set(decision.nondominated)
        observe_costs(state, ex.features, decision, ex.costs)
        assert state.log.l1 <= state.log.l2 <= 3 * state.log.l1
    assert state.round == 41


def test_coal_queries_subset_of_nodom_on_shared_state():
    stream, _ = gen_stream(3, 3, massart(0.2), 30, seed=1)
    state = fresh_state(k=3, dim=4, mode="online", policy="coal")
    for ex in stream:
        coal_decision = process_example(state, ex.features)
        state.policy = "nodom"
        nodom_decision = process_example(state, ex.features)
        state.policy = "coal"
        assert set(coal_decision.to_query) <= set(nodom_decision.to_query)
        observe_costs(state, ex.features, coal_decision, ex.costs)


def test_incumbent_label_never_dominated_exact():
    # exact costs keep the truth inside the version space at zero risk, so
    # the label the truth prefers must stay in the candidate set
    stream, truth = gen_stream(2, 2, massart(0.3), 12, seed=2, cost_noise="none")
    state = LearnerState(
        2,
        3,
        mellow_schedule(n=12, d=3, k=2, mellowness=0.001),
        policy="coal",
        mode="exact",
        settings=MwSettings(t_max=400),
    )
    for ex in stream:
        decision = process_example(state, ex.features)
        true_costs = truth.true_costs(ex.features)
        best = int(np.argmin(true_costs)) + 1
        assert best in decision.nondominated
        observe_costs(state, ex.features, decision, ex.costs)
