import sys
import tracemalloc

import numpy as np
import pytest

from coal import driver, harness
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
from coal.oracle import (
    RIDGE,
    LabelState,
    LedgerEntry,
    LinearRegressor,
    solve_bounded_least_squares,
)
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
def test_an_empty_list_predicts_no_rows(mode):
    # one row per vector of a list: none for an empty one, where zip(*[]) has nothing to unpack
    state = fresh_state(k=3, dim=2, mode=mode)
    costs = state.predicted_costs([])
    assert costs.shape == (0, 3) and costs.dtype == np.float64
    labels = predict_label(state, [])
    assert labels.shape == (0,) and labels.dtype.kind == "i"
    assert predict_label(state, [BIAS, BIAS]).tolist() == [1, 1]


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


def passive_decision_is_every_label(decision, k, round_i):
    assert decision.round == round_i and decision.psi == psi(round_i)
    for ends, value in ((decision.lo, 0.0), (decision.hi, 1.0), (decision.tol, 1.0)):
        assert isinstance(ends, np.ndarray) and ends.shape == (k,) and (ends == value).all()
    assert decision.nondominated == decision.to_query == tuple(range(1, k + 1))


def test_passive_rounds_run_no_decision_pass(monkeypatch):
    # a passive round's sets are every label, the sets _decide would give
    # (every lo of 0 is at most the smallest hi of 1), so it never runs it
    def decide(*args):
        raise AssertionError("a passive round ran the decision pass")

    monkeypatch.setattr(driver, "_decide", decide)
    stream, _ = gen_stream(4, 4, massart(0.2), 12, seed=9)
    for mode in ("exact", "online"):
        state = fresh_state(k=4, dim=5, policy="passive", mode=mode)
        for i, ex in enumerate(stream, start=1):
            decision = process_example(state, ex.features)
            passive_decision_is_every_label(decision, 4, i)
            observe_costs(state, ex.features, decision, ex.costs)
        assert state.log.l2 == 4 * len(stream), mode


@pytest.mark.parametrize("mode", ["exact", "online"])
def test_seed_passive_warm_up_rounds_run_no_decision_pass(monkeypatch, mode):
    # run_seed plays a coal run's warm-up rounds as passive ones: those give
    # every label without _decide, and the coal rounds after them run it
    decide, warm_up, calls = driver._decide, [], []

    def guarded(*args):
        assert not warm_up[-1], "a warm-up round ran the decision pass"
        calls.append(args)
        return decide(*args)

    def recording(state, x):
        warm_up.append(state.policy == "passive")
        decision = process_example(state, x)
        if warm_up[-1]:
            passive_decision_is_every_label(decision, state.k, len(warm_up))
        return decision

    monkeypatch.setattr(driver, "_decide", guarded)
    monkeypatch.setattr(harness, "process_example", recording)
    spec = harness.parse_synthetic_spec("massart:k=3,dim=3,n=16")
    cfg = harness.ExperimentConfig(synthetic=spec, mode=mode, seeds=1, out_dir="", seed_passive=6)
    trains, test, k, dim = harness._load_streams(cfg)
    harness.run_seed(cfg, 0, trains[0], test, k, dim)
    assert warm_up == [True] * 6 + [False] * 10
    assert len(calls) == 10


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


def reference_append_point(label, round_i, x, cost):
    """LabelState.append_point as it was: np.append, then a sum of reshaped rows."""
    u = np.append(x.to_dense(label.dim), cost)
    n = label.n_points
    label.block.reserve(("stack",), n + 2)
    np.add(label.prefix_row(n), u[:, None] * u, out=label.prefix_row(n + 1))
    label.rounds.append(round_i)


def reference_fill(block):
    """PrefixBlock.fill as it was: the new prefixes packed row by row, np.eye's ridge."""
    new = [
        (k, label._table[j])
        for k, label in enumerate(block.labels)
        for j in range(block.filled[k] + 1, label.n_prefixes + 1)
    ]
    if not new:
        return
    n, d = len(new), block.dim
    table = np.array([entry for _, entry in new])
    lanes, rows = [k for k, _ in new], table[:, 1].astype(np.intp)
    block.reserve(("inverses", "fits", "parts"), int(rows.max()) + 1)
    aug = block.stack[lanes, rows].reshape(n, d + 1, d + 1)
    eye = np.eye(d)
    rhs = np.empty((n, d, d + 1))
    rhs[:, :, :d], rhs[:, :, d] = eye, aug[:, :d, d]
    h = rhs[:, :, d]
    solved = np.linalg.solve(aug[:, :d, :d] + RIDGE * eye, rhs)
    block.inverses[lanes, rows] = solved[:, :, :d]
    block.fits[lanes, rows] = solved[:, :, d]
    fits = block.fits[lanes, rows]
    denoms, budgets = table[:, 0] - 1.0, table[:, 2]
    scaled = np.full(n, np.inf)
    np.multiply(budgets, denoms, out=scaled, where=budgets <= sys.float_info.max / 2.0 / denoms)
    residuals = aug[:, d, d] - np.einsum("bi,bi->b", h, fits)
    fit_norms = np.sqrt(np.einsum("bi,bi->b", fits, fits))
    diagonal = aug.reshape(n, -1)[:, :: d + 2]
    roots = np.sqrt(diagonal[:, :d].sum(axis=1)), np.sqrt(diagonal[:, d])
    block.parts[lanes, rows] = np.array((residuals, fit_norms, denoms, scaled, *roots)).T
    block.filled = [label.n_prefixes for label in block.labels]


def reference_refit(labels, round_j, bound):
    """oracle.refit as it was: the stale labels' rows stacked one by one."""
    stale = [(label, label.n_points_before(round_j)) for label in labels]
    stale = [(label, count) for label, count in stale if label._fit[:2] != (count, bound)]
    if stale:
        d = labels[0].dim
        rows = np.array([label.prefix_row(count) for label, count in stale])
        fits = solve_bounded_least_squares(rows[:, :d, :d], rows[:, :d, d], bound)
        for (label, count), weights in zip(stale, fits):
            label._fit = (count, bound, weights)


def reference_append_ledger(label, round_j, erm_risk, delta):
    """LabelState.append_ledger, apart from the patched one that records the
    new side's risks: the prefix's count by bisection."""
    entry = LedgerEntry(round_j, erm_risk + delta)
    label.ledger.append(entry)
    count, m = label.n_points_before(round_j), label.n_prefixes
    if count > label.last_prefix:
        if m + 1 == len(label._table):
            label._table = np.resize(label._table, (2 * m + 2, 4))
        label._table[m + 1] = round_j, count, entry.delta_tilde, delta
        label.n_prefixes, label.last_prefix = m + 1, count


def reference_observe(state, x, decision, costs, risks):
    """observe_costs with the tracked ledger kept one label at a time, as it
    was: each point, then per label the fit's norm checked by a
    LinearRegressor, its risk v @ row @ v at a bisected count, and
    append_ledger's own bisection. Each risk goes to risks."""
    state.track_exact_ledger = False
    observe_costs(state, x, decision, costs)  # the checks, the online update, the log, the round
    state.track_exact_ledger, i, bound = True, state.round - 1, state.norm_bound
    for y in decision.to_query:
        reference_append_point(state.labels[y - 1], i, x, costs.cost_of(y))
    delta_next = radius(i + 1, state.schedule)
    reference_refit(state.labels, i + 1, bound)
    for idx, label in enumerate(state.labels):
        weights = LinearRegressor(label.erm_weights(i + 1, bound), bound).weights
        if state.mode == "exact":
            state.weights[idx] = weights
        k, v = label.n_points_before(i + 1), np.append(weights, -1.0)
        risks.append(max(float(v @ label.prefix_row(k) @ v), 0.0) / i if k else 0.0)
        reference_append_ledger(label, i + 1, risks[-1], delta_next)


@pytest.mark.parametrize("noise", ["none", "bernoulli"])
@pytest.mark.parametrize("mode", ["exact", "online"])
@pytest.mark.parametrize(
    "k, d", [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (2, 6), (3, 7), (4, 8), (5, 9)]
)
def test_bookkeeping_in_lanes_matches_the_label_by_label_loop(monkeypatch, k, d, mode, noise):
    # observe_costs keeps a tracked ledger with one operation per quantity
    # over the labels, and PrefixBlock.fill writes the new prefixes' caches
    # without packing them row by row. Played side by side with the loops
    # they replace, every stack row, prefix cache, ledger table and entry,
    # memoised fit, risk and weight table is the same, bit for bit. The
    # stream's features are cut to their first d.
    risks = [], []

    def record(label, round_j, erm_risk, delta, append=LabelState.append_ledger):
        risks[0].append(erm_risk)
        return append(label, round_j, erm_risk, delta)

    monkeypatch.setattr(LabelState, "append_ledger", record)
    n = 30
    stream, _ = gen_stream(k, 9, massart(0.3), n, seed=10 * k + d, cost_noise=noise)
    schedule = mellow_schedule(n=n, d=d, k=k, mellowness=0.01)
    new, old = (LearnerState(k, d, schedule, mode=mode, track_exact_ledger=True) for _ in "ab")
    blocks = new.labels[0].block, old.labels[0].block
    blocks[1].fill = lambda: reference_fill(blocks[1])
    for ex in stream:
        x = sparse_vector([(j, v) for j, v in ex.features.pairs() if j < d])
        decisions = process_example(new, x), process_example(old, x)
        assert all(map(np.array_equal, *((a.lo, a.hi, a.tol) for a in decisions)))
        observe_costs(new, x, decisions[0], ex.costs)
        reference_observe(old, x, decisions[1], ex.costs, risks[1])
        assert np.array_equal(new.weights, old.weights)
        for name in blocks[0].shapes:
            assert np.array_equal(*(getattr(block, name) for block in blocks)), name
        for a, b in zip(new.labels, old.labels):
            assert (a.n_prefixes, a.last_prefix) == (b.n_prefixes, b.last_prefix)
            assert a.rounds == b.rounds
            assert np.array_equal(a._table[: a.n_prefixes + 1], b._table[: b.n_prefixes + 1])
            assert [(e.round, e.delta_tilde) for e in a.ledger] == [
                (e.round, e.delta_tilde) for e in b.ledger
            ]
            assert a._fit[:2] == b._fit[:2] and np.array_equal(a._fit[2], b._fit[2])
        assert risks[0] == risks[1]
    assert new.log.l2 > 0 and min(label.n_prefixes for label in new.labels) > 0


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


def test_decisions_hold_ascending_plain_ints():
    # a decision's label tuples are what a trace writes out: Python ints, not
    # numpy integers, in ascending order, for every policy in both modes
    stream, _ = gen_stream(3, 3, massart(0.3), 24, seed=5)
    for policy in ("coal", "passive", "allornone", "nodom"):
        for mode in ("exact", "online"):
            state = fresh_state(3, 4, policy, mode, settings=MwSettings(t_max=200))
            widest = {"nondominated": 0, "to_query": 0}
            for ex in stream:
                decision = process_example(state, ex.features)
                for name in widest:
                    labels = getattr(decision, name)
                    assert all(type(y) is int for y in labels), (policy, mode, name, labels)
                    assert list(labels) == sorted(set(labels)), (policy, mode, name, labels)
                    widest[name] = max(widest[name], len(labels))
                observe_costs(state, ex.features, decision, ex.costs)
            assert min(widest.values()) >= 2, (policy, mode, widest)


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
