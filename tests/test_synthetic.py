import hashlib

import numpy as np
import pytest

from coal.data import serialize_example, sparse_vector
from coal.oracle import LabelState, WeightedPoint, fit_weighted
from coal.synthetic import (
    NoiseSpec,
    brute_force_cost_range,
    gen_stream,
    massart,
    tsybakov,
)


def slot(ex, j):
    return dict(ex.features.pairs()).get(j, 0.0)


def margins_of(stream, k):
    out = []
    for ex in stream:
        ordered = np.sort([slot(ex, j) for j in range(1, k + 1)])
        out.append(ordered[1] - ordered[0])
    return np.array(out)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        massart(0.0)
    with pytest.raises(ValueError):
        massart(0.71)
    with pytest.raises(ValueError):
        tsybakov(0.8, 2.0, 4.0)
    with pytest.raises(ValueError):
        tsybakov(0.5, -1.0, 4.0)
    with pytest.raises(ValueError):
        tsybakov(0.7, 2.0, 4.0)  # mass 4 * 0.49 > 1
    with pytest.raises(ValueError):
        NoiseSpec(kind="gauss")


def test_gen_stream_validation():
    with pytest.raises(ValueError):
        gen_stream(1, 3, massart(0.2), 5, seed=0)
    with pytest.raises(ValueError):
        gen_stream(4, 3, massart(0.2), 5, seed=0)
    with pytest.raises(ValueError):
        gen_stream(2, 3, massart(0.2), 5, seed=0, cost_noise="gauss")


def test_massart_margins_respect_floor():
    stream, _ = gen_stream(4, 6, massart(0.3), 400, seed=5)
    margins = margins_of(stream, 4)
    assert np.all(margins >= 0.3 - 1e-12)
    # the law puts an atom at exactly tau
    at_floor = np.isclose(margins, 0.3, atol=1e-12).mean()
    assert 0.35 < at_floor < 0.65
    assert margins.max() <= 0.5 + 1e-12  # tau + spread cap


def test_tsybakov_margin_law_monte_carlo():
    # P[margin <= t] = beta * t^alpha below tau0, and the leftover mass
    # 1 - beta * tau0^alpha (none at beta 4, half at beta 2) is an atom at 1.25 tau0
    for beta in (4.0, 2.0):
        stream, _ = gen_stream(2, 2, tsybakov(0.5, 2.0, beta), 100_000, seed=11)
        margins = margins_of(stream, 2)
        assert abs((margins <= 0.25).mean() - beta * 0.25**2) < 0.01
        assert abs((margins <= 0.4).mean() - beta * 0.4**2) < 0.01
        assert margins.max() <= 0.625 + 1e-12  # 1.25 * tau0
        atom = np.abs(margins - 0.625) <= 1e-12
        assert abs(atom.mean() - (1.0 - beta * 0.5**2)) < 0.01
        assert np.all(atom | (margins <= 0.5))


def test_true_costs_well_formed():
    stream, truth = gen_stream(3, 5, massart(0.25), 300, seed=7)
    for ex in stream:
        costs = truth.true_costs(ex.features)
        assert np.all(costs >= 0.0) and np.all(costs <= 1.0)
        ordered = np.sort(costs)
        assert 0.02 - 1e-12 <= ordered[0] <= 0.35 + 1e-12
        assert ordered[1] - ordered[0] >= 0.25 - 1e-12


def test_features_encode_true_costs():
    stream, truth = gen_stream(3, 5, massart(0.25), 50, seed=3)
    for ex in stream:
        costs = truth.true_costs(ex.features)
        for j in range(1, 4):
            assert slot(ex, j) == pytest.approx(costs[j - 1])
        assert slot(ex, 0) == 1.0


def test_distractor_slots():
    stream, _ = gen_stream(2, 8, massart(0.2), 500, seed=9)
    hits = np.zeros(9)
    for ex in stream:
        for idx, value in ex.features.pairs():
            hits[idx] += 1
            if idx > 2:
                assert 0.1 <= value <= 1.0
    assert np.all(hits[:3] == 500)  # bias and cost slots always present
    assert np.all(hits[3:] > 190) and np.all(hits[3:] < 310)  # density 0.5


def test_noise_none_reveals_exact_costs():
    stream, truth = gen_stream(3, 3, massart(0.2), 40, seed=4, cost_noise="none")
    assert truth.noise == "none"
    for ex in stream:
        costs = truth.true_costs(ex.features)
        for j in range(1, 4):
            assert ex.costs.cost_of(j) == pytest.approx(costs[j - 1])


def test_bernoulli_noise_is_binary_and_unbiased():
    stream, truth = gen_stream(2, 2, massart(0.2), 4000, seed=8)
    observed = np.array([[ex.costs.cost_of(1), ex.costs.cost_of(2)] for ex in stream])
    assert set(np.unique(observed)) <= {0.0, 1.0}
    expected = np.array([truth.true_costs(ex.features) for ex in stream])
    assert np.all(np.abs(observed.mean(axis=0) - expected.mean(axis=0)) < 0.03)


def test_stream_is_deterministic_in_seed():
    first, _ = gen_stream(3, 6, tsybakov(0.5, 2.0, 4.0), 60, seed=21)
    second, _ = gen_stream(3, 6, tsybakov(0.5, 2.0, 4.0), 60, seed=21)
    other, _ = gen_stream(3, 6, tsybakov(0.5, 2.0, 4.0), 60, seed=22)
    lines_a = [serialize_example(ex) for ex in first]
    lines_b = [serialize_example(ex) for ex in second]
    assert lines_a == lines_b
    assert lines_a != [serialize_example(ex) for ex in other]


LAWS = {"massart": massart(0.3), "tsybakov": tsybakov(0.5, 2.0, 4.0)}
# sha256 of three seeds' streams, taken before generation moved to one check per stream
STREAM_PINS = {
    ("massart", 2, 5, "bernoulli"): "52b75bf7806e4e21aaaf3fddb4882e5fca435ca06b5a16ef9efe66bcbc6a7294",
    ("massart", 2, 5, "none"): "fb40f2f84b892ae07ea5392d7d90032a9d1a3e522f1bebcf1eff7a28d6ca002e",
    ("massart", 5, 8, "bernoulli"): "645bebd8c799444b634f79b4a15d94274870bb487967871a2bb94afc62a44789",
    ("massart", 5, 8, "none"): "c28aae2cdc6c280d109cbfb911240fdde9e9d3907937ba8c5c5dd0da12492a1c",
    ("tsybakov", 2, 5, "bernoulli"): "74158155f7327dbd5c87d7b0b707e931b564a752ea925077ecf707d41394b5af",
    ("tsybakov", 2, 5, "none"): "d42b2677fcd284265783df633a891e95ec0612949b9247c0d78bff85a0ec695b",
    ("tsybakov", 5, 8, "bernoulli"): "44fdf9ff47f5e1497e44a8c1203ac1def5ce74dd8671a5ec20b60b81815b096e",
    ("tsybakov", 5, 8, "none"): "0ce779d64cf7687eb9f41f3a3c6c8ee7cec38c3f8ff33ebfb230dcac3c9d1478",
    ("massart", 2, 2, "bernoulli"): "2adeab0ec7e86aecab582b74b268f3c4453952fa8dd082e8c630d4b18f092252",
    ("tsybakov", 5, 40, "none"): "a7db7e74564d4f0a4970446871439f270649524508b214b0044e513fec576fa5",
}  # fmt: skip


@pytest.mark.parametrize("case", STREAM_PINS, ids=lambda case: "-".join(map(str, case)))
def test_stream_bytes_are_pinned(case):
    law, k, dim, noise = case
    # the text form and every raw array, dtype included, of three seeds' streams
    h = hashlib.sha256()
    for seed in (0, 7, 1_000_000):
        stream, _ = gen_stream(k, dim, LAWS[law], 150, seed, cost_noise=noise)
        for ex in stream:
            h.update(serialize_example(ex).encode() + b"\n")
            for a in (ex.features.indices, ex.features.values, ex.costs.costs, ex.costs.observed):
                h.update(a.dtype.str.encode() + a.tobytes())
    assert h.hexdigest() == STREAM_PINS[case]


def test_noise_free_fit_recovers_truth():
    stream, truth = gen_stream(2, 4, massart(0.2), 2000, seed=13, cost_noise="none")
    label = 1
    points = [
        WeightedPoint(ex.features, ex.costs.cost_of(label), 1.0) for ex in stream
    ]
    fitted = fit_weighted(points, bound=10.0, dim=5)
    probe, _ = gen_stream(2, 4, massart(0.2), 200, seed=14, cost_noise="none")
    errs = [
        ex.features.dot(fitted.weights) - truth.true_costs(ex.features)[label - 1]
        for ex in probe
    ]
    assert float(np.sqrt(np.mean(np.square(errs)))) <= 1e-3


def one_point_state(cost=0.3, delta=0.04):
    state = LabelState(label=1, dim=1)
    state.append_point(1, sparse_vector([(0, 1.0)]), cost)
    state.append_ledger(2, 0.0, delta)
    return state


def test_brute_force_unconstrained_scans_grid():
    state = LabelState(label=1, dim=1)
    grid = [np.array([w]) for w in (-0.5, 0.2, 0.8, 1.7)]
    iv = brute_force_cost_range(grid, state, sparse_vector([(0, 1.0)]))
    assert (iv.lo, iv.hi) == (0.0, 1.0)  # clamped at both ends


def test_brute_force_single_quadratic_constraint():
    # risk (w - 0.3)^2 <= 0.04 keeps w in [0.1, 0.5]
    state = one_point_state()
    grid = [np.array([w]) for w in np.arange(-2.0, 2.0001, 0.001)]
    iv = brute_force_cost_range(grid, state, sparse_vector([(0, 1.0)]))
    assert iv.lo == pytest.approx(0.1, abs=0.0015)
    assert iv.hi == pytest.approx(0.5, abs=0.0015)


def test_brute_force_reports_empty_grid_pocket():
    state = one_point_state(delta=1e-8)
    grid = [np.array([w]) for w in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    assert brute_force_cost_range(grid, state, sparse_vector([(0, 1.0)])) is None


def test_brute_force_rejects_bad_grid_shape():
    state = LabelState(label=1, dim=3)
    with pytest.raises(ValueError):
        brute_force_cost_range([np.zeros(2)], state, sparse_vector([(0, 1.0)]))
