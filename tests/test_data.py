import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coal.data import (
    CostVector,
    DataError,
    HierarchySpec,
    LabeledExample,
    ParseError,
    QueryLog,
    SparseVector,
    content_lines,
    full_costs,
    parse_example,
    parse_hierarchy,
    partial_costs,
    serialize_example,
    sparse_vector,
    tree_distance_costs,
)


def test_parse_full_observation():
    ex = parse_example("1:0.0 2:1.0 | 3:0.5 7:1.0", k=2)
    assert list(ex.costs.costs) == [0.0, 1.0]
    assert list(ex.costs.observed) == [True, True]
    assert ex.features.nnz == 2
    assert ex.features.pairs() == [(3, 0.5), (7, 1.0)]


def test_parse_partial_observation():
    ex = parse_example("1:0.3 | 1:1", k=3)
    assert ex.costs.cost_of(1) == 0.3
    assert list(ex.costs.observed) == [True, False, False]


def test_parse_rejects_cost_out_of_range():
    with pytest.raises(ParseError):
        parse_example("1:1.5 | 1:1", k=2)


def test_parse_error_carries_line_and_column():
    err = None
    try:
        parse_example("1:0.2 2:oops | 1:1", k=2, lineno=7)
    except ParseError as exc:
        err = exc
    assert err is not None
    assert err.line == 7
    assert err.column is not None and err.column > 1


def test_parse_error_columns_count_from_the_start_of_the_raw_line():
    # leading blanks belong to the line: the bad token starts at column 17
    [(lineno, line)] = content_lines(["# header\n", "  1:0.0 2:1.0 | 1:1e200\n"])
    with pytest.raises(ParseError) as err:
        parse_example(line, 2, lineno)
    assert (err.value.line, err.value.column) == (2, 17)
    # a tab is one column in hierarchy files too
    with pytest.raises(ParseError) as err:
        parse_hierarchy(["0 0", "1 0", "\t  1 0"])
    assert (err.value.line, err.value.column) == (3, 4)


def test_parse_rejects_features_whose_squared_norm_overflows():
    # each square is finite (1.69e308) but their sum is not
    with pytest.raises(ParseError) as err:
        parse_example("1:0.0 2:1.0 | 1:1.3e154 2:1.3e154", k=2, lineno=4)
    assert (err.value.line, err.value.column) == (4, 13)
    ex = parse_example("1:0.0 2:1.0 | 1:1.3e153 2:1.3e153", k=2)
    assert ex.features.pairs() == [(1, 1.3e153), (2, 1.3e153)]


@pytest.mark.parametrize(
    "line",
    [
        "| 1:1",  # no label section
        "1:0.5",  # missing separator
        "1:0.5 | 1:1 | 2:1",  # two separators
        "0:0.5 | 1:1",  # label below range
        "3:0.5 | 1:1",  # label above range (k=2)
        "1:0.5 1:0.6 | 1:1",  # duplicate label
        "1:0.5 | -1:1",  # negative feature index
        "1:0.5 | 1:nan",  # non-finite value
        "x:0.5 | 1:1",  # malformed token
    ],
)
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(ParseError):
        parse_example(line, k=2)


def test_parse_sums_duplicate_features():
    ex = parse_example("1:0.5 | 4:0.25 4:0.5 2:1", k=1)
    assert ex.features.pairs() == [(2, 1.0), (4, 0.75)]


def test_parse_allows_feature_index_zero():
    ex = parse_example("1:0.5 | 0:1 3:2", k=1)
    assert ex.features.pairs() == [(0, 1.0), (3, 2.0)]


def test_serialize_round_trips_anchor():
    line = "1:0.0 2:1.0 | 3:0.5 7:1.0"
    once = parse_example(line, k=2)
    again = parse_example(serialize_example(once), k=2)
    assert once == again


costs_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
values_st = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, width=32
).filter(lambda v: v != 0.0)


@st.composite
def examples_st(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    observed = draw(
        st.dictionaries(
            st.integers(min_value=1, max_value=k), costs_st, min_size=1, max_size=k
        )
    )
    feats = draw(
        st.dictionaries(st.integers(min_value=0, max_value=40), values_st, max_size=8)
    )
    return k, LabeledExample(sparse_vector(feats.items()), partial_costs(k, observed))


@given(examples_st())
@settings(max_examples=200, deadline=None)
def test_parse_serialize_fixed_point(case):
    # one trip may canonicalize; a second trip must be the identity
    k, ex = case
    text = serialize_example(ex)
    parsed = parse_example(text, k)
    assert serialize_example(parsed) == text
    assert parse_example(serialize_example(parsed), k) == parsed


def test_sparse_vector_canonicalizes():
    v = sparse_vector([(5, 1.0), (2, 0.25), (5, -1.0), (3, 0.0)])
    assert v.pairs() == [(2, 0.25)]  # duplicates summed to zero are dropped
    assert v.nnz == 1


def test_sparse_vector_rejects_bad_entries():
    with pytest.raises(DataError):
        SparseVector(np.array([2, 2]), np.array([1.0, 1.0]))
    with pytest.raises(DataError):
        SparseVector(np.array([1]), np.array([math.inf]))
    with pytest.raises(DataError):
        SparseVector(np.array([-1]), np.array([1.0]))


def test_sparse_vector_dot_and_dense():
    v = sparse_vector([(0, 1.0), (3, 2.0)])
    w = np.array([0.5, 9.0, 9.0, 0.25])
    assert v.dot(w) == 1.0
    assert list(v.to_dense(5)) == [1.0, 0.0, 0.0, 2.0, 0.0]


def test_cost_vector_bounds_checked_on_construction():
    with pytest.raises(DataError):
        full_costs([0.2, 1.4])
    with pytest.raises(DataError):
        full_costs([-0.1, 0.5])


def test_cost_vector_unobserved_access_raises():
    cv = partial_costs(3, {1: 0.3})
    assert cv.is_observed(1) and not cv.is_observed(2)
    with pytest.raises(DataError):
        cv.cost_of(2)


def test_cost_vector_rejects_labels_out_of_range():
    # label 0 must not wrap round to label K's slot
    cv = full_costs([0.1, 0.2, 0.9])
    for label in (0, -1, 4):
        with pytest.raises(DataError, match="out of range 1..3"):
            cv.cost_of(label)
        with pytest.raises(DataError, match="out of range 1..3"):
            cv.is_observed(label)
    assert [cv.cost_of(y) for y in (1, 2, 3)] == [0.1, 0.2, 0.9]


# hierarchy: chain root(0) - a(1) - b(2); labels sit on a and b
CHAIN = HierarchySpec(parent={0: 0, 1: 0, 2: 1}, leaf_labels=(1, 2))
# star: root 0 with leaves 1, 2, 3
STAR = HierarchySpec(parent={0: 0, 1: 0, 2: 0, 3: 0}, leaf_labels=(1, 2, 3))


def test_tree_distance_chain():
    cv = tree_distance_costs(CHAIN, 2, 0.5)
    assert cv.cost_of(2) == 0.0
    assert cv.cost_of(1) == 0.5


def test_tree_distance_star():
    cv = tree_distance_costs(STAR, 1, 0.5)
    assert cv.cost_of(1) == 0.0
    assert cv.cost_of(2) == 1.0
    assert cv.cost_of(3) == 1.0


def test_tree_distance_true_label_is_free():
    for y in (1, 2, 3):
        assert tree_distance_costs(STAR, y, 0.5).cost_of(y) == 0.0


def test_tree_distance_scale_too_large():
    with pytest.raises(DataError):
        tree_distance_costs(STAR, 1, 0.6)  # leaf pairs sit 2 edges apart


@st.composite
def hierarchies_st(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    parent = {0: 0}
    for node in range(1, n):
        parent[node] = draw(st.integers(min_value=0, max_value=node - 1))
    children = set(parent.values())
    leaves = tuple(sorted(set(range(n)) - children)) or (n - 1,)
    return HierarchySpec(parent=parent, leaf_labels=leaves)


@given(hierarchies_st(), st.data())
@settings(max_examples=100, deadline=None)
def test_tree_distance_symmetric(h, data):
    a = data.draw(st.sampled_from(h.leaf_labels))
    b = data.draw(st.sampled_from(h.leaf_labels))
    assert h.path_edges(a, b) == h.path_edges(b, a)


def test_hierarchy_rejects_multiple_roots():
    with pytest.raises(DataError):
        HierarchySpec(parent={0: 0, 1: 1}, leaf_labels=(0, 1))


def test_hierarchy_rejects_unknown_parent():
    with pytest.raises(DataError):
        HierarchySpec(parent={0: 0, 1: 5}, leaf_labels=(1,))


def test_hierarchy_rejects_label_off_tree():
    with pytest.raises(DataError):
        HierarchySpec(parent={0: 0, 1: 0}, leaf_labels=(1, 2))


def test_parse_hierarchy_labels_the_leaves():
    h = parse_hierarchy(["0 0", "1 0", "2 0", "3 1", "# comment", ""])
    # nodes 2 and 3 parent nothing, so they are the labels
    assert h.leaf_labels == (2, 3)
    assert h.parent[3] == 1


def test_parse_hierarchy_rejects_duplicates():
    with pytest.raises(ParseError):
        parse_hierarchy(["0 0", "1 0", "1 0"])


def test_query_log_counters():
    log = QueryLog(k=3)
    log.record([])
    log.record([2])
    log.record([1, 3])
    assert (log.l1, log.l2) == (2, 3)
    assert log.masks == [0b000, 0b010, 0b101]


def test_query_log_rejects_bad_labels():
    log = QueryLog(k=2)
    with pytest.raises(DataError):
        log.record([0])
    with pytest.raises(DataError):
        log.record([3])


@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=4), max_size=4, unique=True),
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_query_log_invariant_l1_l2(rounds):
    log = QueryLog(k=4)
    for labels in rounds:
        before = (log.l1, log.l2)
        log.record(labels)
        assert log.l1 >= before[0] and log.l2 >= before[1]
    assert log.l1 <= log.l2 <= 4 * log.l1
