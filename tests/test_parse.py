"""parse_example against the references it replaced.

parse_example tokenizes a line in one pass and builds a canonical line's vectors
without checking them again. These tests hold it to sparse_vector and
partial_costs, bit for bit on any line, and to the former parser, kept here, for
the ParseError of every malformed one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import coal.data
from coal.data import (
    DataError,
    LabeledExample,
    ParseError,
    parse_example,
    partial_costs,
    serialize_example,
    sparse_vector,
)


def reference_parse_example(line, k, lineno=None):
    """The former parse_example: a token generator, then sparse_vector and partial_costs."""
    bar = line.find("|")
    if bar < 0:
        raise ParseError("missing '|' separator between costs and features", lineno, 1)
    if line.find("|", bar + 1) >= 0:
        raise ParseError("more than one '|' separator", lineno, line.find("|", bar + 1) + 1)

    def tokens(section, offset):
        col = offset
        for tok in section.replace("\t", " ").split(" "):
            if tok:
                yield tok, col + 1
            col += len(tok) + 1

    seen = {}
    for tok, col in tokens(line[:bar], 0):
        head, sep, tail = tok.partition(":")
        if not sep or not head or not tail:
            raise ParseError(f"malformed label:cost token {tok!r}", lineno, col)
        try:
            y = int(head)
            c = float(tail)
        except ValueError:
            raise ParseError(f"malformed label:cost token {tok!r}", lineno, col) from None
        if not 1 <= y <= k:
            raise ParseError(f"label {y} out of range 1..{k}", lineno, col)
        if y in seen:
            raise ParseError(f"duplicate cost for label {y}", lineno, col)
        if not math.isfinite(c) or not 0.0 <= c <= 1.0:
            raise ParseError(f"cost {tail} for label {y} outside [0, 1]", lineno, col)
        seen[y] = c
    if not seen:
        raise ParseError("need at least one label:cost pair", lineno, 1)

    feats = []
    for tok, col in tokens(line[bar + 1 :], bar + 1):
        head, sep, tail = tok.partition(":")
        if not sep or not head or not tail:
            raise ParseError(f"malformed index:value token {tok!r}", lineno, col)
        try:
            i = int(head)
            v = float(tail)
        except ValueError:
            raise ParseError(f"malformed index:value token {tok!r}", lineno, col) from None
        if i < 0:
            raise ParseError(f"negative feature index {i}", lineno, col)
        if not math.isfinite(v * v):
            raise ParseError(f"feature value {tail} has no finite square", lineno, col)
        feats.append((i, v))
    x = sparse_vector(feats)
    norm = math.hypot(*x.values.tolist())
    if not math.isfinite(norm * norm):
        raise ParseError("features have no finite squared norm", lineno, bar + 1)
    return LabeledExample(x, partial_costs(k, seen))


def _arrays(example):
    x, cv = example.features, example.costs
    return [x.indices, x.values, cv.costs, cv.observed]


def _assert_same_bytes(got, want):
    for a, b in zip(_arrays(got), _arrays(want), strict=True):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# |v| <= 1.3e153 keeps ten such values, even summed into one index, inside a finite
# squared norm, so every drawn line parses
VALUES = st.one_of(
    st.floats(min_value=-1.3e153, max_value=1.3e153, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1.3e153]),
)
FEATURES = st.one_of(
    # canonical: strictly increasing indices, nonzero values
    st.dictionaries(
        st.integers(0, 40),
        st.floats(min_value=-1.3e153, max_value=1.3e153, allow_nan=False).filter(bool),
        max_size=10,
    ).map(lambda d: sorted(d.items())),
    # anything else: repeats, zeros and -0.0, any order
    st.lists(st.tuples(st.integers(0, 6), VALUES), max_size=10),
)
BLANKS = st.text(alphabet=" \t", max_size=3)
SEPARATORS = st.text(alphabet=" \t", min_size=1, max_size=3)


@st.composite
def lines(draw):
    k = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(1, k), min_size=1, max_size=k, unique=True))
    costs = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0]))
    seen = {y: draw(costs) for y in labels}
    pairs = draw(FEATURES)
    tokens = [f"{y}:{c!r}" for y, c in seen.items()] + ["|"]
    tokens += [f"{i}:{v!r}" for i, v in pairs]
    line = draw(BLANKS)
    for tok in tokens:
        line += tok + draw(SEPARATORS)
    return line + draw(BLANKS), k, pairs, seen


@seed(1703_01014)
@settings(max_examples=300, deadline=None)
@given(lines())
def test_parse_matches_the_reference_construction_bit_for_bit(case):
    line, k, pairs, seen = case
    got = parse_example(line, k)
    _assert_same_bytes(got, LabeledExample(sparse_vector(pairs), partial_costs(k, seen)))


# one line for each error, at k = 3
ERROR_LINES = [
    "1:0.5 2:0.5 3:1.0 1:1 2:0.5",  # missing '|'
    "1:0.5 | 2:1.0 | 3:1",  # two of them
    "1:0.5 2 | 1:1",  # label token without ':'
    "1:0.5 :0.2 | 1:1",  # empty label
    "1:0.5 2: | 1:1",  # empty cost
    "1:0.5 b:0.2 | 1:1",  # label not an integer
    "1:0.5 2:x | 1:1",  # cost not a float
    "1:0.5 4:0.2 | 1:1",  # label out of range
    "0:0.2 | 1:1",  # label 0
    "1:0.5 2:0.1 1:0.2 | 1:1",  # duplicate label
    "1:0.5 2:1.5 | 1:1",  # cost above 1
    "1:-0.25 | 1:1",  # cost below 0
    "1:nan | 1:1",  # cost NaN
    "1:0.5 2:inf | 1:1",  # cost inf
    " | 1:1",  # no label at all
    "|",  # nothing at all
    "1:0 | 1:1 2",  # feature token without ':'
    "1:0 | 1:1 :2",  # empty index
    "1:0 | 1:1 2:",  # empty value
    "1:0 | 1:1 x:2",  # index not an integer
    "1:0 | 1:1 2:abc",  # value not a float
    "1:0 | 3:1 -1:1",  # negative index
    "1:0 | 1:1e200",  # no finite square
    "1:0 | 1:inf",
    "1:0 | 2:1 1:nan",
    "1:0 | 1:1.3e154 2:1.3e154",  # norm overflows
    "1:0 | 2:1.3e154 2:1.3e154",  # norm of a sum overflows
]


def _shifted(line):
    """The line as written, and shifted by tabs and leading blanks."""
    return [
        line,
        "  " + line,
        "\t" + line,
        line.replace(" ", "\t"),
        "\t \t" + line.replace(" ", " \t"),
    ]


@pytest.mark.parametrize("base", ERROR_LINES)
def test_parse_errors_match_the_reference_parser(base):
    for line in _shifted(base):
        with pytest.raises(ParseError) as want:
            reference_parse_example(line, 3, lineno=7)
        with pytest.raises(ParseError) as got:
            parse_example(line, 3, lineno=7)
        assert str(got.value) == str(want.value), line
        assert (got.value.line, got.value.column) == (want.value.line, want.value.column), line


def test_a_canonical_line_is_checked_once(monkeypatch):
    def refuse(*args, **kwargs):
        raise DataError("checked a second time")

    monkeypatch.setattr(coal.data, "check_features", refuse)
    monkeypatch.setattr(coal.data, "check_costs", refuse)
    ex = parse_example("1:0.25 3:1.0 | 0:1.0 4:-2.5 9:1e-300", 3)
    assert ex.features.pairs() == [(0, 1.0), (4, -2.5), (9, 1e-300)]
    assert serialize_example(ex) == "1:0.25 3:1.0 | 0:1.0 4:-2.5 9:1e-300"
    assert np.array_equal(ex.costs.observed, [True, False, True])
    # a line sparse_vector must sum, drop from or sort still goes through its check
    for line in ("1:0 | 2:1.0 2:1.0", "1:0 | 2:1.0 3:0.0", "1:0 | 3:1.0 2:1.0"):
        with pytest.raises(DataError, match="checked a second time"):
            parse_example(line, 3)
