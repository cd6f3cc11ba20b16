"""Core data types: sparse features, partial cost vectors, label hierarchies.

Conventions used across the package:

* labels are 1-based in every public API (1..K); internal arrays are 0-based
* feature indices are non-negative ints; index 0 is reserved for the constant
  bias feature that the experiment harness injects when absent
* costs live in [0, 1]; unobserved costs are stored as NaN with a False
  observed flag
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Malformed input line; carries 1-based line/column when known."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class DataError(ValueError):
    """Structurally valid input that violates a semantic requirement."""


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Sparse feature vector: strictly increasing indices, nonzero finite values."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise DataError("indices and values must be 1-d arrays of equal length")
        if idx.size:
            if idx[0] < 0:
                raise DataError("feature indices must be non-negative")
            if np.any(np.diff(idx) <= 0):
                raise DataError("feature indices must be strictly increasing")
        if not np.all(np.isfinite(val)):
            raise DataError("feature values must be finite")
        if np.any(val == 0.0):
            raise DataError("zero entries must be omitted")

    @property
    def nnz(self):
        return int(self.indices.size)

    @property
    def max_index(self):
        return int(self.indices[-1]) if self.indices.size else -1

    def dot(self, weights):
        """Inner product with a dense weight vector (length 0 acts as zero)."""
        w = np.asarray(weights, dtype=np.float64)
        if w.size == 0 or self.indices.size == 0:
            return 0.0
        if self.max_index >= w.size:
            raise IndexError(
                f"feature index {self.max_index} out of range for dimension {w.size}"
            )
        return float(w[self.indices] @ self.values)

    def to_dense(self, dim):
        if self.max_index >= dim:
            raise IndexError(f"feature index {self.max_index} out of range for dimension {dim}")
        out = np.zeros(dim)
        out[self.indices] = self.values
        return out

    def pairs(self):
        return list(zip(self.indices.tolist(), self.values.tolist()))

    def __eq__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )


def sparse_vector(pairs):
    """Build a SparseVector from (index, value) pairs.

    Duplicate indices are summed; entries that cancel to zero are dropped.
    """
    if not pairs:
        return SparseVector(np.empty(0, dtype=np.int64), np.empty(0))
    acc = {}
    for i, v in pairs:
        acc[int(i)] = acc.get(int(i), 0.0) + float(v)
    idx = sorted(k for k, v in acc.items() if v != 0.0)
    return SparseVector(
        np.array(idx, dtype=np.int64), np.array([acc[k] for k in idx], dtype=np.float64)
    )


@dataclass(frozen=True, eq=False)
class CostVector:
    """Per-label costs in [0, 1] with observation flags; unobserved slots are NaN."""

    costs: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.costs, dtype=np.float64)
        o = np.asarray(self.observed, dtype=bool)
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "observed", o)
        if c.ndim != 1 or o.shape != c.shape:
            raise DataError("costs and observed must be 1-d arrays of equal length")
        if c.size == 0:
            raise DataError("need at least one label")
        seen = c[o]
        if seen.size and (
            not np.all(np.isfinite(seen)) or seen.min() < 0.0 or seen.max() > 1.0
        ):
            raise DataError("observed costs must lie in [0, 1]")

    @property
    def k(self):
        return int(self.costs.size)

    def _slot(self, label):
        """0-based slot of a 1-based label; label 0 would wrap to label K."""
        if not 1 <= label <= self.costs.size:
            raise DataError(f"label {label} out of range 1..{self.k}")
        return label - 1

    def is_observed(self, label):
        return bool(self.observed[self._slot(label)])

    def cost_of(self, label):
        slot = self._slot(label)
        if not self.observed[slot]:
            raise DataError(f"cost of label {label} is unobserved")
        return float(self.costs[slot])

    def observed_labels(self):
        return [int(i) + 1 for i in np.flatnonzero(self.observed)]

    def __eq__(self, other):
        if not isinstance(other, CostVector):
            return NotImplemented
        if not np.array_equal(self.observed, other.observed):
            return False
        return np.array_equal(self.costs[self.observed], other.costs[other.observed])


def full_costs(values):
    v = np.asarray(values, dtype=np.float64)
    return CostVector(v, np.ones(v.size, dtype=bool))


def partial_costs(k, observed_map):
    """CostVector over k labels from a {label: cost} mapping (1-based labels)."""
    costs = np.full(k, np.nan)
    seen = np.zeros(k, dtype=bool)
    for y, c in observed_map.items():
        if not 1 <= int(y) <= k:
            raise DataError(f"label {y} out of range 1..{k}")
        costs[int(y) - 1] = float(c)
        seen[int(y) - 1] = True
    return CostVector(costs, seen)


@dataclass(frozen=True)
class LabeledExample:
    features: SparseVector
    costs: CostVector


def _float_repr(x):
    # repr gives the shortest round-trip form; keep integral floats compact
    return repr(float(x))


def parse_example(line, k, lineno=None):
    """Parse one text-format example: ``y1:c1 [y2:c2 ...] | i1:v1 [i2:v2 ...]``.

    Tokens are separated by spaces or tabs. Labels are 1..k with costs in
    [0, 1]; unlisted labels are unobserved. A feature value must have a finite
    square, and so must the vector's norm; duplicate feature indices are summed.
    Raises ParseError with its position, counted from the start of the line.
    """
    bar = line.find("|")
    if bar < 0:
        raise ParseError("missing '|' separator between costs and features", lineno, 1)
    if line.find("|", bar + 1) >= 0:
        raise ParseError("more than one '|' separator", lineno, line.find("|", bar + 1) + 1)

    def tokens(section, offset):
        col = offset
        # a tab is one character, like the space it becomes, so columns still count
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
        # the learner squares every value, in Gram rows, accumulators and |x|^2
        if not math.isfinite(v * v):
            raise ParseError(f"feature value {tail} has no finite square", lineno, col)
        feats.append((i, v))
    x = sparse_vector(feats)
    # finite squares can still sum past the largest float
    norm = math.hypot(*x.values.tolist())
    if not math.isfinite(norm * norm):
        raise ParseError("features have no finite squared norm", lineno, bar + 1)
    return LabeledExample(x, partial_costs(k, seen))


def serialize_example(example):
    """Canonical text form of an example; inverse of parse_example."""
    cv = example.costs
    labels = " ".join(f"{y}:{_float_repr(cv.costs[y - 1])}" for y in cv.observed_labels())
    feats = " ".join(f"{i}:{_float_repr(v)}" for i, v in example.features.pairs())
    return f"{labels} | {feats}".rstrip() if feats else f"{labels} |"


@dataclass(frozen=True)
class HierarchySpec:
    """Rooted tree over integer node ids with K labeled nodes.

    parent maps every node to its parent; the root maps to itself.
    leaf_labels[y-1] is the node id of label y.  Files parsed by
    parse_hierarchy always label the leaves, but a spec built directly may
    attach labels to internal nodes too (a label sitting on another label's
    ancestor is a legitimate coarse class).
    """

    parent: dict
    leaf_labels: tuple

    def __post_init__(self):
        nodes = set(self.parent)
        roots = [n for n, p in self.parent.items() if n == p]
        if len(roots) != 1:
            raise DataError(f"hierarchy must have exactly one root, found {len(roots)}")
        for n, p in self.parent.items():
            if p not in nodes:
                raise DataError(f"node {n} has unknown parent {p}")
        # every node must reach the root without cycling
        for n in nodes:
            seen = set()
            cur = n
            while self.parent[cur] != cur:
                if cur in seen:
                    raise DataError(f"cycle in hierarchy at node {cur}")
                seen.add(cur)
                cur = self.parent[cur]
        if not self.leaf_labels:
            raise DataError("hierarchy has no labeled nodes")
        if len(set(self.leaf_labels)) != len(self.leaf_labels):
            raise DataError("labels must sit on distinct nodes")
        for node in self.leaf_labels:
            if node not in nodes:
                raise DataError(f"label node {node} is not in the tree")

    @property
    def k(self):
        return len(self.leaf_labels)

    def depth(self, node):
        d = 0
        while self.parent[node] != node:
            node = self.parent[node]
            d += 1
        return d

    def path_edges(self, a, b):
        """Number of edges on the tree path between nodes a and b."""
        da, db = self.depth(a), self.depth(b)
        dist = 0
        while da > db:
            a, da, dist = self.parent[a], da - 1, dist + 1
        while db > da:
            b, db, dist = self.parent[b], db - 1, dist + 1
        while a != b:
            a, b, dist = self.parent[a], self.parent[b], dist + 2
        return dist


def content_lines(lines):
    """(1-based line number, text) of each line neither blank nor a comment.

    The text keeps its leading blanks, so that error columns count from the
    start of the line.
    """
    for lineno, raw in enumerate(lines, start=1):
        text = raw.lstrip()
        if text and not text.startswith("#"):
            yield lineno, raw.rstrip()


def parse_hierarchy(lines):
    """Build a HierarchySpec from ``node_id parent_id`` lines.

    Leaves (nodes that parent no other node) become labels 1..K in ascending
    node-id order.
    """
    parent = {}
    for lineno, line in content_lines(lines):
        parts = line.split()
        col = len(line) - len(line.lstrip()) + 1  # where the entry starts
        if len(parts) != 2:
            raise ParseError(f"expected 'node parent', got {line.strip()!r}", lineno, col)
        try:
            n, p = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {line.strip()!r}", lineno, col) from None
        if n in parent:
            raise ParseError(f"duplicate node {n}", lineno, col)
        parent[n] = p
    if not parent:
        raise DataError("empty hierarchy")
    internal = {p for n, p in parent.items() if n != p}
    leaves = tuple(sorted(n for n in parent if n not in internal))
    return HierarchySpec(parent, leaves)


def tree_distance_costs(hierarchy, true_label, scale):
    """Cost vector where cost(y) = scale * tree distance from the true label.

    All costs must land in [0, 1]; a scale too large for the tree diameter is
    an error rather than silently clamped.
    """
    if not 1 <= true_label <= hierarchy.k:
        raise DataError(f"label {true_label} out of range 1..{hierarchy.k}")
    target = hierarchy.leaf_labels[true_label - 1]
    costs = np.array(
        [scale * hierarchy.path_edges(node, target) for node in hierarchy.leaf_labels]
    )
    if costs.max() > 1.0 + 1e-12:
        raise DataError(
            f"scale {scale} drives a tree-distance cost to {costs.max():.4f} > 1"
        )
    return full_costs(np.clip(costs, 0.0, 1.0))


@dataclass
class QueryLog:
    """Per-round query bitmasks with running label-query counters.

    l1 counts rounds with at least one query; l2 counts all (example, label)
    queries. Invariant: l1 <= l2 <= k * l1.
    """

    k: int
    masks: list = field(default_factory=list)
    l1: int = 0
    l2: int = 0

    def record(self, queried_labels):
        mask = 0
        for y in queried_labels:
            if not 1 <= y <= self.k:
                raise DataError(f"label {y} out of range 1..{self.k}")
            mask |= 1 << (y - 1)
        self.masks.append(mask)
        n = bin(mask).count("1")
        if n:
            self.l1 += 1
            self.l2 += n
