"""Spans around the public functions of each coal layer, kept in memory.

The tracer replaces a function with a wrapper on the object the caller looks
it up on (a module global or a class attribute), so the program itself is
unchanged. Each call becomes a span: name, start, end and the index of the
enclosing span. Self time is a span's duration minus the spans it directly
encloses. The code under test is single-threaded and never waits, so one
stack of open spans is enough and there is no wait time to report.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

# Root span of the round phase; its own time is reported as `other`.
ROOT = "harness.run_experiment"


@dataclass
class Counts:
    """Work counts taken at layer boundaries and from public end-of-seed state."""

    examples_generated: int = 0
    rounds: int = 0
    queries: int = 0
    label_slots: int = 0  # rounds * K
    no_query_rounds: int = 0
    gram_bytes: int = 0
    ledger_constraints: int = 0
    seed_rounds: list = field(default_factory=list)
    constraints_sum: int = 0  # sum of RangeProblem.m over problems
    game_iterations: int = 0
    game_budget: int = 0  # sum of cfg.t over games
    certificates: int = 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self.counts = Counts()

    def wrap(self, owner, attr, name, on_return=None):
        """Replace owner.attr with a span-recording wrapper."""
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(owner, attr, traced)

    def install(self, modules, file_workload):
        """Wrap every layer's public entry points where their callers find them."""
        cli, harness, driver, cost_range, oracle = modules
        w = self.wrap
        w(cli, "main", "cli.main")
        w(cli if file_workload else harness, "run_experiment", ROOT)
        w(harness, "run_seed", "harness.run_seed", self._seed_end)
        w(harness, "evaluate_test_cost", "harness.evaluate_test_cost")
        w(harness, "load_dataset", "harness.load_dataset")
        w(harness, "fill_hierarchy_costs", "harness.fill_hierarchy_costs")
        w(harness, "gen_stream", "synthetic.gen_stream", self._generated)
        w(harness, "parse_example", "data.parse_example")
        w(harness, "process_example", "driver.process_example")
        w(harness, "observe_costs", "driver.observe_costs")
        w(harness, "predict_label", "driver.predict_label")
        w(driver, "batch_cost_ranges", "online.batch_cost_ranges")
        w(driver, "online_update", "online.online_update")
        w(cost_range.RangeProblem, "__init__", "cost_range.problem_init", self._problem)
        w(cost_range.RangeProblem, "run", "cost_range.game", self._game)
        w(cost_range, "solve_bounded_least_squares", "oracle.ball_fallbacks")
        w(oracle.LabelState, "erm_weights", "oracle.erm_weights")
        w(oracle.LabelState, "append_point", "oracle.append_point")

    def _generated(self, args, result):
        self.counts.examples_generated += len(result[0])

    def _problem(self, args, result):
        self.counts.constraints_sum += args[0].m

    def _game(self, args, result):
        c = self.counts
        cfg = args[3]
        c.game_iterations += result.iterations
        c.game_budget += cfg.t
        c.certificates += not result.feasible

    def _seed_end(self, args, result):
        # counts read from the public (points, state) that run_seed returns
        _, state = result
        c = self.counts
        rounds = state.round - 1
        c.rounds += rounds
        c.seed_rounds.append(rounds)
        c.queries += state.log.l2
        c.label_slots += rounds * state.k
        c.no_query_rounds += sum(1 for mask in state.log.masks if mask == 0)
        for label in state.labels:
            c.gram_bytes += (label.n_points + 1) * label.dim * label.dim * 8
            c.ledger_constraints += len(label.constraint_view()[0])

    def round_window(self):
        """(start, end): first run_seed entry to the return of run_experiment."""
        starts = [s[1] for s in self.spans if s[0] == "harness.run_seed"]
        ends = [s[2] for s in self.spans if s[0] == ROOT]
        return min(starts), max(ends)

    def layer_metrics(self):
        """Per-layer metrics of one traced process, keyed as in BENCHMARK.json."""
        w0, w1 = self.round_window()
        stats = {}
        n = len(self.spans)
        child_total = [0.0] * n
        child_in_window = [0.0] * n

        def clipped(s, e):
            return max(0.0, min(e, w1) - max(s, w0))

        for name, s, e, parent in self.spans:
            if parent >= 0:
                child_total[parent] += e - s
                child_in_window[parent] += clipped(s, e)
        for i, (name, s, e, _) in enumerate(self.spans):
            st = stats.setdefault(name, _Stat())
            st.calls += 1
            st.total += e - s
            st.self += e - s - child_total[i]
            st.self_in_window += clipped(s, e) - child_in_window[i]
            st.durations.append(e - s)
        get = lambda name: stats.get(name, _EMPTY)  # noqa: E731
        c = self.counts
        window = w1 - w0

        m = {"cli.main.self_s": get("cli.main").self}
        m["harness.run_seed.self_s"] = get("harness.run_seed").self
        ev = get("harness.evaluate_test_cost")
        m["harness.evaluate_test_cost.calls"] = ev.calls
        m["harness.evaluate_test_cost.self_s"] = ev.self
        m["harness.evaluate_test_cost.ms_p50"] = ev.p50() * 1e3
        m["harness.load_dataset.s"] = get("harness.load_dataset").total
        m["harness.fill_hierarchy_costs.s"] = get("harness.fill_hierarchy_costs").total
        gen = get("synthetic.gen_stream")
        m["synthetic.gen_stream.calls"] = gen.calls
        m["synthetic.gen_stream.s"] = gen.total
        m["synthetic.gen_stream.examples_per_s"] = _ratio(c.examples_generated, gen.total)
        parse = get("data.parse_example")
        m["data.parse_example.calls"] = parse.calls
        m["data.parse_example.self_s"] = parse.self
        m["data.parse_example.us_p50"] = parse.p50() * 1e6
        proc = get("driver.process_example")
        m["driver.process_example.calls"] = proc.calls
        m["driver.process_example.self_s"] = proc.self
        m["driver.observe_costs.self_s"] = get("driver.observe_costs").self
        pred = get("driver.predict_label")
        m["driver.predict_label.calls"] = pred.calls
        m["driver.predict_label.self_s"] = pred.self
        m["driver.query_rate"] = _ratio(c.queries, c.label_slots)
        m["driver.no_query_round_ratio"] = _ratio(c.no_query_rounds, c.rounds)
        for layer in ("online.batch_cost_ranges", "online.online_update"):
            st = get(layer)
            m[f"{layer}.calls"] = st.calls
            m[f"{layer}.self_s"] = st.self
            m[f"{layer}.us_p50"] = st.p50() * 1e6
        init, game = get("cost_range.problem_init"), get("cost_range.game")
        m["cost_range.problems"] = init.calls
        m["cost_range.problem_init.self_s"] = init.self
        m["cost_range.constraints_mean"] = _ratio(c.constraints_sum, init.calls)
        m["cost_range.games"] = game.calls
        m["cost_range.game.self_s"] = game.self
        m["cost_range.game.us_p50"] = game.p50() * 1e6
        m["cost_range.guesses_per_side"] = _ratio(game.calls, 2 * init.calls)
        m["cost_range.game.iterations"] = c.game_iterations
        m["cost_range.game.iter_budget_ratio"] = _ratio(c.game_iterations, c.game_budget)
        m["cost_range.game.certificate_ratio"] = _ratio(c.certificates, game.calls)
        fb = get("oracle.ball_fallbacks")
        m["oracle.ball_fallbacks"] = fb.calls
        m["oracle.ball_fallbacks.self_s"] = fb.self
        m["oracle.ball_fallback_ratio"] = _ratio(fb.calls, c.game_iterations)
        for layer in ("oracle.erm_weights", "oracle.append_point"):
            st = get(layer)
            m[f"{layer}.calls"] = st.calls
            m[f"{layer}.self_s"] = st.self
        m["oracle.ledger_constraints_final"] = c.ledger_constraints
        m["oracle.gram_bytes_computed"] = c.gram_bytes
        # the round window is covered by the root span and its descendants, so
        # the layers' in-window self times plus `other` add up to the window
        m["other.self_s"] = window - sum(
            st.self_in_window for name, st in stats.items() if name != ROOT
        )
        m["trace.window_s"] = window
        m["trace.rounds_per_s"] = _ratio(c.rounds, window)
        return m


@dataclass
class _Stat:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0
    self_in_window: float = 0.0
    durations: list = field(default_factory=list)

    def p50(self):
        return statistics.median(self.durations) if self.durations else 0.0


_EMPTY = _Stat()


def _ratio(num, den):
    return num / den if den else 0.0
