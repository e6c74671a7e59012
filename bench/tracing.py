"""Outside-in tracing of the cpamm layers.

``Tracer`` wraps public functions of the ``cpamm.*`` modules by replacing
every module attribute that holds them, so callers inside the package (which
look the names up in their own module globals) reach the wrapper.  Nothing
under ``src/`` changes and :meth:`Tracer.installed` puts the originals back.

Each wrapper records a span (name, start, end, parent) in flat arrays kept
in memory, plus the counts that can only be read at the call boundary: arbitrage
legs, spread caps that bound, events parsed, RK4 samples kept.
:meth:`Tracer.drain` folds the spans into a :class:`Summary` and clears them.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter

#: Span name -> functions it covers, as (module, attribute).
TARGETS = {
    "pool.create_pool": [("cpamm.pool", "create_pool")],
    "pool.quote": [("cpamm.pool", "quote")],
    "pool.execute_swap": [("cpamm.pool", "execute_swap")],
    "pool.max_input_for_spread": [("cpamm.pool", "max_input_for_spread")],
    "pool.arbitrage_input_for_rate": [("cpamm.pool", "arbitrage_input_for_rate")],
    "scenario.load_script": [("cpamm.scenario", "load_script")],
    "scenario.run_scenario": [("cpamm.scenario", "run_scenario")],
    "scenario.snapshots_to_csv": [("cpamm.scenario", "snapshots_to_csv")],
    # Reported only through its callers: the figures' self time excludes it.
    "compounding.roi_pair": [("cpamm.compounding", "roi_pair")],
    "compounding.integrate_lc": [("cpamm.compounding", "integrate_lc")],
    "compounding.lc_implicit_solve": [("cpamm.compounding", "lc_implicit_solve")],
    "analytics.impermanent_loss": [("cpamm.analytics", "impermanent_loss")],
    "analytics.il_brute_force": [("cpamm.analytics", "il_brute_force")],
    "analytics.evolution": [
        ("cpamm.analytics", "hold_value_relative"),
        ("cpamm.analytics", "relative_evolution_compounded"),
        ("cpamm.analytics", "relative_evolution_collected"),
    ],
    "figures.emit_figure": [("cpamm.figures", "emit_figure")],
}
MAIN = "cli.main"


class Summary:
    """Per span name: calls, inclusive ns and self ns; plus boundary counts."""

    def __init__(self):
        self.calls = Counter()
        self.ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()

    def __iadd__(self, other: "Summary") -> "Summary":
        for mine, theirs in ((self.calls, other.calls), (self.ns, other.ns),
                             (self.self_ns, other.self_ns), (self.counts, other.counts)):
            mine.update(theirs)
        return self

    def work(self) -> dict:
        """Everything that must repeat exactly between runs of the same inputs."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()}, **self.counts}


class Tracer:
    def __init__(self):
        self.names = []
        self.layers = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counts = Counter()
        self.pending_arb = None

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layers.append(name.split(".")[0])
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """``fn`` recording a span named ``name``; observers named ``_on_<name>`` see each result."""
        nid = self._name_id(name)
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        input_error = sys.modules["cpamm.errors"].InputError

        def traced(*args, **kwargs):
            sid = len(span_start)
            parent = stack[-1]
            span_name.append(nid)
            span_parent.append(parent)
            span_end.append(0)
            stack.append(sid)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except input_error:
                self._on_error(nid, parent)
                raise
            finally:
                span_end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every cpamm module attribute holding a target for its wrapper."""
        modules = [m for k, m in list(sys.modules.items()) if k == "cpamm" or k.startswith("cpamm.")]
        patched = []
        try:
            for name, targets in TARGETS.items():
                for module, attr in targets:
                    original = getattr(sys.modules[module], attr)
                    wrapper = self.wrap(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapper)
                                patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)

    def drain(self) -> Summary:
        """Fold the recorded spans into a Summary and forget them."""
        summary = Summary()
        n = len(self.span_start)
        child_ns = [0] * n
        for sid in range(n - 1, -1, -1):
            duration = self.span_end[sid] - self.span_start[sid]
            name = self.names[self.span_name[sid]]
            summary.calls[name] += 1
            summary.ns[name] += duration
            summary.self_ns[name] += duration - child_ns[sid]
            parent = self.span_parent[sid]
            if parent >= 0:
                child_ns[parent] += duration
        summary.counts.update(self.counts)
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del spans[:]
        self.counts.clear()
        self.pending_arb = None
        return summary

    # -- boundary counts ------------------------------------------------------

    def _on_error(self, nid: int, parent: int) -> None:
        # A pool error counts once, at the outermost pool span it leaves.
        if self.layers[nid] == "pool" and (parent < 0 or self.layers[self.span_name[parent]] != "pool"):
            self.counts["pool.errors"] += 1

    def _on_pool_arbitrage_input_for_rate(self, args, kwargs, result) -> None:
        self.pending_arb = result

    def _on_pool_execute_swap(self, args, kwargs, result) -> None:
        amount = args[2] if len(args) > 2 else kwargs["amount_in"]
        cap = args[3] if len(args) > 3 else kwargs.get("max_spread")
        if self.pending_arb is not None and self.pending_arb[1] is amount:
            self.counts["pool.execute_swap.arb_calls"] += 1
            self.pending_arb = None
        if cap is not None:
            self.counts["pool.capped_trades"] += 1
            receipt = result[1]
            if receipt.capped_in != receipt.requested_in:
                self.counts["pool.capped_trades_bound"] += 1

    def _on_scenario_load_script(self, args, kwargs, result) -> None:
        self.counts["scenario.events_parsed"] += len(result.events)

    def _on_scenario_run_scenario(self, args, kwargs, result) -> None:
        self.counts["scenario.events_run"] += len(args[0].events)
        self.counts["scenario.snapshots"] += len(result)

    def _on_scenario_snapshots_to_csv(self, args, kwargs, result) -> None:
        self.counts["scenario.csv_rows"] += len(args[0])

    def _on_compounding_integrate_lc(self, args, kwargs, result) -> None:
        self.counts["compounding.integrate_lc.samples_kept"] += len(result.samples)
        self.counts["compounding.integrate_lc.steps"] += len(result.samples) - 1

    def _on_figures_emit_figure(self, args, kwargs, result) -> None:
        self.counts["figures.rows"] += result.count("\n") - 1


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(work: Summary, timed: Summary) -> dict:
    """Per-layer metrics: counts from ``work`` (one pass), times from ``timed`` (all passes).

    ``*.ns`` is mean inclusive ns per call; ``*.self_ns`` excludes the time of
    traced children; ``ns_per_*`` divides a layer's total by its unit of work.
    """
    calls, counts = work.calls, work.counts

    def per_call(name):
        return _ratio(timed.ns[name], timed.calls[name])

    return {
        "pool.quote.calls": calls["pool.quote"],
        "pool.quote.ns": per_call("pool.quote"),
        "pool.execute_swap.calls": calls["pool.execute_swap"],
        "pool.execute_swap.arb_calls": counts["pool.execute_swap.arb_calls"],
        "pool.execute_swap.self_ns": _ratio(timed.self_ns["pool.execute_swap"], timed.calls["pool.execute_swap"]),
        "pool.arbitrage_input_for_rate.calls": calls["pool.arbitrage_input_for_rate"],
        "pool.arbitrage_input_for_rate.ns": per_call("pool.arbitrage_input_for_rate"),
        "pool.max_input_for_spread.calls": calls["pool.max_input_for_spread"],
        "pool.arb_trade_ratio": _ratio(counts["pool.execute_swap.arb_calls"], calls["pool.arbitrage_input_for_rate"]),
        "pool.cap_bind_ratio": _ratio(counts["pool.capped_trades_bound"], counts["pool.capped_trades"]),
        "pool.errors": counts["pool.errors"],
        "scenario.events_parsed": counts["scenario.events_parsed"],
        "scenario.load_script.ns_per_event": _ratio(timed.ns["scenario.load_script"],
                                                    timed.counts["scenario.events_parsed"]),
        "scenario.run_scenario.self_ns_per_event": _ratio(timed.self_ns["scenario.run_scenario"],
                                                          timed.counts["scenario.events_run"]),
        "scenario.snapshots": counts["scenario.snapshots"],
        "scenario.snapshots_to_csv.ns_per_row": _ratio(timed.ns["scenario.snapshots_to_csv"],
                                                       timed.counts["scenario.csv_rows"]),
        "compounding.integrate_lc.steps": counts["compounding.integrate_lc.steps"],
        "compounding.integrate_lc.samples_kept": counts["compounding.integrate_lc.samples_kept"],
        "compounding.integrate_lc.ns_per_step": _ratio(timed.ns["compounding.integrate_lc"],
                                                       timed.counts["compounding.integrate_lc.steps"]),
        "compounding.lc_implicit_solve.calls": calls["compounding.lc_implicit_solve"],
        "compounding.lc_implicit_solve.ns": per_call("compounding.lc_implicit_solve"),
        "analytics.impermanent_loss.calls": calls["analytics.impermanent_loss"],
        "analytics.impermanent_loss.ns": per_call("analytics.impermanent_loss"),
        "analytics.evolution.ns": per_call("analytics.evolution"),
        "analytics.il_brute_force.calls": calls["analytics.il_brute_force"],
        "analytics.il_brute_force.ns": per_call("analytics.il_brute_force"),
        "figures.rows": counts["figures.rows"],
        "figures.emit_figure.self_ns_per_row": _ratio(timed.self_ns["figures.emit_figure"],
                                                      timed.counts["figures.rows"]),
        "cli.main.self_ns": _ratio(timed.self_ns[MAIN], timed.calls[MAIN]),
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns") or "ns_per" in name:
        return "ns"
    if name.endswith("ratio") or name.endswith("frac"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"
