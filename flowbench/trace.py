"""The traced run: spans around each layer's public functions.

:class:`Tracer` wraps the program's functions at the names their callers
import them by (``repro.synth.csc.is_live``, ``repro.synth.latch.minimize``,
``repro.stg.stg.STG.insert_signal``, ...) and the benchmark's own calls in
:mod:`flowbench.flow`.  Each call records a span — name, start, end, the
span that caused it, and counts taken from its result — in memory.  The
program's own :mod:`repro.obs` spans are collected through a
``MemorySink`` at the same time; they give the engine rows (``sat.solve``,
``bdd.fixpoint``, ``engine.build``) and the portfolio's ``worker.task``
spans, which the supervisor merges in from its worker processes.

:meth:`Tracer.metrics` turns both into the per-layer metrics of
:data:`LAYER_METRICS`, per corpus pass.  Times are inclusive (a layer's
time contains the layers it calls); self times, a span's duration minus
its children's, are printed by :meth:`Tracer.table` and give
``trace.attributed_share``.  :meth:`Tracer.write` saves every span as
JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.core import rel_time

from . import flow

#: Per-layer metrics in print order: (name, unit).
LAYER_METRICS: List[Tuple[str, str]] = [
    ("stg.parse_g.ms", "ms"),
    ("synth.resolve_csc.ms", "ms"),
    ("petri.is_live.calls", "count"),
    ("petri.is_live.ms", "ms"),
    ("analysis.check_implementability.calls", "count"),
    ("analysis.check_implementability.ms", "ms"),
    ("synth.csc.candidates", "count"),
    ("synth.csc.useful_ratio", "fraction"),
    ("stg.insert_signal.calls", "count"),
    ("stg.insert_signal.ms", "ms"),
    ("ts.build_state_graph.calls", "count"),
    ("ts.build_state_graph.ms", "ms"),
    ("ts.states_built", "count"),
    ("boolmin.minimize.calls", "count"),
    ("boolmin.minimize.ms", "ms"),
    ("boolmin.cover_cubes", "count"),
    ("synth.synthesize.cg.ms", "ms"),
    ("synth.synthesize.gc.ms", "ms"),
    ("synth.synthesize.sr.ms", "ms"),
    ("tech.decompose.calls", "count"),
    ("tech.decompose.ms", "ms"),
    ("tech.decompose.refused", "count"),
    ("verify.verify_circuit.ms", "ms"),
    ("verify.composed_states", "count"),
    ("portfolio.check.ms", "ms"),
    ("portfolio.race.ms", "ms"),
    ("portfolio.validate.ms", "ms"),
    ("portfolio.orchestration.ms", "ms"),
    ("portfolio.attempts", "count"),
    ("portfolio.retries", "count"),
    ("portfolio.cancellations", "count"),
    ("portfolio.degradations", "count"),
    ("portfolio.wins.sat", "count"),
    ("portfolio.wins.bdd", "count"),
    ("portfolio.wins.explicit", "count"),
    ("sat.solve.ms", "ms"),
    ("sat.conflicts", "count"),
    ("bdd.fixpoint.ms", "ms"),
    ("bdd.peak_nodes", "count"),
    ("engine.build.ms", "ms"),
    ("engine.build.states", "count"),
    ("worker.task.ms", "ms"),
    ("literals_total", "count"),
    ("csc_signals_total", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_share", "fraction"),
]

ITEM = "item"


def _states(sg) -> Dict[str, int]:
    return {"states": len(sg)}


def _cubes(cover) -> Dict[str, int]:
    return {"cubes": len(cover)}


def _returned(candidates) -> Dict[str, int]:
    return {"returned": len(candidates)}


def _composed(report) -> Dict[str, int]:
    return {"states": report.states}


def _verdict(verdict) -> Dict[str, float]:
    counts = {key: verdict.stats.get(key, 0)
              for key in ("attempts", "retries", "cancellations", "degradations")}
    counts["race_ms"] = verdict.elapsed_s * 1000.0
    engine = "explicit" if verdict.engine in ("compiled", "naive") else verdict.engine
    counts["wins." + engine] = 1
    return counts


#: Program functions wrapped where their callers look them up:
#: (module, attribute, span name, counts taken from the result).
PROGRAM_TARGETS = [
    ("repro.synth.csc", "is_live", "petri.is_live", None),
    ("repro.synth.csc", "check_implementability",
     "analysis.check_implementability", None),
    ("repro.synth.csc", "enumerate_insertions", "synth.csc.enumerate_insertions",
     _returned),
    ("repro.analysis.implementability", "build_state_graph",
     "ts.build_state_graph", _states),
    ("repro.synth.complex_gate", "build_state_graph", "ts.build_state_graph",
     _states),
    ("repro.synth.latch", "build_state_graph", "ts.build_state_graph", _states),
    ("repro.tech.decompose", "build_state_graph", "ts.build_state_graph",
     _states),
    ("repro.verify.composition", "build_state_graph", "ts.build_state_graph",
     _states),
    ("repro.tech.decompose", "verify_circuit", "tech.decompose.verify_circuit",
     None),
    ("repro.synth.latch", "minimize", "boolmin.minimize", _cubes),
    ("repro.synth.nextstate", "minimize", "boolmin.minimize", _cubes),
]

#: Names of the benchmark's own calls into the program.
ARCH_SPANS = {"cg": "synth.synthesize.cg", "gc": "synth.synthesize.gc",
              "sr": "synth.synthesize.sr", "decompose": "tech.decompose"}


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: entering installs every wrapper and arms
    :mod:`repro.obs` with the tracer's memory sink, leaving restores both.
    Spans and records accumulate across entries.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._undo: List[Callable[[], None]] = []
        self._tracing: Optional[obs.tracing] = None
        self.sink = obs.MemorySink()

    # -- recording ------------------------------------------------------ #

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            # every span opened so far is either closed or still open, so
            # this counts them: ids are unique and increasing
            span = {"id": len(spans) + len(stack),
                    "parent": stack[-1]["id"] if stack else None,
                    "name": name, "start_s": rel_time(), "counters": {}}
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end_s"] = rel_time()
                stack.pop()
                spans.append(span)
            if count is not None:
                span["counters"] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, count))
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_entry(self, table: dict, key: str, name: str, count=None) -> None:
        original = table[key]
        table[key] = self.wrap(name, original, count)
        self._undo.append(lambda: table.__setitem__(key, original))

    def __enter__(self) -> "Tracer":
        for module, attr, name, count in PROGRAM_TARGETS:
            self._patch(importlib.import_module(module), attr, name, count)
        self._patch(importlib.import_module("repro.stg.stg").STG,
                    "insert_signal", "stg.insert_signal")
        self._patch(flow, "parse_g", "stg.parse_g")
        self._patch(flow, "resolve_csc", "synth.resolve_csc")
        self._patch(flow, "verify_circuit", "verify.verify_circuit", _composed)
        for arch, name in ARCH_SPANS.items():
            self._patch_entry(flow.SYNTHESIZERS, arch, name)
        for query in flow.QUERIES:
            self._patch_entry(flow.QUERIES, query, "portfolio.check", _verdict)
        self._tracing = obs.tracing(self.sink)
        self._tracing.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._tracing.__exit__(*exc)
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def paused(self):
        """Keep the output checks' own engine calls out of the trace."""
        obs.disable()
        try:
            yield
        finally:
            obs.enable()

    # -- analysis ------------------------------------------------------- #

    def _by_name(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def _self_times(self) -> Dict[int, float]:
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end_s"] - s["start_s"])
        return {s["id"]: s["end_s"] - s["start_s"] - child_time.get(s["id"], 0.0)
                for s in self.spans}

    def attributed_share(self) -> float:
        """Share of item wall time spent inside named layer spans."""
        self_times = self._self_times()
        items = self._by_name(ITEM)
        total = sum(s["end_s"] - s["start_s"] for s in items)
        unattributed = sum(self_times[s["id"]] for s in items)
        return 1.0 - unattributed / total if total else 0.0

    def _orchestration_ms(self) -> float:
        """Check time not covered by any worker's task span."""
        tasks = sorted((r["start_s"], r["start_s"] + r["duration_s"])
                       for r in self.sink.spans("worker.task"))
        gap = 0.0
        for check in self._by_name("portfolio.check"):
            lo, hi = check["start_s"], check["end_s"]
            covered, reach = 0.0, lo
            for start, end in tasks:
                start, end = max(start, reach), min(end, hi)
                if end > start:
                    covered += end - start
                    reach = end
            gap += hi - lo - covered
        return gap * 1000.0

    def metrics(self, passes: int, overhead_pct: float,
                literals: int, csc_signals: int) -> Dict[str, float]:
        """Per-layer metrics, sums divided by the number of passes."""
        values: Dict[str, float] = {}

        def total_ms(name: str) -> float:
            return sum(s["end_s"] - s["start_s"] for s in self._by_name(name)) * 1000.0

        def counter(name: str, key: str) -> float:
            return sum(s["counters"].get(key, 0) for s in self._by_name(name))

        for layer in ("petri.is_live", "analysis.check_implementability",
                      "stg.insert_signal", "ts.build_state_graph",
                      "boolmin.minimize", "tech.decompose"):
            values[layer + ".calls"] = len(self._by_name(layer))
        for layer in ("stg.parse_g", "synth.resolve_csc", "petri.is_live",
                      "analysis.check_implementability", "stg.insert_signal",
                      "ts.build_state_graph", "boolmin.minimize",
                      "synth.synthesize.cg", "synth.synthesize.gc",
                      "synth.synthesize.sr", "tech.decompose",
                      "verify.verify_circuit", "portfolio.check"):
            values[layer + ".ms"] = total_ms(layer)
        parents = {s["id"]: s for s in self.spans}
        values["synth.csc.candidates"] = sum(
            1 for s in self._by_name("stg.insert_signal")
            if _has_ancestor(s, "synth.csc.enumerate_insertions", parents))
        values["ts.states_built"] = counter("ts.build_state_graph", "states")
        values["boolmin.cover_cubes"] = counter("boolmin.minimize", "cubes")
        values["tech.decompose.refused"] = sum(
            1 for s in self._by_name("tech.decompose") if "error" in s)
        values["verify.composed_states"] = counter("verify.verify_circuit", "states")
        values["portfolio.race.ms"] = counter("portfolio.check", "race_ms")
        values["portfolio.validate.ms"] = (values["portfolio.check.ms"]
                                           - values["portfolio.race.ms"])
        values["portfolio.orchestration.ms"] = self._orchestration_ms()
        for key in ("attempts", "retries", "cancellations", "degradations",
                    "wins.sat", "wins.bdd", "wins.explicit"):
            values["portfolio." + key] = counter("portfolio.check", key)
        records = self.sink.records
        for name in ("sat.solve", "bdd.fixpoint", "engine.build", "worker.task"):
            values[name + ".ms"] = sum(r["duration_s"] for r in records
                                       if r["name"] == name) * 1000.0
        values["sat.conflicts"] = self.sink.counter_total("conflicts", "sat.solve")
        values["engine.build.states"] = self.sink.counter_total("states", "engine.build")
        values["literals_total"] = literals
        values["csc_signals_total"] = csc_signals
        values = {k: v / passes for k, v in values.items()}

        returned = counter("synth.csc.enumerate_insertions", "returned")
        tried = values["synth.csc.candidates"] * passes
        values["synth.csc.useful_ratio"] = returned / tried if tried else 0.0
        values["bdd.peak_nodes"] = max(
            [r["gauges"].get("peak_nodes", 0) for r in records
             if r["name"] == "bdd.fixpoint"] or [0])
        values["trace.overhead_pct"] = overhead_pct
        values["trace.attributed_share"] = self.attributed_share()
        return values

    def table(self) -> List[str]:
        """Calls, total and self milliseconds per span name."""
        self_times = self._self_times()
        rows: Dict[str, List[float]] = {}
        for s in self.spans:
            row = rows.setdefault(s["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (s["end_s"] - s["start_s"]) * 1000.0
            row[2] += self_times[s["id"]] * 1000.0
        lines = ["%-36s %8s %12s %12s" % ("span", "calls", "total_ms", "self_ms")]
        for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
            lines.append("%-36s %8d %12.1f %12.1f" % (name, calls, total, own))
        return lines

    def write(self, path: str) -> None:
        """Every benchmark span (with its self time) and every program
        record, one JSON object per line."""
        self_times = self._self_times()
        with open(path, "w") as out:
            for s in self.spans:
                line = dict(s, source="flowbench", self_s=self_times[s["id"]])
                out.write(json.dumps(line) + "\n")
            for r in self.sink.records:
                out.write(json.dumps(dict(r, source="repro.obs"), default=str) + "\n")


def _has_ancestor(span: dict, name: str, spans: Dict[int, dict]) -> bool:
    parent = span["parent"]
    while parent is not None:
        span = spans[parent]
        if span["name"] == name:
            return True
        parent = span["parent"]
    return False
