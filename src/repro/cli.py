"""Command-line interface: the paper's design flow on ``.g`` files.

Usage::

    python -m repro analyze spec.g
    python -m repro states spec.g
    python -m repro waveform spec.g
    python -m repro reduce spec.g
    python -m repro resolve spec.g -o resolved.g
    python -m repro synthesize spec.g --arch cg --verify
    python -m repro synthesize spec.g --decompose --verilog
    python -m repro sat-check spec.g --property deadlock --induction
    python -m repro sat-check spec.g --property csc --json
    python -m repro bdd-check spec.g --query csc
    python -m repro check spec.g --query deadlock --portfolio
    python -m repro check spec.g --query csc --portfolio --faults "kill:attempt=0"
    python -m repro bdd-check spec.g --query count --stats --trace run.jsonl
    python -m repro dot spec.g
    python -m repro examples --list
    python -m repro obs report run.jsonl
    python -m repro obs diff before.jsonl after.jsonl
    python -m repro obs regress BENCH_*.json --baseline benchmarks/baselines.json
    python -m repro obs lint run.jsonl

Observability: ``--stats`` prints a per-span table to stderr,
``--trace FILE`` streams span records as JSONL, and (on ``sat-check`` /
``bdd-check``) ``--json`` replaces the human output with a versioned
machine-readable run report.  The ``obs`` family turns those artifacts
into decisions: span-tree reports, trace diffs, schema lint and
noise-aware benchmark regression checks — see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import obs
from .analysis import check_implementability
from .errors import ReproError
from .petri import linear_reduce, net_to_dot, p_invariants, sm_components
from .stg import ALL_EXAMPLES, load_g, render_waveforms, save_g, write_g
from .synth import (
    resolve_csc,
    synthesize_complex_gates,
    synthesize_gc,
    synthesize_sr,
)
from .tech import decompose, map_netlist
from .timing import TimedMarkedGraph, max_separation
from .ts import build_state_graph
from .verify import verify_circuit


def _load(path: str):
    if path in ALL_EXAMPLES:
        return ALL_EXAMPLES[path]()
    return load_g(path)


class _Telemetry:
    """Arms :mod:`repro.obs` for one CLI command run.

    Driven by the ``--stats`` / ``--trace FILE`` / ``--json`` flags
    (absent flags read as off, so commands can wrap their body
    unconditionally).  While active the layer is enabled, a
    :class:`~repro.obs.sinks.MemorySink` collects records for the
    ``--stats`` table and the ``--json`` run report, and ``--trace``
    streams records to a JSONL file.  On exit the previous enabled
    state and sink set are restored — an ambient ``REPRO_TRACE=1``
    session is left exactly as found — and the ``--stats`` table, if
    requested, is printed to stderr (stdout stays reserved for the
    command's own output).
    """

    def __init__(self, args):
        self.stats = bool(getattr(args, "stats", False))
        self.trace = getattr(args, "trace", None)
        self.json = bool(getattr(args, "json", False))
        self.active = self.stats or self.json or bool(self.trace)
        self.sink: Optional[obs.MemorySink] = None
        self._jsonl: Optional[obs.JsonlSink] = None
        self._was_enabled = False

    def __enter__(self) -> "_Telemetry":
        if self.active:
            self._was_enabled = obs.enabled()
            obs.enable()
            self.sink = obs.add_sink(obs.MemorySink())
            if self.trace:
                self._jsonl = obs.add_sink(obs.JsonlSink(self.trace))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.active:
            return None
        if self._jsonl is not None:
            obs.remove_sink(self._jsonl)
            self._jsonl.close()
        obs.remove_sink(self.sink)
        obs.enable(self._was_enabled)
        if self.stats:
            print(obs.report(self.sink), file=sys.stderr)
        return None

    def run_report(self, command: str, spec: str, verdict: str,
                   exit_code: int, details: dict) -> dict:
        """The ``--json`` document (``repro-run-report/1``): command,
        verdict and per-span aggregates of this run."""
        return {
            "schema": obs.REPORT_SCHEMA,
            "command": command,
            "spec": spec,
            "verdict": verdict,
            "exit_code": exit_code,
            "details": details,
            "stats": self.sink.stats() if self.sink is not None else {},
        }


def cmd_analyze(args) -> int:
    """Implementability report (Section 2)."""
    stg = _load(args.spec)
    with _Telemetry(args):
        report = check_implementability(stg)
    print(report.summary())
    if args.verbose:
        for c in report.csc_conflicts:
            print("  ", c)
        for v in report.persistency_violations:
            print("  ", v)
    return 0 if report.implementable else 1


def cmd_states(args) -> int:
    """Binary-coded state graph listing (Figure 4 style)."""
    stg = _load(args.spec)
    with _Telemetry(args):
        sg = build_state_graph(stg)
    print("# %d states, signals: %s" % (len(sg), " ".join(sg.signal_order)))
    for state in sg.states:
        print("%-30s %s" % (state, sg.code_str(state)))
    return 0


def cmd_waveform(args) -> int:
    """ASCII timing diagram (Figure 2 style)."""
    stg = _load(args.spec)
    print(render_waveforms(stg))
    return 0


def cmd_reduce(args) -> int:
    """Linear reductions, invariants and SM components (Figure 6)."""
    stg = _load(args.spec)
    with _Telemetry(args):
        reduced = linear_reduce(stg.net)
    print("# original: %s" % stg.net.stats())
    print("# reduced:  %s" % reduced.stats())
    for inv in p_invariants(reduced):
        print("invariant: %s = const" %
              " + ".join("M(%s)" % p for p in sorted(inv)))
    for comp in sm_components(reduced):
        print("SM component: places=%s" % sorted(comp.places))
    return 0


def cmd_resolve(args) -> int:
    """CSC resolution by state-signal insertion (Section 3.1)."""
    stg = _load(args.spec)
    resolved = resolve_csc(stg)
    text = write_g(resolved)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print("# wrote %s (inserted: %s)"
              % (args.output, " ".join(resolved.internal) or "none"))
    else:
        print(text, end="")
    return 0


_ARCHITECTURES = {
    "cg": synthesize_complex_gates,
    "gc": synthesize_gc,
    "sr": synthesize_sr,
}


def cmd_synthesize(args) -> int:
    """Logic synthesis, optionally decomposed and verified (Section 3)."""
    stg = _load(args.spec)
    with _Telemetry(args):
        return _synthesize(args, stg)


def _synthesize(args, stg) -> int:
    """The ``synthesize`` flow body (run under the command telemetry)."""
    resolved = resolve_csc(stg)
    if resolved.internal and resolved is not stg:
        print("# CSC resolved by inserting: %s"
              % " ".join(s for s in resolved.internal))
    if args.decompose:
        netlist = decompose(resolved)
        print("# decomposed into: %s" % ", ".join(
            "%s:%s" % (k, v) for k, v in sorted(map_netlist(netlist).items())))
    else:
        netlist = _ARCHITECTURES[args.arch](resolved)
    print(netlist.to_verilog() if args.verilog else netlist.to_eqn())
    if args.verify:
        report = verify_circuit(netlist, stg)
        print()
        print(report.summary())
        return 0 if report.ok else 1
    return 0


def cmd_dot(args) -> int:
    """Graphviz DOT of the underlying Petri net."""
    stg = _load(args.spec)
    print(net_to_dot(stg.net, title=stg.name))
    return 0


def cmd_separation(args) -> int:
    """Maximum time separation of two events (Section 5)."""
    stg = _load(args.spec)
    with open(args.delays) as f:
        raw = json.load(f)
    delays = {k: tuple(v) for k, v in raw.items()}
    tmg = TimedMarkedGraph(stg.net, delays)
    value = max_separation(tmg, args.early, args.late,
                           occurrence_offset=args.offset)
    print("max sep(%s, %s) = %g" % (args.early, args.late, value))
    return 0 if value < 0 else 1


def cmd_testbench(args) -> int:
    """Verilog netlist plus self-checking testbench (Section 6)."""
    stg = _load(args.spec)
    resolved = resolve_csc(stg)
    netlist = _ARCHITECTURES[args.arch](resolved)
    from .synth import generate_testbench

    print(netlist.to_verilog())
    print()
    print(generate_testbench(stg, netlist, cycles=args.cycles))
    return 0


def cmd_coverability(args) -> int:
    """Karp-Miller boundedness analysis."""
    from .petri import build_coverability_graph

    stg = _load(args.spec)
    graph = build_coverability_graph(stg.net)
    print("nodes: %d, bounded: %s" % (len(graph.nodes), graph.is_bounded()))
    for p in graph.unbounded_places():
        print("unbounded place: %s" % p)
    for t in graph.dead_transitions():
        print("dead transition: %s" % t)
    return 0 if graph.is_bounded() else 1


def cmd_simulate(args) -> int:
    """Monte-Carlo timed simulation of a marked-graph STG."""
    stg = _load(args.spec)
    with open(args.delays) as f:
        raw = json.load(f)
    delays = {k: tuple(v) for k, v in raw.items()}
    from .timing import simulate

    tmg = TimedMarkedGraph(stg.net, delays)
    trace = simulate(tmg, cycles=args.cycles, seed=args.seed)
    reference = sorted(stg.net.transitions)[0]
    estimate = trace.cycle_time_estimate(reference)
    print("# %d cycles simulated (seed %d)" % (args.cycles, args.seed))
    if estimate is not None:
        print("estimated cycle time (via %s): %.3f" % (reference, estimate))
    for t in sorted(trace.times):
        first = trace.times[t][:5]
        print("%-12s %s" % (t, " ".join("%.2f" % x for x in first)))
    return 0


def _sat_check_cnf(stg, prop: str, bound: int, target=None, cover=False):
    """The CNF whose satisfiability answers a ``sat-check`` query.

    Used by ``--dimacs``: the dumped formula is satisfiable iff the
    query's bounded counterexample exists, so any external DIMACS solver
    reproduces the verdict printed by the command.  (Under
    ``--induction`` the dump covers the BMC base case only — a ``Proved``
    or ``Unknown`` verdict additionally depends on the inductive-step
    unrolling, which is flagged in the DIMACS comment header.)
    """
    from .sat import CNF, STGEncoding
    from .sat.queries import csc_pair_lits

    if prop == "csc":
        cnf = CNF()
        enc_a = STGEncoding(stg, cnf=cnf, prefix="A.")
        enc_b = STGEncoding(stg, cnf=cnf, prefix="B.")
        enc_a.ensure_steps(bound)
        enc_b.ensure_steps(bound)
        equal, different = csc_pair_lits(stg, cnf, enc_a, enc_b, bound)
        for lit in equal:
            cnf.add_clause(lit)
        cnf.add_clause(different)
        return cnf
    if prop == "consistency":
        encoding = STGEncoding(stg, track_consistency=True)
        encoding.ensure_steps(bound)
        encoding.cnf.add_clause(
            *[encoding.violation_lit(i) for i in range(bound)])
        return encoding.cnf
    encoding = STGEncoding(stg)
    encoding.ensure_steps(bound)
    if prop == "deadlock":
        encoding.cnf.add_clause(encoding.deadlock_lit(bound))
    else:  # reach
        for lit in encoding.marking_lits(bound, target, partial=cover):
            encoding.cnf.add_clause(lit)
    return encoding.cnf


def _sat_check_verdict(args, stg, target):
    """Run one ``sat-check`` query.

    Returns ``(verdict, exit_code, details, lines)``: a stable verdict
    string and a details dict for the ``--json`` run report, plus the
    human-readable output lines (printed unless ``--json``).
    """
    from .petri import find_deadlocks
    from .sat import (
        consistency_violation,
        csc_conflict,
        find_deadlock,
        prove_deadlock_free,
        reach_marking,
    )
    from .sat.kinduction import Proved, Refuted

    if args.property == "deadlock":
        if args.induction:
            outcome = prove_deadlock_free(stg, max_k=args.bound)
            if isinstance(outcome, Proved):
                return ("proved", 0, {"k": outcome.k},
                        ["deadlock-free: proved by %d-induction"
                         % outcome.k])
            if isinstance(outcome, Refuted):
                w = outcome.witness
                dead = find_deadlocks(stg.net,
                                      markings=[w.final_marking])[0]
                return ("refuted", 1,
                        {"k": outcome.k, "trace": list(w.transitions),
                         "dead_marking": {p: n for p, n in dead.items()}},
                        ["deadlock reachable: %s" % " ".join(w.transitions),
                         "dead marking: %r" % dead])
            return ("unknown", 1,
                    {"k": outcome.k, "reason": outcome.reason},
                    ["unknown at k=%d (%s; raise --bound)"
                     % (outcome.k, outcome.reason)])
        witness = find_deadlock(stg, bound=args.bound)
        if witness is None:
            return ("no-deadlock", 0, {},
                    ["no deadlock within %d steps" % args.bound])
        dead = find_deadlocks(stg.net, markings=[witness.final_marking])[0]
        return ("deadlock", 1,
                {"trace": list(witness.transitions),
                 "dead_marking": {p: n for p, n in dead.items()}},
                ["deadlock reachable: %s" % " ".join(witness.transitions),
                 "dead marking: %r" % dead])

    if args.property == "reach":
        witness = reach_marking(stg, target, bound=args.bound,
                                partial=args.cover)
        if witness is None:
            return ("unreachable", 0, {},
                    ["target not reachable within %d steps" % args.bound])
        return ("reached", 1,
                {"trace": list(witness.transitions),
                 "final_marking": {p: n for p, n
                                   in witness.final_marking.items()}},
                ["reached %r via: %s" % (witness.final_marking,
                                         " ".join(witness.transitions))])

    if args.property == "csc":
        conflict = csc_conflict(stg, bound=args.bound)
        if conflict is None:
            return ("no-conflict", 0, {},
                    ["no CSC conflict within %d steps" % args.bound])
        return ("conflict", 1,
                {"trace_a": list(conflict.trace_a.transitions),
                 "trace_b": list(conflict.trace_b.transitions)},
                [str(conflict),
                 "trace a: %s" % " ".join(conflict.trace_a.transitions),
                 "trace b: %s" % " ".join(conflict.trace_b.transitions)])

    # consistency
    witness = consistency_violation(stg, bound=args.bound)
    if witness is None:
        return ("consistent", 0, {},
                ["no consistency violation within %d steps" % args.bound])
    return ("violation", 1, {"trace": list(witness.transitions)},
            ["consistency violation: %s" % " ".join(witness.transitions)])


def cmd_sat_check(args) -> int:
    """SAT-based bounded model checking / k-induction (no state graph)."""
    from .petri import Marking

    stg = _load(args.spec)

    if args.engine == "portfolio":
        # delegate to the fault-tolerant racing layer (same properties,
        # portfolio verdict vocabulary — see docs/portfolio.md)
        if args.dimacs:
            print("error: --dimacs requires --engine sat", file=sys.stderr)
            return 2
        target = None
        if args.property == "reach":
            if not args.target:
                print("error: --property reach requires --target",
                      file=sys.stderr)
                return 2
            target = {p: 1 for p in args.target.split()}
        options = {"bound": args.bound, "max_k": args.bound}
        if target is not None:
            options["target"] = target
            options["cover"] = args.cover
        with _Telemetry(args) as tel:
            verdict, code, details, lines = _portfolio_verdict(
                stg, args.property, options)
        if args.json:
            details = dict(details, property=args.property,
                           bound=args.bound)
            print(json.dumps(tel.run_report("sat-check", args.spec,
                                            verdict, code, details),
                             sort_keys=True))
        else:
            for line in lines:
                print(line)
        return code

    if args.induction and args.property != "deadlock":
        # only the deadlock query has a k-induction proof path; silently
        # running plain BMC would dress a bounded miss up as a proof
        print("error: --induction is only supported for"
              " --property deadlock", file=sys.stderr)
        return 2

    target = None
    if args.property == "reach":
        if not args.target:
            print("error: --property reach requires --target", file=sys.stderr)
            return 2
        target = Marking({p: 1 for p in args.target.split()})

    lines: List[str] = []
    if args.dimacs:
        cnf = _sat_check_cnf(stg, args.property, args.bound,
                             target=target, cover=args.cover)
        comments = ["repro sat-check %s --property %s --bound %d"
                    % (stg.name, args.property, args.bound)]
        if args.induction:
            # the dump covers the bounded (base-case) query only; the
            # inductive step lives in a second, unanchored unrolling
            comments.append("bounded counterexample query only —"
                            " induction step not included")
        with open(args.dimacs, "w") as f:
            f.write(cnf.to_dimacs(comments=comments))
        lines.append("# wrote %s (%d vars, %d clauses%s)"
                     % (args.dimacs, cnf.num_vars, len(cnf.clauses),
                        ", base case only" if args.induction else ""))

    with _Telemetry(args) as tel:
        verdict, code, details, qlines = _sat_check_verdict(args, stg,
                                                            target)
    lines.extend(qlines)
    if args.json:
        details = dict(details, property=args.property, bound=args.bound)
        if args.dimacs:
            details["dimacs"] = args.dimacs
        print(json.dumps(tel.run_report("sat-check", args.spec, verdict,
                                        code, details), sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _bdd_check_verdict(args, stg, net):
    """Run one ``bdd-check`` query.

    Returns ``(verdict, exit_code, details, lines)`` exactly as
    :func:`_sat_check_verdict` does for ``sat-check``.
    """
    from .bdd import (
        DenseSymbolicReachability,
        SymbolicCSC,
        SymbolicReachability,
    )

    if args.query == "count":
        if args.encoding == "dense":
            dense = DenseSymbolicReachability(net)
            count = dense.count()
            details = {"reachable": count, "encoding": "dense",
                       "variables": dense.encoding.width,
                       "bdd_nodes": dense.bdd_size()}
            return ("counted", 0, details,
                    ["reachable codes: %d (dense: %d variables, %d BDD"
                     " nodes)" % (count, dense.encoding.width,
                                  dense.bdd_size())])
        sym = SymbolicReachability(net, place_order=args.order)
        sym.assert_safe()
        count = sym.count()
        details = {"reachable": count, "encoding": "naive",
                   "places": len(sym.places),
                   "bdd_nodes": sym.bdd_size()}
        return ("counted", 0, details,
                ["reachable markings: %d (%d places, %d BDD nodes)"
                 % (count, len(sym.places), sym.bdd_size())])

    if args.query == "deadlock":
        sym = SymbolicReachability(net, place_order=args.order)
        dead = sym.find_deadlock()
        if dead is None:
            count = sym.count()
            return ("deadlock-free", 0, {"reachable": count},
                    ["deadlock-free: proved by symbolic fixpoint"
                     " (%d reachable markings)" % count])
        return ("deadlock", 1,
                {"dead_marking": {p: n for p, n in dead.items()}},
                ["dead marking: %r" % dead])

    # csc
    analysis = SymbolicCSC(stg, place_order=args.order)
    if not analysis.has_conflict():
        return ("no-conflict", 0,
                {"conflicting_codes": 0,
                 "signals": list(analysis.signals)},
                ["CSC holds: no two reachable states share a code with"
                 " different non-input excitation"])
    parities = analysis.conflict_parities()
    lines = ["CSC conflict: %d conflicting code(s) over signals %s"
             % (len(parities), " ".join(analysis.signals))]
    lines.extend("  code (xor initial): %s" % "".join(map(str, vec))
                 for vec in parities)
    return ("conflict", 1,
            {"conflicting_codes": len(parities),
             "signals": list(analysis.signals),
             "parities": ["".join(map(str, vec)) for vec in parities]},
            lines)


def cmd_bdd_check(args) -> int:
    """Symbolic BDD fixpoint queries — no state graph (Section 2.2)."""
    stg = _load(args.spec)
    if args.engine == "portfolio":
        if args.query == "count":
            print("error: --query count has no portfolio mode (it is not"
                  " a verdict query)", file=sys.stderr)
            return 2
        if args.reduce:
            print("error: --reduce requires --engine bdd", file=sys.stderr)
            return 2
        with _Telemetry(args) as tel:
            verdict, code, details, lines = _portfolio_verdict(
                stg, args.query, {})
        if args.json:
            details = dict(details, query=args.query)
            print(json.dumps(tel.run_report("bdd-check", args.spec,
                                            verdict, code, details),
                             sort_keys=True))
        else:
            for line in lines:
                print(line)
        return code
    if args.encoding == "dense" and args.query != "count":
        print("error: --encoding dense is only supported for --query count",
              file=sys.stderr)
        return 2
    if args.reduce and args.query == "csc":
        print("error: --reduce applies to net-level queries"
              " (count, deadlock) only", file=sys.stderr)
        return 2

    with _Telemetry(args) as tel:
        net = stg.net
        if args.reduce:
            net = linear_reduce(net)
        verdict, code, details, lines = _bdd_check_verdict(args, stg, net)
    if args.reduce:
        # every answer is about the reduced net, whose markings are not
        # the specification's: say so next to the number
        details = dict(details, reduced_net=True)
        lines[0] += " [linearly reduced net, not the specification]"
    if args.json:
        details = dict(details, query=args.query)
        print(json.dumps(tel.run_report("bdd-check", args.spec, verdict,
                                        code, details), sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _portfolio_options(args, target=None) -> dict:
    """Translate CLI flags into :func:`repro.portfolio.check_*` options."""
    options = {"cross_validate": not getattr(args, "no_validate", False),
               "inline": bool(getattr(args, "inline", False))}
    if getattr(args, "deadline", None) is not None:
        options["deadline_s"] = args.deadline
    if getattr(args, "bound", None) is not None:
        options["bound"] = args.bound
    if getattr(args, "max_k", None) is not None:
        options["max_k"] = args.max_k
    if getattr(args, "max_states", None) is not None:
        options["max_states"] = args.max_states
    if getattr(args, "engines", None):
        options["engines"] = [e.strip() for e in args.engines.split(",")
                              if e.strip()]
    if target is not None:
        options["target"] = target
        options["cover"] = bool(getattr(args, "cover", False))
    return options


def _portfolio_verdict(stg, query: str, options: dict):
    """Run one portfolio query and flatten the :class:`Verdict` into the
    ``(verdict, exit_code, details, lines)`` shape all checkers share.

    Exit codes: 0 for the good answer, 1 for the bad or unknown one,
    2 for a flagged cross-validation disagreement (``inconsistent``).
    """
    from . import portfolio

    target = options.pop("target", None)
    cover = options.pop("cover", False)
    if query == "deadlock":
        verdict = portfolio.check_deadlock(stg, **options)
    elif query == "reach":
        verdict = portfolio.check_reach(stg, target or {}, cover=cover,
                                        **options)
    elif query == "csc":
        verdict = portfolio.check_csc(stg, **options)
    else:
        verdict = portfolio.check_consistency(stg, **options)

    if verdict.flagged:
        code = 2
    elif bool(verdict) and verdict.definitive:
        code = 0
    else:
        code = 1
    details = {
        "query": verdict.query,
        "engine": verdict.engine,
        "method": verdict.method,
        "definitive": verdict.definitive,
        "flagged": verdict.flagged,
        "validator": verdict.validator,
        "evidence": verdict.evidence,
        "attempts": verdict.attempts,
        "degradations": verdict.degradations,
        "robustness": dict(verdict.stats),
        "elapsed_s": round(verdict.elapsed_s, 6),
    }
    if verdict.witness is not None:
        details["witness"] = list(verdict.witness)
    if "disagreement" in verdict.details:
        details["disagreement"] = verdict.details["disagreement"]

    lines = ["%s (winner: %s/%s%s)"
             % (verdict.verdict, verdict.engine, verdict.method,
                ", validated by %s" % verdict.validator
                if verdict.validator else "")]
    if verdict.evidence:
        lines.append("evidence: %s" % verdict.evidence)
    if verdict.witness:
        lines.append("witness: %s" % " ".join(verdict.witness))
    if "disagreement" in verdict.details:
        lines.append("DISAGREEMENT: %s" % verdict.details["disagreement"])
    busy = {k: n for k, n in verdict.stats.items() if n}
    lines.append("robustness: %s"
                 % " ".join("%s=%d" % kv for kv in sorted(busy.items())))
    return verdict.verdict, code, details, lines


def cmd_check(args) -> int:
    """Portfolio model checking: race the engines, cross-validate the
    winner (see ``docs/portfolio.md``)."""
    from .portfolio import faults

    stg = _load(args.spec)
    target = None
    if args.query == "reach":
        if not args.target:
            print("error: --query reach requires --target", file=sys.stderr)
            return 2
        target = {p: 1 for p in args.target.split()}
        # a bad place name is a usage error, not an engine fault — catch
        # it here instead of letting every racer fail on it
        net = stg.net if hasattr(stg, "net") else stg
        for p in target:
            if p not in net.places:
                print("error: unknown place %r in target marking" % p,
                      file=sys.stderr)
                return 2

    options = _portfolio_options(args, target=target)
    if not args.portfolio and "engines" not in options:
        # single-slot mode: keep only the schedule's first engine (its
        # degradation ladder still applies) and skip worker processes
        from .ts import choose_engine
        options["engines"] = [choose_engine(stg, purpose="portfolio")[0]]
        options["inline"] = True

    installed = faults.install(args.faults) if args.faults else None
    try:
        with _Telemetry(args) as tel:
            verdict, code, details, lines = _portfolio_verdict(
                stg, args.query, options)
    finally:
        if installed is not None:
            faults.clear()
    if args.json:
        print(json.dumps(tel.run_report("check", args.spec, verdict,
                                        code, details), sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def cmd_examples(args) -> int:
    """List the bundled example specifications."""
    for name in sorted(ALL_EXAMPLES):
        stg = ALL_EXAMPLES[name]()
        print("%-32s in=%s out=%s %s"
              % (name, ",".join(stg.inputs), ",".join(stg.outputs),
                 stg.net.stats()))
    return 0


def cmd_obs_report(args) -> int:
    """Span-tree flamegraph of a recorded trace (``repro obs report``)."""
    from .obs import analyze

    try:
        records = analyze.read_trace(args.trace)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(analyze.render_report(records))
    if args.coverage:
        share = analyze.coverage(records, args.coverage)
        print("coverage(%s): %.1f%% of wall-clock attributed to child"
              " spans" % (args.coverage, share * 100.0))
    return 0


def cmd_obs_diff(args) -> int:
    """Per-span comparison of two traces (``repro obs diff``)."""
    import os

    from .obs import analyze

    try:
        a = analyze.read_trace(args.a)
        b = analyze.read_trace(args.b)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(analyze.render_diff(a, b,
                              a_label=os.path.basename(args.a) or "a",
                              b_label=os.path.basename(args.b) or "b"))
    return 0


def cmd_obs_regress(args) -> int:
    """Noise-aware benchmark regression check (``repro obs regress``).

    Exit codes: 0 when every benchmark is within thresholds, 1 when at
    least one regressed beyond recorded noise, 2 on unloadable or
    schema-invalid input.
    """
    from .obs import analyze

    try:
        baseline = analyze.load_baseline(args.baseline)
        docs = [analyze.load_bench_file(p) for p in args.bench]
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    entries = analyze.compare_bench(docs, baseline, rel_tol=args.rel_tol,
                                    sigma=args.sigma,
                                    min_abs_s=args.min_abs)
    print(analyze.render_regress(entries))
    return 1 if any(e["status"] == "regression" for e in entries) else 0


def cmd_obs_baseline(args) -> int:
    """Distil ``BENCH_*.json`` files into a committed baseline document
    (``repro obs baseline``)."""
    from .obs import analyze

    try:
        docs = [analyze.load_bench_file(p) for p in args.bench]
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    doc = analyze.make_baseline(docs)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print("# wrote %s (%d suites)" % (args.output, len(doc["suites"])))
    else:
        print(text, end="")
    return 0


def cmd_obs_lint(args) -> int:
    """Trace-schema lint (``repro obs lint``) — same checks and exit
    codes as the ``python -m repro.obs`` module alias."""
    from .obs.__main__ import main as lint_main

    return lint_main(args.traces)


def _add_telemetry_flags(p: argparse.ArgumentParser,
                         json_flag: bool = False) -> None:
    """Attach the shared observability flags to a subcommand parser.

    ``--stats`` and ``--trace`` are available on every instrumented
    command; ``--json`` (machine-readable run report) only where the
    command defines a report shape (``sat-check`` / ``bdd-check``).
    """
    p.add_argument("--stats", action="store_true",
                   help="print a per-span stats table to stderr"
                        " (see docs/observability.md)")
    p.add_argument("--trace", metavar="FILE",
                   help="stream span records to FILE as JSONL"
                        " (repro-trace/1 schema)")
    if json_flag:
        p.add_argument("--json", action="store_true",
                       help="print a machine-readable run report"
                            " (repro-run-report/1) instead of the human"
                            " output")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STG-based asynchronous interface analysis and"
                    " synthesis (DAC'98 methodology). SPEC is a .g file or"
                    " a bundled example name (see `examples`).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="implementability report (Section 2)")
    p.add_argument("spec")
    p.add_argument("-v", "--verbose", action="store_true")
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("states", help="binary-coded state graph (Figure 4)")
    p.add_argument("spec")
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("waveform", help="ASCII timing diagram (Figure 2)")
    p.add_argument("spec")
    p.set_defaults(func=cmd_waveform)

    p = sub.add_parser("reduce", help="linear reductions + SM components"
                                      " (Figure 6)")
    p.add_argument("spec")
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("resolve", help="CSC resolution by signal insertion"
                                       " (Section 3.1)")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("synthesize", help="logic synthesis (Section 3)")
    p.add_argument("spec")
    p.add_argument("--arch", choices=sorted(_ARCHITECTURES), default="cg",
                   help="complex gates (cg), generalized C (gc), RS latch"
                        " (sr)")
    p.add_argument("--decompose", action="store_true",
                   help="two-input hazard-free decomposition (Section 3.4)")
    p.add_argument("--verilog", action="store_true")
    p.add_argument("--verify", action="store_true",
                   help="verify the circuit against the specification")
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("dot", help="Graphviz DOT of the Petri net")
    p.add_argument("spec")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("separation", help="max time separation of events"
                                          " (Section 5)")
    p.add_argument("spec")
    p.add_argument("early")
    p.add_argument("late")
    p.add_argument("--delays", required=True,
                   help="JSON file: {transition: [min, max], ...}")
    p.add_argument("--offset", type=int, default=0,
                   help="occurrence offset of `early` relative to `late`")
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser("testbench", help="Verilog netlist + self-checking"
                                         " testbench (Section 6, ref [27])")
    p.add_argument("spec")
    p.add_argument("--arch", choices=sorted(_ARCHITECTURES), default="cg")
    p.add_argument("--cycles", type=int, default=4)
    p.set_defaults(func=cmd_testbench)

    p = sub.add_parser("coverability", help="Karp–Miller boundedness check")
    p.add_argument("spec")
    p.set_defaults(func=cmd_coverability)

    p = sub.add_parser("simulate", help="Monte-Carlo timed simulation")
    p.add_argument("spec")
    p.add_argument("--delays", required=True)
    p.add_argument("--cycles", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sat-check", help="SAT-based bounded model checking"
                                         " / k-induction (no state graph)")
    p.add_argument("spec")
    p.add_argument("--property", choices=["deadlock", "reach", "csc",
                                          "consistency"],
                   default="deadlock")
    p.add_argument("--bound", type=int, default=20,
                   help="BMC unrolling depth / max induction k")
    p.add_argument("--induction", action="store_true",
                   help="deadlock: prove freedom by k-induction instead of"
                        " a bounded search")
    p.add_argument("--target",
                   help="reach: space-separated marked places")
    p.add_argument("--cover", action="store_true",
                   help="reach: cover query (only marked places"
                        " constrained)")
    p.add_argument("--dimacs", metavar="FILE",
                   help="dump the unrolled CNF in DIMACS format")
    p.add_argument("--engine", choices=["sat", "portfolio"], default="sat",
                   help="portfolio: race all applicable engines instead of"
                        " running SAT alone (see `check`)")
    _add_telemetry_flags(p, json_flag=True)
    p.set_defaults(func=cmd_sat_check)

    p = sub.add_parser("bdd-check", help="symbolic BDD fixpoint queries"
                                         " (no state graph)")
    p.add_argument("spec")
    p.add_argument("--query", choices=["count", "deadlock", "csc"],
                   default="count")
    p.add_argument("--encoding", choices=["naive", "dense"], default="naive",
                   help="count: state encoding (dense = SM-component codes)")
    p.add_argument("--order", choices=["dfs", "sorted"], default="dfs",
                   help="BDD variable-order heuristic")
    p.add_argument("--reduce", action="store_true",
                   help="linear-reduce the net first (count/deadlock"
                        " only); the answer is about the reduced net and is"
                        " labelled so")
    p.add_argument("--engine", choices=["bdd", "portfolio"], default="bdd",
                   help="portfolio: race all applicable engines instead of"
                        " running the BDD fixpoint alone (see `check`)")
    _add_telemetry_flags(p, json_flag=True)
    p.set_defaults(func=cmd_bdd_check)

    p = sub.add_parser("check", help="fault-tolerant portfolio model"
                                     " checking (races the engines)")
    p.add_argument("spec")
    p.add_argument("--query", choices=["deadlock", "reach", "csc",
                                       "consistency"],
                   default="deadlock")
    p.add_argument("--portfolio", action="store_true",
                   help="race every applicable engine in worker processes"
                        " (default: the auto-chosen engine alone,"
                        " in-process)")
    p.add_argument("--engines",
                   help="comma-separated engine slots to race (overrides"
                        " the auto schedule; implies racing)")
    p.add_argument("--target",
                   help="reach: space-separated marked places")
    p.add_argument("--cover", action="store_true",
                   help="reach: cover query (only marked places"
                        " constrained)")
    p.add_argument("--deadline", type=float, metavar="SECONDS",
                   help="per-worker wall-clock deadline")
    p.add_argument("--bound", type=int,
                   help="BMC depth for bounded ladder rungs")
    p.add_argument("--max-k", type=int, dest="max_k",
                   help="k-induction depth limit")
    p.add_argument("--max-states", type=int, dest="max_states",
                   help="state budget for explicit ladder rungs")
    p.add_argument("--inline", action="store_true",
                   help="run ladders sequentially in-process (no worker"
                        " processes)")
    p.add_argument("--no-validate", action="store_true", dest="no_validate",
                   help="skip cross-validation of the winning verdict")
    p.add_argument("--faults", metavar="SPEC",
                   help="install a fault-injection plan for this run"
                        " (REPRO_FAULTS syntax, e.g. 'kill:attempt=0')")
    _add_telemetry_flags(p, json_flag=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("examples", help="list bundled specifications")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("obs", help="telemetry analysis: trace reports,"
                                   " diffs, lint, benchmark regression")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser("report", help="span-tree flamegraph of a"
                                          " JSONL trace")
    q.add_argument("trace", help="repro-trace/1 JSONL file (from --trace)")
    q.add_argument("--coverage", metavar="SPAN",
                   help="also print how much of SPAN's wall-clock its"
                        " child spans cover (e.g. portfolio.race)")
    q.set_defaults(func=cmd_obs_report)

    q = obs_sub.add_parser("diff", help="compare two traces per span name")
    q.add_argument("a", help="baseline trace (JSONL)")
    q.add_argument("b", help="candidate trace (JSONL)")
    q.set_defaults(func=cmd_obs_diff)

    q = obs_sub.add_parser("regress", help="judge BENCH_*.json against the"
                                           " committed baseline")
    q.add_argument("bench", nargs="+",
                   help="BENCH_<suite>.json files (repro-bench/1 or /2)")
    q.add_argument("--baseline", default="benchmarks/baselines.json",
                   help="repro-bench-baseline/1 document (default:"
                        " benchmarks/baselines.json)")
    q.add_argument("--rel-tol", type=float, dest="rel_tol", default=0.15,
                   help="relative threshold as a fraction of the baseline"
                        " mean (default 0.15)")
    q.add_argument("--sigma", type=float, default=3.0,
                   help="noise threshold in combined standard deviations"
                        " (default 3.0)")
    q.add_argument("--min-abs", type=float, dest="min_abs", default=0.001,
                   help="absolute floor in seconds below which movements"
                        " never count (default 0.001)")
    q.set_defaults(func=cmd_obs_regress)

    q = obs_sub.add_parser("baseline", help="distil BENCH_*.json files into"
                                            " a baseline document")
    q.add_argument("bench", nargs="+",
                   help="BENCH_<suite>.json files (later files win on"
                        " suite collisions)")
    q.add_argument("-o", "--output",
                   help="write the baseline here instead of stdout")
    q.set_defaults(func=cmd_obs_baseline)

    q = obs_sub.add_parser("lint", help="validate traces against the"
                                        " repro-trace/1 schema")
    q.add_argument("traces", nargs="+",
                   help="JSONL trace files to validate")
    q.set_defaults(func=cmd_obs_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
