"""The timed call of each item, and the untimed check of its output.

:func:`execute` is the only code inside the timed region: it parses the
item's ``.g`` text and runs the program's flow on it — CSC resolution,
synthesis plus verification, or one portfolio verdict.  It calls the
program through this module's globals, so the traced run can wrap them
(see :mod:`flowbench.trace`) while the untraced run calls the program
directly.

:class:`Checker` classifies each outcome after the clock has stopped:

* ``ok`` — the output passed every check against the known answers;
* ``refused`` — the program declined with its documented refusal
  (``CSCError`` from the resolver, ``SynthesisError`` from
  ``tech.decompose``, an ``unknown`` verdict);
* ``failed`` — a wrong answer, a failed check, or any other exception.

The checks use paths independent of the one under test: CSC of a
resolved spec is confirmed by the symbolic query
(:func:`repro.bdd.has_csc_conflict`), a circuit's gates are evaluated on
every reachable state of the specification, and known equations are
compared with :func:`repro.boolmin.equivalent` on the reachable codes.
Identical outputs are checked once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import portfolio
from repro.bdd import has_csc_conflict
from repro.boolmin import And, Not, Or, Var, equivalent, parse_expr
from repro.errors import CSCError, SynthesisError
from repro.stg import parse_g, write_g
from repro.synth import (GateKind, resolve_csc, synthesize_complex_gates,
                         synthesize_gc, synthesize_sr)
from repro.tech import decompose
from repro.ts import build_state_graph
from repro.verify import verify_circuit

SYNTHESIZERS = {"cg": synthesize_complex_gates, "gc": synthesize_gc,
                "sr": synthesize_sr, "decompose": decompose}

QUERIES = {"deadlock": portfolio.check_deadlock,
           "csc": portfolio.check_csc,
           "consistency": portfolio.check_consistency,
           "reach": portfolio.check_reach}

#: The documented refusal of each operation.
REFUSALS = {"resolve": CSCError, "decompose": SynthesisError}

STATUSES = ("ok", "refused", "failed")


def execute(item):
    """Run the program on one item and return what the check needs."""
    spec = parse_g(item.text)
    if item.op == "resolve":
        return spec, resolve_csc(spec)
    if item.op in SYNTHESIZERS:
        netlist = SYNTHESIZERS[item.op](spec)
        return spec, netlist, verify_circuit(netlist, spec)
    if item.op == "reach":
        return QUERIES["reach"](spec, item.target)
    return QUERIES[item.op](spec)


class Checker:
    """Classifies outcomes; keeps the tallies of one run.

    ``csc_signals`` and ``literals`` sum the quality of the outputs that
    passed: state signals inserted by the resolver, and
    ``Netlist.literal_count()`` of the circuits built.
    """

    def __init__(self):
        self.counts = dict.fromkeys(STATUSES, 0)
        self.csc_signals = 0
        self.literals = 0
        self.failures: List[str] = []
        self._memo: Dict[tuple, Tuple[str, str]] = {}

    def check(self, item, result=None, error: Optional[BaseException] = None) -> str:
        """Classify one outcome (``result`` or ``error``) and count it."""
        if error is not None:
            refusal = REFUSALS.get(item.op)
            if refusal is not None and isinstance(error, refusal):
                status, detail = "refused", str(error)
            else:
                status, detail = "failed", "%s: %s" % (type(error).__name__, error)
        elif item.op == "resolve":
            status, detail = self._memoised(
                ("resolve", item.name, write_g(result[1])),
                lambda: _check_resolved(item, *result))
        elif item.op in SYNTHESIZERS:
            spec, netlist, report = result
            status, detail = self._memoised(
                (item.name, item.op, netlist.to_eqn(), report.ok, report.states),
                lambda: _check_circuit(item, spec, netlist, report))
        else:
            status, detail = _check_verdict(item, result)
        self.counts[status] += 1
        if status == "ok":
            if item.op == "resolve":
                self.csc_signals += len(set(result[1].signals)
                                        - set(result[0].signals))
            elif item.op in SYNTHESIZERS:
                self.literals += result[1].literal_count()
        if status == "failed" and len(self.failures) < 20:
            self.failures.append("%s/%s: %s" % (item.name, item.op, detail))
        return status

    def _memoised(self, key, check):
        if key not in self._memo:
            self._memo[key] = check()
        return self._memo[key]

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())


def _check_resolved(item, spec, resolved) -> Tuple[str, str]:
    inserted = set(resolved.signals) - set(spec.signals)
    if not set(spec.signals) <= set(resolved.signals):
        return "failed", "resolved spec lost signals"
    if not inserted:
        return "failed", "no state signal inserted into a conflicting spec"
    expected = item.expect.get("csc_signals")
    if expected is not None and len(inserted) != expected:
        return "failed", "inserted %d signals, the paper needs %d" % (
            len(inserted), expected)
    if has_csc_conflict(resolved):
        return "failed", "the symbolic query still finds a CSC conflict"
    return "ok", ""


def _muller_reference(gate, pred: str, succ: Optional[str]):
    """The expected functions of a Muller stage ``C(pred, succ')``."""
    a = Var(pred)
    if succ is None:
        set_expr, reset_expr = a, Not(a)
    else:
        b = Var(succ)
        set_expr, reset_expr = And.of(a, Not(b)), And.of(Not(a), b)
    if gate.kind == GateKind.COMB:
        # the complex gate of a C-element: set + q·reset'
        q = Var(gate.output)
        return [(gate.expr, Or.of(set_expr, And.of(q, Not(reset_expr))))]
    return [(gate.set_expr, set_expr), (gate.reset_expr, reset_expr)]


def _check_circuit(item, spec, netlist, report) -> Tuple[str, str]:
    expect = item.expect
    if report.ok != expect["si"]:
        return "failed", "verify_circuit says ok=%s, expected %s" % (
            report.ok, expect["si"])
    if not expect["si"]:
        return "ok", ""
    sg = build_state_graph(spec)
    care = [dict(zip(sg.signal_order, sg.code(s))) for s in sg.states]
    error = _functional_error(netlist, sg, care)
    if error:
        return "failed", error
    if "stages" in expect and item.op != "decompose":
        for out, pred, succ in expect["stages"]:
            for ours, reference in _muller_reference(netlist.gates[out], pred, succ):
                if not equivalent(ours, reference, care=care):
                    return "failed", "stage %s is not C(%s, %s')" % (out, pred, succ)
        if report.states != expect["composed_states"]:
            return "failed", "%d composed states, expected %d" % (
                report.states, expect["composed_states"])
    if "equations" in expect:
        for signal, text in expect["equations"].items():
            if not equivalent(netlist.gates[signal].expr, parse_expr(text), care=care):
                return "failed", "%s differs from the paper's %s" % (signal, text)
        if netlist.literal_count() != expect["literals"]:
            return "failed", "%d literals, the paper has %d" % (
                netlist.literal_count(), expect["literals"])
    return "ok", ""


def _functional_error(netlist, sg, care) -> str:
    """Every gate must produce the specification's next value on every
    reachable state; internal (decomposition) signals take the value
    their gates settle to."""
    spec_signals = set(sg.signal_order)
    internal = [g for out, g in sorted(netlist.gates.items())
                if out not in spec_signals]
    for state, values in zip(sg.states, care):
        values = dict(values, **{g.output: 0 for g in internal})
        for _ in range(len(internal)):
            for gate in internal:
                values[gate.output] = gate.next_value(values)
        for signal in sg.stg.noninput_signals:
            if netlist.gates[signal].next_value(values) != sg.next_value(state, signal):
                return "gate %s disagrees with the spec in state %s" % (signal, state)
    return ""


def _check_verdict(item, verdict) -> Tuple[str, str]:
    expected = item.expect["verdict"]
    if verdict.verdict == expected:
        return "ok", ""
    if verdict.verdict == "unknown":
        return "refused", verdict.evidence
    return "failed", "verdict %r, expected %r" % (verdict.verdict, expected)
