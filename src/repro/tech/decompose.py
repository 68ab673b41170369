"""Hazard-free logic decomposition into restricted fan-in gates
(paper, Section 3.4, ref [5]).

The method follows the paper's recipe:

* extract decomposition candidates by **algebraic factorization** of the
  minimized next-state functions (common-literal divisors);
* insert each candidate as a new internal signal;
* rewrite the remaining gates over the extended signal set, exploring
  **resubstitution** alternatives — this is what creates the *multiple
  acknowledgment* of Figure 9(a), where ``map0`` is read by both ``csc0``
  and ``D``;
* check every resulting netlist for speed independence with the
  circuit ⊗ environment composition and keep the first hazard-free one.

Candidate gates are matched on *truth columns*: one int per signal whose
bit ``i`` is the signal's value in state ``i`` of the state graph.  Each
gate's target column (its next value in every state) is built once per
call; a divisor's column is its expression evaluated over the columns
with ``&``, ``|`` and complement.  A literal or a two-literal ``And``/``Or``
then matches a target with one int comparison, and only matches become
expressions.

The search is bounded (``max_netlists`` candidate netlists) and
deterministic.  When :func:`repro.obs.enabled`, it runs under a
``tech.decompose`` span counting the ``divisors`` proposed, the
``attempts`` (candidate netlists verified) and ``refused`` when it ends
in :class:`~repro.errors.SynthesisError`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Set, Tuple

from .. import obs
from ..budgets import DECOMPOSE_STATE_BOUND
from ..errors import SynthesisError
from ..boolmin.cube import Cube, minterm_to_int
from ..boolmin.expr import And, BoolExpr, Not, Or, Var, from_cubes
from ..stg.stg import STG
from ..synth.complex_gate import _complex_gates
from ..synth.netlist import Gate, Netlist
from ..ts.state_graph import build_state_graph
from ..verify.composition import verify_circuit

# a candidate literal: (expression, truth column, signal name)
_Literal = Tuple[BoolExpr, int, str]


def _expr_literals(expr: BoolExpr) -> int:
    if isinstance(expr, Var):
        return 1
    if isinstance(expr, Not):
        return _expr_literals(expr.arg)
    if isinstance(expr, (And, Or)):
        return sum(_expr_literals(a) for a in expr.args)
    return 0


def algebraic_divisors(cubes: Sequence[Cube],
                       variables: Sequence[str]) -> List[BoolExpr]:
    """Candidate divisors of an SOP: for each literal appearing in several
    cubes, the co-factor sum (the paper's algebraic factorization seed).

    For ``csc0 = DSr csc0 + DSr LDTACK'`` the literal ``DSr`` yields the
    divisor ``csc0 + LDTACK'`` — the paper's ``map0``.
    """
    divisors: List[BoolExpr] = []
    seen: Set[str] = set()

    def propose(divisor: BoolExpr) -> None:
        key = divisor.to_str("python")
        if key not in seen and len(divisor.support()) >= 1:
            seen.add(key)
            divisors.append(divisor)

    n = len(variables)
    # common-literal cofactors (kernel seeds)
    for pos in range(n):
        for phase in (1, 0):
            matching = [c for c in cubes if c[pos] == phase]
            if len(matching) < 2:
                continue
            rest_cubes = []
            for c in matching:
                rest = list(c)
                rest[pos] = None
                rest_cubes.append(tuple(rest))
            propose(from_cubes(rest_cubes, variables))
    # AND-decomposition: each multi-literal cube is itself a candidate
    for c in cubes:
        if sum(1 for v in c if v is not None) >= 2:
            propose(from_cubes([c], variables))
    # OR-decomposition: each pair of cubes
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            propose(from_cubes([cubes[i], cubes[j]], variables))
    return divisors


def _truth_column(bits: Sequence[int]) -> int:
    """The int whose bit ``i`` is ``bits[i]`` (each 0 or 1)."""
    return int("".join(map(str, bits[::-1])) or "0", 2)


def _column(expr: BoolExpr, columns: Dict[str, int], full: int) -> int:
    """Truth column of ``expr``: bit ``i`` is its value in state ``i``."""
    if isinstance(expr, Var):
        return columns[expr.name]
    if isinstance(expr, Not):
        return full ^ _column(expr.arg, columns, full)
    if isinstance(expr, And):
        value = full
        for arg in expr.args:
            value &= _column(arg, columns, full)
        return value
    if isinstance(expr, Or):
        value = 0
        for arg in expr.args:
            value |= _column(arg, columns, full)
        return value
    raise TypeError("cannot evaluate %r over truth columns" % (expr,))


def _literals(signal: str, column: int, full: int) -> List[_Literal]:
    """The two literals of a signal with their truth columns."""
    return [(Var(signal), column, signal),
            (Not(Var(signal)), full ^ column, signal)]


def _candidate_exprs(target: int, literals: Sequence[_Literal],
                     max_candidates: int = 8) -> List[BoolExpr]:
    """All fan-in-<=2 expressions whose truth column equals ``target``:
    the literals, then ``a & b`` and ``a | b`` for literal pairs of two
    different signals, in enumeration order, cut at ``max_candidates``."""
    results: List[BoolExpr] = [lit for lit, column, _ in literals
                               if column == target]
    for (a, ca, sa), (b, cb, sb) in itertools.combinations(literals, 2):
        if sa == sb:
            continue
        if ca & cb == target:
            results.append(And.of(a, b))
        if ca | cb == target:
            results.append(Or.of(a, b))
        if len(results) >= max_candidates:
            break
    return results[:max_candidates]


def decompose(stg: STG, max_fanin: int = 2,
              temp_prefix: str = "map",
              max_netlists: int = 400,
              max_states: int = DECOMPOSE_STATE_BOUND) -> Netlist:
    """Decompose the complex-gate implementation of ``stg`` into gates of
    at most ``max_fanin`` literals, hazard-freely.

    The specification must already satisfy CSC.  Returns the first
    speed-independent decomposed netlist found; raises
    :class:`SynthesisError` if the bounded search fails.  Each candidate
    verification is budgeted by
    :data:`repro.budgets.DECOMPOSE_STATE_BOUND` states (pass
    ``max_states=`` to override).
    """
    with obs.span("tech.decompose", stg=stg.name) as span:
        try:
            return _decompose(stg, max_fanin, temp_prefix, max_netlists,
                              max_states, span)
        except SynthesisError:
            span.add("refused")
            raise


def _decompose(stg: STG, max_fanin: int, temp_prefix: str,
               max_netlists: int, max_states: int, span) -> Netlist:
    if max_fanin != 2:
        raise SynthesisError("only two-input decomposition is implemented")
    sg = build_state_graph(stg)
    base, fns, covers = _complex_gates(sg, stg.name + "_decomposed")

    # which gates need decomposition?
    oversized = [z for z in sorted(base.gates)
                 if len(base.gates[z].expr.support() - {z}) > max_fanin
                 or _expr_literals(base.gates[z].expr) > max_fanin]
    if not oversized:
        return base

    # gather divisor candidates from all oversized functions
    divisors: List[BoolExpr] = []
    for z in oversized:
        divisors.extend(algebraic_divisors(covers[z], sg.signal_order))
    span.add("divisors", len(divisors))
    if not divisors:
        raise SynthesisError("no algebraic divisors found for %s" % oversized)

    # truth columns of the spec signals over the states of the SG, and the
    # target column of each gate: its next value f_z in every state
    codes = [sg.code(state) for state in sg.states]
    full = (1 << len(codes)) - 1
    spec_literals: List[_Literal] = []
    columns: Dict[str, int] = {}
    for signal, bits in zip(sg.signal_order, zip(*codes)):
        columns[signal] = _truth_column(bits)
        spec_literals.extend(_literals(signal, columns[signal], full))
    minterms = [minterm_to_int(code) for code in codes]
    gate_names = sorted(base.gates)
    targets = {z: _truth_column([int(m in fns[z].onset) for m in minterms])
               for z in gate_names}

    temp = "%s0" % temp_prefix
    attempts = 0
    diagnostics: List[str] = []
    for divisor in divisors:
        divisor_column = _column(divisor, columns, full)
        literals = spec_literals + _literals(temp, divisor_column, full)

        # per-gate candidate expressions over the extended signal set
        per_gate: Dict[str, List[BoolExpr]] = {}
        for z in gate_names:
            candidates = _candidate_exprs(targets[z], literals)
            if not candidates:
                diagnostics.append(
                    "divisor %s: no 2-input candidate for %s" % (divisor, z))
                break
            per_gate[z] = candidates
        if len(per_gate) < len(gate_names):
            continue
        # the divisor gate itself
        divisor_candidates = _candidate_exprs(divisor_column, spec_literals)
        if not divisor_candidates:
            diagnostics.append("divisor %s not realisable in 2 inputs"
                               % divisor)
            continue

        for combo in itertools.product(*(per_gate[z] for z in gate_names)):
            for divisor_expr in divisor_candidates[:2]:
                attempts += 1
                if attempts > max_netlists:
                    raise SynthesisError(
                        "decomposition search exceeded %d candidate netlists;"
                        " diagnostics: %s" % (max_netlists, diagnostics[:5]))
                netlist = Netlist(stg.name + "_decomposed",
                                  inputs=stg.inputs)
                netlist.add(Gate.comb(temp, divisor_expr))
                for z, expr in zip(gate_names, combo):
                    netlist.add(Gate.comb(z, expr))
                try:
                    netlist.validate()
                except SynthesisError:
                    continue
                span.add("attempts")
                report = verify_circuit(netlist, stg, max_states=max_states,
                                        stop_at_first=True)
                if report.ok:
                    return netlist
                diagnostics.append(
                    "candidate rejected (%d hazards, %d failures)"
                    % (len(report.hazards), len(report.failures)))
    raise SynthesisError(
        "no hazard-free two-input decomposition found after %d attempts; "
        "first diagnostics: %s" % (attempts, diagnostics[:5]))
