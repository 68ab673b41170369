"""Implementability analysis of STGs (paper, Section 2.1).

An STG is implementable as a speed-independent circuit iff:

* the underlying net is **bounded** (we require 1-safe);
* the STG is **consistent** — rising and falling transitions of every
  signal alternate along every path;
* **complete state coding (CSC)** holds — no two states with the same
  binary code enable different non-input signals;
* the STG is **persistent** — (a) no non-input signal transition can be
  disabled by another transition (output hazards), and (b) no input
  transition can be disabled by a non-input transition (input hazards).
  Input-by-input disabling is allowed: that is environment choice
  (Section 1.5).

This module computes all of these on the explicit state graph and returns
a structured report.  For nets whose state graph is too large to build,
two query engines answer the CSC question alone without enumeration:
:func:`find_csc_conflict_sat` through the bounded-model-checking path of
:mod:`repro.sat` (a search, complete only up to its bound) and
:func:`find_csc_conflict_bdd` through the symbolic fixpoint of
:mod:`repro.bdd.queries` (an exact characteristic-function answer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .. import obs
from ..budgets import DEFAULT_STATE_BOUND
from ..errors import ConsistencyError, UnboundedError
from ..stg.stg import STG
from ..ts.state_graph import StateGraph, build_state_graph
from ..ts.transition_system import State


@dataclass(frozen=True)
class CSCConflict:
    """Two states sharing a binary code but enabling different non-input
    signals — the next-state function is ill-defined (Section 2.1)."""

    code: Tuple[int, ...]
    state_a: State
    state_b: State
    enabled_a: FrozenSetType = None  # type: ignore[assignment]
    enabled_b: FrozenSetType = None  # type: ignore[assignment]

    def __str__(self):
        return "CSC conflict at code %s between %r (%s) and %r (%s)" % (
            "".join(map(str, self.code)), self.state_a,
            sorted(self.enabled_a or ()), self.state_b,
            sorted(self.enabled_b or ()))


FrozenSetType = Optional[frozenset]


@dataclass(frozen=True)
class USCConflict:
    """Two distinct states sharing a binary code (Unique State Coding)."""

    code: Tuple[int, ...]
    state_a: State
    state_b: State


@dataclass(frozen=True)
class PersistencyViolation:
    """Event ``disabled`` was enabled in ``state`` but firing ``by``
    disabled it.  ``kind`` is "output" (hazard at a gate output) or
    "input" (hazard at a device input)."""

    state: State
    disabled: str   # event string, e.g. "LDS+"
    by: str         # event string of the disabling transition
    kind: str

    def __str__(self):
        return "%s persistency violation in %r: %s disabled by %s" % (
            self.kind, self.state, self.disabled, self.by)


@dataclass
class ImplementabilityReport:
    """Aggregate result of all implementability checks."""

    stg_name: str
    states: int = 0
    bounded: bool = False
    consistent: bool = False
    consistency_error: Optional[str] = None
    usc_conflicts: List[USCConflict] = field(default_factory=list)
    csc_conflicts: List[CSCConflict] = field(default_factory=list)
    persistency_violations: List[PersistencyViolation] = field(
        default_factory=list)
    #: the state graph the checks ran on (None when it could not be
    #: built), kept so callers can answer further questions without
    #: exploring the net again
    state_graph: Optional[StateGraph] = field(default=None, repr=False,
                                              compare=False)

    @property
    def has_usc(self) -> bool:
        return self.consistent and not self.usc_conflicts

    @property
    def has_csc(self) -> bool:
        return self.consistent and not self.csc_conflicts

    @property
    def persistent(self) -> bool:
        return self.consistent and not self.persistency_violations

    @property
    def implementable(self) -> bool:
        """Speed-independent implementability: bounded, consistent, CSC and
        persistent (USC is not required — CSC suffices)."""
        return (self.bounded and self.consistent and self.has_csc
                and self.persistent)

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            "Implementability report for %s" % self.stg_name,
            "  states:      %d" % self.states,
            "  bounded:     %s" % self.bounded,
            "  consistent:  %s%s" % (
                self.consistent,
                "" if self.consistent else " (%s)" % self.consistency_error),
            "  USC:         %s (%d conflicts)" % (self.has_usc,
                                                  len(self.usc_conflicts)),
            "  CSC:         %s (%d conflicts)" % (self.has_csc,
                                                  len(self.csc_conflicts)),
            "  persistent:  %s (%d violations)" % (
                self.persistent, len(self.persistency_violations)),
            "  implementable as SI circuit: %s" % self.implementable,
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# individual checks on a built state graph
# ---------------------------------------------------------------------- #

def _shared_codes(sg: StateGraph) -> List[Tuple[Tuple[int, ...], List[int]]]:
    """``(code, state indices)`` for every code at least two states
    share, sorted by code; states in parity-walk discovery order."""
    shared = [(sg.code_of_parity(parity), members)
              for parity, members in sg.code_classes().items()
              if len(members) > 1]
    shared.sort(key=lambda entry: entry[0])
    return shared


def usc_conflicts(sg: StateGraph) -> List[USCConflict]:
    """All pairs of distinct states sharing a binary code."""
    state_at = sg.ts.state_at
    result = []
    for code, members in _shared_codes(sg):
        states = [state_at(i) for i in members]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                result.append(USCConflict(code, states[i], states[j]))
    return result


def csc_conflicts(sg: StateGraph) -> List[CSCConflict]:
    """All pairs of same-code states with different non-input excitation."""
    state_at = sg.ts.state_at
    enabled = sg.enabled_masks
    noninput = sg.noninput_mask
    result = []
    for code, members in _shared_codes(sg):
        masks = [enabled[i] & noninput for i in members]
        if masks.count(masks[0]) == len(masks):
            continue
        states = [state_at(i) for i in members]
        signatures = [sg.signal_directions(mask) for mask in masks]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                if masks[i] != masks[j]:
                    result.append(CSCConflict(code, states[i], states[j],
                                              signatures[i], signatures[j]))
    return result


def persistency_violations(sg: StateGraph) -> List[PersistencyViolation]:
    """All persistency violations (Section 2.1).

    An enabled event ``a`` (as a signal/direction pair) is disabled by
    firing ``b`` if no transition with ``a``'s signal and direction remains
    enabled afterwards.  Violations are classified:

    * ``a`` non-input: "output" violation (glitch at a gate output);
    * ``a`` input disabled by non-input ``b``: "input" violation;
    * ``a`` input disabled by input ``b``: allowed (environment choice).

    One bitmask test per arc finds the violations; only the states that
    have one are decoded.  They are reported by state index, then in arc
    order (sorted transition names, as every engine builds its graphs),
    then by ``a`` in signal order, rising first.
    """
    ts = sg.ts
    labels = ts.labels
    enabled = sg.enabled_masks
    own = sg.label_signal_masks
    noninput = sg.noninput_mask
    result = []
    for i, arcs in enumerate(ts.arc_lists()):
        here = enabled[i]
        state = None
        for label, j in arcs:
            signal = own[label]
            if not signal:
                continue  # dummy events are not checked as disablers
            lost = here & ~enabled[j] & ~signal
            if not signal & noninput:
                lost &= noninput  # an input disabling an input is a choice
            if not lost:
                continue
            if state is None:
                state = ts.state_at(i)
            by = str(sg.stg.event_of(labels[label]))
            while lost:
                low = lost & -lost
                lost ^= low
                (sig, direction), = sg.signal_directions(low)
                kind = "output" if low & noninput else "input"
                result.append(PersistencyViolation(state, sig + direction,
                                                   by, kind))
    return result


def find_csc_conflict_sat(stg: STG, bound: int = 30):
    """Search for a CSC conflict without building the state graph.

    Delegates to :func:`repro.sat.queries.csc_conflict`: two bounded
    unrollings of the token game, same binary code (equal signal
    parities), different non-input excitation.  Returns the
    :class:`repro.sat.queries.SatCSCConflict` witness (with replayed
    traces to both states) or None if no conflict exists within the
    bound.  Complements :func:`csc_conflicts`, which needs the full
    :class:`~repro.ts.state_graph.StateGraph`.
    """
    from ..sat.queries import csc_conflict as _csc_conflict

    return _csc_conflict(stg, bound=bound)


def find_csc_conflict_bdd(stg: STG, place_order: str = "dfs"):
    """Symbolic CSC check: conflicting codes without a state graph.

    Delegates to :class:`repro.bdd.queries.SymbolicCSC`: the reachable
    (marking, signal-parity) pairs are computed as a BDD fixpoint and the
    characteristic function of the conflicting codes is extracted from
    it.  Returns the :class:`~repro.bdd.queries.SymbolicCSC` object —
    ``has_conflict()``, ``conflict_count()`` and ``conflict_parities()``
    answer without enumerating a single state.  Complements
    :func:`csc_conflicts` (explicit, needs the full state graph) and
    :func:`find_csc_conflict_sat` (bounded search with witness traces).
    """
    from ..bdd.queries import SymbolicCSC

    return SymbolicCSC(stg, place_order=place_order)


def check_implementability(stg: STG,
                           max_states: int = DEFAULT_STATE_BOUND,
                           engine: str = "auto") -> ImplementabilityReport:
    """Run the full battery of Section 2.1 checks and return a report.

    ``engine`` selects the reachability engine used to build the state
    graph — any of the graph-building members of
    :data:`repro.ts.builder.ENGINES` (``"auto"``, ``"compiled"``,
    ``"naive"``, ``"bdd"``); the query-only ``"sat"`` and
    ``"portfolio"`` engines cannot build the graph this report needs
    (see :func:`repro.ts.builder.build_reachability_graph`), use
    :func:`find_csc_conflict_sat` / :func:`find_csc_conflict_bdd` or
    the racing checks of :mod:`repro.portfolio` for single-question
    analyses instead.
    """
    report = ImplementabilityReport(stg_name=stg.name)
    with obs.span("analysis.implementability", stg=stg.name,
                  engine=engine) as span:
        try:
            sg = build_state_graph(stg, max_states=max_states,
                                   engine=engine)
        except UnboundedError as exc:
            report.bounded = False
            report.consistency_error = str(exc)
            span.annotate(verdict="unbounded")
            return report
        except ConsistencyError as exc:
            report.bounded = True
            report.consistent = False
            report.consistency_error = str(exc)
            span.annotate(verdict="inconsistent")
            return report
        report.bounded = True
        report.consistent = True
        report.state_graph = sg
        report.states = len(sg)
        report.usc_conflicts = usc_conflicts(sg)
        report.csc_conflicts = csc_conflicts(sg)
        report.persistency_violations = persistency_violations(sg)
        span.add("states", report.states)
        span.add("usc_conflicts", len(report.usc_conflicts))
        span.add("csc_conflicts", len(report.csc_conflicts))
        span.add("persistency_violations",
                 len(report.persistency_violations))
        span.annotate(
            verdict="implementable" if report.implementable
            else "not-implementable")
    return report
