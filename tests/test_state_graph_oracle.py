"""Differential tests: the index-based state-graph checks against
state-keyed reference implementations.

The library's parity walk, USC/CSC and persistency checks and bottom
SCCs run on the integer-indexed core of the transition system and decode
only the states they report.  The references below do the same work the
direct way, on the state-keyed views (``ts.successors``, ``ts.enabled``,
``ts.states``): a parity walk keyed by marking, conflicts from a
code -> states map, persistency from per-state enabled-signal sets, and a
Tarjan over marking-keyed successor lists.  Reports, codes, liveness and
home markings must be equal — list order and error texts included — on
the STG library under every graph engine, on every insertion the CSC
search tries, on ``require_safe=False`` graphs, and on random STGs that
may be unsafe, inconsistent, non-persistent, CSC-conflicting or carry
dummy events.

The one ordering the references have to fix is the order of disabled
signal directions within one persistency report, which used to follow
set iteration order; both sides list them in signal order, rising first.
"""

from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.implementability import (
    CSCConflict,
    ImplementabilityReport,
    PersistencyViolation,
    USCConflict,
    check_implementability,
    csc_conflicts,
    persistency_violations,
    usc_conflicts,
)
from repro.budgets import REDUCTION_STATE_BOUND
from repro.errors import (
    ConsistencyError,
    ReproError,
    StateExplosionError,
    UnboundedError,
)
from repro.petri import home_markings, is_live
from repro.stg import (
    STG,
    SignalType,
    concurrent_latch_controller,
    handshake_arbiter_free_choice,
    latch_controller,
    muller_pipeline,
    mutex_controller,
    parallel_handshakes,
    pipeline_ring,
    sequencer,
    vme_read,
    vme_read_csc,
    vme_read_write,
)
from repro.synth import csc as csc_module
from repro.synth.csc import enumerate_insertions
from repro.ts import build_reachability_graph
from repro.ts.state_graph import StateGraph

LIBRARY = {
    "vme_read": vme_read,
    "vme_read_write": vme_read_write,
    "vme_read_csc": vme_read_csc,
    "latch_controller": latch_controller,
    "concurrent_latch_controller": concurrent_latch_controller,
    "handshake_arbiter_free_choice": handshake_arbiter_free_choice,
    "parallel_handshakes_3": lambda: parallel_handshakes(3),
    "pipeline_ring_6": lambda: pipeline_ring(6),
    "pipeline_ring_6_3": lambda: pipeline_ring(6, tokens=3),
    "sequencer_4": lambda: sequencer(4),
    "muller_pipeline_5": lambda: muller_pipeline(5),
    "mutex_controller": mutex_controller,
}

GRAPH_ENGINES = ("auto", "compiled", "naive", "bdd")


# --------------------------------------------------------------------- #
# state-keyed references
# --------------------------------------------------------------------- #

class ReferenceStateGraph:
    """Codes, initial values and enabled signals by a marking-keyed
    parity walk over ``ts.successors``."""

    def __init__(self, stg: STG, ts, signal_order=None):
        self.stg = stg
        self.ts = ts
        self.signal_order = (list(signal_order) if signal_order is not None
                             else stg.signals)
        self.index = {s: i for i, s in enumerate(self.signal_order)}
        self.codes: Dict[object, Tuple[int, ...]] = {}
        self.initial_values: Dict[str, int] = {}
        self.assign_codes()

    def assign_codes(self) -> None:
        event_bit = {}
        for tname in self.ts.events:
            event = self.stg.event_of(tname)
            if event.is_dummy:
                event_bit[tname] = (event, -1, False)
            else:
                event_bit[tname] = (event, self.index[event.signal],
                                    event.is_rising)
        parity = {self.ts.initial: 0}
        init: Dict[str, Tuple[int, str]] = {}
        stack = [self.ts.initial]
        while stack:
            state = stack.pop()
            p = parity[state]
            for tname, succ in self.ts.successors(state):
                event, idx, rising = event_bit[tname]
                if idx < 0:
                    q = p
                else:
                    bit = (p >> idx) & 1
                    q = p ^ (1 << idx)
                    required = bit if rising else 1 - bit
                    prev = init.get(event.signal)
                    if prev is None:
                        init[event.signal] = (required, tname)
                    elif prev[0] != required:
                        raise ConsistencyError(
                            "signal %r: transitions %r and %r imply different"
                            " initial values — rising/falling edges do not"
                            " alternate" % (event.signal, prev[1], tname))
                known = parity.get(succ)
                if known is not None:
                    if known != q:
                        raise ConsistencyError(
                            "state %r reached with different switching"
                            " parities — inconsistent STG" % (succ,))
                else:
                    parity[succ] = q
                    stack.append(succ)
        self.initial_values = {
            s: init.get(s, (0, ""))[0] for s in self.signal_order}
        init_vec = tuple(self.initial_values[s] for s in self.signal_order)
        for state, p in parity.items():
            self.codes[state] = tuple(iv ^ ((p >> i) & 1)
                                      for i, iv in enumerate(init_vec))

    def enabled_signals(self, state, noninput_only=False) -> Set[Tuple[str, str]]:
        result = set()
        for tname in self.ts.enabled(state):
            event = self.stg.event_of(tname)
            if event.is_dummy:
                continue
            if noninput_only and \
                    not self.stg.type_of(event.signal).is_noninput:
                continue
            result.add(event.base())
        return result

    def states_by_code(self):
        groups: Dict[Tuple[int, ...], list] = {}
        for state, code in self.codes.items():
            groups.setdefault(code, []).append(state)
        return groups


def reference_usc(sg: ReferenceStateGraph) -> List[USCConflict]:
    result = []
    for code, states in sorted(sg.states_by_code().items()):
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                result.append(USCConflict(code, states[i], states[j]))
    return result


def reference_csc(sg: ReferenceStateGraph) -> List[CSCConflict]:
    result = []
    for code, states in sorted(sg.states_by_code().items()):
        if len(states) < 2:
            continue
        signatures = [frozenset(sg.enabled_signals(s, noninput_only=True))
                      for s in states]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                if signatures[i] != signatures[j]:
                    result.append(CSCConflict(code, states[i], states[j],
                                              signatures[i], signatures[j]))
    return result


def reference_persistency(sg: ReferenceStateGraph) -> List[PersistencyViolation]:
    stg = sg.stg
    result = []
    for state in sg.ts.states:
        enabled_here = sorted(sg.enabled_signals(state),
                              key=lambda pair: (sg.index[pair[0]], pair[1]))
        for tname in sg.ts.enabled(state):
            b = stg.event_of(tname)
            if b.is_dummy:
                continue
            enabled_after = sg.enabled_signals(sg.ts.fire(state, tname))
            for sig, direction in enabled_here:
                if sig == b.signal or (sig, direction) in enabled_after:
                    continue
                if stg.type_of(sig).is_noninput:
                    kind = "output"
                elif stg.type_of(b.signal).is_noninput:
                    kind = "input"
                else:
                    continue
                result.append(PersistencyViolation(
                    state, sig + direction, str(b), kind))
    return result


def reference_bottom_sccs(ts) -> List[set]:
    succ = {s: ts.successors(s) for s in ts.states}
    index: Dict[object, int] = {}
    low: Dict[object, int] = {}
    stack: list = []
    on_stack: set = set()
    bottoms: List[set] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, arcs = work[-1]
            for _, w in arcs:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    component = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.add(w)
                        if w == v:
                            break
                    if all(t in component for s in component
                           for _, t in succ[s]):
                        bottoms.append(component)
    return bottoms


def reference_is_live(net, ts) -> bool:
    transitions = set(net.transitions)
    for component in reference_bottom_sccs(ts):
        fired = {t for m in component for t, _ in ts.successors(m)}
        if fired != transitions:
            return False
    return True


def reference_home_markings(ts) -> set:
    bottoms = reference_bottom_sccs(ts)
    return bottoms[0] if len(bottoms) == 1 else set()


def reference_report(stg: STG, max_states: int,
                     engine: str) -> ImplementabilityReport:
    report = ImplementabilityReport(stg_name=stg.name)
    try:
        ts = build_reachability_graph(stg, max_states=max_states,
                                      engine=engine)
    except UnboundedError as exc:
        report.consistency_error = str(exc)
        return report
    report.bounded = True
    try:
        sg = ReferenceStateGraph(stg, ts)
    except ConsistencyError as exc:
        report.consistency_error = str(exc)
        return report
    report.consistent = True
    report.states = len(ts)
    report.usc_conflicts = reference_usc(sg)
    report.csc_conflicts = reference_csc(sg)
    report.persistency_violations = reference_persistency(sg)
    return report


# --------------------------------------------------------------------- #
# comparisons
# --------------------------------------------------------------------- #

def outcome(thunk):
    """A result or the failure it raised, so both sides compare."""
    try:
        return ("ok", thunk())
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def assert_report_matches(stg: STG, max_states: int = 50_000,
                          engine: str = "auto"):
    """Report (or failure) against the reference; returns the report, or
    the failure's message."""
    actual = outcome(lambda: check_implementability(
        stg, max_states=max_states, engine=engine))
    expected = outcome(lambda: reference_report(stg, max_states, engine))
    assert actual == expected
    if actual[0] == "ok" and actual[1].state_graph is not None:
        assert_graph_matches(stg, actual[1].state_graph.ts)
    return actual[1]


def assert_graph_matches(stg: STG, ts, signal_order=None) -> None:
    """Codes, checks, bottom SCCs, liveness and home markings of one
    transition system against the references."""
    expected = outcome(lambda: ReferenceStateGraph(stg, ts, signal_order))
    actual = outcome(lambda: StateGraph(stg, ts, signal_order))
    assert actual[0] == expected[0]
    if actual[0] != "ok":
        assert actual == expected
    else:
        sg, ref = actual[1], expected[1]
        assert list(sg.codes.items()) == list(ref.codes.items())
        assert sg.initial_values == ref.initial_values
        assert sg.states_by_code() == ref.states_by_code()
        for state in ts.states:
            for noninput_only in (False, True):
                assert sg.enabled_signals(state, noninput_only) == \
                    ref.enabled_signals(state, noninput_only)
        assert usc_conflicts(sg) == reference_usc(ref)
        assert csc_conflicts(sg) == reference_csc(ref)
        assert persistency_violations(sg) == reference_persistency(ref)
    assert ts.bottom_sccs() == reference_bottom_sccs(ts)
    assert is_live(stg.net, graph=ts) == reference_is_live(stg.net, ts)
    assert home_markings(stg.net, graph=ts) == reference_home_markings(ts)


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("engine", GRAPH_ENGINES)
@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_reports_match_references(name, engine):
    assert_report_matches(LIBRARY[name](), engine=engine)


def test_custom_signal_order_matches_reference():
    stg = vme_read()
    ts = build_reachability_graph(stg)
    assert_graph_matches(stg, ts, ["DSr", "DTACK", "LDTACK", "LDS", "D"])


def test_every_insertion_of_the_csc_search_matches(monkeypatch):
    """Each candidate the search tries on vme_read_write — rejected ones
    included — gives the reference report, liveness and home markings."""
    tried: List[STG] = []
    metrics = csc_module._insertion_metrics

    def recording(stg, max_states):
        tried.append(stg)
        return metrics(stg, max_states)

    monkeypatch.setattr(csc_module, "_insertion_metrics", recording)
    enumerate_insertions(vme_read_write(), full_only=False)
    assert len(tried) > 100
    verdicts = set()
    for stg in tried:
        report = assert_report_matches(stg, max_states=REDUCTION_STATE_BOUND)
        verdicts.add((report.implementable, bool(report.csc_conflicts),
                      bool(report.persistency_violations)))
    # the candidates cover resolving, conflicting and non-persistent ones
    assert len(verdicts) >= 3


@pytest.mark.parametrize("name", ["vme_read", "pipeline_ring_6_3",
                                  "handshake_arbiter_free_choice",
                                  "mutex_controller"])
def test_k_bounded_naive_graphs_match(name):
    stg = LIBRARY[name]()
    ts = build_reachability_graph(stg, require_safe=False, engine="naive")
    assert_graph_matches(stg, ts)


def test_two_token_ring_matches():
    """A place of the ring starts with two tokens."""
    stg = pipeline_ring(4)
    first = sorted(p for p, place in stg.net.places.items() if place.tokens)
    stg.net.places[first[0]].tokens = 2
    assert_report_matches(stg)
    ts = build_reachability_graph(stg, require_safe=False, engine="naive")
    assert_graph_matches(stg, ts)


def test_input_only_hazard_matches():
    """Output b+ disables input a+, but a+ (which only reads b's place)
    disables nothing: a state whose sole violation is an input hazard."""
    stg = STG("read_arc", inputs=["a"], outputs=["b"])
    names = {e: stg.add_event(e) for e in ("a+", "a-", "b+", "b-")}
    stg.connect(names["b+"], names["b-"])
    free = stg.connect(names["b-"], names["b+"])
    stg.net.places[free].tokens = 1
    stg.connect(names["a+"], names["a-"])
    idle = stg.connect(names["a-"], names["a+"])
    stg.net.places[idle].tokens = 1
    stg.net.add_arc(free, names["a+"])
    stg.net.add_arc(names["a+"], free)
    report = assert_report_matches(stg)
    hazards = [v for v in report.persistency_violations
               if v.state == stg.initial_marking]
    assert [(v.disabled, v.by, v.kind) for v in hazards] == \
        [("a+", "b+", "input")]


@st.composite
def arbitrary_stg(draw):
    """A small STG with random structure: it may be unsafe, unbounded,
    inconsistent, non-persistent, conflicting or deadlocking, and may
    carry dummy events."""
    stg = STG("arbitrary")
    kinds = [SignalType.INPUT, SignalType.OUTPUT, SignalType.INTERNAL]
    signals = ["s%d" % i for i in range(draw(st.integers(1, 3)))]
    for s in signals:
        stg.declare_signal(s, draw(st.sampled_from(kinds)))
    events = []
    for s in signals:
        events += [s + "+", s + "-"]
        if draw(st.booleans()):
            events.append(s + draw(st.sampled_from("+-")) + "/1")
    if draw(st.booleans()):
        stg.declare_signal("d", SignalType.DUMMY)
        events.append("d~")
    names = [stg.add_event(e) for e in events]
    n_places = draw(st.integers(1, len(names) + 2))
    for i in range(n_places):
        place = stg.add_place("p%d" % i, tokens=draw(st.integers(0, 1)))
        for t in draw(st.sets(st.sampled_from(names), min_size=1,
                              max_size=2)):
            stg.net.add_arc(t, place)
        for t in draw(st.sets(st.sampled_from(names), min_size=1,
                              max_size=2)):
            stg.net.add_arc(place, t)
    return stg


@st.composite
def signal_ring(draw):
    """A handshake ring of 2-4 signals — each rising before it falls —
    with random input/output types, an optional dummy event in the ring,
    random ordering chords and an optional choice (a detour that competes
    with the ring for one of its places).  Mostly consistent; CSC and
    persistency vary."""
    signals = ["s%d" % i for i in range(draw(st.integers(2, 4)))]
    stg = STG("ring")
    for s in signals:
        stg.declare_signal(s, draw(st.sampled_from(
            [SignalType.INPUT, SignalType.OUTPUT, SignalType.INTERNAL])))
    events = [s + "+" for s in draw(st.permutations(signals))]
    events += [s + "-" for s in draw(st.permutations(signals))]
    if draw(st.booleans()):
        stg.declare_signal("d", SignalType.DUMMY)
        events.insert(draw(st.integers(0, len(events))), "d~")
    names = [stg.add_event(e) for e in events]
    ring = []
    for i in range(len(names)):
        ring.append(stg.connect(names[i], names[(i + 1) % len(names)]))
    stg.net.places[ring[-1]].tokens = 1
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        if a != b:
            place = stg.connect(a, b)
            stg.net.places[place].tokens = draw(st.integers(0, 1))
    if draw(st.booleans()):
        # a detour c+ c- that competes with the ring for one place
        stg.declare_signal("c", draw(st.sampled_from(
            [SignalType.INPUT, SignalType.OUTPUT])))
        place = draw(st.sampled_from(ring))
        rise, fall = stg.add_event("c+"), stg.add_event("c-")
        stg.net.add_arc(place, rise)
        stg.connect(rise, fall)
        stg.net.add_arc(fall, place)
    return stg


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@given(arbitrary_stg(), st.sampled_from(("compiled", "naive")))
@SETTINGS
def test_arbitrary_stgs_match(stg, engine):
    assert_report_matches(stg, max_states=300, engine=engine)
    ts = outcome(lambda: build_reachability_graph(
        stg, max_states=300, require_safe=False, engine="naive"))
    if ts[0] == "ok":
        assert_graph_matches(stg, ts[1])
    else:
        assert ts[0] == StateExplosionError.__name__


@given(signal_ring())
@SETTINGS
def test_signal_rings_match(stg):
    assert_report_matches(stg)


def test_generators_reach_every_verdict():
    """The random inputs above include unsafe, inconsistent,
    non-persistent and CSC-conflicting specifications, and dummies."""
    seen = set()

    @given(st.one_of(arbitrary_stg(), signal_ring()))
    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def classify(stg):
        try:
            report = check_implementability(stg, max_states=300)
        except StateExplosionError:
            return
        if not report.bounded:
            seen.add("unsafe")
        elif not report.consistent:
            seen.add("inconsistent")
        else:
            if report.csc_conflicts:
                seen.add("csc")
            if report.persistency_violations:
                seen.add("non-persistent")
            if any(stg.event_of(t).is_dummy
                   for t in report.state_graph.ts.events):
                seen.add("dummy")

    classify()
    assert seen == {"unsafe", "inconsistent", "csc", "non-persistent",
                    "dummy"}
