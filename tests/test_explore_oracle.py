"""Differential tests: the property checks against a reference explorer.

:mod:`repro.petri.properties` reads every property off one reachability
graph built by the shared engines, with Karp–Miller deciding
unboundedness.  The oracle here is the explorer it replaced: a
per-path depth-first search over dict markings that carries each path's
ancestors and raises as soon as a new marking strictly covers one of
them.  Liveness and home markings are computed from the oracle's graph
by brute force (one reachability search per marking), so no SCC code is
shared with the implementation under test.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import StateExplosionError, UnboundedError
from repro.petri import (
    PetriNet,
    bound,
    dining_philosophers,
    explore,
    find_deadlocks,
    home_markings,
    is_live,
    is_safe,
)
from repro.petri.token_game import enabled_transitions, fire
from repro.stg.library import (
    ALL_EXAMPLES,
    muller_pipeline,
    parallel_handshakes,
    pipeline_ring,
    sequencer,
)

BUDGET = 2000


def reference_explore(net, max_states, detect_unbounded=True):
    """The ancestor-tuple DFS: ``marking -> [(transition, successor)]``."""
    initial = net.initial_marking
    graph = {initial: []}
    stack = [(initial, (initial,))]
    while stack:
        marking, ancestors = stack.pop()
        successors = graph[marking]
        for t in enabled_transitions(net, marking):
            succ = fire(net, marking, t, check=False)
            successors.append((t, succ))
            if succ not in graph:
                if detect_unbounded:
                    for anc in ancestors:
                        if succ.covers(anc) and succ != anc:
                            raise UnboundedError(
                                "%r strictly covers ancestor %r" % (succ, anc))
                if len(graph) >= max_states:
                    raise StateExplosionError(
                        "reachability exceeded %d states" % max_states,
                        bound=max_states, states=len(graph))
                graph[succ] = []
                stack.append((succ, ancestors + (succ,)))
    return graph


def _reach(graph, start):
    seen = {start}
    stack = [start]
    while stack:
        for _, succ in graph[stack.pop()]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def reference_answers(net, max_states=BUDGET):
    """Every property the oracle decides, or the exception it raises."""
    try:
        graph = reference_explore(net, max_states)
    except (UnboundedError, StateExplosionError) as exc:
        return type(exc)
    reach = {m: _reach(graph, m) for m in graph}
    transitions = set(net.transitions)
    homes = set(graph)
    for seen in reach.values():
        homes &= seen
    top = max((n for m in graph for _, n in m.items()), default=0)
    return {
        "markings": set(graph),
        "arcs": Counter((m, t, s) for m, succs in graph.items()
                        for t, s in succs),
        "live": all({t for x in seen for t, _ in graph[x]} == transitions
                    for seen in reach.values()),
        "homes": homes,
        "deadlocks": sorted((m for m, succs in graph.items() if not succs),
                            key=repr),
        "bound": top,
        "safe": top <= 1,
    }


def answers(net, max_states=BUDGET):
    """The same properties from :mod:`repro.petri.properties`."""
    try:
        graph = explore(net, max_states)
    except (UnboundedError, StateExplosionError) as exc:
        return type(exc)
    return {
        "markings": set(graph),
        "arcs": Counter((m, t, s) for m, succs in graph.items()
                        for t, s in succs),
        "live": is_live(net, max_states),
        "homes": home_markings(net, max_states),
        "deadlocks": find_deadlocks(net, max_states),
        "bound": bound(net, max_states),
        "safe": is_safe(net, max_states),
    }


def assert_agree(net, max_states=BUDGET):
    want = reference_answers(net, max_states)
    got = answers(net, max_states)
    if isinstance(want, type):
        assert got is want
        if want is UnboundedError:
            assert not is_safe(net, max_states)
            with pytest.raises(UnboundedError):
                bound(net, max_states)
        return
    assert not isinstance(got, type), got
    for key in want:
        assert got[key] == want[key], key


LIBRARY = sorted(ALL_EXAMPLES.items()) + [
    ("muller_pipeline_%d" % n, lambda n=n: muller_pipeline(n))
    for n in (2, 4, 6)
] + [
    ("parallel_handshakes_%d" % n, lambda n=n: parallel_handshakes(n))
    for n in (2, 3)
] + [
    ("sequencer_%d" % n, lambda n=n: sequencer(n)) for n in (3, 5)
] + [
    ("pipeline_ring_4_2", lambda: pipeline_ring(4, tokens=2)),
]


class TestLibrary:
    @pytest.mark.parametrize("name,make", LIBRARY, ids=[n for n, _ in LIBRARY])
    def test_properties_match_the_oracle(self, name, make):
        assert_agree(make().net)

    @pytest.mark.parametrize("n", [2, 3])
    def test_dining_philosophers_match_the_oracle(self, n):
        assert_agree(dining_philosophers(n))

    @pytest.mark.parametrize("name,make", LIBRARY[:4],
                             ids=[n for n, _ in LIBRARY[:4]])
    def test_state_budget_matches_the_oracle(self, name, make):
        assert_agree(make().net, max_states=3)

    def test_budget_without_unboundedness_detection(self):
        net = unbounded()
        with pytest.raises(StateExplosionError):
            reference_explore(net, 50, detect_unbounded=False)
        with pytest.raises(StateExplosionError):
            explore(net, 50, detect_unbounded=False)


def unbounded():
    net = PetriNet("unbounded")
    net.add_place("p", tokens=1)
    net.add_place("sink")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "p")
    net.add_arc("t", "sink")
    return net


@st.composite
def random_nets(draw):
    """Small nets with weights 1-2 and up to two tokens per place:
    safe, k-bounded, unbounded, deadlocking and non-live ones alike."""
    places = ["p%d" % i for i in range(draw(st.integers(1, 4)))]
    transitions = ["t%d" % i for i in range(draw(st.integers(1, 4)))]
    net = PetriNet("random")
    for p in places:
        net.add_place(p, tokens=draw(st.integers(0, 2)))
    for t in transitions:
        net.add_transition(t)
        for p in places:
            pre = draw(st.sampled_from([0, 0, 1, 1, 2]))
            post = draw(st.sampled_from([0, 0, 1, 1, 2]))
            if pre:
                net.add_arc(p, t, pre)
            if post:
                net.add_arc(t, p, post)
    return net


def _ordinary(net):
    """``net`` with every arc weight clipped to 1 (safe initial marking)."""
    copy = PetriNet(net.name)
    for p, place in sorted(net.places.items()):
        copy.add_place(p, tokens=min(place.tokens, 1))
    for t in sorted(net.transitions):
        copy.add_transition(t)
        for p in net.pre(t):
            copy.add_arc(p, t)
        for p in net.post(t):
            copy.add_arc(t, p)
    return copy


class TestRandomNets:
    @given(random_nets())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @example(unbounded())
    def test_weighted_nets_match_the_oracle(self, net):
        assert_agree(net)

    @given(random_nets())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_ordinary_safely_marked_nets_match_the_oracle(self, net):
        # the compiled engine's domain, including its 1-safety fallback
        assert_agree(_ordinary(net))
