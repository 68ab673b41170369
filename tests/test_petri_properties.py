"""Behavioural property checks (boundedness, liveness, deadlocks, ...)."""

import pytest

from repro.errors import StateExplosionError, UnboundedError
from repro.petri import (
    Marking,
    PetriNet,
    bound,
    explore,
    find_deadlocks,
    home_markings,
    is_bounded,
    is_deadlock_free,
    is_live,
    is_reversible,
    is_safe,
    reachability_graph,
    reachable_markings,
    unsafe_witness,
)
from repro.stg import vme_read, vme_read_write
from repro.ts import build_reachability_graph


def unbounded_net():
    net = PetriNet("unbounded")
    net.add_place("p", tokens=1)
    net.add_place("sink")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "p")
    net.add_arc("t", "sink")  # grows sink forever
    return net


def two_bounded_net():
    net = PetriNet("2bounded")
    net.add_place("p", tokens=2)
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    return net


def deadlocking_net():
    net = PetriNet("dead")
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    return net


class TestBoundedness:
    def test_vme_read_is_safe(self):
        assert is_safe(vme_read().net)
        assert bound(vme_read().net) == 1

    def test_unbounded_detected(self):
        assert not is_bounded(unbounded_net())
        assert not is_safe(unbounded_net())

    def test_unbounded_raises_from_explore(self):
        with pytest.raises(UnboundedError):
            explore(unbounded_net())

    def test_two_bounded(self):
        net = two_bounded_net()
        assert is_bounded(net)
        assert bound(net) == 2
        assert not is_safe(net)
        assert unsafe_witness(net) is not None

    def test_state_bound_enforced(self):
        with pytest.raises(StateExplosionError):
            explore(vme_read().net, max_states=3, detect_unbounded=False)

    def test_reachable_markings_count(self):
        assert len(reachable_markings(vme_read().net)) == 14
        assert len(reachable_markings(vme_read_write().net)) == 24


class TestDeadlockLiveness:
    def test_vme_nets_deadlock_free_and_live(self):
        for stg in (vme_read(), vme_read_write()):
            assert is_deadlock_free(stg.net)
            assert is_live(stg.net)

    def test_deadlock_found(self):
        net = deadlocking_net()
        deadlocks = find_deadlocks(net)
        assert deadlocks == [Marking({"q": 1})]
        assert not is_deadlock_free(net)
        assert not is_live(net)

    def test_home_markings_of_cyclic_net(self):
        net = vme_read().net
        homes = home_markings(net)
        # the READ cycle is strongly connected: all 14 states are home
        assert len(homes) == 14
        assert is_reversible(net)

    def test_home_markings_empty_when_two_bottoms(self):
        net = PetriNet("choice-dead")
        net.add_place("p", tokens=1)
        net.add_place("a")
        net.add_place("b")
        net.add_transition("ta")
        net.add_transition("tb")
        net.add_arc("p", "ta")
        net.add_arc("ta", "a")
        net.add_arc("p", "tb")
        net.add_arc("tb", "b")
        assert home_markings(net) == set()
        assert not is_reversible(net)


def never_firing_net():
    """A one-transition cycle plus a transition whose input place is
    never marked."""
    net = PetriNet("never")
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("loop")
    net.add_transition("never")
    net.add_arc("p", "loop")
    net.add_arc("loop", "p")
    net.add_arc("q", "never")
    net.add_arc("never", "p")
    return net


class TestPrebuiltGraph:
    def test_transition_that_never_fires_is_not_live(self):
        net = never_firing_net()
        graph = build_reachability_graph(net)
        assert "never" not in graph.events
        assert not is_live(net, graph=graph)
        assert not is_live(net)

    def test_graph_answers_match_exploration(self):
        for net in (vme_read().net, vme_read_write().net, deadlocking_net(),
                    never_firing_net()):
            graph = reachability_graph(net)
            assert is_live(net, graph=graph) == is_live(net)
            assert home_markings(net, graph=graph) == home_markings(net)

    def test_passed_graph_is_not_re_explored(self):
        # a budget of one state would fail any exploration
        net = vme_read().net
        graph = build_reachability_graph(net)
        assert is_live(net, max_states=1, graph=graph)
        assert len(home_markings(net, max_states=1, graph=graph)) == 14

    def test_weighted_bounded_net_uses_the_k_bounded_build(self):
        net = PetriNet("weighted")
        net.add_place("p", tokens=2)
        net.add_place("q")
        net.add_transition("t")
        net.add_transition("u")
        net.add_arc("p", "t", 2)
        net.add_arc("t", "q")
        net.add_arc("q", "u")
        net.add_arc("u", "p", 2)
        assert len(reachability_graph(net)) == 2
        assert bound(net) == 2
        assert is_live(net)

    def test_unbounded_error_names_the_growing_places(self):
        with pytest.raises(UnboundedError, match="sink"):
            reachability_graph(unbounded_net())
