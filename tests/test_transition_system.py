"""Generic transition-system operations and equivalences."""

import pytest

from repro.errors import ModelError
from repro.ts import TransitionSystem


def cycle_ts(n=3, event="e"):
    ts = TransitionSystem(0)
    for i in range(n):
        ts.add_arc(i, "%s%d" % (event, i), (i + 1) % n)
    return ts


class TestBasics:
    def test_states_and_arcs(self):
        ts = cycle_ts()
        assert len(ts) == 3
        assert ts.arc_count() == 3
        assert ts.events == {"e0", "e1", "e2"}

    def test_successors_predecessors(self):
        ts = cycle_ts()
        assert ts.successors(0) == [("e0", 1)]
        assert ts.predecessors(0) == [("e2", 2)]

    def test_enabled(self):
        ts = TransitionSystem("s")
        ts.add_arc("s", "a", "t")
        ts.add_arc("s", "b", "u")
        assert ts.enabled("s") == ["a", "b"]

    def test_fire_deterministic(self):
        ts = cycle_ts()
        assert ts.fire(0, "e0") == 1
        with pytest.raises(ModelError):
            ts.fire(0, "e1")

    def test_fire_nondeterministic_raises(self):
        ts = TransitionSystem(0)
        ts.add_arc(0, "a", 1)
        ts.add_arc(0, "a", 2)
        assert not ts.is_deterministic()
        with pytest.raises(ModelError):
            ts.fire(0, "a")

    def test_states_with_event(self):
        ts = cycle_ts()
        assert ts.states_with_event("e1") == [1]


class TestIndexedCore:
    def test_views_follow_later_arcs(self):
        ts = cycle_ts()
        assert ts.states == [0, 1, 2]
        assert ts.enabled_masks() == [1, 2, 4]
        ts.add_arc(2, "x", 3)
        assert ts.states == [0, 1, 2, 3]
        assert ts.successors(2) == [("e2", 0), ("x", 3)]
        assert ts.predecessors(3) == [("x", 2)]
        assert ts.events == {"e0", "e1", "e2", "x"}
        assert ts.enabled_masks()[2] == 0b1100

    def test_compiled_graph_can_be_extended(self):
        """A graph whose states are decoded on demand turns into an
        ordinary one on the first edit."""
        from repro.stg import vme_read
        from repro.ts import build_reachability_graph

        ts = build_reachability_graph(vme_read(), engine="compiled")
        reference = build_reachability_graph(vme_read(), engine="naive")
        ts.add_arc(ts.initial, "extra", "elsewhere")
        reference.add_arc(reference.initial, "extra", "elsewhere")
        assert ts.states == reference.states
        assert list(ts.arcs()) == list(reference.arcs())
        for state in ts.states:
            assert ts.predecessors(state) == reference.predecessors(state)
        assert ts.events == reference.events
        assert ts.bottom_sccs() == reference.bottom_sccs()


class TestTransformations:
    def test_relabel(self):
        ts = cycle_ts()
        upper = ts.relabel(str.upper)
        assert upper.events == {"E0", "E1", "E2"}
        assert len(upper) == len(ts)

    def test_restriction_requires_initial(self):
        ts = cycle_ts()
        with pytest.raises(ModelError):
            ts.restricted_to({1, 2})

    def test_reachable_part_drops_orphans(self):
        ts = cycle_ts()
        ts.add_state("orphan")
        assert len(ts.reachable_part()) == 3


class TestEquivalences:
    def test_bisimilar_to_itself(self):
        ts = cycle_ts()
        assert ts.bisimilar(cycle_ts())

    def test_unfolded_cycle_is_bisimilar(self):
        """A 6-cycle with repeating labels is bisimilar to the 3-cycle."""
        small = cycle_ts(3)
        big = TransitionSystem(0)
        for i in range(6):
            big.add_arc(i, "e%d" % (i % 3), (i + 1) % 6)
        assert small.bisimilar(big)

    def test_different_labels_not_bisimilar(self):
        a = cycle_ts(3, "e")
        b = cycle_ts(3, "f")
        assert not a.bisimilar(b)

    def test_choice_vs_sequence_not_bisimilar(self):
        choice = TransitionSystem("s")
        choice.add_arc("s", "a", "x")
        choice.add_arc("s", "b", "y")
        seq = TransitionSystem("s")
        seq.add_arc("s", "a", "x")
        seq.add_arc("x", "b", "y")
        assert not choice.bisimilar(seq)

    def test_trace_equivalence(self):
        assert cycle_ts().trace_equivalent(cycle_ts())
        a = cycle_ts(3, "e")
        b = cycle_ts(3, "f")
        assert not a.trace_equivalent(b)

    def test_trace_equivalence_needs_determinism(self):
        ts = TransitionSystem(0)
        ts.add_arc(0, "a", 1)
        ts.add_arc(0, "a", 2)
        with pytest.raises(ModelError):
            ts.trace_equivalent(cycle_ts())
