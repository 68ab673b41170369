"""Unit tests for the Petri-net kernel structure."""

import pytest

from repro.errors import ModelError
from repro.petri import Marking, PetriNet, compile_net
from repro.stg import vme_read


def simple_net():
    net = PetriNet("simple")
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    return net


class TestConstruction:
    def test_add_nodes(self):
        net = simple_net()
        assert set(net.places) == {"p", "q"}
        assert set(net.transitions) == {"t"}

    def test_duplicate_place_rejected(self):
        net = simple_net()
        with pytest.raises(ModelError):
            net.add_place("p")

    def test_duplicate_across_kinds_rejected(self):
        net = simple_net()
        with pytest.raises(ModelError):
            net.add_transition("p")

    def test_negative_tokens_rejected(self):
        net = PetriNet()
        with pytest.raises(ModelError):
            net.add_place("p", tokens=-1)

    def test_arc_must_be_bipartite(self):
        net = simple_net()
        with pytest.raises(ModelError):
            net.add_arc("p", "q")
        with pytest.raises(ModelError):
            net.add_arc("t", "t")

    def test_arc_weight_accumulates(self):
        net = simple_net()
        net.add_arc("p", "t")
        assert net.pre("t")["p"] == 2

    def test_zero_weight_rejected(self):
        net = simple_net()
        with pytest.raises(ModelError):
            net.add_arc("p", "t", weight=0)

    def test_transition_label_defaults_to_name(self):
        net = simple_net()
        assert net.label_of("t") == "t"

    def test_contains(self):
        net = simple_net()
        assert "p" in net and "t" in net and "x" not in net


class TestQueries:
    def test_preset_postset(self):
        net = simple_net()
        assert net.preset("t") == {"p": 1}
        assert net.postset("t") == {"q": 1}
        assert net.preset("q") == {"t": 1}
        assert net.postset("p") == {"t": 1}

    def test_preset_unknown_node(self):
        net = simple_net()
        with pytest.raises(ModelError):
            net.preset("nope")

    def test_arcs_iteration(self):
        net = simple_net()
        assert sorted(net.arcs()) == [("p", "t", 1), ("t", "q", 1)]

    def test_initial_marking(self):
        net = simple_net()
        assert net.initial_marking == Marking({"p": 1})

    def test_set_initial_marking_from_iterable(self):
        net = simple_net()
        net.set_initial_marking(["q"])
        assert net.initial_marking == Marking({"q": 1})
        assert net.places["p"].tokens == 0

    def test_set_initial_marking_unknown_place(self):
        net = simple_net()
        with pytest.raises(ModelError):
            net.set_initial_marking(["zzz"])

    def test_stats(self):
        assert simple_net().stats() == {
            "places": 2, "transitions": 1, "arcs": 2}


class TestEditing:
    def test_remove_place_cleans_arcs(self):
        net = simple_net()
        net.remove_place("p")
        assert net.pre("t") == {}
        assert "p" not in net.places

    def test_remove_transition_cleans_arcs(self):
        net = simple_net()
        net.remove_transition("t")
        assert net.postset("p") == {}
        assert net.preset("q") == {}

    def test_remove_unknown_raises(self):
        net = simple_net()
        with pytest.raises(ModelError):
            net.remove_place("zzz")
        with pytest.raises(ModelError):
            net.remove_transition("zzz")

    def test_remove_arc_both_directions(self):
        net = simple_net()
        net.remove_arc("p", "t")
        net.remove_arc("t", "q")
        assert net.pre("t") == {} and net.post("t") == {}
        assert net.postset("p") == {} and net.preset("q") == {}

    def test_remove_missing_arc_raises(self):
        net = simple_net()
        with pytest.raises(ModelError):
            net.remove_arc("q", "t")
        with pytest.raises(ModelError):
            net.remove_arc("p", "q")

    def test_remove_arc_invalidates_cached_views(self):
        """Snapshots and the compiled engine taken before a removal must
        not keep showing the removed arc."""
        net = vme_read().net
        place = sorted(net.preset("LDS+"))[0]
        assert "LDS+" in net.postset(place)
        before = compile_net(net)
        net.remove_arc(place, "LDS+")
        assert "LDS+" not in net.postset(place)
        assert place not in net.preset("LDS+")
        after = compile_net(net)
        assert after is not before
        pre = after.pre_masks[after.transition_bit["LDS+"]]
        assert not pre & 1 << after.place_bit[place]

    def test_insert_signal_moves_arcs_consistently(self):
        stg = vme_read().insert_signal("csc0", ["LDS+"], ["D-"])
        net = stg.net
        for t in net.transitions:
            for p in net.pre(t):
                assert t in net.postset(p)
            for p in net.post(t):
                assert t in net.preset(p)
        for p in net.places:
            for t in net.postset(p):
                assert p in net.pre(t)

    def test_ordinary_arcs_answer_follows_edits(self):
        net = simple_net()
        assert net.has_ordinary_arcs()
        net.add_arc("p", "t")  # weights accumulate: p -> t now weighs 2
        assert not net.has_ordinary_arcs()
        net.remove_arc("p", "t")
        assert net.has_ordinary_arcs()

    def test_copy_is_deep(self):
        net = simple_net()
        other = net.copy()
        other.add_place("r")
        other.remove_transition("t")
        assert "r" not in net.places
        assert "t" in net.transitions
        assert other.initial_marking == net.initial_marking

    def test_induced_subnet(self):
        net = simple_net()
        sub = net.induced_subnet(["p"], ["t"])
        assert set(sub.places) == {"p"}
        assert sub.pre("t") == {"p": 1}
        assert sub.post("t") == {}
