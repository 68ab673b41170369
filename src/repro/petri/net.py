"""Core Petri-net data structure.

A Petri net is a bipartite graph of *places* and *transitions* connected by
weighted arcs.  Places hold tokens; a distribution of tokens over places is a
*marking* (see :mod:`repro.petri.marking`).  This module provides the static
structure only; the token game (enabling/firing semantics) lives in
:mod:`repro.petri.token_game`.

The net intentionally identifies nodes by string name.  Transition objects
carry an optional ``label`` so that higher layers (Signal Transition Graphs)
can attach interpretation without subclassing the kernel.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from ..errors import ModelError
from .marking import Marking


class Place:
    """A place of a Petri net.

    Attributes:
        name: unique identifier within the net.
        tokens: number of tokens in the *initial* marking.
    """

    __slots__ = ("name", "tokens")

    def __init__(self, name: str, tokens: int = 0):
        if tokens < 0:
            raise ModelError("place %r: negative token count %d" % (name, tokens))
        self.name = name
        self.tokens = tokens

    def __repr__(self):
        return "Place(%r, tokens=%d)" % (self.name, self.tokens)


class Transition:
    """A transition of a Petri net.

    Attributes:
        name: unique identifier within the net.
        label: arbitrary interpretation attached by higher layers.  For
            Signal Transition Graphs this is a
            :class:`repro.stg.signals.SignalEvent`.  Defaults to the name.
    """

    __slots__ = ("name", "label")

    def __init__(self, name: str, label=None):
        self.name = name
        self.label = label if label is not None else name

    def __repr__(self):
        return "Transition(%r, label=%r)" % (self.name, self.label)


class PetriNet:
    """A weighted place/transition net with an initial marking.

    Nodes are addressed by name.  Arc weights default to 1; all algorithms in
    this library that require ordinary (weight-1) nets check and raise
    :class:`~repro.errors.ModelError` where appropriate.
    """

    def __init__(self, name: str = "net"):
        self.name = name
        self.places: Dict[str, Place] = {}
        self.transitions: Dict[str, Transition] = {}
        # arc maps: transition name -> {place name: weight}
        self._pre: Dict[str, Dict[str, int]] = {}
        self._post: Dict[str, Dict[str, int]] = {}
        # reverse maps: place name -> {transition name: weight}
        self._place_out: Dict[str, Dict[str, int]] = {}
        self._place_in: Dict[str, Dict[str, int]] = {}
        # memoized read-only preset/postset snapshots; dropped (not
        # mutated) whenever an arc or node changes, so a snapshot handed
        # out earlier stays stable for its holder.
        self._preset_cache: Dict[str, Mapping[str, int]] = {}
        self._postset_cache: Dict[str, Mapping[str, int]] = {}
        # bumped on every structural change; consumers that preprocess the
        # net (e.g. the compiled bitvector engine) key their caches on it.
        self._structure_version = 0
        # (structure version, answer) of the last has_ordinary_arcs scan
        self._ordinary = (-1, True)

    def _invalidate_adjacency(self) -> None:
        self._structure_version += 1
        if self._preset_cache:
            self._preset_cache = {}
        if self._postset_cache:
            self._postset_cache = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_place(self, name: str, tokens: int = 0) -> Place:
        """Add a place; raises :class:`ModelError` on duplicate names."""
        if name in self.places or name in self.transitions:
            raise ModelError("duplicate node name %r" % name)
        self._structure_version += 1
        place = Place(name, tokens)
        self.places[name] = place
        self._place_out[name] = {}
        self._place_in[name] = {}
        return place

    def add_transition(self, name: str, label=None) -> Transition:
        """Add a transition; raises :class:`ModelError` on duplicate names."""
        if name in self.places or name in self.transitions:
            raise ModelError("duplicate node name %r" % name)
        self._structure_version += 1
        transition = Transition(name, label)
        self.transitions[name] = transition
        self._pre[name] = {}
        self._post[name] = {}
        return transition

    def add_arc(self, source: str, target: str, weight: int = 1) -> None:
        """Add an arc place->transition or transition->place.

        Adding an arc twice accumulates the weight.
        """
        if weight <= 0:
            raise ModelError("arc weight must be positive, got %d" % weight)
        self._invalidate_adjacency()
        if source in self.places and target in self.transitions:
            self._pre[target][source] = self._pre[target].get(source, 0) + weight
            self._place_out[source][target] = self._pre[target][source]
        elif source in self.transitions and target in self.places:
            self._post[source][target] = self._post[source].get(target, 0) + weight
            self._place_in[target][source] = self._post[source][target]
        else:
            raise ModelError(
                "arc %r -> %r does not connect a place and a transition"
                % (source, target)
            )

    def remove_arc(self, source: str, target: str) -> None:
        """Remove the arc place->transition or transition->place (whatever
        its weight); raises :class:`ModelError` if there is none."""
        if source in self.places and target in self.transitions:
            arcs, place, reverse = self._pre[target], source, self._place_out
        elif source in self.transitions and target in self.places:
            arcs, place, reverse = self._post[source], target, self._place_in
        else:
            arcs, place, reverse = {}, None, None
        if place not in arcs:
            raise ModelError("no arc %r -> %r" % (source, target))
        self._invalidate_adjacency()
        del arcs[place]
        del reverse[place][target if place == source else source]

    def remove_place(self, name: str) -> None:
        """Remove a place and all arcs incident to it."""
        if name not in self.places:
            raise ModelError("unknown place %r" % name)
        self._invalidate_adjacency()
        for t in list(self._place_out[name]):
            del self._pre[t][name]
        for t in list(self._place_in[name]):
            del self._post[t][name]
        del self._place_out[name]
        del self._place_in[name]
        del self.places[name]

    def remove_transition(self, name: str) -> None:
        """Remove a transition and all arcs incident to it."""
        if name not in self.transitions:
            raise ModelError("unknown transition %r" % name)
        self._invalidate_adjacency()
        for p in list(self._pre[name]):
            del self._place_out[p][name]
        for p in list(self._post[name]):
            del self._place_in[p][name]
        del self._pre[name]
        del self._post[name]
        del self.transitions[name]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def preset(self, node: str) -> Mapping[str, int]:
        """Input nodes of ``node`` with arc weights (a read-only snapshot).

        Snapshots are memoized per node and invalidated on any structural
        change (``add_arc`` / ``remove_arc`` / ``remove_place`` /
        ``remove_transition``), so
        repeated queries in analysis loops cost a dict lookup.
        """
        cached = self._preset_cache.get(node)
        if cached is None:
            if node in self.transitions:
                cached = MappingProxyType(dict(self._pre[node]))
            elif node in self.places:
                cached = MappingProxyType(dict(self._place_in[node]))
            else:
                raise ModelError("unknown node %r" % node)
            self._preset_cache[node] = cached
        return cached

    def postset(self, node: str) -> Mapping[str, int]:
        """Output nodes of ``node`` with arc weights (a read-only snapshot).

        Memoized like :meth:`preset`.
        """
        cached = self._postset_cache.get(node)
        if cached is None:
            if node in self.transitions:
                cached = MappingProxyType(dict(self._post[node]))
            elif node in self.places:
                cached = MappingProxyType(dict(self._place_out[node]))
            else:
                raise ModelError("unknown node %r" % node)
            self._postset_cache[node] = cached
        return cached

    def pre(self, transition: str) -> Dict[str, int]:
        """Input places of a transition (internal view, do not mutate)."""
        return self._pre[transition]

    def post(self, transition: str) -> Dict[str, int]:
        """Output places of a transition (internal view, do not mutate)."""
        return self._post[transition]

    def arcs(self) -> Iterator[Tuple[str, str, int]]:
        """Iterate over all arcs as ``(source, target, weight)``."""
        for t, pres in self._pre.items():
            for p, w in pres.items():
                yield (p, t, w)
        for t, posts in self._post.items():
            for p, w in posts.items():
                yield (t, p, w)

    @property
    def initial_marking(self) -> Marking:
        """The initial marking as declared on the places."""
        return Marking(
            {name: p.tokens for name, p in self.places.items() if p.tokens}
        )

    def set_initial_marking(self, marking) -> None:
        """Replace the initial marking.

        ``marking`` may be a :class:`Marking`, a mapping place->tokens, or an
        iterable of place names (each receiving one token).
        """
        if isinstance(marking, Marking):
            tokens = dict(marking.items())
        elif isinstance(marking, dict):
            tokens = dict(marking)
        else:
            tokens = {}
            for name in marking:
                tokens[name] = tokens.get(name, 0) + 1
        for name in tokens:
            if name not in self.places:
                raise ModelError("unknown place %r in marking" % name)
        for name, place in self.places.items():
            place.tokens = tokens.get(name, 0)

    def has_ordinary_arcs(self) -> bool:
        """True if every arc has weight 1 (memoized per structure
        version)."""
        version, ordinary = self._ordinary
        if version != self._structure_version:
            ordinary = all(w == 1 for _, _, w in self.arcs())
            self._ordinary = (self._structure_version, ordinary)
        return ordinary

    def label_of(self, transition: str):
        """Label attached to a transition."""
        return self.transitions[transition].label

    # ------------------------------------------------------------------ #
    # copying
    # ------------------------------------------------------------------ #

    def copy(self, name: Optional[str] = None) -> "PetriNet":
        """Deep copy of the net structure (labels are shared)."""
        other = PetriNet(name if name is not None else self.name)
        for p in self.places.values():
            other.add_place(p.name, p.tokens)
        for t in self.transitions.values():
            other.add_transition(t.name, t.label)
        for tname, pres in self._pre.items():
            for pname, w in pres.items():
                other.add_arc(pname, tname, w)
        for tname, posts in self._post.items():
            for pname, w in posts.items():
                other.add_arc(tname, pname, w)
        return other

    def induced_subnet(self, places: Iterable[str], transitions: Iterable[str],
                       name: Optional[str] = None) -> "PetriNet":
        """Subnet induced by the given node subsets (arcs between them)."""
        keep_p = set(places)
        keep_t = set(transitions)
        sub = PetriNet(name if name is not None else self.name + "_sub")
        for p in keep_p:
            sub.add_place(p, self.places[p].tokens)
        for t in keep_t:
            sub.add_transition(t, self.transitions[t].label)
        for tname in keep_t:
            for pname, w in self._pre[tname].items():
                if pname in keep_p:
                    sub.add_arc(pname, tname, w)
            for pname, w in self._post[tname].items():
                if pname in keep_p:
                    sub.add_arc(tname, pname, w)
        return sub

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def __contains__(self, node: str) -> bool:
        return node in self.places or node in self.transitions

    def __repr__(self):
        return "PetriNet(%r, |P|=%d, |T|=%d, |F|=%d)" % (
            self.name,
            len(self.places),
            len(self.transitions),
            sum(1 for _ in self.arcs()),
        )

    def stats(self) -> Dict[str, int]:
        """Structural size statistics: places, transitions, arcs."""
        return {
            "places": len(self.places),
            "transitions": len(self.transitions),
            "arcs": sum(1 for _ in self.arcs()),
        }
